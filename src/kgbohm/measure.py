"""Measure estimation for the ill-defined region of the selection rule.

Two questions are quantified here. For a fixed wave function: what fraction
of a space-time box carries each selection verdict (in particular, the
both-spacelike verdict where the rule breaks)? And independently of any
wave function: what fraction of the 8-dimensional space of raw (p, s)
pairs does each verdict occupy? The both-spacelike set is open, so a
positive sampled fraction is a direct witness that it has positive measure.

Sampling is uniform over the box for space-time and isotropic normal for
pair space. Proportions carry 95% Wilson intervals, which stay honest for
fractions near zero. Samples are drawn in fixed-size chunks, each chunk
seeded from (seed, chunk index), so a tally depends only on (seed, n).
Near-node and degenerate samples land in their own buckets rather than
being discarded, keeping totals conserved and biases visible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .construction import (
    DEFAULT_TOLERANCES,
    Selection,
    Tolerances,
    analyze_point,
    classify_pair,
)
from .minkowski import FourVector, inner
from .wavefield import Superposition

__all__ = [
    "TALLY_KEYS",
    "WILSON_Z95",
    "Region",
    "FractionEstimate",
    "ScanCell",
    "ScanResult",
    "wilson_interval",
    "estimate_spacetime_fraction",
    "sample_pair_space",
    "grid_scan",
    "write_scan_csv",
]

# Verdict buckets, one per selection outcome.
TALLY_KEYS = tuple(s.value for s in Selection)

WILSON_Z95 = 1.959963984540054

# Samples per RNG stream. Chunk i draws from default_rng([seed, i]), so
# every tally depends on this value.
_CHUNK = 4096


@dataclass(frozen=True)
class Region:
    """Axis-aligned 4-box of events, lo strictly below hi componentwise."""

    lo: FourVector
    hi: FourVector

    def __post_init__(self):
        if not (self.lo.is_finite() and self.hi.is_finite()):
            raise ValueError("region corners must be finite")
        for i, (a, b) in enumerate(zip(self.lo, self.hi)):
            if not a < b:
                raise ValueError(
                    f"region axis {i}: lo = {a!r} must be strictly below hi = {b!r}"
                )

    def to_dict(self) -> dict:
        return {"lo": list(self.lo), "hi": list(self.hi)}


@dataclass(frozen=True)
class FractionEstimate:
    """Verdict tallies with point estimates and 95% Wilson intervals.

    Counts sum to n; exactly one of region (space-time sampling) or sigma
    (pair-space sampling) is set, recording the reference measure used.
    """

    counts: dict[str, int]
    n: int
    seed: int
    fractions: dict[str, float]
    wilson_95: dict[str, tuple[float, float]]
    region: Region | None = None
    sigma: float | None = None

    def to_dict(self) -> dict:
        out = {
            "counts": dict(self.counts),
            "fractions": dict(self.fractions),
            "wilson_95": {k: list(v) for k, v in self.wilson_95.items()},
            "seed": self.seed,
            "n": self.n,
        }
        if self.region is not None:
            out["region"] = self.region.to_dict()
        if self.sigma is not None:
            out["sigma"] = self.sigma
        return out


class ScanCell(NamedTuple):
    """One lattice point of a grid scan.

    theta and the two quadratic forms w_plus.w_plus, w_minus.w_minus are
    NaN where the analysis is undefined (node or degenerate cells).
    """

    x0: float
    x1: float
    x2: float
    x3: float
    selection: str
    theta: float
    w_plus_sq: float
    w_minus_sq: float


@dataclass
class ScanResult:
    region: Region
    resolution: tuple[int, int, int, int]
    cells: list[ScanCell]

    def counts(self) -> dict[str, int]:
        out = {k: 0 for k in TALLY_KEYS}
        for cell in self.cells:
            out[cell.selection] += 1
        return out

    def fraction(self, key: str) -> float:
        if key not in TALLY_KEYS:
            raise KeyError(f"unknown verdict bucket {key!r}")
        return self.counts()[key] / len(self.cells)


def wilson_interval(k: int, n: int, z: float = WILSON_Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion k/n."""
    if not 0 <= k <= n or n < 1:
        raise ValueError(f"need 0 <= k <= n with n >= 1, got k={k}, n={n}")
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    # at the extremes the exact interval touches the boundary; keep it from
    # drifting off by an ulp of cancellation noise
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return (lo, hi)


def _chunk_rngs(n: int, seed: int) -> Iterator[tuple[np.random.Generator, int]]:
    """(rng, sample count) per fixed-size chunk, seeded from (seed, index)."""
    for idx, start in enumerate(range(0, n, _CHUNK)):
        yield np.random.default_rng([seed, idx]), min(_CHUNK, n - start)


def _build_estimate(
    counts: dict[str, int],
    n: int,
    seed: int,
    region: Region | None = None,
    sigma: float | None = None,
) -> FractionEstimate:
    fractions = {k: counts[k] / n for k in TALLY_KEYS}
    wilson = {k: wilson_interval(counts[k], n) for k in TALLY_KEYS}
    return FractionEstimate(
        counts=dict(counts),
        n=n,
        seed=seed,
        fractions=fractions,
        wilson_95=wilson,
        region=region,
        sigma=sigma,
    )


def estimate_spacetime_fraction(
    w: Superposition,
    region: Region,
    n: int,
    seed: int,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> FractionEstimate:
    """Monte Carlo verdict fractions over n uniform samples of the region.

    Degenerate outcomes (node, orthogonal degenerate) are tallied in their
    own buckets. Identical (seed, n) reproduce identical tallies.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lo = np.asarray(region.lo, dtype=float)
    span = np.asarray(region.hi, dtype=float) - lo
    counts = dict.fromkeys(TALLY_KEYS, 0)
    for rng, count in _chunk_rngs(n, seed):
        for row in (lo + rng.random((count, 4)) * span).tolist():
            counts[analyze_point(w, FourVector(*row), tols).selection.value] += 1
    return _build_estimate(counts, n, seed, region=region)


def sample_pair_space(
    n: int,
    seed: int,
    sigma: float = 1.0,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> FractionEstimate:
    """Verdict fractions over n raw (p, s) pairs with iid normal components.

    Each of the 8 components is drawn from a centered normal of scale
    sigma. The classification is homogeneous of degree zero, so estimates
    are sigma-invariant up to sampling noise; sigma is still recorded as
    the reference measure. The node bucket stays zero here (there is no
    wave function to vanish).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    counts = dict.fromkeys(TALLY_KEYS, 0)
    for rng, count in _chunk_rngs(n, seed):
        for row in (rng.standard_normal((count, 8)) * sigma).tolist():
            p = FourVector(row[0], row[1], row[2], row[3])
            s = FourVector(row[4], row[5], row[6], row[7])
            counts[classify_pair(p, s, tols).value] += 1
    return _build_estimate(counts, n, seed, sigma=sigma)


def _axis_coords(lo: float, hi: float, res: int) -> list[float]:
    # Half-open uniform lattice lo + i*(hi-lo)/res, i = 0..res-1. Doubling
    # the resolution keeps every existing lattice point, and an even
    # resolution over a symmetric box contains the exact center.
    step = (hi - lo) / res
    return [lo + i * step for i in range(res)]


def grid_scan(
    w: Superposition,
    region: Region,
    resolution: tuple[int, int, int, int],
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> ScanResult:
    """Evaluate the analysis on the regular lattice of the region.

    Emits one cell per lattice point in row-major order (x0 slowest) with
    the verdict, theta, and the two candidate quadratic forms; node and
    degenerate cells carry NaN numerics.
    """
    res = tuple(int(r) for r in resolution)
    if len(res) != 4 or any(r < 1 for r in res):
        raise ValueError(f"resolution must be 4 integers >= 1, got {resolution!r}")
    axes = [
        _axis_coords(region.lo[i], region.hi[i], res[i]) for i in range(4)
    ]
    nan = float("nan")
    cells: list[ScanCell] = []
    for x in itertools.product(*axes):
        a = analyze_point(w, FourVector(*x), tols)
        if a.theta is None:
            numerics = (nan, nan, nan)
        else:
            numerics = (a.theta, inner(a.w_plus, a.w_plus), inner(a.w_minus, a.w_minus))
        cells.append(ScanCell(*x, a.selection.value, *numerics))
    return ScanResult(region=region, resolution=res, cells=cells)


def write_scan_csv(scan: ScanResult, path: str | Path) -> None:
    """Write the scan map as CSV.

    Header: x0,x1,x2,x3,selection,theta,w_plus_sq,w_minus_sq
    """
    with open(path, "w") as fh:
        fh.write("x0,x1,x2,x3,selection,theta,w_plus_sq,w_minus_sq\n")
        for c in scan.cells:
            fh.write(
                f"{c.x0!r},{c.x1!r},{c.x2!r},{c.x3!r},{c.selection},"
                f"{c.theta!r},{c.w_plus_sq!r},{c.w_minus_sq!r}\n"
            )
