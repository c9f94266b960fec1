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

Verdicts come from the batch kernel (Superposition.polar_gradients_batch
and construction.classify_batch), a chunk or a whole lattice at a time;
the rows it leaves undecided go through analyze_point or classify_pair,
which decide or raise exactly as they do for a single event.
"""

from __future__ import annotations

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
    classify_batch,
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

# Verdict buckets, one per selection outcome; verdict code i is bucket i.
TALLY_KEYS = tuple(s.value for s in Selection)
_SELECTIONS = tuple(Selection)
_NODE = _SELECTIONS.index(Selection.NODE)

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


def _verdicts(
    w: Superposition, x: np.ndarray, tols: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Verdict codes, theta and candidate norms w.w at the events x (N, 4).

    Node rows carry NaN numerics, like p.s ~ 0 rows. Rows classify_batch
    leaves undecided go through analyze_point.
    """
    _, p, s, node = w.polar_gradients_batch(x, tols.node)
    codes, th, wp_sq, wm_sq = classify_batch(p, s, tols)
    codes[node] = _NODE
    for i in np.flatnonzero(codes < 0):
        a = analyze_point(w, FourVector(*x[i].tolist()), tols)
        codes[i] = _SELECTIONS.index(a.selection)
        if a.theta is not None:
            th[i] = a.theta
            wp_sq[i] = inner(a.w_plus, a.w_plus)
            wm_sq[i] = inner(a.w_minus, a.w_minus)
    return codes, th, wp_sq, wm_sq


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
    tally = np.zeros(len(TALLY_KEYS), dtype=np.int64)
    for rng, count in _chunk_rngs(n, seed):
        codes = _verdicts(w, lo + rng.random((count, 4)) * span, tols)[0]
        tally += np.bincount(codes, minlength=len(TALLY_KEYS))
    return _build_estimate(dict(zip(TALLY_KEYS, tally.tolist())), n, seed, region=region)


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
    tally = np.zeros(len(TALLY_KEYS), dtype=np.int64)
    for rng, count in _chunk_rngs(n, seed):
        pairs = rng.standard_normal((count, 8)) * sigma
        codes = classify_batch(pairs[:, :4], pairs[:, 4:], tols)[0]
        for i in np.flatnonzero(codes < 0):
            row = pairs[i].tolist()
            sel = classify_pair(FourVector(*row[:4]), FourVector(*row[4:]), tols)
            codes[i] = _SELECTIONS.index(sel)
        tally += np.bincount(codes, minlength=len(TALLY_KEYS))
    return _build_estimate(dict(zip(TALLY_KEYS, tally.tolist())), n, seed, sigma=sigma)


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
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    codes, th, wp_sq, wm_sq = _verdicts(w, x, tols)
    cells = [
        ScanCell(*xs, TALLY_KEYS[c], *numerics)
        for xs, c, *numerics in zip(
            x.tolist(), codes.tolist(), th.tolist(), wp_sq.tolist(), wm_sq.tolist()
        )
    ]
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
