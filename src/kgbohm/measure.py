"""Measure estimation for the ill-defined region of the selection rule.

Two questions are quantified here. For a fixed wave function: what fraction
of a space-time box carries each selection verdict (in particular, the
both-spacelike verdict where the rule breaks)? And independently of any
wave function: what fraction of the 8-dimensional space of raw (p, s)
pairs does each verdict occupy? The both-spacelike set is open, so a
positive sampled fraction is a direct witness that it has positive measure.

Sampling is uniform over the box for space-time and iid standard normal
for pair space. Every verdict is homogeneous of degree zero in (p, s), so
a scale of the normal draw would select nothing; it is fixed at one.
Proportions carry 95% Wilson intervals, which stay honest for fractions
near zero. Samples are drawn in fixed-size chunks, each chunk
seeded from (seed, chunk index), so a tally depends only on (seed, n).
Near-node and degenerate samples land in their own buckets rather than
being discarded, keeping totals conserved and biases visible.

Verdicts come from the batch kernel (Superposition.polar_gradients_batch
and construction.classify_batch), a chunk or a whole lattice at a time.
The kernel decides every row, and raises where the scalar path
(analyze_point at an event, _candidates on a raw pair) would raise.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from .construction import Selection, classify_batch
from .minkowski import DEFAULT_TOLERANCES, FourVector, Tolerances
from .wavefield import Superposition

__all__ = [
    "TALLY_KEYS",
    "WILSON_Z95",
    "Region",
    "FractionEstimate",
    "ScanResult",
    "wilson_interval",
    "estimate_spacetime_fraction",
    "sample_pair_space",
    "grid_scan",
    "write_scan_csv",
]

# Verdict buckets, one per selection outcome; verdict code i is bucket i.
TALLY_KEYS = tuple(s.value for s in Selection)
_NODE = TALLY_KEYS.index(Selection.NODE.value)

WILSON_Z95 = 1.959963984540054

# Samples per RNG stream. Chunk i draws from default_rng([seed, i]), so
# every tally depends on this value.
_CHUNK = 4096


@dataclass(frozen=True)
class Region:
    """Axis-aligned 4-box of events, lo strictly below hi componentwise,
    each width hi - lo a finite float."""

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
            if not math.isfinite(b - a):
                raise ValueError(
                    f"region axis {i}: width hi - lo overflows (lo = {a!r}, hi = {b!r})"
                )

    def to_dict(self) -> dict:
        return {"lo": list(self.lo), "hi": list(self.hi)}


@dataclass(frozen=True)
class FractionEstimate:
    """Verdict tallies with point estimates and 95% Wilson intervals.

    Counts sum to n. region records the box of a space-time estimate; it is
    None for a pair-space estimate.
    """

    counts: dict[str, int]
    n: int
    seed: int
    fractions: dict[str, float]
    wilson_95: dict[str, tuple[float, float]]
    region: Region | None = None

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
        return out


@dataclass(eq=False)
class ScanResult:
    """Verdicts of a grid scan, one row per lattice point in row-major order.

    The lattice is the product of the four axes (x0 slowest). codes index
    TALLY_KEYS; theta, w_plus_sq and w_minus_sq are NaN on node and
    degenerate cells. Equality is identity: array fields have no single
    truth value to compare by.
    """

    axes: tuple[tuple[float, ...], ...]
    codes: np.ndarray
    theta: np.ndarray
    w_plus_sq: np.ndarray
    w_minus_sq: np.ndarray

    def counts(self) -> dict[str, int]:
        import numpy as np

        tally = np.bincount(self.codes, minlength=len(TALLY_KEYS))
        return dict(zip(TALLY_KEYS, tally.tolist()))


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


def _verdicts(
    w: Superposition, x: np.ndarray, tols: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Verdict codes, theta and candidate norms w.w at the events x (N, 4).

    Node rows carry NaN numerics, like p.s ~ 0 rows.
    """
    _, p, s, node = w.polar_gradients_batch(x, tols)
    p[node] = s[node] = 0.0  # NaN there; a zero pair is degenerate, then relabelled
    codes, th, wp_sq, wm_sq = classify_batch(p, s, tols)
    codes[node] = _NODE
    return codes, th, wp_sq, wm_sq


def _estimate(
    n: int,
    seed: int,
    codes_of: Callable[[np.random.Generator, int], np.ndarray],
    region: Region | None = None,
) -> FractionEstimate:
    """Tally codes_of(rng, count) over fixed-size chunks of n samples, chunk
    i drawing from default_rng([seed, i]), into fractions and intervals."""
    import numpy as np

    if n < 1:
        raise ValueError("n must be >= 1")
    tally = np.zeros(len(TALLY_KEYS), dtype=np.int64)
    for idx, start in enumerate(range(0, n, _CHUNK)):
        codes = codes_of(np.random.default_rng([seed, idx]), min(_CHUNK, n - start))
        tally += np.bincount(codes, minlength=len(TALLY_KEYS))
    counts = dict(zip(TALLY_KEYS, tally.tolist()))
    fractions = {k: counts[k] / n for k in TALLY_KEYS}
    wilson = {k: wilson_interval(counts[k], n) for k in TALLY_KEYS}
    return FractionEstimate(counts, n, seed, fractions, wilson, region)


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
    import numpy as np

    lo = np.asarray(region.lo, dtype=float)
    span = np.asarray(region.hi, dtype=float) - lo

    def codes_of(rng: np.random.Generator, count: int) -> np.ndarray:
        return _verdicts(w, lo + rng.random((count, 4)) * span, tols)[0]

    return _estimate(n, seed, codes_of, region)


def sample_pair_space(
    n: int,
    seed: int,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> FractionEstimate:
    """Verdict fractions over n raw (p, s) pairs with iid standard normal
    components.

    The 8 components of each pair are drawn independently from N(0, 1). The
    classification is homogeneous of degree zero, so any other scale would
    give the same fractions. The node bucket stays zero here (there is no
    wave function to vanish).
    """

    def codes_of(rng: np.random.Generator, count: int) -> np.ndarray:
        pairs = rng.standard_normal((count, 8))
        return classify_batch(pairs[:, :4], pairs[:, 4:], tols)[0]

    return _estimate(n, seed, codes_of)


def _axis_coords(lo: float, hi: float, res: int) -> tuple[float, ...]:
    # Half-open uniform lattice lo + i*(hi-lo)/res, i = 0..res-1. Doubling
    # the resolution keeps every existing lattice point, and an even
    # resolution over a symmetric box contains the exact center. Python
    # floats, so repr writes them as the CSV needs.
    lo, hi = float(lo), float(hi)
    step = (hi - lo) / res
    return tuple(lo + i * step for i in range(res))


def grid_scan(
    w: Superposition,
    region: Region,
    resolution: tuple[int, int, int, int],
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> ScanResult:
    """Evaluate the analysis on the regular lattice of the region.

    Gives one row per lattice point in row-major order (x0 slowest) with
    the verdict code, theta, and the two candidate quadratic forms; node
    and degenerate rows carry NaN numerics.
    """
    import numpy as np

    res = tuple(int(r) for r in resolution)
    if len(res) != 4 or any(r < 1 for r in res):
        raise ValueError(f"resolution must be 4 integers >= 1, got {resolution!r}")
    axes = tuple(
        _axis_coords(region.lo[i], region.hi[i], res[i]) for i in range(4)
    )
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    return ScanResult(axes, *_verdicts(w, x, tols))


def write_scan_csv(scan: ScanResult, path: str | Path) -> None:
    """Write the scan map as CSV.

    Header: x0,x1,x2,x3,selection,theta,w_plus_sq,w_minus_sq
    """
    # Each coordinate is written as repr of its axis value, formatted once
    # per axis value rather than once per cell.
    coords = itertools.product(*([f"{v!r}," for v in axis] for axis in scan.axes))
    rows = zip(
        coords,
        scan.codes.tolist(),
        scan.theta.tolist(),
        scan.w_plus_sq.tolist(),
        scan.w_minus_sq.tolist(),
    )
    with open(path, "w") as fh:
        fh.write("x0,x1,x2,x3,selection,theta,w_plus_sq,w_minus_sq\n")
        fh.writelines(
            f"{a}{b}{c}{d}{TALLY_KEYS[k]},{t!r},{wp!r},{wm!r}\n"
            for (a, b, c, d), k, t, wp, wm in rows
        )
