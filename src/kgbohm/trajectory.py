"""Integral curves of the selected timelike candidate field.

The tangent at an event is the timelike candidate covector with its index
raised, normalized to a unit future-pointing vector (u.u = 1, u0 > 0), so
the curve parameter is proper time and step control is decoupled from the
magnitude of the raw field. Integration is classic fixed-step RK4; when
any stage point falls in a region where the velocity is ill-defined (both
candidates spacelike, degenerate p.s, a null-boundary verdict, or the
nodal set) the whole step is rejected, the last accepted point is kept,
and the cause is recorded. No continuation rule is invented past such a
region and no interpolation to its boundary is attempted.

A stage evaluates only what the velocity needs: the polar split, theta,
the two candidates, their causal classes and the selection, through the
same scalar functions as analyze_point, so every verdict and covector is
analyze_point's bit for bit. A stage returns its verdict as a value, with
no tangent where the velocity is ill-defined, and integrate names the
termination from it. The Gram-criterion cross-check is not part of a
stage: it stays in analyze_point, behind classify and verify. A selected
covector whose square under- or overflows is normalized after an exact
power-of-two rescale, so scaling every mode covector by a power of two
scales the path by its inverse, bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .construction import Selection, _candidates
from .errors import FieldOverflowError, IllDefinedVelocityError
from .minkowski import (
    _HUGE,
    _TINY,
    DEFAULT_TOLERANCES,
    FourVector,
    Tolerances,
    _positive_finite,
    _rescaled,
    inner,
)
from .wavefield import Superposition

__all__ = [
    "Termination",
    "TrajectoryConfig",
    "TrajectoryPoint",
    "TrajectoryResult",
    "integrate",
    "write_trajectory_csv",
]


class Termination(Enum):
    MAX_STEPS = "max_steps"
    ENTERED_BOTH_SPACELIKE = "entered_both_spacelike"
    ENTERED_ORTHOGONAL_DEGENERATE = "entered_orthogonal_degenerate"
    ENTERED_BOUNDARY = "entered_boundary"
    HIT_NODE = "hit_node"
    OVERFLOW = "overflow"


# Why a path stops, by the verdict at the stage point that stopped it.
_TERMINATION = {
    Selection.BOTH_SPACELIKE: Termination.ENTERED_BOTH_SPACELIKE,
    Selection.ORTHOGONAL_DEGENERATE: Termination.ENTERED_ORTHOGONAL_DEGENERATE,
    Selection.BOUNDARY: Termination.ENTERED_BOUNDARY,
    Selection.NODE: Termination.HIT_NODE,
}


@dataclass(frozen=True)
class TrajectoryConfig:
    """Fixed proper-time step (units 1/m), step count cap, and tolerances.

    step * m <= 1 is recommended; larger steps only draw a warning at
    integration time since the mass lives on the superposition.
    """

    step: float
    max_steps: int
    tols: Tolerances = DEFAULT_TOLERANCES

    def __post_init__(self):
        if not _positive_finite(self.step):
            raise ValueError(f"step must be a positive finite number, got {self.step!r}")
        if isinstance(self.max_steps, bool) or not (
            isinstance(self.max_steps, int) and self.max_steps >= 1
        ):
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")


class TrajectoryPoint(NamedTuple):
    """One accepted point: proper time, event, unit tangent, raw selected
    covector, and the selection verdict there."""

    tau: float
    x: FourVector
    u: FourVector
    w: FourVector
    selection: Selection


@dataclass
class TrajectoryResult:
    points: list[TrajectoryPoint]
    termination: Termination
    # Stage point whose analysis triggered a non-MaxSteps termination;
    # re-analyzing it independently reproduces the verdict.
    failed_at: FourVector | None = None


def _stage(
    w: Superposition, x: FourVector, tols: Tolerances
) -> tuple[FourVector | None, FourVector | None, Selection]:
    """(unit tangent, selected covector, verdict) at x: one RK4 stage. The
    first two are None where the verdict leaves the velocity ill-defined."""
    pol = w.polar_gradients(x, tols)
    if pol.p_mu is None:
        return None, None, Selection.NODE
    _, wp, wm, _, _, sel = _candidates(pol.p_mu, pol.s_mu, tols)
    if sel is Selection.PLUS_TIMELIKE:
        w_sel = wp
    elif sel is Selection.MINUS_TIMELIKE:
        w_sel = wm
    else:
        return None, None, sel
    v, q = w_sel, inner(w_sel, w_sel)
    if not _TINY <= q <= _HUGE:  # the square under- or overflowed
        (v,) = _rescaled(w_sel)
        q = inner(v, v)
    # raise the index, normalize, and orient forward in time
    f = 1.0 / math.sqrt(q)
    if v[0] * f < 0.0:
        f = -f
    return FourVector(v[0] * f, -v[1] * f, -v[2] * f, -v[3] * f), w_sel, sel


def integrate(
    w: Superposition, x0: FourVector, cfg: TrajectoryConfig
) -> TrajectoryResult:
    """Integrate dx/dtau = u(x), the unit tangent, from x0 with fixed-step RK4.

    The result records every accepted point (x0 included) with its unit
    tangent, raw selected covector, verdict, and strictly increasing proper
    time. Stops after max_steps accepted steps, or at the first step where
    any RK4 stage point has an ill-defined velocity or an overflowing field
    (exp(theta), or a phase k.x that is not finite), recording the cause
    and the offending stage point. An x0 with an ill-defined velocity
    raises IllDefinedVelocityError instead of returning a result.

    Deterministic: identical inputs give bit-identical point sequences.
    """
    if cfg.step * w.mass > 1.0:
        warnings.warn(
            f"step * mass = {cfg.step * w.mass:.3g} > 1; accuracy may suffer",
            stacklevel=2,
        )
    tols = cfg.tols
    h = cfg.step
    u, w_sel, sel = _stage(w, x0, tols)
    if u is None:
        raise IllDefinedVelocityError(sel)
    points = [TrajectoryPoint(0.0, x0, u, w_sel, sel)]
    x = x0
    tau = 0.0
    termination = Termination.MAX_STEPS
    failed_at: FourVector | None = None
    for _ in range(cfg.max_steps):
        ks = [u]
        try:
            # the stage points x + k1 h/2, x + k2 h/2 and x + k3 h, then the
            # accepted point x + (k1 + 2 (k2 + k3) + k4) h/6
            for stage_h in (h / 2.0, h / 2.0, h, h / 6.0):
                v = ks[-1] if len(ks) < 4 else [
                    a + (b + c) * 2.0 + d for a, b, c, d in zip(*ks)
                ]
                stage_x = FourVector(*(a + b * stage_h for a, b in zip(x, v)))
                k, w_sel, sel = _stage(w, stage_x, tols)
                if k is None:
                    break
                ks.append(k)
        except (FieldOverflowError, ValueError):
            # ValueError: a stage point where some phase k.x is not finite
            # (math.cos of inf raises, a NaN phase gives theta NaN)
            termination, failed_at = Termination.OVERFLOW, stage_x
            break
        if k is None:
            termination, failed_at = _TERMINATION[sel], stage_x
            break
        x, u = stage_x, k
        tau += h
        points.append(TrajectoryPoint(tau, x, u, w_sel, sel))
    return TrajectoryResult(points=points, termination=termination, failed_at=failed_at)


def write_trajectory_csv(result: TrajectoryResult, path: str | Path) -> None:
    """Write points as CSV, one row per point, with a trailing comment line
    naming the termination cause.

    Header: tau,x0,x1,x2,x3,u0,u1,u2,u3,selection
    """
    with open(path, "w") as fh:
        fh.write("tau,x0,x1,x2,x3,u0,u1,u2,u3,selection\n")
        for pt in result.points:
            fh.write(
                f"{pt.tau!r},{pt.x.c0!r},{pt.x.c1!r},{pt.x.c2!r},{pt.x.c3!r},"
                f"{pt.u.c0!r},{pt.u.c1!r},{pt.u.c2!r},{pt.u.c3!r},"
                f"{pt.selection.value}\n"
            )
        fh.write(f"# termination: {result.termination.value}\n")
