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
the two candidates, their causal classes and the selection, in the one
float-level pass that analyze_point also takes
(Superposition.polar_gradients, then construction._candidates), so every
verdict and covector is analyze_point's bit for bit. It builds no object
but the unit tangent and the selected covector, as plain tuples; the
stage points and the RK4 update are formed on their components, and a
FourVector is built only for an accepted point. A stage returns its
verdict as a value, with no tangent where the velocity is ill-defined,
and integrate names the termination from it. The Gram-criterion
cross-check is not part of a stage: it stays in analyze_point, behind
classify and verify. A selected covector whose square under- or
overflows is normalized after an exact power-of-two rescale, so scaling
every mode covector by a power of two scales the path by its inverse,
bit for bit.
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
    _check_count,
    _positive_finite,
    _rescaled,
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
    None: Termination.OVERFLOW,  # a phase k.x, p, s or exp(theta) not finite
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
        _check_count(self.max_steps, "max_steps")


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


def _stage(w: Superposition, x, tols: Tolerances) -> tuple:
    """(unit tangent, selected covector, verdict) at the event x: one RK4
    stage, with the tangent and the covector as plain 4-tuples. The first
    two are None where the verdict leaves the velocity ill-defined."""
    _, p, s = w.polar_gradients(x, tols)
    if p is None:
        return None, None, Selection.NODE
    _, wp, wm, _, _, sel = _candidates(p, s, tols)
    if sel is Selection.PLUS_TIMELIKE:
        w_sel = wp
    elif sel is Selection.MINUS_TIMELIKE:
        w_sel = wm
    else:
        return None, None, sel
    v0, v1, v2, v3 = w_sel
    q = v0 * v0 - v1 * v1 - v2 * v2 - v3 * v3
    if not _TINY <= q <= _HUGE:  # the square under- or overflowed
        ((v0, v1, v2, v3),) = _rescaled(FourVector(*w_sel))
        q = v0 * v0 - v1 * v1 - v2 * v2 - v3 * v3
    # raise the index, normalize, and orient forward in time
    f = 1.0 / math.sqrt(q)
    if v0 * f < 0.0:
        f = -f
    return (v0 * f, -v1 * f, -v2 * f, -v3 * f), w_sel, sel


def _step(w: Superposition, x, u, h: float, tols: Tolerances) -> tuple:
    """One RK4 step of size h from the event x, where the unit tangent is u.

    Returns (point, tangent, selected covector, verdict) at the accepted
    point x + (k1 + 2 (k2 + k3) + k4) h/6, with k1 = u and k2, k3, k4 the
    tangents at the stage points x + k1 h/2, x + k2 h/2 and x + k3 h. At the
    first stage point whose velocity is ill-defined it returns that point,
    with tangent and covector None, and its verdict, which is None where
    the field overflows there (FieldOverflowError): a phase k.x that is not
    finite, p or s not finite, or exp(theta) not representable.
    """
    x0, x1, x2, x3 = x
    a0, a1, a2, a3 = u
    half = h / 2.0
    try:
        y = (x0 + a0 * half, x1 + a1 * half, x2 + a2 * half, x3 + a3 * half)
        k, _, sel = _stage(w, y, tols)
        if k is None:
            return y, None, None, sel
        b0, b1, b2, b3 = k
        y = (x0 + b0 * half, x1 + b1 * half, x2 + b2 * half, x3 + b3 * half)
        k, _, sel = _stage(w, y, tols)
        if k is None:
            return y, None, None, sel
        c0, c1, c2, c3 = k
        y = (x0 + c0 * h, x1 + c1 * h, x2 + c2 * h, x3 + c3 * h)
        k, _, sel = _stage(w, y, tols)
        if k is None:
            return y, None, None, sel
        d0, d1, d2, d3 = k
        sixth = h / 6.0
        y = (
            x0 + (a0 + (b0 + c0) * 2.0 + d0) * sixth,
            x1 + (a1 + (b1 + c1) * 2.0 + d1) * sixth,
            x2 + (a2 + (b2 + c2) * 2.0 + d2) * sixth,
            x3 + (a3 + (b3 + c3) * 2.0 + d3) * sixth,
        )
        k, w_sel, sel = _stage(w, y, tols)
    except FieldOverflowError:
        return y, None, None, None
    return y, k, w_sel, sel


def integrate(
    w: Superposition, x0: FourVector, cfg: TrajectoryConfig
) -> TrajectoryResult:
    """Integrate dx/dtau = u(x), the unit tangent, from x0 with fixed-step RK4.

    The result records every accepted point (x0 included) with its unit
    tangent, raw selected covector, verdict, and strictly increasing proper
    time. Stops after max_steps accepted steps, or at the first step where
    any RK4 stage point has an ill-defined velocity or an overflowing field
    (exp(theta), p or s, or a phase k.x that is not finite), recording the
    cause and the offending stage point. An x0 with an ill-defined velocity
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
    points = [TrajectoryPoint(0.0, x0, FourVector(*u), FourVector(*w_sel), sel)]
    x = x0
    tau = 0.0
    termination = Termination.MAX_STEPS
    failed_at: FourVector | None = None
    for _ in range(cfg.max_steps):
        y, u, w_sel, sel = _step(w, x, u, h, tols)
        if u is None:
            termination = _TERMINATION[sel]
            failed_at = FourVector(*y)
            break
        x = FourVector(*y)
        tau += h
        points.append(TrajectoryPoint(tau, x, FourVector(*u), FourVector(*w_sel), sel))
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
