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
analyze_point's bit for bit. The Gram-criterion cross-check is not part
of a stage: it stays in analyze_point, behind classify and verify. A
selected covector whose square under- or overflows is normalized after an
exact power-of-two rescale, so scaling every mode covector by a power of
two scales the path by its inverse, bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .construction import (
    DEFAULT_TOLERANCES,
    Selection,
    Tolerances,
    _candidates,
    _positive_finite,
)
from .errors import FieldOverflowError, IllDefinedVelocityError
from .minkowski import _HUGE, _TINY, FourVector, _rescaled, inner, raise_index
from .wavefield import Superposition

__all__ = [
    "Termination",
    "TrajectoryConfig",
    "TrajectoryPoint",
    "TrajectoryResult",
    "velocity",
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


def _tangent(
    w: Superposition, x: FourVector, tols: Tolerances
) -> tuple[FourVector, FourVector, Selection]:
    """(unit tangent, selected covector, verdict) at x: one RK4 stage."""
    pol = w.polar_gradients(x, node_tol=tols.node)
    if pol.p_mu is None:
        raise IllDefinedVelocityError(Selection.NODE)
    _, wp, wm, _, _, sel = _candidates(pol.p_mu, pol.s_mu, tols)
    if sel is Selection.PLUS_TIMELIKE:
        w_sel = wp
    elif sel is Selection.MINUS_TIMELIKE:
        w_sel = wm
    else:
        raise IllDefinedVelocityError(sel)
    v, q = w_sel, inner(w_sel, w_sel)
    if not _TINY <= q <= _HUGE:  # the square under- or overflowed
        (v,) = _rescaled(w_sel)
        q = inner(v, v)
    u = raise_index(v) * (1.0 / math.sqrt(q))
    if u.c0 < 0.0:
        u = -u
    return u, w_sel, sel


def velocity(
    w: Superposition, x: FourVector, tols: Tolerances = DEFAULT_TOLERANCES
) -> FourVector:
    """Unit future-pointing tangent at x (contravariant, u.u = 1, u0 > 0).

    Selects the timelike candidate, raises its index, normalizes, and
    orients it forward in time. Raises IllDefinedVelocityError carrying
    the verdict when no unique timelike candidate exists, the nodal set
    included. Scaling psi by a nonzero constant leaves the result
    unchanged (constants drop out of grad(psi)/psi).
    """
    return _tangent(w, x, tols)[0]


def integrate(
    w: Superposition, x0: FourVector, cfg: TrajectoryConfig
) -> TrajectoryResult:
    """Integrate dx/dtau = velocity(x) from x0 with fixed-step RK4.

    The result records every accepted point (x0 included) with its unit
    tangent, raw selected covector, verdict, and strictly increasing proper
    time. Stops after max_steps accepted steps, or at the first step where
    any RK4 stage point has an ill-defined velocity or an overflowing field
    (exp(theta), or a phase k.x that is not finite), recording the cause
    and the offending stage point. A degenerate x0 raises immediately
    instead of returning a result.

    Deterministic: identical inputs give bit-identical point sequences.
    """
    if cfg.step * w.mass > 1.0:
        warnings.warn(
            f"step * mass = {cfg.step * w.mass:.3g} > 1; accuracy may suffer",
            stacklevel=2,
        )
    tols = cfg.tols
    h = cfg.step
    u, w_sel, sel = _tangent(w, x0, tols)
    points = [TrajectoryPoint(0.0, x0, u, w_sel, sel)]
    x = x0
    tau = 0.0
    termination = Termination.MAX_STEPS
    failed_at: FourVector | None = None
    for _ in range(cfg.max_steps):
        k1 = u
        stage_x = x
        try:
            stage_x = x + k1 * (h / 2.0)
            k2 = _tangent(w, stage_x, tols)[0]
            stage_x = x + k2 * (h / 2.0)
            k3 = _tangent(w, stage_x, tols)[0]
            stage_x = x + k3 * h
            k4 = _tangent(w, stage_x, tols)[0]
            stage_x = x + (k1 + (k2 + k3) * 2.0 + k4) * (h / 6.0)
            u_next, w_sel, sel = _tangent(w, stage_x, tols)
        except IllDefinedVelocityError as e:
            termination = _TERMINATION[e.selection]
            failed_at = stage_x
            break
        except (FieldOverflowError, ValueError):
            # ValueError: a stage point where some phase k.x is not finite
            # (math.cos of inf raises, a NaN phase gives theta NaN)
            termination = Termination.OVERFLOW
            failed_at = stage_x
            break
        x = stage_x
        u = u_next
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
