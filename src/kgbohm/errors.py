"""Exception types shared across the package."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .construction import Selection

__all__ = [
    "KgBohmError",
    "NodeError",
    "BothTimelikeError",
    "FieldOverflowError",
    "IllDefinedVelocityError",
]


class KgBohmError(Exception):
    """Base class for all package-specific errors."""


class NodeError(KgBohmError):
    """Wave function magnitude at or below the nodal threshold.

    Not raised by the package: polar_gradients reports the nodal set as a
    value, (psi, None, None), and analyze_point as the NODE verdict. Kept
    importable for bench/workloads.py, which still names it.
    """


class BothTimelikeError(KgBohmError):
    """Both candidate covectors classified timelike.

    Mathematically impossible for orthogonal vectors; any occurrence
    signals tolerance misconfiguration or corrupted inputs, so it is
    raised as an internal-consistency error rather than returned as a
    verdict.
    """

    def __init__(self):
        super().__init__("both candidate covectors classified timelike; orthogonal "
                         "vectors cannot both be timelike, check tolerances")


class FieldOverflowError(KgBohmError):
    """exp(|theta|), or a component of p or s (theta None), is not
    representable in double precision; theta None also covers a phase k.x
    that is not finite, where psi itself is undefined."""

    def __init__(self, theta: float | None = None):
        super().__init__(
            "p or s is not finite: the gradient of psi overflows double precision"
            if theta is None
            else f"exp(theta) with theta = {theta!r} overflows double precision"
        )


class IllDefinedVelocityError(KgBohmError):
    """No unique timelike candidate exists at the point.

    Carries the selection verdict (both spacelike, boundary, orthogonal
    degenerate, or node) that made the velocity ill-defined. Raised only by
    integrate, at its start: a path that runs into such a point later ends
    with the verdict as its termination.
    """

    def __init__(self, selection: "Selection"):
        self.selection = selection
        super().__init__(f"velocity ill-defined: verdict {selection.value}")
