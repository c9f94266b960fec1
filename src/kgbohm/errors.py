"""Exception types shared across the package."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .construction import Selection

__all__ = [
    "KgBohmError",
    "NodeError",
    "OrthogonalDegenerateError",
    "BothTimelikeError",
    "FieldOverflowError",
    "IllDefinedVelocityError",
]


class KgBohmError(Exception):
    """Base class for all package-specific errors."""


class NodeError(KgBohmError):
    """Wave function magnitude at or below the nodal threshold.

    The polar decomposition, and everything built on it, is undefined on
    the nodal set. analyze_point returns this as the NODE verdict.
    """

    def __init__(self, abs_psi: float, threshold: float):
        self.abs_psi = abs_psi
        self.threshold = threshold
        super().__init__(
            f"|psi| = {abs_psi:.6e} is at or below the nodal threshold "
            f"{threshold:.6e}; polar decomposition undefined"
        )


class OrthogonalDegenerateError(KgBohmError):
    """p.s is numerically zero, so the hyperbolic mixing angle is undefined.

    This is the excluded orthogonal case; it is a verdict about the point,
    not a bug, and analyze_point and classify_pair return it as the
    ORTHOGONAL_DEGENERATE verdict.
    """

    def __init__(self, p_dot_s: float, threshold: float):
        self.p_dot_s = p_dot_s
        self.threshold = threshold
        super().__init__(
            f"|p.s| = {abs(p_dot_s):.6e} is at or below the degeneracy "
            f"threshold {threshold:.6e}; theta undefined"
        )


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
    """exp(|theta|) is not representable in double precision."""

    def __init__(self, theta: float):
        self.theta = theta
        super().__init__(
            f"exp(theta) with theta = {theta!r} overflows double precision"
        )


class IllDefinedVelocityError(KgBohmError):
    """No unique timelike candidate exists at the point.

    Carries the selection verdict (both spacelike, boundary, orthogonal
    degenerate, or node) that made the velocity ill-defined.
    """

    def __init__(self, selection: "Selection"):
        self.selection = selection
        super().__init__(f"velocity ill-defined: verdict {selection.value}")
