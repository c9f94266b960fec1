"""Minkowski-signature linear algebra on real four-component vectors.

Signature is fixed to (+, -, -, -). Components are stored with the index
down, and the inner product reads a0*b0 - a1*b1 - a2*b2 - a3*b3 on
components (the same formula applies to a pair of contravariant vectors).
Natural units hbar = c = 1, so gradient covectors carry units of mass.

Causal verdicts are tolerance-based and relative to a Euclidean component
scale, which makes them invariant under overall rescaling well above the
tolerance; vectors so small or large that their squares under- or overflow
are classified after an exact power-of-two rescale. The zero vector
classifies as null; callers treat null as a boundary verdict, not an error.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import NamedTuple

__all__ = [
    "DEFAULT_CLASS_TOL",
    "CausalClass",
    "PlaneClass",
    "FourVector",
    "inner",
    "raise_index",
    "euclidean_sq",
    "euclidean_norm",
    "causal_class",
    "plane_class",
]

DEFAULT_CLASS_TOL = 1e-9

_TINY = sys.float_info.min  # smallest normal double
_HUGE = sys.float_info.max


class CausalClass(Enum):
    TIMELIKE = "timelike"
    SPACELIKE = "spacelike"
    NULL = "null"


class PlaneClass(Enum):
    SPACELIKE_PLANE = "spacelike_plane"
    LORENTZIAN_PLANE = "lorentzian_plane"
    DEGENERATE_PLANE = "degenerate_plane"


class FourVector(NamedTuple):
    """Real four-component vector; components are finite floats.

    Used both for covariant gradient/wave covectors and, where stated by
    the caller, for contravariant events and tangents. It defines no
    arithmetic: callers combine components themselves, and ``+`` and ``*``
    raise TypeError instead of falling back to tuple concatenation or
    repetition.
    """

    c0: float
    c1: float
    c2: float
    c3: float

    __add__ = __radd__ = __mul__ = __rmul__ = None

    def is_finite(self) -> bool:
        return (
            math.isfinite(self.c0)
            and math.isfinite(self.c1)
            and math.isfinite(self.c2)
            and math.isfinite(self.c3)
        )


def inner(a: FourVector, b: FourVector) -> float:
    """Minkowski inner product a0*b0 - a1*b1 - a2*b2 - a3*b3.

    Symmetric and bilinear; assumes finite inputs. Any sequence of four
    components works, so a (4, N) numpy array (one row per component)
    gives the N products with the same operations in the same order.
    """
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]


def raise_index(v: FourVector) -> FourVector:
    """Flip the index position: (c0, c1, c2, c3) -> (c0, -c1, -c2, -c3).

    The metric is its own inverse up to index placement, so the same map
    also lowers; it is an involution.
    """
    return FourVector(v.c0, -v.c1, -v.c2, -v.c3)


def euclidean_sq(v: FourVector) -> float:
    """Component square sum c0^2 + c1^2 + c2^2 + c3^2 (tolerance scale).

    Like inner, also takes a (4, N) array of components.
    """
    return v[0] * v[0] + v[1] * v[1] + v[2] * v[2] + v[3] * v[3]


def euclidean_norm(v: FourVector) -> float:
    return math.sqrt(euclidean_sq(v))


def _rescaled(*vs):
    """The FourVectors or (4, N) component arrays vs, as the same kind, each
    column times the power of two that brings its largest |component| across
    vs into [0.5, 1); an all-zero or non-finite column comes back unchanged."""
    if isinstance(vs[0], FourVector):  # the scalar path stays in Python floats
        cs = [c for v in vs for c in v]
        # max skips a NaN that does not come first, so every component is
        # tested for finiteness, as numpy's max propagates the NaN
        e = -math.frexp(max(map(abs, cs)))[1] if all(map(math.isfinite, cs)) else 0
        return tuple(FourVector(*(math.ldexp(c, e) for c in v)) for v in vs)
    import numpy as np

    arrays = [np.asarray(v, dtype=float) for v in vs]
    m = np.max([np.abs(a).max(axis=0) for a in arrays], axis=0)
    e = np.where(np.isfinite(m), -np.frexp(m)[1], 0)
    return tuple(np.ldexp(a, e) for a in arrays)


def causal_class(v: FourVector, tol: float = DEFAULT_CLASS_TOL) -> CausalClass:
    """Classify v as timelike, spacelike, or null.

    Null means |v.v| <= tol * (component square sum), so the verdict is
    unit-independent and the zero vector is null rather than an error.
    Where that threshold is zero, subnormal or infinite (the squares under-
    or overflowed), both sides are computed again on v rescaled by an exact
    power of two, which moves neither of them relative to the other.
    """
    threshold = tol * euclidean_sq(v)
    if not _TINY <= threshold <= _HUGE:
        (v,) = _rescaled(v)
        threshold = tol * euclidean_sq(v)
    q = inner(v, v)
    if abs(q) <= threshold:
        return CausalClass.NULL
    if q > 0.0:
        return CausalClass.TIMELIKE
    return CausalClass.SPACELIKE


def plane_class(
    a: FourVector, b: FourVector, tol: float = DEFAULT_CLASS_TOL
) -> PlaneClass:
    """Classify the 2-plane spanned by a and b via their Gram matrix.

    With G = [[a.a, a.b], [a.b, b.b]] and scale the product of the two
    Euclidean square sums:

      det G >  tol*scale and a.a < 0  ->  spacelike plane (form negative
                                          definite on the span)
      det G < -tol*scale              ->  Lorentzian plane
      otherwise                       ->  degenerate plane

    Linearly dependent inputs land in the degenerate verdict since their
    Gram determinant vanishes. The verdict depends only on G, hence is
    invariant under invertible change of the spanning pair away from
    tolerance boundaries. Where the threshold is zero, subnormal or
    infinite, a and b are each rescaled by an exact power of two first,
    as in causal_class.
    """
    threshold = tol * euclidean_sq(a) * euclidean_sq(b)
    if not _TINY <= threshold <= _HUGE:
        (a,), (b,) = _rescaled(a), _rescaled(b)
        threshold = tol * euclidean_sq(a) * euclidean_sq(b)
    aa = inner(a, a)
    ab = inner(a, b)
    bb = inner(b, b)
    det = aa * bb - ab * ab
    if det > threshold and aa < 0.0:
        return PlaneClass.SPACELIKE_PLANE
    if det < -threshold:
        return PlaneClass.LORENTZIAN_PLANE
    return PlaneClass.DEGENERATE_PLANE
