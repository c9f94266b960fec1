"""Minkowski-signature linear algebra on real four-component vectors.

Signature is fixed to (+, -, -, -). Components are stored with the index
down, and the inner product reads a0*b0 - a1*b1 - a2*b2 - a3*b3 on
components (the same formula applies to a pair of contravariant vectors).
Natural units hbar = c = 1, so gradient covectors carry units of mass.

Plane verdicts here, and the causal classes of the candidate covectors
(construction._candidates), are tolerance-based and relative to a
Euclidean component scale, which makes them invariant under overall
rescaling well above the tolerance; vectors so small or large that their
squares under- or overflow are classified after an exact power-of-two
rescale. The zero vector classifies as null; callers treat null as a
boundary verdict, not an error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "CausalClass",
    "PlaneClass",
    "FourVector",
    "inner",
    "euclidean_sq",
    "plane_class",
]

_TINY = sys.float_info.min  # smallest normal double
_HUGE = sys.float_info.max


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances for every verdict, and their one validity check.

    causal: causal classification threshold, |v.v| vs component scale
    ortho:  degeneracy threshold on |p.s| vs |p||s| (Euclidean norms)
    node:   nodal threshold on |psi| vs sum of mode amplitude moduli
    """

    causal: float = 1e-9
    ortho: float = 1e-9
    node: float = 1e-12

    def __post_init__(self):
        for name in ("causal", "ortho", "node"):
            v = getattr(self, name)
            if not _positive_finite(v):
                raise ValueError(
                    f"tolerance {name!r} must be a positive finite number, got {v!r}"
                )


def _positive_finite(v) -> bool:
    """Whether v is an int or float, not a bool, in (0, largest float]."""
    return not isinstance(v, bool) and isinstance(v, (int, float)) and 0 < v <= _HUGE


def _check_count(value, name: str) -> None:
    """A count (of steps, samples or lattice points): an int, not a bool, >= 1."""
    if isinstance(value, bool) or not (isinstance(value, int) and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


DEFAULT_TOLERANCES = Tolerances()


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


def euclidean_sq(v: FourVector) -> float:
    """Component square sum c0^2 + c1^2 + c2^2 + c3^2 (tolerance scale).

    Like inner, also takes a (4, N) array of components.
    """
    return v[0] * v[0] + v[1] * v[1] + v[2] * v[2] + v[3] * v[3]


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


def plane_class(
    a: FourVector, b: FourVector, tols: Tolerances = DEFAULT_TOLERANCES
) -> PlaneClass:
    """Classify the 2-plane spanned by a and b via their Gram matrix.

    With G = [[a.a, a.b], [a.b, b.b]] and scale the product of the two
    Euclidean square sums, and tol = tols.causal:

      det G >  tol*scale and a.a < 0  ->  spacelike plane (form negative
                                          definite on the span)
      det G < -tol*scale              ->  Lorentzian plane
      otherwise                       ->  degenerate plane

    Linearly dependent inputs land in the degenerate verdict since their
    Gram determinant vanishes. The verdict depends only on G, hence is
    invariant under invertible change of the spanning pair away from
    tolerance boundaries. Where the threshold is zero, subnormal or
    infinite, a and b are each rescaled by an exact power of two first,
    as _candidates rescales a candidate.
    """
    threshold = tols.causal * euclidean_sq(a) * euclidean_sq(b)
    if not _TINY <= threshold <= _HUGE:
        (a,), (b,) = _rescaled(a), _rescaled(b)
        threshold = tols.causal * euclidean_sq(a) * euclidean_sq(b)
    aa = inner(a, a)
    ab = inner(a, b)
    bb = inner(b, b)
    det = aa * bb - ab * ab
    if det > threshold and aa < 0.0:
        return PlaneClass.SPACELIKE_PLANE
    if det < -threshold:
        return PlaneClass.LORENTZIAN_PLANE
    return PlaneClass.DEGENERATE_PLANE
