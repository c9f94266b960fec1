"""Candidate velocity covectors and the timelike-selection verdict.

From the gradient pair (p, s) of psi = exp(p + i*s), build the hyperbolic
mixing angle theta with

    sinh(theta) = (p.p - s.s) / (2 p.s)

and the two candidate covectors

    w_plus  =  exp(theta) p + s
    w_minus = -exp(-theta) p + s.

The value of theta makes w_plus and w_minus orthogonal, which is exactly
why they can never both be timelike. The selection rule takes whichever is
timelike as the particle velocity; this module also surfaces the cases
where that rule breaks down: both candidates spacelike (equivalently, p
and s span a spacelike 2-plane), a null candidate at the tolerance
boundary, the excluded p.s ~ 0 case where theta itself is undefined, and
the nodal set where the polar split itself is undefined.

No fallback velocity is invented for the broken cases; exposing them is
the point. Every event gets a verdict, and the node and p.s ~ 0 cases are
values all the way down, never exceptions: polar_gradients gives no p and
s on the nodal set, theta gives None where p.s ~ 0, and analyze_point turns
those into the NODE and ORTHOGONAL_DEGENERATE verdicts. One scalar sequence,
_candidates, decides a single (p, s) pair for analyze_point and the
trajectory stages.

classify_batch is the same verdict on N pairs at once, for the bulk paths
(measure, sample-pairs, scan). It applies the scalar path's thresholds to
the scalar path's quantities: the p.s ~ 0 test of theta, the candidates
exp(+-theta) p + s, causal_class's null band and select's table. It does
not use the closed-form Gram criterion, which would need a null band of
its own; this way each tolerance band has one definition on both paths,
and the Gram criterion stays an independent cross-check. It rescales what
the scalar path rescales and raises where it raises, so every row is
decided in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

from .errors import BothTimelikeError, FieldOverflowError
from .minkowski import (
    DEFAULT_TOLERANCES,
    CausalClass,
    FourVector,
    PlaneClass,
    Tolerances,
    causal_class,
    euclidean_sq,
    inner,
    plane_class,
    _HUGE,
    _TINY,
    _rescaled,
)
from .wavefield import Superposition

__all__ = [
    "Selection",
    "PointAnalysis",
    "theta",
    "w_fields",
    "select",
    "classify_batch",
    "analyze_point",
]

class Selection(Enum):
    """Verdict of the timelike-selection rule at one point."""

    PLUS_TIMELIKE = "plus_timelike"
    MINUS_TIMELIKE = "minus_timelike"
    BOTH_SPACELIKE = "both_spacelike"
    BOUNDARY = "boundary"
    ORTHOGONAL_DEGENERATE = "orthogonal_degenerate"
    NODE = "node"


@dataclass(frozen=True)
class PointAnalysis:
    """Full analysis of one space-time event x (contravariant components).

    Fields that do not exist at the event are None: everything after psi
    at a node; theta, the candidates and their classes where p.s ~ 0.

    gram_consistent records the cross-check of the selection verdict
    against the Gram-matrix plane criterion: a both-spacelike selection
    must coincide with a spacelike plane. Boundary, p.s ~ 0 or
    degenerate-plane verdicts are not contradictions, so the flag stays
    true there.
    """

    x: FourVector
    psi: complex
    selection: Selection
    gram_consistent: bool
    p_mu: FourVector | None = None
    s_mu: FourVector | None = None
    plane: PlaneClass | None = None
    theta: float | None = None
    w_plus: FourVector | None = None
    w_minus: FourVector | None = None
    class_plus: CausalClass | None = None
    class_minus: CausalClass | None = None

    def to_dict(self) -> dict:
        """JSON-friendly view: vectors as lists, psi as [re, im], enums as
        their values, absent fields as None."""
        out = {f.name: _plain(getattr(self, f.name)) for f in fields(self)}
        out["psi"] = [self.psi.real, self.psi.imag]
        return out


def _plain(v):
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, FourVector):
        return list(v)
    return v


def theta(
    p: FourVector, s: FourVector, tols: Tolerances = DEFAULT_TOLERANCES
) -> float | None:
    """Hyperbolic mixing angle, asinh((p.p - s.s) / (2 p.s)).

    Evaluated through math.asinh, i.e. the overflow-safe logarithmic form
    sign(u) * ln(|u| + sqrt(u^2 + 1)).

    None where |p.s| <= tols.ortho * |p| * |s| (Euclidean norms), the
    excluded p.s ~ 0 case where theta is undefined; in particular the zero
    covector is always degenerate. Where that threshold is zero, subnormal
    or infinite (the squares under- or overflowed), everything is computed
    again on p and s rescaled together by one exact power of two, which
    moves neither theta nor the test.
    """
    # inner and euclidean_sq written out on the components, in their order
    p0, p1, p2, p3 = p
    s0, s1, s2, s3 = s
    threshold = tols.ortho * (
        math.sqrt(p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3)
        * math.sqrt(s0 * s0 + s1 * s1 + s2 * s2 + s3 * s3)
    )
    if not _TINY <= threshold <= _HUGE:
        p, s = _rescaled(p, s)
        p0, p1, p2, p3 = p
        s0, s1, s2, s3 = s
        threshold = tols.ortho * (math.sqrt(euclidean_sq(p)) * math.sqrt(euclidean_sq(s)))
    q = p0 * s0 - p1 * s1 - p2 * s2 - p3 * s3
    if abs(q) <= threshold:
        return None
    pp = p0 * p0 - p1 * p1 - p2 * p2 - p3 * p3
    ss = s0 * s0 - s1 * s1 - s2 * s2 - s3 * s3
    return math.asinh((pp - ss) / (2.0 * q))


def w_fields(
    p: FourVector, s: FourVector, th: float
) -> tuple[FourVector, FourVector]:
    """The candidate covectors (exp(th) p + s, -exp(-th) p + s).

    Raises FieldOverflowError if exp(|th|) is not representable; the
    overflow is reported, never silently saturated.
    """
    if math.isnan(th):
        raise ValueError("theta is NaN")
    try:
        ep = math.exp(th)
        em = -math.exp(-th)
    except OverflowError as e:
        raise FieldOverflowError(th) from e
    p0, p1, p2, p3 = p
    s0, s1, s2, s3 = s
    return (
        FourVector(p0 * ep + s0, p1 * ep + s1, p2 * ep + s2, p3 * ep + s3),
        FourVector(p0 * em + s0, p1 * em + s1, p2 * em + s2, p3 * em + s3),
    )


def select(class_plus: CausalClass, class_minus: CausalClass) -> Selection:
    """Apply the selection table to the two causal classes.

    (timelike, spacelike) -> plus side is the velocity
    (spacelike, timelike) -> minus side is the velocity
    (spacelike, spacelike) -> rule ill-defined, both spacelike
    any null              -> boundary verdict
    (timelike, timelike)  -> BothTimelikeError; impossible for orthogonal
                             vectors, so it flags numerical inconsistency
    """
    if class_plus is CausalClass.NULL or class_minus is CausalClass.NULL:
        return Selection.BOUNDARY
    plus_t = class_plus is CausalClass.TIMELIKE
    minus_t = class_minus is CausalClass.TIMELIKE
    if plus_t and minus_t:
        raise BothTimelikeError()
    if plus_t:
        return Selection.PLUS_TIMELIKE
    if minus_t:
        return Selection.MINUS_TIMELIKE
    return Selection.BOTH_SPACELIKE


def _candidates(p: FourVector, s: FourVector, tols: Tolerances) -> tuple:
    """(theta, w_plus, w_minus, class_plus, class_minus, selection) for the
    pair (p, s); where p.s ~ 0 the selection is ORTHOGONAL_DEGENERATE and
    the other five are None.

    The one scalar sequence theta -> w_fields -> causal_class x2 -> select,
    shared by analyze_point and the trajectory stages.
    """
    th = theta(p, s, tols)
    if th is None:
        return None, None, None, None, None, Selection.ORTHOGONAL_DEGENERATE
    wp, wm = w_fields(p, s, th)
    cp = causal_class(wp, tols)
    cm = causal_class(wm, tols)
    return th, wp, wm, cp, cm, select(cp, cm)


_CODE = {sel: i for i, sel in enumerate(Selection)}  # classify_batch's verdict codes


def classify_batch(
    p: np.ndarray, s: np.ndarray, tols: Tolerances = DEFAULT_TOLERANCES
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """_candidates' verdict on every row of the gradient pairs p, s (N, 4).

    Returns (codes, theta, w_plus_sq, w_minus_sq): codes index
    tuple(Selection); theta and the (unscaled) candidate norms w.w are NaN
    where p.s ~ 0. Each quantity is computed with the scalar path's
    operations in its order, and a row theta or causal_class would rescale
    is rescaled the same way; only numpy's arcsinh and exp may differ from
    math's in the last bit. On the first row, in row order, where
    _candidates raises, raises the same error.
    """
    import numpy as np

    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)
    if p.ndim != 2 or p.shape[1] != 4 or s.shape != p.shape:
        raise ValueError(f"p and s must both have shape (N, 4), got {p.shape}, {s.shape}")
    p, s = p.T, s.T  # one row per component, as inner and euclidean_sq read them
    with np.errstate(all="ignore"):
        pr, sr = p, s  # as theta rescales them; a zero p or s stays zero
        thr_o = tols.ortho * (np.sqrt(euclidean_sq(p)) * np.sqrt(euclidean_sq(s)))
        out = ~((thr_o >= _TINY) & (thr_o <= _HUGE))
        if out.any():
            pr, sr = p.copy(), s.copy()
            pr[:, out], sr[:, out] = _rescaled(p[:, out], s[:, out])
            thr_o = tols.ortho * (np.sqrt(euclidean_sq(pr)) * np.sqrt(euclidean_sq(sr)))
        q = inner(pr, sr)
        degenerate = np.abs(q) <= thr_o
        th = np.arcsinh((inner(pr, pr) - inner(sr, sr)) / (2.0 * q))
        ep = np.exp(th)
        em = np.exp(-th)
        norms, null, timelike = [], [], []
        for w in (p * ep + s, p * -em + s):
            norms.append(inner(w, w))
            q_w, thr = norms[-1], tols.causal * euclidean_sq(w)
            out = ~((thr >= _TINY) & (thr <= _HUGE))
            if out.any():  # as causal_class rescales the candidate
                (v,) = _rescaled(w[:, out])
                q_w = q_w.copy()
                q_w[out], thr[out] = inner(v, v), tols.causal * euclidean_sq(v)
            null.append(np.abs(q_w) <= thr)
            timelike.append(q_w > thr)
        overflow = np.isfinite(th) & (np.isinf(ep) | np.isinf(em))  # as math.exp raises
        raises = ~degenerate & (np.isnan(th) | overflow | (timelike[0] & timelike[1]))
    if raises.any():
        i = raises.argmax()
        if np.isnan(th[i]):
            raise ValueError("theta is NaN")
        raise FieldOverflowError(float(th[i])) if overflow[i] else BothTimelikeError()
    codes = np.select(
        [degenerate, null[0] | null[1], timelike[0], timelike[1]],
        [
            _CODE[Selection.ORTHOGONAL_DEGENERATE],
            _CODE[Selection.BOUNDARY],
            _CODE[Selection.PLUS_TIMELIKE],
            _CODE[Selection.MINUS_TIMELIKE],
        ],
        default=_CODE[Selection.BOTH_SPACELIKE],
    )
    wp_sq, wm_sq = norms
    th[degenerate] = wp_sq[degenerate] = wm_sq[degenerate] = np.nan
    return codes, th, wp_sq, wm_sq


def _gram_consistent(selection: Selection, plane: PlaneClass) -> bool:
    if (
        selection in (Selection.BOUNDARY, Selection.ORTHOGONAL_DEGENERATE)
        or plane is PlaneClass.DEGENERATE_PLANE
    ):
        return True
    return (selection is Selection.BOTH_SPACELIKE) == (
        plane is PlaneClass.SPACELIKE_PLANE
    )


def analyze_point(
    w: Superposition, x: FourVector, tols: Tolerances = DEFAULT_TOLERANCES
) -> PointAnalysis:
    """Run the full pipeline at one event x.

    polar gradients -> theta -> candidate covectors -> causal classes ->
    selection, plus the independent Gram-criterion cross-check.

    The nodal set gives the NODE verdict and the excluded p.s ~ 0 case the
    ORTHOGONAL_DEGENERATE verdict, with the fields that do not exist there
    left None.
    """
    pol = w.polar_gradients(x, tols)
    if pol.p_mu is None:
        return PointAnalysis(
            x=x, psi=pol.psi, selection=Selection.NODE, gram_consistent=True
        )
    plane = plane_class(pol.p_mu, pol.s_mu, tols)
    th, wp, wm, cp, cm, sel = _candidates(pol.p_mu, pol.s_mu, tols)
    return PointAnalysis(
        x=x,
        psi=pol.psi,
        selection=sel,
        gram_consistent=_gram_consistent(sel, plane),
        p_mu=pol.p_mu,
        s_mu=pol.s_mu,
        plane=plane,
        theta=th,
        w_plus=wp,
        w_minus=wm,
        class_plus=cp,
        class_minus=cm,
    )
