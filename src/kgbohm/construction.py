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
values all the way down, never exceptions: polar_gradients returns psi
with p and s None on the nodal set, theta gives None where p.s ~ 0, and
analyze_point turns those into the NODE and ORTHOGONAL_DEGENERATE
verdicts. One scalar sequence, polar_gradients then _candidates, decides
a single event for analyze_point and the trajectory stages, in one pass
on Python floats: the mode loop, theta, the candidates and each
candidate's null band on the components, then select.

classify_batch is the same verdict on N pairs at once, for the bulk paths
(measure, sample-pairs, scan). It applies the scalar path's thresholds to
the scalar path's quantities: the p.s ~ 0 test of theta, the candidates
exp(+-theta) p + s, _candidates' null band and select's table. It does
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

    Computed as asinh((p.p / 2 - s.s / 2) / p.s), whose difference cannot
    overflow: theta is a number, +-inf where the quotient overflows, or None.

    None where |p.s| <= tols.ortho * |p| * |s| (Euclidean norms), the
    excluded p.s ~ 0 case where theta is undefined; in particular the zero
    covector is always degenerate. Where that threshold is zero, subnormal
    or infinite (the squares under- or overflowed), everything is computed
    again on p and s rescaled together by one exact power of two, which
    moves neither theta nor the test. A threshold still not finite then
    means p or s is not finite (the gradient of psi overflowed), and
    raises FieldOverflowError. p and s may be any sequences of four floats.
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
        if not math.isfinite(threshold):
            raise FieldOverflowError()
    q = p0 * s0 - p1 * s1 - p2 * s2 - p3 * s3
    if abs(q) <= threshold:
        return None
    pp = p0 * p0 - p1 * p1 - p2 * p2 - p3 * p3
    ss = s0 * s0 - s1 * s1 - s2 * s2 - s3 * s3
    return math.asinh((pp * 0.5 - ss * 0.5) / q)


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


_NULL, _TIMELIKE, _SPACELIKE = CausalClass.NULL, CausalClass.TIMELIKE, CausalClass.SPACELIKE


def _candidates(p, s, tols: Tolerances) -> tuple:
    """(theta, w_plus, w_minus, class_plus, class_minus, selection) for the
    pair (p, s), any two sequences of four floats, with the candidates as
    plain 4-tuples; where p.s ~ 0 the selection is ORTHOGONAL_DEGENERATE and
    the other five are None.

    The one scalar sequence, shared by analyze_point and the trajectory
    stages: theta, then w_plus = exp(theta) p + s and w_minus = -exp(-theta)
    p + s on the components, then each candidate's causal class, then
    select. A candidate is null where |w.w| <= tols.causal * (component
    square sum), so the zero vector is null; where that threshold is zero,
    subnormal or infinite (the squares under- or overflowed), both sides are
    computed again on w rescaled by an exact power of two, which moves
    neither against the other. Raises FieldOverflowError where exp(|theta|)
    is not representable: the overflow is reported, never saturated.
    """
    th = theta(p, s, tols)
    if th is None:
        return None, None, None, None, None, Selection.ORTHOGONAL_DEGENERATE
    try:
        ep = math.exp(th)
        em = -math.exp(-th)
    except OverflowError as e:
        raise FieldOverflowError(th) from e
    p0, p1, p2, p3 = p
    s0, s1, s2, s3 = s
    wp = (p0 * ep + s0, p1 * ep + s1, p2 * ep + s2, p3 * ep + s3)
    wm = (p0 * em + s0, p1 * em + s1, p2 * em + s2, p3 * em + s3)
    # each candidate's class, its null band written out on the components
    w0, w1, w2, w3 = wp
    threshold = tols.causal * (w0 * w0 + w1 * w1 + w2 * w2 + w3 * w3)
    if not _TINY <= threshold <= _HUGE:
        ((w0, w1, w2, w3),) = _rescaled(wp)
        threshold = tols.causal * (w0 * w0 + w1 * w1 + w2 * w2 + w3 * w3)
    q = w0 * w0 - w1 * w1 - w2 * w2 - w3 * w3
    cp = _NULL if abs(q) <= threshold else _TIMELIKE if q > 0.0 else _SPACELIKE
    w0, w1, w2, w3 = wm
    threshold = tols.causal * (w0 * w0 + w1 * w1 + w2 * w2 + w3 * w3)
    if not _TINY <= threshold <= _HUGE:
        ((w0, w1, w2, w3),) = _rescaled(wm)
        threshold = tols.causal * (w0 * w0 + w1 * w1 + w2 * w2 + w3 * w3)
    q = w0 * w0 - w1 * w1 - w2 * w2 - w3 * w3
    cm = _NULL if abs(q) <= threshold else _TIMELIKE if q > 0.0 else _SPACELIKE
    return th, wp, wm, cp, cm, select(cp, cm)


_CODE = {sel: i for i, sel in enumerate(Selection)}  # classify_batch's verdict codes


def _forms(v):
    """euclidean_sq(v) and inner(v, v), in their order, from one square per component."""
    sq = [c * c for c in v]
    return sq[0] + sq[1] + sq[2] + sq[3], sq[0] - sq[1] - sq[2] - sq[3]


def classify_batch(
    p: np.ndarray, s: np.ndarray, tols: Tolerances = DEFAULT_TOLERANCES
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """_candidates' verdict on every row of the gradient pairs p, s (N, 4).

    Returns (codes, theta, w_plus_sq, w_minus_sq): codes index
    tuple(Selection); theta and the (unscaled) candidate norms w.w are NaN
    where p.s ~ 0. Each quantity is computed with the scalar path's
    operations in its order, and a row theta or _candidates would rescale
    is rescaled the same way; only numpy's arcsinh and exp may differ from
    math's in the last bit. On the first row, in row order, where
    _candidates raises, raises the same error: FieldOverflowError where p
    or s is not finite or exp(+-theta) overflows, else BothTimelikeError.
    """
    import numpy as np

    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)
    if p.ndim != 2 or p.shape[1] != 4 or s.shape != p.shape:
        raise ValueError(f"p and s must both have shape (N, 4), got {p.shape}, {s.shape}")
    p, s = tuple(p.T), tuple(s.T)  # one (N,) row per component, as inner reads them
    with np.errstate(all="ignore"):
        (p_e, pp), (s_e, ss), q = _forms(p), _forms(s), inner(p, s)
        thr_o = tols.ortho * (np.sqrt(p_e) * np.sqrt(s_e))
        out = ~((thr_o >= _TINY) & (thr_o <= _HUGE))
        if out.any():  # as theta rescales them; a zero p or s stays zero
            pr, sr = np.array(p), np.array(s)
            pr[:, out], sr[:, out] = _rescaled(pr[:, out], sr[:, out])
            (p_e, pp), (s_e, ss), q = _forms(pr), _forms(sr), inner(pr, sr)
            thr_o = tols.ortho * (np.sqrt(p_e) * np.sqrt(s_e))
        not_finite = ~np.isfinite(thr_o)  # p or s not finite, where theta raises
        degenerate = np.abs(q) <= thr_o
        th = np.arcsinh((pp * 0.5 - ss * 0.5) / q)
        ep = np.exp(th)
        em = -np.exp(-th)
        norms, null, timelike = [], [], []
        for f in (ep, em):
            w = [pc * f + sc for pc, sc in zip(p, s)]
            w_e, q_w = _forms(w)
            norms.append(q_w)
            thr = tols.causal * w_e
            out = ~((thr >= _TINY) & (thr <= _HUGE))
            if out.any():  # as _candidates rescales the candidate
                (v,) = _rescaled(np.array(w)[:, out])
                q_w = q_w.copy()
                q_w[out], thr[out] = inner(v, v), tols.causal * euclidean_sq(v)
            null.append(np.abs(q_w) <= thr)
            timelike.append(q_w > thr)
        overflow = np.isfinite(th) & (np.isinf(ep) | np.isinf(em))  # as math.exp raises
        raises = not_finite | (~degenerate & (overflow | (timelike[0] & timelike[1])))
    if raises.any():
        i = raises.argmax()
        if not_finite[i]:
            raise FieldOverflowError()
        raise FieldOverflowError(float(th[i])) if overflow[i] else BothTimelikeError()
    codes = np.full(len(q), _CODE[Selection.BOTH_SPACELIKE])  # select's table: later masks win
    codes[timelike[1]] = _CODE[Selection.MINUS_TIMELIKE]
    codes[timelike[0]] = _CODE[Selection.PLUS_TIMELIKE]
    codes[null[0] | null[1]] = _CODE[Selection.BOUNDARY]
    codes[degenerate] = _CODE[Selection.ORTHOGONAL_DEGENERATE]
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
    psi, p, s = w.polar_gradients(x, tols)
    if p is None:
        return PointAnalysis(x=x, psi=psi, selection=Selection.NODE, gram_consistent=True)
    p, s = FourVector(*p), FourVector(*s)
    plane = plane_class(p, s, tols)
    th, wp, wm, cp, cm, sel = _candidates(p, s, tols)
    if wp is not None:
        wp, wm = FourVector(*wp), FourVector(*wm)
    return PointAnalysis(
        x=x,
        psi=psi,
        selection=sel,
        gram_consistent=_gram_consistent(sel, plane),
        p_mu=p,
        s_mu=s,
        plane=plane,
        theta=th,
        w_plus=wp,
        w_minus=wm,
        class_plus=cp,
        class_minus=cm,
    )
