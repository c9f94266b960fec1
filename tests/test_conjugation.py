"""Complex conjugation of the amplitudes, read at the negated event.

With every c_i conjugated, psi at -x is the conjugate of psi at x, so the
amplitude R is the same there and the phase S is negated. The phase
gradient s keeps its value and the amplitude gradient p changes sign. So
p.s, and with it sinh(theta), changes sign, and the candidates
exp(+-theta) p + s trade places: plus and minus swap, theta negates and
the two candidate norms swap. Every step is a negation or a product with
an exact negation in it, so this holds bit for bit, with no tolerance band.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgbohm import (
    DEFAULT_TOLERANCES,
    BothTimelikeError,
    FourVector,
    PlaneWaveMode,
    Selection,
    Superposition,
    analyze_point,
    counterexample,
)
from kgbohm.measure import _verdicts
from support import packet

SELECTIONS = tuple(Selection)
SWAP = {
    Selection.PLUS_TIMELIKE: Selection.MINUS_TIMELIKE,
    Selection.MINUS_TIMELIKE: Selection.PLUS_TIMELIKE,
}
CODE_SWAP = np.array([SELECTIONS.index(SWAP.get(s, s)) for s in SELECTIONS])

seeds = st.integers(min_value=0, max_value=2**32 - 1)
# the counterexample (None) or a seeded packet of 3 to 24 modes
waves = st.one_of(st.none(), st.tuples(seeds, st.integers(min_value=3, max_value=24)))


def wave(drawn):
    if drawn is None:
        return counterexample(1.0)
    return packet(*drawn)


def conjugated(w):
    """w with every amplitude conjugated."""
    return Superposition(w.mass, tuple(PlaneWaveMode(m.k, m.c.conjugate()) for m in w.modes))


def events(seed, n):
    return np.random.default_rng(seed).uniform(-2.0, 2.0, size=(n, 4))


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def analysis(w, x):
    try:
        return analyze_point(w, FourVector(*x))
    except BothTimelikeError as exc:
        return repr(exc)


@settings(max_examples=30, deadline=None)
@given(waves, seeds)
def test_the_scalar_path_swaps_the_candidates(drawn, seed):
    w = wave(drawn)
    wc = conjugated(w)
    for x in events(seed, 8).tolist():
        a = analysis(w, x)
        b = analysis(wc, [-v for v in x])
        if isinstance(a, str):
            assert b == a
            continue
        assert b.psi == a.psi.conjugate()
        assert b.selection is SWAP.get(a.selection, a.selection)
        assert (b.p_mu, b.s_mu) == (
            None if a.p_mu is None else FourVector(*(-v for v in a.p_mu)),
            a.s_mu,
        )
        assert repr(b.theta) == repr(None if a.theta is None else -a.theta)  # -0.0 too
        assert (b.w_plus, b.w_minus) == (a.w_minus, a.w_plus)
        assert (b.class_plus, b.class_minus) == (a.class_minus, a.class_plus)
        assert (b.plane, b.gram_consistent) == (a.plane, a.gram_consistent)


@settings(max_examples=30, deadline=None)
@given(waves, seeds)
def test_the_batch_path_swaps_the_candidates(drawn, seed):
    w = wave(drawn)
    x = events(seed, 400)
    try:
        codes, th, wp_sq, wm_sq = _verdicts(w, x, DEFAULT_TOLERANCES)
    except BothTimelikeError:
        with pytest.raises(BothTimelikeError):
            _verdicts(conjugated(w), -x, DEFAULT_TOLERANCES)
        return
    c_codes, c_th, c_wp_sq, c_wm_sq = _verdicts(conjugated(w), -x, DEFAULT_TOLERANCES)
    assert np.array_equal(c_codes, CODE_SWAP[codes])
    assert bits(c_th) == bits(-th)
    assert (bits(c_wp_sq), bits(c_wm_sq)) == (bits(wm_sq), bits(wp_sq))
