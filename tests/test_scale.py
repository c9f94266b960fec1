"""Amplitude scale of the verdicts, and the scales where the gradient of
psi overflows.

grad(psi)/psi does not change when every amplitude c_i is multiplied by
one complex number, so neither do p, s, theta or the verdicts. A power of
two moves no bit: psi scales exactly, and the division and every
threshold are scale-free. Any other factor moves the last bits, so there
verdicts must be equal wherever they stay the same with every tolerance
divided and multiplied by BAND. Past the top of the float range the
gradient sums overflow: both paths raise FieldOverflowError rather than
give a verdict, and a superposition whose amplitude sum overflows is
refused.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgbohm import (
    DEFAULT_TOLERANCES,
    FieldOverflowError,
    FourVector,
    PlaneWaveMode,
    Superposition,
    Termination,
    Tolerances,
    TrajectoryConfig,
    analyze_point,
    counterexample,
    integrate,
)
from kgbohm.measure import _verdicts
from support import packet

BAND = 1e3
TIGHT, WIDE = (
    Tolerances(**{f: getattr(DEFAULT_TOLERANCES, f) * g for f in ("causal", "ortho", "node")})
    for g in (1.0 / BAND, BAND)
)
WAVES = {
    "counterexample": counterexample,
    **{f"packet{seed}": lambda seed=seed: packet(seed) for seed in range(4)},
}
waves = st.sampled_from(sorted(WAVES))
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def times(w, f):
    """w with every amplitude times f."""
    return Superposition(w.mass, tuple(PlaneWaveMode(m.k, m.c * f) for m in w.modes))


def events(seed, n):
    return np.random.default_rng(seed).uniform(-2.0, 2.0, size=(n, 4))


def bits(arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def same_point(a, b, f):
    """analyze_point's results a and b = a at amplitudes times f: psi
    times f, everything else equal."""
    assert b.psi == a.psi * f
    assert (b.p_mu, b.s_mu, b.theta, b.selection) == (a.p_mu, a.s_mu, a.theta, a.selection)


@settings(max_examples=30, deadline=None)
@given(waves, st.integers(min_value=-900, max_value=1000), seeds)
def test_a_power_of_two_moves_no_bit(name, e, seed):
    w = WAVES[name]()
    scaled = times(w, 2.0**e)
    x = events(seed, 256)
    psi, *polar = w.polar_gradients_batch(x)
    psi_2, *polar_2 = scaled.polar_gradients_batch(x)
    assert (psi_2 == psi * 2.0**e).all()
    assert bits(polar_2) == bits(polar)
    assert bits(_verdicts(scaled, x, DEFAULT_TOLERANCES)) == bits(
        _verdicts(w, x, DEFAULT_TOLERANCES)
    )
    for row in x[:8]:
        event = FourVector(*row)
        same_point(analyze_point(w, event), analyze_point(scaled, event), 2.0**e)


@settings(max_examples=30, deadline=None)
@given(
    waves,
    st.floats(min_value=-500.0, max_value=500.0),
    st.floats(min_value=-math.pi, max_value=math.pi),
    seeds,
)
def test_any_complex_factor_keeps_the_verdicts_outside_the_band(name, log2, phase, seed):
    w = WAVES[name]()
    scaled = times(w, cmath.rect(2.0**log2, phase))
    x = events(seed, 256)
    want = _verdicts(w, x, DEFAULT_TOLERANCES)[0]
    robust = (_verdicts(w, x, TIGHT)[0] == want) & (_verdicts(w, x, WIDE)[0] == want)
    assert robust.mean() > 0.5
    assert (_verdicts(scaled, x, DEFAULT_TOLERANCES)[0] == want)[robust].all()
    for row in x[:8]:
        event = FourVector(*row)
        got = analyze_point(scaled, event).selection
        if analyze_point(w, event, TIGHT).selection is analyze_point(w, event, WIDE).selection:
            assert got is analyze_point(w, event).selection


# a counterexample event where the gradient sums overflow from 2^1020 on
OVERFLOW_EVENT = FourVector(-0.5, -0.5, 0.0, 0.0)
BOX_EVENTS = events(0, 4096) / 4.0  # in [-0.5, 0.5]^4


def test_the_counterexample_up_to_the_top_of_the_float_range():
    cx = counterexample()
    scaled = times(cx, 2.0**1019)
    assert bits(_verdicts(scaled, BOX_EVENTS, DEFAULT_TOLERANCES)) == bits(
        _verdicts(cx, BOX_EVENTS, DEFAULT_TOLERANCES)
    )
    same_point(analyze_point(cx, OVERFLOW_EVENT), analyze_point(scaled, OVERFLOW_EVENT), 2.0**1019)


@pytest.mark.parametrize("e", [1020, 1021])
def test_overflowing_gradients_raise_on_both_paths(e):
    scaled = times(counterexample(), 2.0**e)
    with pytest.raises(FieldOverflowError, match="p or s is not finite"):
        analyze_point(scaled, OVERFLOW_EVENT)
    with pytest.raises(FieldOverflowError, match="p or s is not finite"):
        _verdicts(scaled, np.array([OVERFLOW_EVENT]), DEFAULT_TOLERANCES)
    with pytest.raises(FieldOverflowError, match="p or s is not finite"):
        _verdicts(scaled, BOX_EVENTS, DEFAULT_TOLERANCES)


def test_a_path_into_overflowing_gradients_ends_with_overflow():
    # such stage points were once called p.s ~ 0 (entered_orthogonal_degenerate)
    start, cfg = FourVector(-0.58, -0.58, -0.08, -0.08), TrajectoryConfig(0.02, 40)
    path = integrate(times(counterexample(), 2.0**1020), start, cfg)
    assert path.termination is Termination.OVERFLOW
    # up to there it is the unscaled wave's path, bit for bit
    assert path.points == integrate(counterexample(), start, cfg).points[: len(path.points)]


def test_an_amplitude_sum_that_overflows_is_refused():
    with pytest.raises(ValueError, match="overflows"):
        times(counterexample(), 2.0**1022)
