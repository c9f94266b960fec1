"""The batch verdict kernel against the scalar path it must reproduce.

polar_gradients_batch and classify_batch compute the scalar path's
quantities on arrays. Verdicts must agree on every row whose margins lie
outside 10x every tolerance; theta and the candidate norms within 1e-10
relative. A row the kernel leaves undecided (code -1) is one the scalar
path decides or raises on, never one it answers differently.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kgbohm import (
    DEFAULT_TOLERANCES,
    BothTimelikeError,
    FieldOverflowError,
    FourVector,
    NodeError,
    PlaneWaveMode,
    Region,
    Selection,
    Superposition,
    Tolerances,
    analyze_point,
    classify_pair,
    counterexample,
    estimate_spacetime_fraction,
    euclidean_sq,
    grid_scan,
    inner,
    sample_pair_space,
    theta,
    w_fields,
)
from kgbohm.construction import classify_batch
from support import random_superposition

SELECTIONS = tuple(Selection)
TOLS = DEFAULT_TOLERANCES
BAND = 10.0
RTOL = 1e-10
BOX = Region(FourVector(-0.5, -0.5, -0.5, -0.5), FourVector(0.5, 0.5, 0.5, 0.5))


def one_mode():
    return Superposition(
        mass=1.0, modes=(PlaneWaveMode(FourVector(1.0, 0.0, 0.0, 0.0), 2.0 + 1.0j),)
    )


def packet(seed):
    return random_superposition(np.random.default_rng([seed, 24]), n_modes=24)


def near(value, scale, tol):
    """|value| within a factor BAND of the tolerance edge tol * scale."""
    return tol * scale / BAND < abs(value) <= BAND * tol * scale


def in_band(p, s, wp=None, wm=None, tols=TOLS):
    """True when a decision margin of the pair (the scalar path's
    quantities) lies within a factor BAND of its tolerance edge."""
    scale = math.sqrt(euclidean_sq(p)) * math.sqrt(euclidean_sq(s))
    if near(inner(p, s), scale, tols.ortho):
        return True
    return wp is not None and any(
        near(inner(w, w), euclidean_sq(w), tols.causal) for w in (wp, wm)
    )


def close(a, b, scale):
    return abs(a - b) <= RTOL * scale


FIELDS = {
    "counterexample": (counterexample, 0.5, 2000),
    **{f"packet{i}": (lambda i=i: packet(i), 3.0, 400) for i in range(4)},
    "null": (
        lambda: Superposition(
            mass=1.0,
            modes=(
                PlaneWaveMode(FourVector(1.0, 0.0, 0.0, 0.0), 1.0 + 0.0j),
                PlaneWaveMode(FourVector(1.0, 0.0, 0.0, 0.0), -1.0 + 0.0j),
            ),
        ),
        1.0,
        200,
    ),
    "degenerate": (
        lambda: Superposition(
            mass=1.0,
            modes=(
                PlaneWaveMode(FourVector(1.0, 0.0, 0.0, 0.0), 1.0 + 0.0j),
                PlaneWaveMode(FourVector(math.sqrt(2.0), 1.0, 0.0, 0.0), 1.0 + 0.0j),
            ),
        ),
        1.0,
        200,
    ),
    "one_mode": (one_mode, 1.0, 400),
}


# Wide tolerances put many events on a node, p.s ~ 0 or a null candidate;
# they differ from each other by more than BAND^2, so a kernel that applied
# one in place of another would disagree outside the band.
WIDE = Tolerances(causal=1e-2, ortho=1e-6, node=1e-3)


@pytest.mark.parametrize("tols", [TOLS, WIDE], ids=["default_tols", "wide_tols"])
@pytest.mark.parametrize("name", FIELDS)
def test_batch_kernel_matches_analyze_point(name, tols):
    make, half, n = FIELDS[name]
    w = make()
    x = np.random.default_rng([7, n]).uniform(-half, half, size=(n, 4))
    psi, p, s, node = w.polar_gradients_batch(x, tols.node)
    codes, th, wp_sq, wm_sq = classify_batch(p, s, tols)
    checked = 0
    for i, row in enumerate(x.tolist()):
        ev = FourVector(*row)
        assert psi[i] == pytest.approx(w.evaluate(ev), rel=1e-12, abs=1e-12 * w.amp_sum)
        try:
            pol = w.polar_gradients(ev, tols.node)
        except NodeError:
            assert node[i]
            continue
        assert not node[i]
        g = math.sqrt(euclidean_sq(pol.p_mu) + euclidean_sq(pol.s_mu))
        for got, want in zip(np.concatenate([p[i], s[i]]), (*pol.p_mu, *pol.s_mu)):
            assert abs(got - want) <= 1e-12 * g
        try:
            a = analyze_point(w, ev, tols)
        except (BothTimelikeError, FieldOverflowError):
            assert codes[i] == -1  # the kernel never answers where the scalar path raises
            continue
        if codes[i] == -1 or in_band(a.p_mu, a.s_mu, a.w_plus, a.w_minus, tols):
            continue
        checked += 1
        assert SELECTIONS[codes[i]] is a.selection
        if a.theta is None:
            assert math.isnan(th[i]) and math.isnan(wp_sq[i]) and math.isnan(wm_sq[i])
        else:
            assert close(th[i], a.theta, abs(a.theta))
            assert close(wp_sq[i], inner(a.w_plus, a.w_plus), euclidean_sq(a.w_plus))
            assert close(wm_sq[i], inner(a.w_minus, a.w_minus), euclidean_sq(a.w_minus))
    if name in ("counterexample", "packet0", "packet1", "packet2", "packet3", "degenerate"):
        assert checked > 0.5 * n and not (codes[~node] == -1).any()
    if name == "null":
        assert node.all()


def test_classify_batch_matches_classify_pair_on_normal_pairs():
    pairs = np.random.default_rng(4242).standard_normal((20_000, 8))
    codes, th, wp_sq, wm_sq = classify_batch(pairs[:, :4], pairs[:, 4:], TOLS)
    assert not (codes == -1).any()
    checked = 0
    for i, row in enumerate(pairs.tolist()):
        p, s = FourVector(*row[:4]), FourVector(*row[4:])
        sel = classify_pair(p, s, TOLS)
        wp = wm = None
        if sel is not Selection.ORTHOGONAL_DEGENERATE:
            t = theta(p, s, TOLS.ortho)
            wp, wm = w_fields(p, s, t)
        if in_band(p, s, wp, wm):
            continue
        checked += 1
        assert SELECTIONS[codes[i]] is sel
        if wp is not None:
            assert close(th[i], t, abs(t))
            assert close(wp_sq[i], inner(wp, wp), euclidean_sq(wp))
            assert close(wm_sq[i], inner(wm, wm), euclidean_sq(wm))
    assert checked > 19_000


components = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
vectors = st.builds(FourVector, *([components] * 4))


def scalar_outcome(p, s):
    try:
        return classify_pair(p, s, TOLS)
    except (BothTimelikeError, FieldOverflowError) as exc:
        return type(exc)


@given(vectors, vectors, st.sampled_from([-600, 600]))
def test_classify_batch_on_pairs_rescaled_far_from_one(p, s, e):
    f = math.ldexp(1.0, e)
    ps, ss = p * f, s * f
    codes, th, wp_sq, wm_sq = classify_batch(np.array([ps]), np.array([ss]), TOLS)
    want = scalar_outcome(ps, ss)
    if codes[0] == -1:
        return  # the scalar path decides this row, whatever want is
    assert isinstance(want, Selection)  # the kernel never answers where classify_pair raises
    if not in_band(p, s):
        assert SELECTIONS[codes[0]] is want


def test_undecided_rows_are_left_to_the_scalar_path():
    # exp(theta) overflows: classify_pair raises FieldOverflowError
    p, s = FourVector(1.0, 0.0, 0.0, 0.0), FourVector(5e-309, 0.0, 0.0, 0.0)
    assert classify_batch(np.array([p]), np.array([s]))[0][0] == -1
    with pytest.raises(FieldOverflowError):
        classify_pair(p, s)
    # candidates whose squares underflow: classify_pair rescales and decides
    rng = np.random.default_rng(3)
    tiny = math.ldexp(1.0, -500)
    for row in rng.standard_normal((50, 8)).tolist():
        p, s = FourVector(*row[:4]), FourVector(*row[4:])
        code = classify_batch(np.array([p]) * tiny, np.array([s]) * tiny)[0][0]
        want = classify_pair(p, s)
        if want is not Selection.ORTHOGONAL_DEGENERATE:
            assert code == -1
        assert classify_pair(p * tiny, s * tiny) is want
    # both candidates timelike: the one-mode field raises, in bulk too
    with pytest.raises(BothTimelikeError):
        estimate_spacetime_fraction(
            one_mode(),
            Region(FourVector(-1.0, -1.0, -1.0, -1.0), FourVector(1.0, 1.0, 1.0, 1.0)),
            n=3000,
            seed=5,
        )


PLUS_P = FourVector(0.3, 1.2, -0.7, 0.4)
PLUS_S = FourVector(1.1, -0.2, 0.5, 0.9)


@pytest.mark.parametrize("e", [-600, 520])
def test_theta_rescales_pairs_whose_squares_under_or_overflow(e):
    f = math.ldexp(1.0, e)
    p, s = PLUS_P * f, PLUS_S * f
    assert classify_pair(PLUS_P, PLUS_S) is Selection.PLUS_TIMELIKE
    assert theta(p, s) == theta(PLUS_P, PLUS_S)
    assert classify_pair(p, s) is Selection.PLUS_TIMELIKE
    codes, th, wp_sq, wm_sq = classify_batch(np.array([p]), np.array([s]))
    assert codes[0] == -1  # theta's rescale belongs to the scalar path
    assert np.isnan([th[0], wp_sq[0], wm_sq[0]]).all()
    # a zero covector stays degenerate; where |p||s| is 0 * inf, the kernel
    # leaves the row to the scalar path
    zero = FourVector(0.0, 0.0, 0.0, 0.0)
    for pair in ((zero, s), (p, zero)):
        assert classify_pair(*pair) is Selection.ORTHOGONAL_DEGENERATE
        code = classify_batch(np.array([pair[0]]), np.array([pair[1]]))[0][0]
        assert code == -1 or SELECTIONS[code] is Selection.ORTHOGONAL_DEGENERATE


@pytest.mark.parametrize("sigma", [2.0**-600, 2.0**520])
def test_sample_pair_space_is_scale_free(sigma):
    assert sample_pair_space(30000, 1, sigma=sigma).counts == (
        sample_pair_space(30000, 1).counts
    )


@pytest.mark.parametrize("e", [-600, -500, 520])
def test_grid_scan_is_scale_free(e, degenerate_field):
    # k -> k * 2^e and x -> x * 2^-e keep every phase, so every verdict.
    # At 2^-500 the squares stay normal but the p.s ~ 0 threshold underflows:
    # the scalar path decides those rows, and its degenerate cells keep NaN.
    f = math.ldexp(1.0, e)
    box = Region(BOX.lo * (1 / f), BOX.hi * (1 / f))
    want = grid_scan(counterexample(), BOX, (4, 4, 4, 4)).cells
    got = grid_scan(counterexample(f), box, (4, 4, 4, 4)).cells
    assert [c.selection for c in got] == [c.selection for c in want]
    for a, b in zip(got, want):
        assert close(a.theta, b.theta, abs(b.theta))
    scaled = Superposition(
        mass=f, modes=tuple(PlaneWaveMode(m.k * f, m.c) for m in degenerate_field.modes)
    )
    cells = grid_scan(scaled, box, (3, 3, 3, 3)).cells
    assert {c.selection for c in cells} == {"orthogonal_degenerate"}
    assert all(math.isnan(c.theta) and math.isnan(c.w_plus_sq) for c in cells)


def test_grid_scan_matches_analyze_point(cx):
    scan = grid_scan(cx, BOX, (6, 6, 6, 6))
    for cell in scan.cells:
        a = analyze_point(cx, FourVector(cell.x0, cell.x1, cell.x2, cell.x3))
        if a.theta is None:
            assert cell.selection == a.selection.value and math.isnan(cell.theta)
            continue
        if not in_band(a.p_mu, a.s_mu, a.w_plus, a.w_minus):
            assert cell.selection == a.selection.value
        assert close(cell.theta, a.theta, abs(a.theta))
        assert close(cell.w_plus_sq, inner(a.w_plus, a.w_plus), euclidean_sq(a.w_plus))
        assert close(cell.w_minus_sq, inner(a.w_minus, a.w_minus), euclidean_sq(a.w_minus))


def test_batch_inputs_are_checked(cx):
    with pytest.raises(ValueError):
        cx.polar_gradients_batch(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        cx.polar_gradients_batch(np.zeros((3, 4)), node_tol=0.0)
    with pytest.raises(ValueError):
        classify_batch(np.zeros((3, 4)), np.zeros((2, 4)))
