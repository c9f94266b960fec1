"""The batch verdict kernel against the scalar path it must reproduce.

polar_gradients_batch and classify_batch compute the scalar path's
quantities on arrays. Verdicts must agree on every row whose margins lie
outside 10x every tolerance; theta and the candidate norms within 1e-10
relative. The kernel decides every row itself, and raises the scalar
path's error where the scalar path raises.
"""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import kgbohm.construction
import kgbohm.measure
from kgbohm import (
    DEFAULT_TOLERANCES,
    BothTimelikeError,
    FieldOverflowError,
    FourVector,
    PlaneClass,
    PlaneWaveMode,
    Region,
    Selection,
    Superposition,
    Tolerances,
    analyze_point,
    counterexample,
    estimate_spacetime_fraction,
    euclidean_sq,
    grid_scan,
    inner,
    plane_class,
    sample_pair_space,
    theta,
    w_fields,
)
from kgbohm.construction import classify_batch
from kgbohm.minkowski import _rescaled
from support import (
    classify_pair,
    evaluate,
    raise_index,
    random_superposition,
    scaled,
)

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
    psi, p, s, node = w.polar_gradients_batch(x, tols)
    scalar = {}
    for i, row in enumerate(x.tolist()):
        ev = FourVector(*row)
        assert psi[i] == pytest.approx(evaluate(w, ev), rel=1e-12, abs=1e-12 * w.amp_sum)
        pol = w.polar_gradients(ev, tols)
        if pol.p_mu is None:
            assert node[i] and pol.s_mu is None
            continue
        assert not node[i]
        g = math.sqrt(euclidean_sq(pol.p_mu) + euclidean_sq(pol.s_mu))
        for got, want in zip(np.concatenate([p[i], s[i]]), (*pol.p_mu, *pol.s_mu)):
            assert abs(got - want) <= 1e-12 * g
        try:
            scalar[i] = analyze_point(w, ev, tols)
        except (BothTimelikeError, FieldOverflowError) as exc:
            assert name == "one_mode", exc
            with pytest.raises(type(exc)):  # the kernel raises where the scalar path does
                classify_batch(p, s, tols)
            return
    p[node] = s[node] = 0.0  # NaN there, which classify_batch raises on, as theta does
    codes, th, wp_sq, wm_sq = classify_batch(p, s, tols)
    checked = 0
    for i, a in scalar.items():
        if in_band(a.p_mu, a.s_mu, a.w_plus, a.w_minus, tols):
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
        assert checked > 0.5 * n
    if name == "one_mode":
        pytest.fail("no event of the one-mode field raised")
    if name == "null":
        assert node.all()


def test_classify_batch_matches_classify_pair_on_normal_pairs():
    pairs = np.random.default_rng(4242).standard_normal((20_000, 8))
    codes, th, wp_sq, wm_sq = classify_batch(pairs[:, :4], pairs[:, 4:], TOLS)
    checked = 0
    for i, row in enumerate(pairs.tolist()):
        p, s = FourVector(*row[:4]), FourVector(*row[4:])
        sel = classify_pair(p, s, TOLS)
        wp = wm = None
        if sel is not Selection.ORTHOGONAL_DEGENERATE:
            t = theta(p, s, TOLS)
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
    """classify_pair's verdict, or the type of what it raises, and its
    candidates (None where it has none)."""
    try:
        sel = classify_pair(p, s, TOLS)
    except (BothTimelikeError, FieldOverflowError) as exc:
        return type(exc), None, None
    if sel is Selection.ORTHOGONAL_DEGENERATE:
        return sel, None, None
    return (sel, *w_fields(p, s, theta(p, s, TOLS)))


@given(vectors, vectors, st.sampled_from([-600, 600]))
def test_classify_batch_on_pairs_rescaled_far_from_one(p, s, e):
    f = math.ldexp(1.0, e)
    ps, ss = scaled(p, f), scaled(s, f)
    want, wp, wm = scalar_outcome(ps, ss)
    if not isinstance(want, Selection):
        with pytest.raises(want):  # the kernel raises where classify_pair raises
            classify_batch(np.array([ps]), np.array([ss]), TOLS)
        return
    codes = classify_batch(np.array([ps]), np.array([ss]), TOLS)[0]
    if not in_band(*scalar_margins(ps, ss, wp, wm)) and not cancelled(ps, ss, wp, wm):
        assert SELECTIONS[codes[0]] is want


def scalar_margins(p, s, wp, wm):
    """The pair and its candidates as theta and causal_class rescale them,
    which moves no margin against its threshold."""
    p, s = _rescaled(p, s)
    if wp is None:
        return p, s
    return (p, s, *_rescaled(wp), *_rescaled(wm))


def cancelled(p, s, wp, wm):
    """True when a candidate is below 1e-6 of its terms exp(+-theta) p and s.

    One ulp of theta (numpy's arcsinh against math's) moves such a
    candidate's margin by more than a tenth of the tolerance, so rounding
    decides its class; parallel p and s give an exactly null candidate whose
    rounding residue can come out spacelike on one path and zero on the other.
    """
    if wp is None:
        return False
    p, s = _rescaled(p, s)
    th = theta(p, s, TOLS)
    return any(
        math.sqrt(euclidean_sq(w))
        <= 1e-6 * (f * math.sqrt(euclidean_sq(p)) + math.sqrt(euclidean_sq(s)))
        for f, w in zip((math.exp(th), math.exp(-th)), w_fields(p, s, th))
    )


ONE_MODE_BOX = Region(FourVector(-1.0, -1.0, -1.0, -1.0), FourVector(1.0, 1.0, 1.0, 1.0))


def test_kernel_raises_where_the_scalar_path_raises():
    # exp(theta) overflows
    big = FourVector(1.0, 0.0, 0.0, 0.0), FourVector(5e-309, 0.0, 0.0, 0.0)
    # p.p - s.s and 2 p.s both overflow, so theta is NaN
    h = math.sqrt(sys.float_info.max)
    nan = FourVector(0.999 * h, 0.0, 0.0, 0.0), FourVector(0.6 * h, 0.79 * h, 0.0, 0.0)
    for pair, error in ((big, FieldOverflowError), (nan, ValueError)):
        with pytest.raises(error):
            classify_pair(*pair)
        with pytest.raises(error):
            classify_batch(np.array([PLUS_P, pair[0]]), np.array([PLUS_S, pair[1]]))
    # the first raising row, in row order, decides the error
    with pytest.raises(ValueError):
        classify_batch(np.array([nan[0], big[0]]), np.array([nan[1], big[1]]))
    # both candidates timelike: the one-mode field raises, in bulk too
    with pytest.raises(BothTimelikeError):
        estimate_spacetime_fraction(one_mode(), ONE_MODE_BOX, n=3000, seed=5)
    # theta = -inf: math.exp(inf) is inf without an OverflowError, so neither
    # path raises, and the kernel gives classify_pair's verdict
    p, s = INF_THETA
    assert theta(p, s) == -math.inf
    assert SELECTIONS[classify_batch(np.array([p]), np.array([s]))[0][0]] is classify_pair(p, s)


# (p.p - s.s) / (2 p.s) overflows, so theta = -inf
INF_THETA = FourVector(0.0, 2.225073858507e-311, 0.0, 0.0), FourVector(1.0, 2.0, 0.0, 0.0)


@pytest.mark.xfail(strict=True, reason="exp(+-inf) saturates: a NaN candidate reads as spacelike")
def test_infinite_theta_pair_gets_its_verdict():
    # p and s span the (x0, x1) plane, which is Lorentzian; exactly,
    # -exp(-theta) p + s = (1, 0.5, 0, 0) is timelike. Computed, exp(-theta)
    # is inf, 0 * inf makes the candidate NaN, and causal_class calls it
    # spacelike, so the verdict is both_spacelike.
    p, s = INF_THETA
    assert plane_class(p, s) is PlaneClass.LORENTZIAN_PLANE
    assert classify_pair(p, s) is Selection.MINUS_TIMELIKE


def scaled_pairs(e):
    """30,000 seeded standard normal (p, s) rows, times 2^e."""
    return np.ldexp(np.random.default_rng(1).standard_normal((30_000, 8)), e)


def batch_codes(pairs):
    return classify_batch(pairs[:, :4], pairs[:, 4:])[0]


def scalar_codes(pairs):
    return np.array([
        SELECTIONS.index(classify_pair(FourVector(*row[:4]), FourVector(*row[4:])))
        for row in pairs.tolist()
    ])


@pytest.mark.xfail(strict=True, reason="exp(+-theta) p + s overflows: an infinite candidate reads as spacelike")
@pytest.mark.parametrize("codes", [batch_codes, scalar_codes], ids=["batch", "scalar"])
def test_pairs_near_the_float_maximum_keep_their_verdicts(codes):
    # At 2^1020 the candidate exp(+-theta) p + s of some timelike verdicts
    # overflows to inf, inner(w, w) is NaN, and causal_class calls it
    # spacelike: 865 of these rows turn both_spacelike on both paths.
    assert np.array_equal(codes(scaled_pairs(1020)), codes(scaled_pairs(0)))


PLUS_P = FourVector(0.3, 1.2, -0.7, 0.4)
PLUS_S = FourVector(1.1, -0.2, 0.5, 0.9)


@pytest.mark.parametrize("e", [-600, -500, 520])
def test_theta_rescales_pairs_whose_squares_under_or_overflow(e):
    f = math.ldexp(1.0, e)
    p, s = scaled(PLUS_P, f), scaled(PLUS_S, f)
    assert classify_pair(PLUS_P, PLUS_S) is Selection.PLUS_TIMELIKE
    assert theta(p, s) == theta(PLUS_P, PLUS_S)
    assert classify_pair(p, s) is Selection.PLUS_TIMELIKE
    codes, th, wp_sq, wm_sq = classify_batch(np.array([p, PLUS_P]), np.array([s, PLUS_S]))
    assert SELECTIONS[codes[0]] is Selection.PLUS_TIMELIKE
    assert th[0] == th[1] and close(th[0], theta(PLUS_P, PLUS_S), abs(th[0]))
    # the norms are those of the candidates of the given pair, not rescaled
    wp, wm = w_fields(p, s, theta(p, s))
    np.testing.assert_allclose([wp_sq[0], wm_sq[0]], [inner(wp, wp), inner(wm, wm)], rtol=RTOL)
    # the candidates of normal pairs scaled by 2^e and 2^-e in turn: each row
    # gets its own power of two before each test, so every verdict is the
    # unscaled pair's
    pairs = np.random.default_rng(3).standard_normal((50, 8))
    rows = np.ldexp(pairs, np.resize([e, -e], 50)[:, None])
    codes = classify_batch(rows[:, :4], rows[:, 4:])[0]
    for code, row in zip(codes, pairs.tolist()):
        assert SELECTIONS[code] is classify_pair(FourVector(*row[:4]), FourVector(*row[4:]))
    # a zero covector stays degenerate
    zero = FourVector(0.0, 0.0, 0.0, 0.0)
    for pair in ((zero, s), (p, zero), (zero, zero)):
        assert classify_pair(*pair) is Selection.ORTHOGONAL_DEGENERATE
        codes, th, wp_sq, wm_sq = classify_batch(np.array([pair[0]]), np.array([pair[1]]))
        assert SELECTIONS[codes[0]] is Selection.ORTHOGONAL_DEGENERATE
        assert np.isnan([th[0], wp_sq[0], wm_sq[0]]).all()


@pytest.mark.parametrize("e", [-600, 520, 1000])
def test_classify_batch_is_scale_free(e):
    # every verdict is homogeneous of degree zero in (p, s), and scaling by
    # 2^e is exact, so the scaled draws get the unscaled draws' codes
    assert np.array_equal(batch_codes(scaled_pairs(e)), batch_codes(scaled_pairs(0)))


@pytest.mark.parametrize("e", [-600, -500, 520])
def test_grid_scan_is_scale_free(e, degenerate_field):
    # k -> k * 2^e and x -> x * 2^-e keep every phase, so every verdict.
    # At 2^-500 the squares stay normal but the p.s ~ 0 threshold underflows,
    # and the degenerate cells still carry NaN.
    f = math.ldexp(1.0, e)
    box = Region(scaled(BOX.lo, 1 / f), scaled(BOX.hi, 1 / f))
    want = grid_scan(counterexample(), BOX, (4, 4, 4, 4))
    got = grid_scan(counterexample(f), box, (4, 4, 4, 4))
    assert np.array_equal(got.codes, want.codes)
    assert (np.abs(got.theta - want.theta) <= RTOL * np.abs(want.theta)).all()
    scaled_field = Superposition(
        mass=f, modes=tuple(PlaneWaveMode(scaled(m.k, f), m.c) for m in degenerate_field.modes)
    )
    scan = grid_scan(scaled_field, box, (3, 3, 3, 3))
    assert (scan.codes == SELECTIONS.index(Selection.ORTHOGONAL_DEGENERATE)).all()
    assert np.isnan(scan.theta).all() and np.isnan(scan.w_plus_sq).all()


def test_bulk_paths_run_without_the_scalar_path(monkeypatch, cx):
    f = math.ldexp(1.0, -600)
    box = Region(scaled(BOX.lo, 1 / f), scaled(BOX.hi, 1 / f))

    def bulk():
        scan = grid_scan(counterexample(f), box, (4, 4, 4, 4))
        kernel = [classify_batch(q[:, :4], q[:, 4:]) for q in map(scaled_pairs, (-600, 520))]
        arrays = [*kernel, (scan.codes, scan.theta, scan.w_plus_sq, scan.w_minus_sq)]
        return (
            estimate_spacetime_fraction(cx, BOX, 10_000, 3),
            sample_pair_space(30000, 1),
            # repr of the lists, since NaN numerics never compare equal
            repr([[a.tolist() for a in out] for out in arrays]),
            scan.axes,
        )

    want = bulk()

    def scalar_path(*args, **kwargs):
        raise AssertionError("a bulk path called the scalar path")

    for module in (kgbohm.construction, kgbohm.measure):
        for name in ("theta", "w_fields", "causal_class", "_candidates", "analyze_point"):
            monkeypatch.setattr(module, name, scalar_path, raising=False)
    assert bulk() == want
    with pytest.raises(BothTimelikeError):
        estimate_spacetime_fraction(one_mode(), ONE_MODE_BOX, n=3000, seed=5)


@given(vectors, vectors)
def test_complement_plane_has_the_other_signature(p, s):
    # The Minkowski complement of span(p, s) is the null space of the rows
    # raise_index(p), raise_index(s); a spacelike plane's complement is
    # Lorentzian and a Lorentzian plane's is spacelike.
    want, wp, wm = scalar_outcome(p, s)
    assume(want in (Selection.BOTH_SPACELIKE, Selection.PLUS_TIMELIKE, Selection.MINUS_TIMELIKE))
    # a candidate that is not finite (theta = +-inf, see
    # test_infinite_theta_pair_gets_its_verdict) has no margin outside the band
    assume(wp.is_finite() and wm.is_finite())
    assume(not in_band(*scalar_margins(p, s, wp, wm)))
    # the plane's own Gram margin, on p and s rescaled as plane_class does
    (a,), (b,) = _rescaled(p), _rescaled(s)
    gram = inner(a, a) * inner(b, b) - inner(a, b) ** 2
    assume(abs(gram) > BAND * TOLS.causal * euclidean_sq(a) * euclidean_sq(b))
    rows = np.array([raise_index(p), raise_index(s)])
    rows /= np.abs(rows).max(axis=1, keepdims=True)  # so SVD keeps the smaller one
    u, v = (FourVector(*row) for row in np.linalg.svd(rows)[2][2:].tolist())
    code = classify_batch(np.array([p]), np.array([s]), TOLS)[0][0]
    assert SELECTIONS[code] is want
    plane = plane_class(u, v, TOLS)
    assert (plane is PlaneClass.LORENTZIAN_PLANE) == (want is Selection.BOTH_SPACELIKE)
    assert (plane is PlaneClass.SPACELIKE_PLANE) == (want is not Selection.BOTH_SPACELIKE)


MIRROR = {
    Selection.PLUS_TIMELIKE: Selection.MINUS_TIMELIKE,
    Selection.MINUS_TIMELIKE: Selection.PLUS_TIMELIKE,
}


def batch_outcome(p, s):
    """classify_batch's one row for the pair, or the type of what it raises."""
    try:
        return classify_batch(np.array([p]), np.array([s]), TOLS)
    except (BothTimelikeError, FieldOverflowError) as exc:
        return type(exc)


@given(vectors, vectors)
def test_mirror_swaps_plus_and_minus(p, s):
    # p -> -p negates p.s exactly, so theta is odd, and exp(-theta) (-p) + s
    # is -exp(-theta) p + s: the candidates swap bit for bit, and with them
    # the verdicts, raises included. No band: it holds everywhere.
    want, wp, wm = scalar_outcome(p, s)
    got, gp, gm = scalar_outcome(scaled(p, -1.0), s)
    assert got is MIRROR.get(want, want)
    assert repr((gp, gm)) == repr((wm, wp))  # repr, since NaN never compares equal
    row, mirrored = batch_outcome(p, s), batch_outcome(scaled(p, -1.0), s)
    if isinstance(row, type):
        assert mirrored is row is want
        return
    codes, th, wp_sq, wm_sq = row
    assert SELECTIONS[mirrored[0][0]] is MIRROR.get(SELECTIONS[codes[0]], SELECTIONS[codes[0]])
    np.testing.assert_array_equal(mirrored[1:], (-th, wm_sq, wp_sq))


@given(vectors, vectors)
def test_timelike_p_or_s_rules_out_both_spacelike(p, s):
    # A plane that holds a timelike vector is Lorentzian, so exactly one of
    # its two orthogonal candidates is timelike.
    assume(inner(p, p) > 0.0 or inner(s, s) > 0.0)
    want, wp, wm = scalar_outcome(p, s)
    # exp(theta) overflows (FieldOverflowError), or a candidate is not finite:
    # test_infinite_theta_pair_gets_its_verdict and
    # test_pairs_near_the_float_maximum_keep_their_verdicts pin that defect
    assume(isinstance(want, Selection))
    assume(wp is None or (wp.is_finite() and wm.is_finite()))
    assume(not in_band(*scalar_margins(p, s, wp, wm)))
    assert want is not Selection.BOTH_SPACELIKE
    code = classify_batch(np.array([p]), np.array([s]), TOLS)[0][0]
    assert SELECTIONS[code] is not Selection.BOTH_SPACELIKE


def test_grid_scan_matches_analyze_point(cx):
    scan = grid_scan(cx, BOX, (6, 6, 6, 6))
    rows = zip(
        itertools.product(*scan.axes),
        scan.codes.tolist(),
        scan.theta.tolist(),
        scan.w_plus_sq.tolist(),
        scan.w_minus_sq.tolist(),
    )
    for xs, code, th, wp_sq, wm_sq in rows:
        a = analyze_point(cx, FourVector(*xs))
        if a.theta is None:
            assert SELECTIONS[code] is a.selection and math.isnan(th)
            continue
        if not in_band(a.p_mu, a.s_mu, a.w_plus, a.w_minus):
            assert SELECTIONS[code] is a.selection
        assert close(th, a.theta, abs(a.theta))
        assert close(wp_sq, inner(a.w_plus, a.w_plus), euclidean_sq(a.w_plus))
        assert close(wm_sq, inner(a.w_minus, a.w_minus), euclidean_sq(a.w_minus))


def test_batch_inputs_are_checked(cx):
    with pytest.raises(ValueError):
        cx.polar_gradients_batch(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        classify_batch(np.zeros((3, 4)), np.zeros((2, 4)))
