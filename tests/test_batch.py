"""The batch verdict kernel against the scalar path it must reproduce.

polar_gradients_batch and classify_batch compute the scalar path's
quantities on arrays. Verdicts must agree on every row whose margins lie
outside 10x every tolerance; theta and the candidate norms within 1e-10
relative. The kernel decides every row itself, and raises the scalar
path's error where the scalar path raises. The lattice path that grid_scan
takes is checked against this event path on the same points
(support.check_lattice), against a np.longdouble reference, and under
translation.
"""

import cmath
import hashlib
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
)
from kgbohm.construction import _candidates, classify_batch
from kgbohm.minkowski import _rescaled
from support import (
    check_lattice,
    classify_pair,
    evaluate,
    packet,
    raise_index,
    scaled,
    w_fields,
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
        _, p_i, s_i = w.polar_gradients(ev, tols)
        if p_i is None:
            assert node[i] and s_i is None
            continue
        assert not node[i]
        g = math.sqrt(euclidean_sq(p_i) + euclidean_sq(s_i))
        for got, want in zip(np.concatenate([p[i], s[i]]), (*p_i, *s_i)):
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
        t, wp, wm, _, _, sel = _candidates(p, s, TOLS)
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
    return (sel, *map(FourVector._make, _candidates(p, s, TOLS)[1:3]))


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
    """The pair and its candidates as theta and _candidates rescale them,
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


def pinned_bank():
    """Seeded (p, s) batches: 20,000 standard normal pairs as strided
    slices of an (N, 8) draw and as contiguous copies, times 2^e, with zero
    p and s rows among them, parallel pairs s = +-p, and parallel pairs
    s = lambda p one row at a time. N = 0 closes the bank."""
    draw = np.random.default_rng([20, 8]).standard_normal((20_000, 8))
    p, s = draw[:, :4], draw[:, 4:]
    yield p, s
    yield p.copy(), s.copy()
    for e in (-600, 520, 1000):
        yield np.ldexp(p, e), np.ldexp(s, e)
    rows = np.arange(len(p))[:, None]
    yield np.where(rows % 3 == 0, 0.0, p), np.where(rows % 5 == 0, 0.0, s)
    yield p, np.where(rows % 2 == 0, 1.0, -1.0) * p
    # a candidate of a parallel pair is exactly zero, and what rounding
    # leaves of it points along p, so some rows raise BothTimelikeError
    for lam in (0.5, 2.0, 3.0):
        for i in range(300):
            yield p[i : i + 1], lam * p[i : i + 1]
    yield p[:0], s[:0]


# SHA-256 of every array classify_batch returns on pinned_bank(), with its
# dtype, or of the repr of what it raises. A kernel rewrite that keeps the
# scalar path's operations in their order moves no bit of it.
KERNEL_DIGEST = "02fa1dfe0b2322bba56fac0cf33e7e0d2004f78a235898dd675673eb60836119"


def test_kernel_bits_are_pinned():
    digest = hashlib.sha256()
    for p, s in pinned_bank():
        try:
            arrays = classify_batch(p, s)
        except BothTimelikeError as exc:
            digest.update(repr(exc).encode())
            continue
        for a in arrays:
            digest.update(a.dtype.str.encode())
            digest.update(a.tobytes())
    assert digest.hexdigest() == KERNEL_DIGEST
    # the errors keep their type and message
    x = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3000, 4))
    p, s = one_mode().polar_gradients_batch(x)[1:3]
    with pytest.raises(BothTimelikeError) as both:
        classify_batch(p, s)
    assert str(both.value) == (
        "both candidate covectors classified timelike; orthogonal "
        "vectors cannot both be timelike, check tolerances"
    )
    p, s = next(pinned_bank())
    p = p.copy()
    p[7, 2] = math.inf
    with pytest.raises(FieldOverflowError) as overflow:
        classify_batch(p, s)
    assert str(overflow.value) == (
        "p or s is not finite: the gradient of psi overflows double precision"
    )


# SHA-256 of _candidates' output on every 5th row of each pinned_bank()
# batch: theta and both candidates in float.hex, both classes and the
# selection, or the repr of what it raises. The rows take both rescale
# branches (2^-600, 2^520, 2^1000), hold zero covectors and parallel pairs
# that raise BothTimelikeError; a rewrite of the scalar path that keeps
# every operation and its order moves no bit of it.
SCALAR_DIGEST = "edf54a4722bec751b8fd694681b1219d2351b7858f784a3afb54f2b608183772"


def test_scalar_bits_are_pinned():
    digest = hashlib.sha256()
    for p, s in pinned_bank():
        for row in np.hstack([p, s])[::5].tolist():
            try:
                out = _candidates(FourVector(*row[:4]), FourVector(*row[4:]), TOLS)
            except BothTimelikeError as exc:
                digest.update(repr(exc).encode())
                continue
            th, wp, wm, cp, cm, sel = out
            values = [] if th is None else [th, *wp, *wm]
            digest.update(" ".join(map(float.hex, values)).encode())
            digest.update(repr([None if c is None else c.value for c in (cp, cm, sel)]).encode())
    assert digest.hexdigest() == SCALAR_DIGEST


def outcome(classify, p, s):
    """What classify raises on (p, s), as (type, message up to any value),
    or None."""
    try:
        classify(p, s)
    except (BothTimelikeError, FieldOverflowError) as exc:
        return type(exc), str(exc).split(" = ")[0]
    return None


def test_kernel_raises_where_the_scalar_path_raises():
    # exp(theta) overflows
    big = FourVector(1.0, 0.0, 0.0, 0.0), FourVector(5e-309, 0.0, 0.0, 0.0)
    # p or s not finite (the gradient of psi overflowed): an infinite
    # threshold would call the pair p.s ~ 0
    inf = FourVector(math.inf, 0.0, 0.0, 0.0), FourVector(1.0, 0.0, 0.0, 0.0)
    not_a_number = FourVector(1.0, 0.0, 0.0, 0.0), FourVector(math.nan, 1.0, 0.0, 0.0)
    for pair in (big, inf, not_a_number):
        with pytest.raises(FieldOverflowError):
            classify_pair(*pair)
        with pytest.raises(FieldOverflowError):
            classify_batch(np.array([PLUS_P, pair[0]]), np.array([PLUS_S, pair[1]]))
    # the first raising row, in row order, decides the error; the other two
    # rows get verdicts, a pair near the float maximum included
    fine = [(PLUS_P, PLUS_S), HUGE_PAIRS["difference-and-product-overflow"][:2]]
    for rows in itertools.permutations(fine + [big, inf, not_a_number]):
        first = next(e for e in (outcome(classify_pair, *r) for r in rows) if e is not None)
        p, s = (np.array(side) for side in zip(*rows))
        assert outcome(classify_batch, p, s) == first
    # both candidates timelike: the one-mode field raises, in bulk too
    with pytest.raises(BothTimelikeError):
        estimate_spacetime_fraction(one_mode(), ONE_MODE_BOX, n=3000, seed=5)
    # theta = -inf: math.exp(inf) is inf without an OverflowError, so neither
    # path raises, and the kernel gives classify_pair's verdict
    p, s = INF_THETA
    assert theta(p, s) == -math.inf
    assert SELECTIONS[classify_batch(np.array([p]), np.array([s]))[0][0]] is classify_pair(p, s)


def test_an_infinite_phase_raises_the_same_error_on_both_paths():
    # the second mode's phase k.x is inf here: math.cos(inf) raises on the
    # scalar path, np.cos(inf) makes the row's p and s NaN on the batch path
    cx, x = counterexample(), FourVector(1e308, 1e308, 0.0, 0.0)
    with pytest.raises(FieldOverflowError) as scalar:
        analyze_point(cx, x)
    with pytest.raises(FieldOverflowError) as batch:
        kgbohm.measure._verdicts(cx, np.array([x]), TOLS)
    assert str(scalar.value) == str(batch.value)


H = math.sqrt(sys.float_info.max)
# Pairs whose p.p - s.s or 2 p.s overflow, with their theta: halved before
# the subtraction, the difference stays finite, and theta is not NaN or 0
HUGE_PAIRS = {
    "difference-and-product-overflow": (
        FourVector(0.999 * H, 0.0, 0.0, 0.0), FourVector(0.6 * H, 0.79 * H, 0.0, 0.0), 0.9182
    ),
    "product-overflows": (
        FourVector(1.2e154, 0.0, 0.0, 0.0), FourVector(1e154, 5e153, 0.0, 0.0), 0.2837
    ),
}


@pytest.mark.parametrize("p, s, th", HUGE_PAIRS.values(), ids=HUGE_PAIRS)
def test_pairs_near_the_float_maximum_get_the_theta_of_the_pair_scaled_down(p, s, th):
    small = scaled(p, 2.0**-600), scaled(s, 2.0**-600)
    assert theta(p, s) == theta(*small) == pytest.approx(th, abs=1e-4)
    assert classify_pair(p, s) is classify_pair(*small)
    codes, ths = classify_batch(np.array([p, small[0]]), np.array([s, small[1]]))[:2]
    assert codes[0] == codes[1] and ths[0] == ths[1]
    assert SELECTIONS[codes[0]] is classify_pair(p, s)


# a component anywhere in the float range, from the smallest subnormal up
spread = st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0), st.integers(-1074, 1023))


@given(st.lists(spread, min_size=8, max_size=8))
@example([c for v in HUGE_PAIRS["difference-and-product-overflow"][:2] for c in v])
@settings(max_examples=500)
def test_theta_is_never_nan(components):
    p, s = FourVector(*components[:4]), FourVector(*components[4:])
    th = theta(p, s)
    assert th is None or not math.isnan(th)
    try:
        batch_th = classify_batch(np.array([p]), np.array([s]))[1][0]
    except (FieldOverflowError, BothTimelikeError):
        return  # exp(+-theta) overflows, or both candidates read timelike
    assert math.isnan(batch_th) == (th is None)


# (p.p - s.s) / (2 p.s) overflows, so theta = -inf
INF_THETA = FourVector(0.0, 2.225073858507e-311, 0.0, 0.0), FourVector(1.0, 2.0, 0.0, 0.0)


@pytest.mark.xfail(strict=True, reason="exp(+-inf) saturates: a NaN candidate reads as spacelike")
def test_infinite_theta_pair_gets_its_verdict():
    # p and s span the (x0, x1) plane, which is Lorentzian; exactly,
    # -exp(-theta) p + s = (1, 0.5, 0, 0) is timelike. Computed, exp(-theta)
    # is inf, 0 * inf makes the candidate NaN, and its null band calls it
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
    # overflows to inf, inner(w, w) is NaN, and its null band calls it
    # spacelike: 865 of these rows turn both_spacelike on both paths.
    assert np.array_equal(codes(scaled_pairs(1020)), codes(scaled_pairs(0)))


@pytest.mark.xfail(strict=True, reason="what rounding leaves of the zero candidate points along p")
@pytest.mark.parametrize("codes", [batch_codes, scalar_codes], ids=["batch", "scalar"])
def test_parallel_pairs_get_boundary(codes):
    # s = lambda p makes one candidate exactly zero, so every verdict is
    # boundary. Computed, the candidate is a residue along p: some rows
    # raise BothTimelikeError and others read timelike (ROADMAP item 2).
    p = next(pinned_bank())[0][:2000]
    pairs = np.concatenate([np.hstack([p, lam * p]) for lam in (0.5, 2.0, 3.0, 0.7)])
    assert (codes(pairs) == SELECTIONS.index(Selection.BOUNDARY)).all()


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
    wp, wm = _candidates(p, s, TOLS)[1:3]
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
        for name in ("theta", "select", "_candidates", "analyze_point"):
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


# Each wave on boxes of unit width offset up to +-10, on an even and an
# uneven lattice: far from the origin, the event path's phase sums round
# at the size of the phase, while the lattice rounds each axis factor.
WAVES = {"counterexample": counterexample, **{f"packet{i}": lambda i=i: packet(i) for i in range(4)}}
OFFSETS = np.random.default_rng(17).uniform(-10.0, 10.0, size=(len(WAVES), 4))
LATTICE_CASES = [
    pytest.param(
        name,
        Region(FourVector(*(o - 0.5).tolist()), FourVector(*(o + 0.5).tolist())),
        res,
        id=f"{name}-{'x'.join(map(str, res))}",
    )
    for name, o in zip(WAVES, OFFSETS)
    for res in [(6, 6, 6, 6), (7, 5, 4, 3)]
]


@pytest.mark.parametrize("name,region,resolution", LATTICE_CASES)
def test_lattice_matches_the_event_path_off_the_origin(name, region, resolution):
    compared = check_lattice(WAVES[name](), region, resolution)
    assert compared > 0.9 * math.prod(resolution)


def longdouble_polar(w, x):
    """psi, p and s at the events x (N, 4), summed in np.longdouble."""
    x = np.asarray(x, dtype=np.longdouble)
    psi = np.zeros(len(x), dtype=np.clongdouble)
    g = np.zeros((len(x), 4), dtype=np.clongdouble)
    for m in w.modes:
        k = np.array(tuple(m.k), dtype=np.longdouble)
        phase = (x * k).sum(axis=1)
        term = np.clongdouble(m.c) * (np.cos(phase) + 1j * np.sin(phase))
        psi += term
        g += 1j * term[:, None] * k
    r = g / psi[:, None]
    return psi, r.real, r.imag


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 60, reason="np.longdouble is no wider than a float"
)
def test_lattice_path_is_as_accurate_as_the_event_path():
    # max error of p and s over every case, in units of amp_sum max|k| / |psi|
    worst = {"event": 0.0, "lattice": 0.0}
    for name, region, resolution in (case.values for case in LATTICE_CASES):
        w = WAVES[name]()
        axes = [
            kgbohm.measure._axis_coords(region.lo[i], region.hi[i], resolution[i])
            for i in range(4)
        ]
        x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
        psi, p_ref, s_ref = longdouble_polar(w, x)
        k_max = max(math.sqrt(euclidean_sq(m.k)) for m in w.modes)
        unit = w.amp_sum * k_max / np.abs(psi).astype(float)
        for path, (_, p, s, node) in [
            ("event", w.polar_gradients_batch(x)),
            ("lattice", w.polar_gradients_lattice(axes)),
        ]:
            err = np.maximum(np.abs(p - p_ref).max(axis=1), np.abs(s - s_ref).max(axis=1))
            worst[path] = max(worst[path], float((err.astype(float) / unit)[~node].max()))
    assert 0.0 < worst["lattice"] <= worst["event"] < 1e-12


@pytest.mark.parametrize(
    "resolution,block,blocks",
    [
        # a block of 24 * 60 * 2 entries holds two x0 slices
        pytest.param((7, 5, 4, 3), 24 * 60 * 2, [(2, 60)] * 3 + [(1, 60)], id="2880"),
        # a block smaller than one cell still holds one cell
        pytest.param((7, 5, 4, 3), 1, [(1, 1)] * 420, id="1"),
        # one x0 slice is too large: runs of x1 slices, then of x2 slices
        pytest.param((1, 5, 4, 3), 24 * 12 * 2, [(2, 12)] * 2 + [(1, 12)], id="1x5x4x3-576"),
        pytest.param((1, 5, 4, 3), 24 * 3 * 3, [(3, 3), (1, 3)] * 5, id="1x5x4x3-216"),
    ],
)
def test_lattice_blocks_give_the_same_bits(monkeypatch, resolution, block, blocks):
    # blocks lists each block's run length and the cells in one of its slices
    w = packet(0)
    region = Region(FourVector(-1.0, -1.0, -1.0, -1.0), FourVector(1.0, 1.0, 1.0, 1.0))
    whole = grid_scan(w, region, resolution)  # 2^16 entries: one block
    shapes, rows = [], []
    einsum, classified = np.einsum, kgbohm.measure._classified

    def einsum_spy(subscripts, weights, terms):
        shapes.append(terms.shape)
        return einsum(subscripts, weights, terms)

    def classified_spy(p, s, node, tols):
        rows.append(len(p))
        return classified(p, s, node, tols)

    monkeypatch.setattr(np, "einsum", einsum_spy)
    monkeypatch.setattr(kgbohm.measure, "_classified", classified_spy)
    monkeypatch.setattr(kgbohm.measure, "_LATTICE_BLOCK", block)
    split = grid_scan(w, region, resolution)
    # the terms reach einsum as (re, im) pairs, two floats per cell, and
    # each block is classified on its own
    assert shapes == [(24, 2 * n * cells) for n, cells in blocks]
    assert rows == [n * cells for n, cells in blocks]
    assert split.axes == whole.axes
    for field in ("codes", "theta", "w_plus_sq", "w_minus_sq"):
        assert getattr(split, field).tobytes() == getattr(whole, field).tobytes()


shifts = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=4, max_size=4
)


def robust_codes(w, region, resolution):
    """grid_scan's codes, and where they stay the same with every
    tolerance divided and multiplied by 1e3."""
    def codes(f):
        t = Tolerances(causal=TOLS.causal * f, ortho=TOLS.ortho * f, node=TOLS.node * f)
        return grid_scan(w, region, resolution, t).codes

    want = codes(1.0)
    return want, (codes(1e-3) == want) & (codes(1e3) == want)


@settings(max_examples=25, deadline=None)
@given(shifts, st.sampled_from(["counterexample", "packet0"]))
def test_translated_scan_keeps_its_verdicts(a, name):
    # psi'(x + a) = psi(x) for c_i -> c_i exp(-i k_i.a), so the scan of the
    # shifted box with the shifted amplitudes has the same verdicts. A sign
    # or an index wrong in the per-axis factors breaks this.
    w = WAVES[name]()
    moved = Superposition(
        mass=w.mass,
        modes=tuple(
            PlaneWaveMode(m.k, m.c * cmath.exp(-1j * sum(k * s for k, s in zip(m.k, a))))
            for m in w.modes
        ),
    )
    box = Region(
        FourVector(*(u + s for u, s in zip(BOX.lo, a))),
        FourVector(*(u + s for u, s in zip(BOX.hi, a))),
    )
    resolution = (4, 3, 4, 5)
    codes, robust = robust_codes(w, BOX, resolution)
    moved_codes, moved_robust = robust_codes(moved, box, resolution)
    both = robust & moved_robust
    assert both.sum() >= 0.9 * codes.size
    assert np.array_equal(moved_codes[both], codes[both])


def test_batch_inputs_are_checked(cx):
    with pytest.raises(ValueError):
        cx.polar_gradients_batch(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        cx.polar_gradients_lattice([(0.0,), (0.0,), (0.0,)])
    with pytest.raises(ValueError):
        cx.polar_gradients_lattice([(0.0,), (0.0,), (0.0,), ()])
    with pytest.raises(ValueError):
        classify_batch(np.zeros((3, 4)), np.zeros((2, 4)))
