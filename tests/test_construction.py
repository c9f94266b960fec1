import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kgbohm import (
    DEFAULT_TOLERANCES,
    BothTimelikeError,
    CausalClass,
    FieldOverflowError,
    FourVector,
    PlaneClass,
    PlaneWaveMode,
    Selection,
    Superposition,
    Tolerances,
    analyze_point,
    euclidean_sq,
    inner,
    select,
    theta,
)
from kgbohm.construction import _candidates
from kgbohm.minkowski import _HUGE, _TINY, _rescaled
from support import (
    candidate_class,
    classify_pair,
    evaluate,
    random_point,
    random_superposition,
    scaled,
    two_mode_polar_oracle,
    w_fields,
)

ORIGIN = FourVector(0.0, 0.0, 0.0, 0.0)

# Closed-form values at the origin of the three-wave example (m=1):
# gamma = 3 - 1/sqrt(3), alpha = sqrt(26)/gamma, beta = alpha/sqrt(3),
# p = (0, alpha, -alpha, 0), s = (0, -beta, 0, 0),
# sinh(theta) = (p.p - s.s)/(2 p.s) = -5 sqrt(3)/6.
GAMMA = 2.4226497308103743
ALPHA = 2.104728326487035
BETA = 1.2151654658683202
SINH_THETA = -1.4433756729740643
THETA = -1.1629376511878056
EXP_THETA = 0.31256661916805867
W_PLUS = (0.0, -0.5572976485910217, -0.6578678172772985, 0.0)
W_MINUS = (0.0, -7.94886061248722, 6.7336951466189, 0.0)

# Every finite float, plus small integers so exactly orthogonal pairs and
# zero covectors come up often.
any_component = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
)


class TestTheta:
    def test_frozen_origin_value(self, cx):
        _, p, s = cx.polar_gradients(ORIGIN)
        assert theta(p, s) == pytest.approx(THETA, rel=1e-12)
        assert math.sinh(theta(p, s)) == pytest.approx(SINH_THETA, rel=1e-12)
        assert inner(p, s) == pytest.approx(
            2.5575931773818676, rel=1e-12
        )

    def test_orthogonal_pair_has_no_theta(self):
        p = FourVector(0.0, 1.0, 0.0, 0.0)
        s = FourVector(1.0, 0.0, 0.0, 0.0)
        assert theta(p, s) is None

    def test_zero_p_has_no_theta(self):
        assert theta(ORIGIN, FourVector(1.0, 0.0, 0.0, 0.0)) is None

    def test_threshold_is_relative(self):
        p = FourVector(0.0, 1.0, 0.0, 0.0)
        s_ok = FourVector(0.0, 1e-8, 1.0, 0.0)  # cosine ~ 1e-8, above the cut
        assert math.isfinite(theta(p, s_ok))
        s_bad = FourVector(0.0, 1e-10, 1.0, 0.0)  # cosine ~ 1e-10, below it
        assert theta(p, s_bad) is None
        # pure rescaling cannot rescue a nearly-orthogonal pair
        assert theta(scaled(p, 1e8), scaled(s_bad, 1e-8)) is None

    @given(
        p=st.builds(FourVector, *[any_component] * 4),
        s=st.builds(FourVector, *[any_component] * 4),
        ortho=st.sampled_from([1e-9, 1e-6, 1e-2]),
    )
    def test_none_exactly_where_the_verdict_is_orthogonal_degenerate(self, p, s, ortho):
        th = theta(p, s, Tolerances(ortho=ortho))
        try:
            sel = classify_pair(p, s, Tolerances(ortho=ortho))
        except (BothTimelikeError, FieldOverflowError):
            assert th is not None
            return
        assert (th is None) == (sel is Selection.ORTHOGONAL_DEGENERATE)

    def test_large_ratio_stays_finite(self):
        # asinh absorbs huge arguments without overflow
        p = FourVector(0.0, 1e150, 0.0, 0.0)
        s = FourVector(1e-100, 1e-100, 0.0, 0.0)
        assert math.isfinite(theta(p, s))


def reference_theta(p, s, ortho_tol):
    """theta built from inner and euclidean_sq, in the order it is pinned to."""
    threshold = ortho_tol * (math.sqrt(euclidean_sq(p)) * math.sqrt(euclidean_sq(s)))
    if not _TINY <= threshold <= _HUGE:
        p, s = _rescaled(p, s)
        threshold = ortho_tol * (math.sqrt(euclidean_sq(p)) * math.sqrt(euclidean_sq(s)))
    q = inner(p, s)
    if abs(q) <= threshold:
        return None
    return math.asinh((inner(p, p) - inner(s, s)) / (2.0 * q))


def reference_causal_class(v, tol):
    """A candidate's causal class from inner and euclidean_sq, with the null
    band and rescale of _candidates."""
    threshold = tol * euclidean_sq(v)
    if not _TINY <= threshold <= _HUGE:
        (v,) = _rescaled(v)
        threshold = tol * euclidean_sq(v)
    q = inner(v, v)
    if abs(q) <= threshold:
        return CausalClass.NULL
    return CausalClass.TIMELIKE if q > 0.0 else CausalClass.SPACELIKE


unit_components = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
)


@given(
    p=st.builds(FourVector, *[unit_components] * 4),
    s=st.builds(FourVector, *[unit_components] * 4),
    e=st.sampled_from([-600, 0, 520]),
    ortho=st.sampled_from([1e-9, 1e-2]),
    class_tol=st.sampled_from([DEFAULT_TOLERANCES.causal, 2.0**-52]),
    off_null=st.floats(min_value=-3.0, max_value=3.0),
)
def test_theta_and_causal_class_keep_their_operation_order(
    p, s, e, ortho, class_tol, off_null
):
    # the scalar path writes inner and euclidean_sq out on the components;
    # a sum taken in another order moves a last bit the path digests can
    # miss. Each verdict is also checked with its band's edge on the
    # quantity it bounds, and with a null band a few ulps wide around a
    # vector near the light cone, where the verdict hangs on those bits.
    r = math.sqrt(euclidean_sq(FourVector(0.0, *p[1:])))
    near_null = FourVector(r * (1.0 + off_null * class_tol), *p[1:])
    f = math.ldexp(1.0, e)
    p, s, near_null = scaled(p, f), scaled(s, f), scaled(near_null, f)

    def edge(num, den):  # scale-free, as the bands are
        return abs(num) / den if den > 0.0 else 0.0

    pr, sr = _rescaled(p, s)
    ortho_edge = edge(inner(pr, sr), math.sqrt(euclidean_sq(pr)) * math.sqrt(euclidean_sq(sr)))
    for tol in (ortho_edge, ortho):  # th is ortho's after the loop
        if not 0.0 < tol <= _HUGE:
            continue
        th, ref = theta(p, s, Tolerances(ortho=tol)), reference_theta(p, s, tol)
        assert (th is None) == (ref is None)
        assert th is None or th.hex() == ref.hex()
    for v in (p, s, near_null):  # classed as the candidate 2v (support.candidate_class)
        (u,) = _rescaled(v)
        for tol in (class_tol, edge(inner(u, u), euclidean_sq(u))):
            if 0.0 < tol <= _HUGE:
                got = candidate_class(v, Tolerances(causal=tol))
                want = reference_causal_class(scaled(v, 2.0), tol)
                assert got is want or (got is None and want is CausalClass.NULL)
    if th is None:
        return
    try:
        candidates = w_fields(p, s, th)
    except OverflowError:  # exp(+-theta): TestWFields::test_overflowing_angle
        return
    for j, w in enumerate(candidates):
        (u,) = _rescaled(w)
        for tol in (class_tol, edge(inner(u, u), euclidean_sq(u))):
            if 0.0 < tol <= _HUGE:
                try:
                    out = _candidates(p, s, Tolerances(causal=tol, ortho=ortho))
                except BothTimelikeError:
                    assert {reference_causal_class(c, tol) for c in candidates} == {
                        CausalClass.TIMELIKE
                    }
                    continue
                assert [c.hex() for c in out[1 + j]] == [c.hex() for c in w]
                assert out[3 + j] is reference_causal_class(w, tol)


class TestWFields:
    """The candidates exp(theta) p + s and -exp(-theta) p + s of _candidates."""

    def test_mutual_orthogonality_at_origin(self, cx):
        _, p, s = cx.polar_gradients(ORIGIN)
        _, wp, wm = _candidates(p, s, DEFAULT_TOLERANCES)[:3]
        scale = math.sqrt(euclidean_sq(wp)) * math.sqrt(euclidean_sq(wm))
        assert abs(inner(wp, wm)) <= 1e-12 * scale

    def test_frozen_origin_components(self, cx):
        _, p, s = cx.polar_gradients(ORIGIN)
        _, wp, wm = _candidates(p, s, DEFAULT_TOLERANCES)[:3]
        for got, want in zip(wp, W_PLUS):
            assert got == pytest.approx(want, abs=1e-12 * abs(W_MINUS[1]))
        for got, want in zip(wm, W_MINUS):
            assert got == pytest.approx(want, abs=1e-12 * abs(W_MINUS[1]))

    def test_overflowing_angle(self):
        # (p.p - s.s) / (2 p.s) = +-1e308, so |theta| = 709.87 and exp(|theta|)
        # is not representable; the overflow is refused, never saturated
        p = FourVector(1.0, 0.0, 0.0, 0.0)
        for s in (FourVector(5e-309, 0.0, 0.0, 0.0), FourVector(-5e-309, 0.0, 0.0, 0.0)):
            th = theta(p, s)
            assert 709.8 < abs(th) < 710.0
            with pytest.raises(FieldOverflowError, match="exp\\(theta\\) with theta = "):
                _candidates(p, s, DEFAULT_TOLERANCES)


class TestSelect:
    T = CausalClass.TIMELIKE
    S = CausalClass.SPACELIKE
    N = CausalClass.NULL

    def test_single_timelike_candidate(self):
        assert select(self.T, self.S) is Selection.PLUS_TIMELIKE
        assert select(self.S, self.T) is Selection.MINUS_TIMELIKE

    def test_both_spacelike(self):
        assert select(self.S, self.S) is Selection.BOTH_SPACELIKE

    def test_null_is_boundary(self):
        for pair in [(self.N, self.S), (self.S, self.N), (self.N, self.N),
                     (self.N, self.T), (self.T, self.N)]:
            assert select(*pair) is Selection.BOUNDARY

    def test_both_timelike_is_structurally_impossible(self):
        with pytest.raises(BothTimelikeError):
            select(self.T, self.T)


class TestAnalyzePoint:
    def test_origin_full_report(self, cx):
        a = analyze_point(cx, ORIGIN)
        assert a.x == ORIGIN
        assert a.psi == pytest.approx(complex(GAMMA, 0.0), rel=1e-15)
        assert a.p_mu[1] == pytest.approx(ALPHA, rel=1e-12)
        assert a.p_mu[2] == pytest.approx(-ALPHA, rel=1e-12)
        assert a.s_mu[1] == pytest.approx(-BETA, rel=1e-12)
        assert abs(a.p_mu[0]) <= 1e-12 * ALPHA and abs(a.p_mu[3]) <= 1e-12 * ALPHA
        assert abs(a.s_mu[0]) <= 1e-12 * BETA
        assert a.theta == pytest.approx(THETA, rel=1e-12)
        assert math.exp(a.theta) == pytest.approx(EXP_THETA, rel=1e-12)
        assert a.class_plus is CausalClass.SPACELIKE
        assert a.class_minus is CausalClass.SPACELIKE
        assert a.selection is Selection.BOTH_SPACELIKE
        assert a.plane is PlaneClass.SPACELIKE_PLANE
        assert a.gram_consistent

    def test_to_dict_is_json_ready(self, cx):
        d = analyze_point(cx, ORIGIN).to_dict()
        payload = json.loads(json.dumps(d))
        assert payload["selection"] == "both_spacelike"
        assert payload["plane"] == "spacelike_plane"
        assert payload["psi"][0] == pytest.approx(GAMMA)
        assert len(payload["w_plus"]) == 4

    def test_two_mode_matches_closed_form(self, two_mode):
        x = FourVector(0.3, 0.7, 0.0, 0.0)
        k1, k2 = (m.k for m in two_mode.modes)
        p_o, s_o = two_mode_polar_oracle(k1, k2, 2 + 0j, 1 + 0j, x)
        a = analyze_point(two_mode, x)
        for got, want in zip(a.p_mu, p_o):
            assert got == pytest.approx(want, abs=1e-14)
        for got, want in zip(a.s_mu, s_o):
            assert got == pytest.approx(want, abs=1e-14)
        assert a.selection is Selection.MINUS_TIMELIKE
        assert a.plane is PlaneClass.LORENTZIAN_PLANE
        assert a.theta == pytest.approx(3.673267222757515, rel=1e-12)
        assert a.gram_consistent

    def test_two_mode_equal_amplitudes_degenerate_everywhere(self):
        # |c1| = |c2| forces p.s = 0 identically, so no point has a verdict
        w = Superposition(
            mass=1.0,
            modes=(
                PlaneWaveMode(k=FourVector(1.0, 0.0, 0.0, 0.0), c=1 + 0j),
                PlaneWaveMode(
                    k=FourVector(math.sqrt(2.0), 1.0, 0.0, 0.0), c=1 + 0j
                ),
            ),
        )
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = analyze_point(w, random_point(rng))
            assert a.selection is Selection.ORTHOGONAL_DEGENERATE
            assert a.theta is None and a.w_plus is None and a.w_minus is None

    def test_single_mode_never_yields_a_quiet_verdict(self):
        # One plane wave has p identically zero, so no angle exists anywhere.
        # In floats p is zero at most events (degeneracy error) but can also
        # be pure rounding noise pointing anywhere, in which case the
        # candidates come out inconsistent; either way the analysis must
        # say so rather than return a selection built on noise.
        w = Superposition(
            mass=1.0,
            modes=(PlaneWaveMode(k=FourVector(1.0, 0.0, 0.0, 0.0), c=2.0 + 1.0j),),
        )
        rng = np.random.default_rng(9)
        for _ in range(200):
            try:
                a = analyze_point(w, random_point(rng))
            except BothTimelikeError:
                continue
            assert a.selection is Selection.ORTHOGONAL_DEGENERATE

    def test_node_is_a_verdict(self, null_field):
        a = analyze_point(null_field, ORIGIN)
        assert a.selection is Selection.NODE
        assert a.psi == 0
        assert a.p_mu is None and a.plane is None and a.theta is None
        assert a.to_dict()["p_mu"] is None

    @pytest.mark.parametrize(
        "field, tols",
        [("null_field", Tolerances()), ("cx", Tolerances(node=0.5))],
        ids=["null", "counterexample-widened-node"],
    )
    def test_node_psi_is_evaluate_bit_for_bit(self, request, field, tols):
        w = request.getfixturevalue(field)
        a = analyze_point(w, ORIGIN, tols)
        assert a.selection is Selection.NODE
        want = evaluate(w, ORIGIN)
        assert (a.psi.real.hex(), a.psi.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_node_psi_is_evaluate_at_every_event(self, cx):
        # |psi| never exceeds the amplitude sum, so node=1 makes every event
        # a node and psi is reported wherever the field has one
        rng = np.random.default_rng(13)
        for _ in range(200):
            x = random_point(rng, scale=3.0)
            a = analyze_point(cx, x, Tolerances(node=1.0))
            want = evaluate(cx, x)
            assert a.selection is Selection.NODE
            assert (a.psi.real.hex(), a.psi.imag.hex()) == (
                want.real.hex(), want.imag.hex()
            )

    @given(
        which=st.sampled_from(["null", "degenerate", "counterexample"]),
        x=st.tuples(*[st.floats(-3.0, 3.0)] * 4),
    )
    def test_total_with_absent_fields_exactly_off_the_rule(
        self, cx, degenerate_field, null_field, which, x
    ):
        w = {"null": null_field, "degenerate": degenerate_field, "counterexample": cx}
        a = analyze_point(w[which], FourVector(*x))
        absent = {f.name for f in fields(a) if getattr(a, f.name) is None}
        candidates = {"theta", "w_plus", "w_minus", "class_plus", "class_minus"}
        if a.selection is Selection.NODE:
            assert absent == candidates | {"p_mu", "s_mu", "plane"}
        elif a.selection is Selection.ORTHOGONAL_DEGENERATE:
            assert absent == candidates
        else:
            assert absent == set()

    def test_selection_invariant_under_global_rescaling(self, cx):
        scale = complex(0.5, -2.0)
        scaled = Superposition(
            mass=cx.mass,
            modes=tuple(PlaneWaveMode(k=m.k, c=m.c * scale) for m in cx.modes),
        )
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = random_point(rng, scale=1.0)
            a, b = analyze_point(cx, x), analyze_point(scaled, x)
            assert a.selection is b.selection
            assert a.theta == pytest.approx(b.theta, rel=1e-9)

    def test_gram_consistency_over_random_sweep(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            w = random_superposition(rng)
            a = analyze_point(w, random_point(rng))
            assert a.gram_consistent, (w, a)


class TestClassifyPair:
    def test_matches_analyze_point(self, cx):
        rng = np.random.default_rng(31)
        for _ in range(50):
            x = random_point(rng, scale=1.0)
            a = analyze_point(cx, x)
            assert classify_pair(a.p_mu, a.s_mu) is a.selection

    def test_raw_pair_buckets(self):
        rng = np.random.default_rng(32)
        seen = set()
        for _ in range(300):
            z = rng.standard_normal(8)
            p = FourVector(*map(float, z[:4]))
            s = FourVector(*map(float, z[4:]))
            seen.add(classify_pair(p, s))
        assert Selection.BOTH_SPACELIKE in seen
        assert Selection.PLUS_TIMELIKE in seen or Selection.MINUS_TIMELIKE in seen

    def test_orthogonal_pair_is_a_verdict(self):
        p = FourVector(0.0, 1.0, 0.0, 0.0)
        s = FourVector(1.0, 0.0, 0.0, 0.0)
        assert classify_pair(p, s) is Selection.ORTHOGONAL_DEGENERATE


class TestTolerances:
    def test_defaults(self):
        t = Tolerances()
        assert t.causal == 1e-9 and t.ortho == 1e-9 and t.node == 1e-12
        # each default is declared once, as a field default of Tolerances
        assert t == Tolerances(
            DEFAULT_TOLERANCES.causal, DEFAULT_TOLERANCES.ortho, DEFAULT_TOLERANCES.node
        )

    @pytest.mark.parametrize(
        "bad",
        [dict(causal=0.0), dict(ortho=-1e-9), dict(node=0.0)]
        # a bool, an infinity or an int beyond the float range would give
        # verdicts, not an error
        + [
            {field: value}
            for field in ("causal", "ortho", "node")
            for value in (True, math.inf, math.nan, 10**400, 0, -1e-9)
        ],
    )
    def test_positive_required(self, bad):
        (field,) = bad
        with pytest.raises(ValueError, match=f"'{field}'"):
            Tolerances(**bad)
