import hashlib
import math

import numpy as np
import pytest
from support import evaluate, gradient, raise_index, random_superposition, scaled

import kgbohm.construction as construction_mod
from kgbohm import (
    DEFAULT_TOLERANCES,
    FourVector,
    IllDefinedVelocityError,
    Selection,
    Superposition,
    Termination,
    Tolerances,
    TrajectoryConfig,
    analyze_point,
    counterexample,
    inner,
    integrate,
    write_trajectory_csv,
)

ORIGIN = FourVector(0.0, 0.0, 0.0, 0.0)
GOOD_START = FourVector(0.3, 0.7, 0.0, 0.0)


def velocity(w, x):
    """The unit tangent at x: the first point of a one-step path from x."""
    return integrate(w, x, TrajectoryConfig(step=0.1, max_steps=1)).points[0].u


class TestVelocity:
    def test_unit_future_pointing(self, two_mode):
        u = velocity(two_mode, GOOD_START)
        assert inner(u, u) == pytest.approx(1.0, abs=1e-12)
        assert u.c0 > 0.0

    def test_ill_defined_where_both_candidates_are_spacelike(self, cx):
        with pytest.raises(IllDefinedVelocityError) as exc_info:
            velocity(cx, ORIGIN)
        assert exc_info.value.selection is Selection.BOTH_SPACELIKE

    def test_degenerate_field_reports_cause(self, two_mode):
        # equal amplitudes force p.s = 0 identically
        from kgbohm import PlaneWaveMode, Superposition

        w = Superposition(
            mass=two_mode.mass,
            modes=tuple(PlaneWaveMode(k=m.k, c=1 + 0j) for m in two_mode.modes),
        )
        with pytest.raises(IllDefinedVelocityError) as exc_info:
            velocity(w, GOOD_START)
        assert exc_info.value.selection is Selection.ORTHOGONAL_DEGENERATE

    def test_node_propagates(self, null_field):
        with pytest.raises(IllDefinedVelocityError) as exc_info:
            velocity(null_field, ORIGIN)
        assert exc_info.value.selection is Selection.NODE

    def test_rescaling_the_wave_leaves_velocity_unchanged(self, two_mode):
        from kgbohm import PlaneWaveMode, Superposition

        scaled = Superposition(
            mass=two_mode.mass,
            modes=tuple(
                PlaneWaveMode(k=m.k, c=m.c * complex(-3.0, 4.0))
                for m in two_mode.modes
            ),
        )
        u1 = velocity(two_mode, GOOD_START)
        u2 = velocity(scaled, GOOD_START)
        for a, b in zip(u1, u2):
            assert a == pytest.approx(b, abs=1e-13)


class TestIntegrate:
    def test_smooth_run_reaches_step_cap(self, two_mode):
        res = integrate(two_mode, GOOD_START, TrajectoryConfig(step=0.25, max_steps=8))
        assert res.termination is Termination.MAX_STEPS
        assert res.failed_at is None
        assert len(res.points) == 9
        # 0.25 is a power of two, so accumulated proper time is exact
        assert res.points[-1].tau == 2.0
        assert [p.tau for p in res.points] == [0.25 * i for i in range(9)]

    def test_points_carry_unit_future_tangents(self, two_mode):
        res = integrate(two_mode, GOOD_START, TrajectoryConfig(step=0.1, max_steps=20))
        for p in res.points:
            assert abs(inner(p.u, p.u) - 1.0) <= 1e-12
            assert p.u.c0 > 0.0
            assert p.selection in (Selection.PLUS_TIMELIKE, Selection.MINUS_TIMELIKE)

    def test_enters_ill_defined_region_and_stops(self, cx):
        res = integrate(
            cx,
            FourVector(-0.6, -0.45, 0.4, 0.0),
            TrajectoryConfig(step=0.02, max_steps=400),
        )
        assert res.termination is Termination.ENTERED_BOTH_SPACELIKE
        assert len(res.points) == 26
        assert res.failed_at is not None
        # the recorded stage point independently reproduces the verdict
        assert analyze_point(cx, res.failed_at).selection is Selection.BOTH_SPACELIKE
        # every accepted point still had a well-defined velocity
        for p in res.points:
            assert p.selection in (Selection.PLUS_TIMELIKE, Selection.MINUS_TIMELIKE)

    @pytest.mark.parametrize("e", [-1000, -600, 520, 1000])
    def test_path_scales_exactly_with_the_mass(self, cx, e):
        # At mass 2^e every covector is 2^e times the unit-mass one and every
        # event and step 2^-e times; the selected covector's square under-
        # or overflows there, yet the path must be the unit-mass path scaled
        def bits(v):
            return tuple(c.hex() for c in v)

        x0 = FourVector(-0.6, -0.45, 0.4, 0.0)
        base = integrate(cx, x0, TrajectoryConfig(step=0.02, max_steps=400))
        s = math.ldexp(1.0, -e)
        res = integrate(
            counterexample(math.ldexp(1.0, e)),
            scaled(x0, s),
            TrajectoryConfig(step=0.02 * s, max_steps=400),
        )
        assert res.termination is base.termination is Termination.ENTERED_BOTH_SPACELIKE
        assert len(res.points) == len(base.points) == 26
        assert bits(res.failed_at) == bits(scaled(base.failed_at, s))
        for got, want in zip(res.points, base.points):
            assert got.tau.hex() == (want.tau * s).hex()
            assert bits(got.x) == bits(scaled(want.x, s))
            assert bits(got.u) == bits(want.u)
            assert bits(got.w) == bits(scaled(want.w, 1.0 / s))
            assert got.selection is want.selection

    def test_stops_at_widened_node(self, cx):
        cfg = TrajectoryConfig(step=0.05, max_steps=200, tols=Tolerances(node=0.3))
        res = integrate(cx, FourVector(-1.5, -0.5, 0.0, 0.0), cfg)
        assert res.termination is Termination.HIT_NODE
        assert len(res.points) == 9
        assert res.failed_at is not None

    def test_overflow_is_reported(self, two_mode, monkeypatch):
        # the candidates of the start are fine; at every stage point theta
        # reads 800, whose exp(theta) _candidates refuses
        real = construction_mod.theta
        calls = {"n": 0}

        def exploding(p, s, tols):
            calls["n"] += 1
            return real(p, s, tols) if calls["n"] == 1 else 800.0

        monkeypatch.setattr(construction_mod, "theta", exploding)
        res = integrate(two_mode, GOOD_START, TrajectoryConfig(step=0.1, max_steps=5))
        assert res.termination is Termination.OVERFLOW
        assert len(res.points) == 1
        assert res.failed_at is not None

    @pytest.mark.parametrize(
        "x0,step,n_points,phase",
        [
            ((3e307, 0.0, 0.0, 0.0), 1e307, 1, math.inf),  # math.cos(inf) raises
            ((0.3, 0.7, 0.0, 0.0), 1e307, 3, math.inf),
            ((0.0, 1e307, 0.0, 0.0), 5e307, 1, math.nan),  # p and s NaN: theta raises
        ],
    )
    def test_stage_whose_phase_overflows_ends_the_path(self, cx, x0, step, n_points, phase):
        # every phase k.x at x0 is finite; at the stage point that stops the
        # path some mode's phase is not
        with pytest.warns(UserWarning, match="step \\* mass"):
            res = integrate(cx, FourVector(*x0), TrajectoryConfig(step=step, max_steps=5))
        assert res.termination is Termination.OVERFLOW
        assert len(res.points) == n_points
        phases = [sum(k * x for k, x in zip(m.k, res.failed_at)) for m in cx.modes]
        assert any(math.isnan(f) for f in phases) == math.isnan(phase)
        assert (math.inf in phases or -math.inf in phases) == math.isinf(phase)

    def test_bad_start_raises_instead_of_returning(self, cx):
        with pytest.raises(IllDefinedVelocityError):
            integrate(cx, ORIGIN, TrajectoryConfig(step=0.1, max_steps=5))

    def test_node_start_raises(self, null_field):
        with pytest.raises(IllDefinedVelocityError) as exc_info:
            integrate(null_field, ORIGIN, TrajectoryConfig(step=0.1, max_steps=5))
        assert exc_info.value.selection is Selection.NODE

    def test_reruns_are_bit_identical(self, cx):
        cfg = TrajectoryConfig(step=0.02, max_steps=50)
        x0 = FourVector(-0.6, -0.45, 0.4, 0.0)
        assert integrate(cx, x0, cfg).points == integrate(cx, x0, cfg).points

    def test_large_step_warns(self, two_mode):
        with pytest.warns(UserWarning, match="step \\* mass"):
            integrate(two_mode, GOOD_START, TrajectoryConfig(step=1.5, max_steps=1))

    def test_fourth_order_convergence(self, two_mode):
        T = 2.0

        def final_x(n):
            res = integrate(
                two_mode, GOOD_START, TrajectoryConfig(step=T / n, max_steps=n)
            )
            assert res.termination is Termination.MAX_STEPS
            return res.points[-1].x

        ref = final_x(2048)

        def err(n):
            return math.dist(final_x(n), ref)

        e8, e16, e32 = err(8), err(16), err(32)
        assert e8 == pytest.approx(5.392045230320595e-10, rel=1e-3)
        orders = [math.log2(e8 / e16), math.log2(e16 / e32)]
        assert all(3.5 <= o <= 4.5 for o in orders), orders


# The verdict each termination names, written out independently of the
# module's own table.
TERMINATION_VERDICT = {
    Termination.ENTERED_BOTH_SPACELIKE: Selection.BOTH_SPACELIKE,
    Termination.ENTERED_ORTHOGONAL_DEGENERATE: Selection.ORTHOGONAL_DEGENERATE,
    Termination.ENTERED_BOUNDARY: Selection.BOUNDARY,
    Termination.HIT_NODE: Selection.NODE,
}


def unit_tangent(w_sel):
    """The unit future-pointing tangent of a selected covector."""
    u = scaled(raise_index(w_sel), 1.0 / math.sqrt(inner(w_sel, w_sel)))
    return scaled(u, -1.0) if u.c0 < 0.0 else u


class TestLeanStage:
    """integrate's stages skip the full point analysis; every accepted point
    must still carry exactly what analyze_point gives at its event."""

    @pytest.mark.parametrize(
        "field, tols, seed, stop",
        [
            ("cx", Tolerances(), 31, Termination.ENTERED_BOTH_SPACELIKE),
            ("packet", Tolerances(), 32, Termination.ENTERED_BOTH_SPACELIKE),
            ("cx", Tolerances(node=0.3), 33, Termination.HIT_NODE),
        ],
        ids=["counterexample", "24-mode-packet", "widened-node"],
    )
    def test_points_and_stops_match_analyze_point(self, request, field, tols, seed, stop):
        if field == "packet":
            w = random_superposition(np.random.default_rng(5), n_modes=24)
        else:
            w = request.getfixturevalue(field)
        cfg = TrajectoryConfig(step=0.02, max_steps=60, tols=tols)
        starts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(12, 4)).tolist()
        seen = set()
        for x0 in map(FourVector._make, starts):
            try:
                res = integrate(w, x0, cfg)
            except IllDefinedVelocityError as exc:
                assert analyze_point(w, x0, tols).selection is exc.selection
                seen.add("start")
                continue
            seen.add(res.termination)
            for pt in res.points:
                a = analyze_point(w, pt.x, tols)
                assert pt.selection is a.selection
                want_w = a.w_plus if a.selection is Selection.PLUS_TIMELIKE else a.w_minus
                assert pt.w == want_w
                assert pt.u == unit_tangent(want_w)
                self.assert_polar_split_is_the_ratio(w, pt.x)
            if res.termination is Termination.MAX_STEPS:
                assert res.failed_at is None
            else:
                a = analyze_point(w, res.failed_at, tols)
                assert a.selection is TERMINATION_VERDICT[res.termination]
        assert {Termination.MAX_STEPS, stop} <= seen, seen

    def test_every_stage_calls_the_public_evaluator(self, cx, monkeypatch):
        real = Superposition.polar_gradients
        calls = []

        def counted(self, x, tols=DEFAULT_TOLERANCES):
            calls.append(x)
            return real(self, x, tols)

        monkeypatch.setattr(Superposition, "polar_gradients", counted)
        res = integrate(cx, FourVector(-0.6, -0.45, 0.4, 0.0), TrajectoryConfig(0.02, 400))
        assert res.termination is Termination.ENTERED_BOTH_SPACELIKE
        # the start, 4 stages per accepted step, 1 to 4 in the step that stopped
        steps = len(res.points) - 1
        assert steps > 0 and 1 <= len(calls) - 1 - 4 * steps <= 4
        assert calls[: 4 * steps + 1 : 4] == [pt.x for pt in res.points]
        assert calls[-1] == res.failed_at
        calls.clear()
        analyze_point(cx, res.failed_at)
        assert calls == [res.failed_at]

    @staticmethod
    def assert_polar_split_is_the_ratio(w, x):
        got_psi, p, s = w.polar_gradients(x)
        psi = evaluate(w, x)
        ratios = [g / psi for g in gradient(w, x)]
        assert got_psi == psi
        assert p == tuple(r.real for r in ratios)
        assert s == tuple(r.imag for r in ratios)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "step",
        [0.0, -0.1, float("nan"), math.inf, pytest.param(10**400, id="huge-int"), True],
    )
    def test_bad_step(self, step):
        with pytest.raises(ValueError):
            TrajectoryConfig(step=step, max_steps=10)

    @pytest.mark.parametrize("max_steps", [0, -3, 2.5, True])
    def test_bad_max_steps(self, max_steps):
        with pytest.raises(ValueError):
            TrajectoryConfig(step=0.1, max_steps=max_steps)


class TestCsvOutput:
    def test_layout_and_roundtrip(self, two_mode, tmp_path):
        res = integrate(two_mode, GOOD_START, TrajectoryConfig(step=0.25, max_steps=4))
        out = tmp_path / "traj.csv"
        write_trajectory_csv(res, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,x0,x1,x2,x3,u0,u1,u2,u3,selection"
        assert lines[-1] == "# termination: max_steps"
        data = lines[1:-1]
        assert len(data) == len(res.points)
        first = data[0].split(",")
        assert len(first) == 10
        # repr-written floats roundtrip exactly
        assert float(first[0]) == res.points[0].tau
        assert [float(v) for v in first[1:5]] == list(res.points[0].x)
        assert [float(v) for v in first[5:9]] == list(res.points[0].u)
        assert first[9] == res.points[0].selection.value

    def test_termination_comment_matches_result(self, cx, tmp_path):
        res = integrate(
            cx,
            FourVector(-0.6, -0.45, 0.4, 0.0),
            TrajectoryConfig(step=0.02, max_steps=400),
        )
        out = tmp_path / "traj.csv"
        write_trajectory_csv(res, out)
        assert out.read_text().splitlines()[-1] == (
            "# termination: entered_both_spacelike"
        )


def _path_record(w, x0, cfg):
    """One line per accepted point (tau, x, u, w in float.hex, selection),
    then the termination and failed_at; or the verdict of a refused start."""
    try:
        res = integrate(w, x0, cfg)
    except IllDefinedVelocityError as exc:
        return f"refused {exc.selection.value}\n", None
    lines = [
        " ".join([pt.tau.hex(), *(c.hex() for v in pt[1:4] for c in v), pt.selection.value])
        for pt in res.points
    ]
    failed = "none" if res.failed_at is None else " ".join(c.hex() for c in res.failed_at)
    lines.append(f"{res.termination.value} {failed}")
    return "\n".join(lines) + "\n", res


class TestPathPin:
    """Every accepted point, termination and failed_at of seeded paths, bit
    for bit, and the CSV bytes of every tenth path, as sha256 digests. A
    change to the floating-point operations of a step moves a digest."""

    # case: (field, tolerances, seed, starts, outcomes seen, paths digest,
    # CSV digest), recorded before the RK4 step moved off FourVector operators
    CASES = {
        "counterexample": (
            "cx", Tolerances(), 41, 200,
            ["entered_both_spacelike", "max_steps", "refused"],
            "dfd78f2616b0c699d31f835fcd4122a84e4abae09bbbf51b517a7031d2558d7a",
            "f04921401ea0ec606080847c50075e46fca00ee1ceb5baa34b7379b8d2c0c856",
        ),
        "24-mode-packet": (
            "packet", Tolerances(), 42, 40,
            ["entered_both_spacelike", "max_steps", "refused"],
            "6a45f39c6423b4721ab15117cfb7f3d67c398f25859f2d41a3a7ae2fac20023c",
            "dacd249ec5e2310752f5463feb63e420a37a5b0a7d2693180dfb2c523c2ba400",
        ),
        "widened-node": (
            "cx", Tolerances(node=0.3), 43, 60,
            ["entered_both_spacelike", "hit_node", "refused"],
            "f52621d1662cf649c21b1ebc6627677330f4449365276c694aceb053c5db222e",
            "8d87a5f6d05fe8384f9275208c3d4e044cc6208ecc9e8131d27aa229132f95df",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_paths_are_pinned(self, request, tmp_path, case):
        field, tols, seed, n, *want = self.CASES[case]
        if field == "packet":
            w = random_superposition(np.random.default_rng(5), n_modes=24)
        else:
            w = request.getfixturevalue(field)
        cfg = TrajectoryConfig(step=0.02, max_steps=100, tols=tols)
        starts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 4)).tolist()
        paths, csvs, seen = hashlib.sha256(), hashlib.sha256(), set()
        out = tmp_path / "traj.csv"
        for i, x0 in enumerate(map(FourVector._make, starts)):
            record, res = _path_record(w, x0, cfg)
            paths.update(record.encode())
            if res is None:
                seen.add("refused")
                continue
            seen.add(res.termination.value)
            if i % 10 == 0:
                write_trajectory_csv(res, out)
                csvs.update(out.read_bytes())
        assert [sorted(seen), paths.hexdigest(), csvs.hexdigest()] == want
