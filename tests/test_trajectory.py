import math

import pytest

import kgbohm.trajectory as trajectory_mod
from kgbohm import (
    FieldOverflowError,
    FourVector,
    IllDefinedVelocityError,
    Selection,
    Termination,
    Tolerances,
    TrajectoryConfig,
    analyze_point,
    inner,
    integrate,
    velocity,
    write_trajectory_csv,
)

ORIGIN = FourVector(0.0, 0.0, 0.0, 0.0)
GOOD_START = FourVector(0.3, 0.7, 0.0, 0.0)


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

    def test_stops_at_widened_node(self, cx):
        cfg = TrajectoryConfig(step=0.05, max_steps=200, tols=Tolerances(node=0.3))
        res = integrate(cx, FourVector(-1.5, -0.5, 0.0, 0.0), cfg)
        assert res.termination is Termination.HIT_NODE
        assert len(res.points) == 9
        assert res.failed_at is not None

    def test_overflow_is_reported(self, two_mode, monkeypatch):
        real = trajectory_mod._tangent
        calls = {"n": 0}

        def exploding(w, x, tols):
            calls["n"] += 1
            if calls["n"] > 1:
                raise FieldOverflowError("candidate field overflowed")
            return real(w, x, tols)

        monkeypatch.setattr(trajectory_mod, "_tangent", exploding)
        res = integrate(two_mode, GOOD_START, TrajectoryConfig(step=0.1, max_steps=5))
        assert res.termination is Termination.OVERFLOW
        assert len(res.points) == 1
        assert res.failed_at is not None

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
            d = final_x(n) - ref
            return math.sqrt(sum(c * c for c in d))

        e8, e16, e32 = err(8), err(16), err(32)
        assert e8 == pytest.approx(5.392045230320595e-10, rel=1e-3)
        orders = [math.log2(e8 / e16), math.log2(e16 / e32)]
        assert all(3.5 <= o <= 4.5 for o in orders), orders


class TestConfigValidation:
    @pytest.mark.parametrize("step", [0.0, -0.1, float("nan")])
    def test_bad_step(self, step):
        with pytest.raises(ValueError):
            TrajectoryConfig(step=step, max_steps=10)

    @pytest.mark.parametrize("max_steps", [0, -3, 2.5])
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
