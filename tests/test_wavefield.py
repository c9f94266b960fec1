import cmath
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from kgbohm import (
    FourVector,
    PlaneWaveMode,
    Superposition,
    Tolerances,
    counterexample,
    inner,
    load_superposition,
)
from support import evaluate, gradient, random_point, random_superposition, to_dict

ORIGIN = FourVector(0.0, 0.0, 0.0, 0.0)


class TestValidation:
    def test_mass_must_be_positive(self):
        k = FourVector(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="mass"):
            Superposition(mass=0.0, modes=(PlaneWaveMode(k=k, c=1 + 0j),))
        with pytest.raises(ValueError, match="mass"):
            Superposition(mass=-1.0, modes=(PlaneWaveMode(k=k, c=1 + 0j),))
        # with an infinite mass the on-shell check compares inf with inf
        # and passes for any k
        for m in (math.inf, math.nan):
            with pytest.raises(ValueError, match="mass"):
                Superposition(mass=m, modes=(PlaneWaveMode(k=k, c=1 + 0j),))

    def test_bool_mass_refused(self):
        # the rule of Tolerances: a bool is not a positive finite number
        k = FourVector(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="mass"):
            Superposition(mass=True, modes=(PlaneWaveMode(k=k, c=1 + 0j),))

    @pytest.mark.parametrize(
        "build, refusal",
        [
            (
                lambda: Superposition(
                    mass=1.0, modes=(PlaneWaveMode(k=(1.0, 0.0, 0.0, 0.0), c=1j),)
                ),
                "mode 0: k must be a FourVector",
            ),
            (
                lambda: Superposition(
                    mass=1.0,
                    modes=(PlaneWaveMode(FourVector(1.0, 0.0, 0.0, 0.0), math.inf + 0j),),
                ),
                "mode 0: amplitude is not finite",
            ),
            (lambda: Superposition.from_dict([1.0]), "must be a JSON object"),
            (lambda: Superposition.from_dict({"mass": 1.0}), "missing 'modes' list"),
            (
                lambda: Superposition.from_dict({"mass": 1.0, "modes": [[1, 0, 0, 0]]}),
                "mode 0: entry must be an object",
            ),
        ],
        ids=["k_tuple", "amplitude_inf", "not_object", "no_modes", "entry"],
    )
    def test_malformed_mode_or_config_refused(self, build, refusal):
        with pytest.raises(ValueError, match=re.escape(refusal)):
            build()

    def test_needs_at_least_one_mode(self):
        with pytest.raises(ValueError, match="mode"):
            Superposition(mass=1.0, modes=())

    def test_off_shell_mode_rejected_with_index(self):
        good = PlaneWaveMode(k=FourVector(1.0, 0.0, 0.0, 0.0), c=1 + 0j)
        bad = PlaneWaveMode(k=FourVector(1.0, 1.0, 0.0, 0.0), c=1 + 0j)
        with pytest.raises(ValueError, match="mode 1"):
            Superposition(mass=1.0, modes=(good, bad))

    def test_negative_energy_mode_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Superposition(
                mass=1.0,
                modes=(PlaneWaveMode(k=FourVector(-1.0, 0.0, 0.0, 0.0), c=1 + 0j),),
            )

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError, match="mode 0"):
            Superposition(
                mass=1.0,
                modes=(PlaneWaveMode(k=FourVector(1.0, 0.0, 0.0, 0.0), c=0j),),
            )

    def test_off_shell_mode_rejected_when_squares_under_or_overflow(self):
        for m in (1e200, 1e-200):
            with pytest.raises(ValueError, match="mode 0"):
                Superposition(
                    mass=m,
                    modes=(PlaneWaveMode(k=FourVector(m, m / 2, 0.0, 0.0), c=1j),),
                )
        with pytest.raises(ValueError, match="mode 0"):
            Superposition.from_dict(
                {"mass": 1, "modes": [{"k": [2e200, 1e200, 0, 0], "c": [1, 0]}]}
            )

    @pytest.mark.parametrize("e", range(-3, 5))
    def test_on_shell_band_scales_with_k(self, e):
        # the rounding of k.k scales with k0^2 + |k|^2, not with m^2: a mode
        # built from the shell passes at every |k|/m = 10^e, and one off by
        # 1e-9 of that sum, either way, is refused
        refusal = re.escape(
            "mode 0: off the mass shell: "
            "|k.k - m^2| / (k0^2 + k1^2 + k2^2 + k3^2) = "
        )
        rng = np.random.default_rng(e + 3)
        for _ in range(200):
            m = float(rng.uniform(0.5, 2.0))
            kv = rng.normal(size=3)
            kv *= 10.0**e * m / math.sqrt(kv @ kv)
            k_sq = float(kv @ kv)
            k0 = math.sqrt(m * m + k_sq)
            Superposition(mass=m, modes=(PlaneWaveMode(FourVector(k0, *kv), 1j),))
            for sign in (1.0, -1.0):
                off = math.sqrt(m * m + k_sq + sign * 1e-9 * (k0 * k0 + k_sq))
                with pytest.raises(ValueError, match=refusal):
                    Superposition(
                        mass=m, modes=(PlaneWaveMode(FourVector(off, *kv), 1j),)
                    )

    def test_on_shell_tolerance_is_relative(self):
        # sqrt introduces one rounding; must still validate at any mass scale
        for m in (1e-6, 1.0, 1e6):
            kv = (0.3 * m, -0.4 * m, 1.2 * m)
            k0 = math.sqrt(m * m + sum(c * c for c in kv))
            Superposition(
                mass=m, modes=(PlaneWaveMode(k=FourVector(k0, *kv), c=1j),)
            )


class TestEvaluation:
    def test_single_mode_phase(self):
        k = FourVector(2.0, 1.0, 0.0, 0.0)
        w = Superposition(
            mass=math.sqrt(3.0), modes=(PlaneWaveMode(k=k, c=complex(0.5, 0.5)),)
        )
        x = FourVector(0.3, -0.2, 5.0, -7.0)
        # phase is the plain component pairing, not the Minkowski form
        phase = 2.0 * 0.3 + 1.0 * (-0.2)
        assert evaluate(w, x) == complex(0.5, 0.5) * cmath.exp(1j * phase)

    def test_value_at_origin_is_coefficient_sum(self, cx):
        got = evaluate(cx, ORIGIN)
        assert got == pytest.approx(complex(3.0 - 1.0 / math.sqrt(3.0), 0.0), rel=1e-15)

    def test_gradient_matches_central_difference(self):
        rng = np.random.default_rng(5)
        h = 1e-4
        for _ in range(20):
            w = random_superposition(rng)
            x = random_point(rng)
            grad = gradient(w, x)
            scale = sum(abs(g) for g in grad) + 1.0
            for mu in range(4):
                step = [0.0] * 4
                step[mu] = h
                xp = FourVector(*(a + s for a, s in zip(x, step)))
                xm = FourVector(*(a - s for a, s in zip(x, step)))
                fd = (evaluate(w, xp) - evaluate(w, xm)) / (2.0 * h)
                assert abs(fd - grad[mu]) <= 1e-6 * scale

    def test_gradient_at_origin_is_coefficient_weighted_wave_sum(self, cx):
        grad = gradient(cx, ORIGIN)
        for mu in range(4):
            expect = 1j * sum(md.c * md.k[mu] for md in cx.modes)
            assert grad[mu] == pytest.approx(expect, abs=1e-15)

    def test_solves_field_equation_numerically(self, two_mode):
        # -box(psi) = m^2 psi via second central differences
        x = FourVector(0.4, -0.1, 0.2, 0.7)
        h = 1e-3

        def second(mu):
            step = [0.0] * 4
            step[mu] = h
            xp = FourVector(*(a + s for a, s in zip(x, step)))
            xm = FourVector(*(a - s for a, s in zip(x, step)))
            return (
                evaluate(two_mode, xp)
                - 2.0 * evaluate(two_mode, x)
                + evaluate(two_mode, xm)
            ) / (h * h)

        box = second(0) - second(1) - second(2) - second(3)
        assert box == pytest.approx(-evaluate(two_mode, x), rel=1e-5)


class TestPolarGradients:
    def test_matches_complex_log_derivative(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            w = random_superposition(rng)
            x = random_point(rng)
            _, p, s = w.polar_gradients(x)
            psi = evaluate(w, x)
            grad = gradient(w, x)
            for mu in range(4):
                ratio = grad[mu] / psi
                assert p[mu] == pytest.approx(ratio.real, abs=1e-12)
                assert s[mu] == pytest.approx(ratio.imag, abs=1e-12)

    def test_p_is_gradient_of_log_magnitude(self, cx):
        # directional finite differences of log|psi| and of the phase
        x = FourVector(0.25, -0.35, 0.15, 0.05)
        _, p_mu, s_mu = cx.polar_gradients(x)
        h = 1e-5
        for mu in range(4):
            step = [0.0] * 4
            step[mu] = h
            xp = FourVector(*(a + s for a, s in zip(x, step)))
            xm = FourVector(*(a - s for a, s in zip(x, step)))
            ratio = evaluate(cx, xp) / evaluate(cx, xm)
            dlog = cmath.log(ratio) / (2.0 * h)
            assert p_mu[mu] == pytest.approx(dlog.real, abs=1e-5)
            assert s_mu[mu] == pytest.approx(dlog.imag, abs=1e-5)

    def test_invariant_under_global_rescaling(self):
        rng = np.random.default_rng(3)
        w = random_superposition(rng, n_modes=3)
        scale = complex(-2.5, 1.25)
        w2 = Superposition(
            mass=w.mass,
            modes=tuple(PlaneWaveMode(k=m.k, c=m.c * scale) for m in w.modes),
        )
        x = random_point(rng)
        (_, pa, sa), (_, pb, sb) = w.polar_gradients(x), w2.polar_gradients(x)
        for mu in range(4):
            assert pa[mu] == pytest.approx(pb[mu], abs=1e-12)
            assert sa[mu] == pytest.approx(sb[mu], abs=1e-12)

    def test_node_everywhere_field_has_no_split(self, null_field):
        assert evaluate(null_field, ORIGIN) == 0j
        assert null_field.polar_gradients(ORIGIN) == (0j, None, None)

    def test_node_threshold_is_relative_to_amplitude_sum(self, cx):
        # |psi(0)| / sum|c| ~ 0.47, so a 0.5 threshold trips and 0.4 does not
        _, p, s = cx.polar_gradients(ORIGIN, Tolerances(node=0.4))
        assert len(p) == len(s) == 4
        _, p, s = cx.polar_gradients(ORIGIN, Tolerances(node=0.5))
        assert p is None and s is None


class TestModeTerms:
    """Superposition keeps per-mode factors for its evaluations; they must
    not show in equality, hashing, repr or to_dict."""

    def test_cannot_be_seen_from_outside(self, cx):
        again = Superposition(mass=cx.mass, modes=cx.modes)
        object.__setattr__(again, "_terms", ())
        assert again == cx
        assert hash(cx) == hash(again) == hash((cx.mass, cx.modes))
        assert repr(cx) == f"Superposition(mass={cx.mass!r}, modes={cx.modes!r})"
        assert to_dict(cx) == {
            "mass": cx.mass,
            "modes": [
                {"k": list(m.k), "c": [m.c.real, m.c.imag]} for m in cx.modes
            ],
        }

    def test_replace_revalidates_and_recomputes(self, cx):
        with pytest.raises(ValueError, match="off the mass shell"):
            dataclasses.replace(cx, mass=2.0)
        heavy = counterexample(2.0)
        w = dataclasses.replace(cx, mass=2.0, modes=heavy.modes)
        x = FourVector(0.3, -0.2, 0.1, 0.4)
        assert w == heavy
        assert evaluate(w, x) == evaluate(heavy, x) != evaluate(cx, x)
        assert w.polar_gradients(x) == heavy.polar_gradients(x)

    def test_polar_gradients_agree_with_evaluate_and_gradient_bitwise(self):
        def bits(*zs):
            return [(z.real.hex(), z.imag.hex()) for z in zs]

        rng = np.random.default_rng(24)
        w = random_superposition(rng, n_modes=24)
        for _ in range(50):
            x = random_point(rng)
            got_psi, p, s = w.polar_gradients(x)
            psi = evaluate(w, x)
            assert bits(got_psi) == bits(psi)
            ratios = [g / psi for g in gradient(w, x)]
            assert bits(*ratios) == bits(*(complex(a, b) for a, b in zip(p, s)))


class TestSerialization:
    def test_round_trip(self, two_mode):
        again = Superposition.from_dict(to_dict(two_mode))
        assert again == two_mode

    def test_dict_shape(self, cx):
        d = to_dict(cx)
        assert set(d) == {"mass", "modes"}
        assert len(d["modes"]) == 3
        assert set(d["modes"][0]) == {"k", "c"}
        assert len(d["modes"][0]["k"]) == 4
        assert len(d["modes"][0]["c"]) == 2
        json.dumps(d)  # must be JSON-ready as-is

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.pop("mass"), "mass"),
            (lambda d: d.update(modes=[]), "mode"),
            (lambda d: d["modes"][0].update(k=[1.0, 0.0, 0.0]), "mode 0"),
            (lambda d: d["modes"][1].update(c=[0.0, 0.0]), "mode 1"),
            (lambda d: d["modes"][2].pop("c"), "mode 2"),
        ],
    )
    def test_from_dict_validation(self, cx, mutate, message):
        d = to_dict(cx)
        mutate(d)
        with pytest.raises(ValueError, match=message):
            Superposition.from_dict(d)

    def test_load_from_file(self, cx, config_file):
        path = config_file(cx)
        assert load_superposition(path) == cx


class TestCounterexampleBuilder:
    def test_structure(self, cx):
        assert cx.mass == 1.0
        assert len(cx.modes) == 3
        ks = [m.k for m in cx.modes]
        assert ks[0] == FourVector(1.0, 0.0, 0.0, 0.0)
        assert ks[1] == FourVector(math.sqrt(27.0), math.sqrt(26.0), 0.0, 0.0)
        assert ks[2] == FourVector(math.sqrt(27.0), 0.0, math.sqrt(26.0), 0.0)
        for k in ks:
            assert inner(k, k) == pytest.approx(1.0, rel=1e-12)

    def test_mass_scaling(self):
        w = counterexample(2.0)
        assert w.mass == 2.0
        for m2, m1 in zip(w.modes, counterexample(1.0).modes):
            assert m2.c == m1.c
            for a, b in zip(m2.k, m1.k):
                assert a == pytest.approx(2.0 * b, rel=1e-15)

    def test_builds_where_the_squares_of_k_under_or_overflow(self):
        for e in (-600, 520):
            assert counterexample(math.ldexp(1.0, e)).mass == math.ldexp(1.0, e)

    def test_mass_must_be_positive(self):
        with pytest.raises(ValueError):
            counterexample(0.0)

    def test_bool_mass_refused(self):
        with pytest.raises(ValueError, match="mass"):
            counterexample(True)
