"""Lorentz covariance of the verdicts and of the trajectories.

A boost Λ maps an event x to Λx and a covariant wave covector k to kΛ^-1,
so every phase k.x, and with it psi, is the same at corresponding events.
The causal classes are Lorentz invariant; the tolerance bands are relative
to Euclidean component scales, which a boost stretches. So a verdict must
be the same in both frames wherever it stays the same, in each frame, when
every tolerance is widened BAND times.
"""

import math

import numpy as np
import pytest
from support import random_superposition

from kgbohm import (
    DEFAULT_TOLERANCES,
    FourVector,
    IllDefinedVelocityError,
    PlaneWaveMode,
    Selection,
    Superposition,
    Tolerances,
    TrajectoryConfig,
    analyze_point,
    counterexample,
    integrate,
)
from kgbohm.measure import _verdicts

SELECTIONS = tuple(Selection)
BAND = 1e3
WIDE = Tolerances(
    causal=BAND * DEFAULT_TOLERANCES.causal,
    ortho=BAND * DEFAULT_TOLERANCES.ortho,
    node=BAND * DEFAULT_TOLERANCES.node,
)
# each wave with the half-width of the box its rows are drawn from
WAVES = {
    "counterexample": (lambda: counterexample(1.0), 0.5),
    "8-mode-packet": (
        lambda: random_superposition(np.random.default_rng(8), n_modes=8),
        2.0,
    ),
}


def boost(beta):
    """The boost by velocity beta along x1, on contravariant components."""
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    lam = np.eye(4)
    lam[0, 0] = lam[1, 1] = gamma
    lam[0, 1] = lam[1, 0] = -gamma * beta
    return lam


def boosted(w, beta):
    """w in the frame boosted by beta: every k becomes k Λ^-1."""
    inverse = boost(-beta)
    return Superposition(
        mass=w.mass,
        modes=tuple(
            PlaneWaveMode(FourVector(*(np.asarray(m.k) @ inverse).tolist()), m.c)
            for m in w.modes
        ),
    )


def scalar_codes(w, x):
    return np.array(
        [
            SELECTIONS.index(analyze_point(w, FourVector(*row)).selection)
            for row in x.tolist()
        ]
    )


@pytest.fixture(scope="module")
def unboosted():
    """Per wave: the wave, 20,000 seeded rows, and the kernel's verdicts at
    the default and the widened tolerances and analyze_point's verdicts."""
    out = {}
    for name, (make, half) in WAVES.items():
        w = make()
        x = np.random.default_rng(1).uniform(-half, half, (20_000, 4))
        out[name] = (
            w,
            x,
            _verdicts(w, x, DEFAULT_TOLERANCES)[0],
            _verdicts(w, x, WIDE)[0],
            scalar_codes(w, x),
        )
    return out


@pytest.mark.parametrize("beta", [0.6, 0.99])
@pytest.mark.parametrize("name", WAVES)
def test_verdicts_are_the_same_in_a_boosted_frame(unboosted, name, beta):
    w, x, codes, wide, scalar = unboosted[name]
    wb, xb = boosted(w, beta), x @ boost(beta).T
    codes_b = _verdicts(wb, xb, DEFAULT_TOLERANCES)[0]
    robust = (codes == wide) & (codes_b == _verdicts(wb, xb, WIDE)[0])
    assert robust.sum() >= 19_900
    rule = (Selection.PLUS_TIMELIKE, Selection.MINUS_TIMELIKE, Selection.BOTH_SPACELIKE)
    assert set(codes[robust]) >= {SELECTIONS.index(s) for s in rule}
    assert np.array_equal(codes_b[robust], codes[robust])
    assert np.array_equal(scalar_codes(wb, xb)[robust], scalar[robust])


def test_trajectories_are_covariant():
    # integrate(boosted wave, Λ x0) is Λ integrate(wave, x0): proper time
    # and the step are invariant, so the paths stop in the same place
    w, beta = counterexample(1.0), 0.6
    lam, wb = boost(beta), boosted(w, beta)
    cfg = TrajectoryConfig(step=0.02, max_steps=100)
    ill_defined = 0
    for x0 in np.random.default_rng(6).uniform(-1.0, 1.0, (100, 4)):
        start, start_b = FourVector(*x0.tolist()), FourVector(*(lam @ x0).tolist())
        try:
            a = integrate(w, start, cfg)
        except IllDefinedVelocityError as exc:
            with pytest.raises(IllDefinedVelocityError) as exc_b:
                integrate(wb, start_b, cfg)
            assert exc_b.value.selection is exc.selection
            ill_defined += 1
            continue
        b = integrate(wb, start_b, cfg)
        assert b.termination is a.termination
        assert len(b.points) == len(a.points)
        want = np.array([p.x for p in a.points]) @ lam.T
        got = np.array([p.x for p in b.points])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert 0 < ill_defined < 50
