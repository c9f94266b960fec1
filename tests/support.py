"""Shared builders for randomized test inputs."""

import cmath
import math

from kgbohm import FourVector, PlaneWaveMode, Superposition


def random_superposition(rng, n_modes=None, mass_range=(0.5, 2.0), k_scale=1.5):
    """Random on-shell positive-energy superposition from a numpy Generator.

    Spatial wave numbers are normal with scale k_scale; the time component
    is solved from the mass shell, so validation always passes.
    """
    m = float(rng.uniform(*mass_range))
    if n_modes is None:
        n_modes = int(rng.integers(2, 5))
    modes = []
    for _ in range(n_modes):
        kv = rng.normal(0.0, k_scale, size=3)
        k0 = math.sqrt(m * m + float(kv @ kv))
        c = complex(float(rng.normal()), float(rng.normal()))
        if abs(c) < 1e-3:
            c += 0.5
        modes.append(
            PlaneWaveMode(
                k=FourVector(k0, float(kv[0]), float(kv[1]), float(kv[2])), c=c
            )
        )
    return Superposition(mass=m, modes=tuple(modes))


def random_point(rng, scale=3.0):
    u = rng.uniform(-scale, scale, size=4)
    return FourVector(float(u[0]), float(u[1]), float(u[2]), float(u[3]))


def two_mode_polar_oracle(k1, k2, c1, c2, x):
    """Closed-form (p_mu, s_mu) for a two-mode superposition.

    With z = (c2/c1) e^{i delta}, delta the phase difference of the two
    modes at x, the log-derivative is i(k1 + (k2-k1) z/(1+z)), so
    p = -Im(z/(1+z)) (k2-k1) and s = k1 + Re(z/(1+z)) (k2-k1). Independent
    of the mode-by-mode summation used by the package.
    """
    dk = tuple(b - a for a, b in zip(k1, k2))
    delta = sum(kb * xi for kb, xi in zip(k2, x)) - sum(
        ka * xi for ka, xi in zip(k1, x)
    )
    z = (c2 / c1) * cmath.exp(1j * delta)
    w = z / (1.0 + z)
    p = FourVector(*(-d * w.imag for d in dk))
    s = FourVector(*(ka + d * w.real for ka, d in zip(k1, dk)))
    return p, s


def scaled(v, f):
    """The FourVector v with every component times f."""
    return FourVector(*(c * f for c in v))
