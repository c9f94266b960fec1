"""Shared builders for randomized test inputs, and the test oracles: psi, its
gradient, index raising, the config writer and the verdict of a raw pair."""

import cmath
import math

from kgbohm import DEFAULT_TOLERANCES, FourVector, PlaneWaveMode, Superposition
from kgbohm.construction import _candidates


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


def evaluate(w, x):
    """psi(x) = sum_i c_i exp(i k^(i) . x), plain covariant pairing."""
    x0, x1, x2, x3 = x
    total = 0j
    for m in w.modes:
        k0, k1, k2, k3 = m.k
        phase = k0 * x0 + k1 * x1 + k2 * x2 + k3 * x3
        total += m.c * complex(math.cos(phase), math.sin(phase))
    return total


def gradient(w, x):
    """Exact analytic gradient (d_mu psi)(x) = sum_i i c_i k^(i)_mu e^{i k.x}."""
    x0, x1, x2, x3 = x
    g0 = g1 = g2 = g3 = 0j
    for m in w.modes:
        k0, k1, k2, k3 = m.k
        phase = k0 * x0 + k1 * x1 + k2 * x2 + k3 * x3
        f = 1j * m.c * complex(math.cos(phase), math.sin(phase))
        g0 += f * k0
        g1 += f * k1
        g2 += f * k2
        g3 += f * k3
    return (g0, g1, g2, g3)


def raise_index(v):
    """Flip the index position: (c0, c1, c2, c3) -> (c0, -c1, -c2, -c3).

    The metric is its own inverse up to index placement, so the same map
    also lowers; it is an involution.
    """
    return FourVector(v.c0, -v.c1, -v.c2, -v.c3)


def to_dict(w):
    """The JSON config of a superposition, as load_superposition reads it."""
    return {
        "mass": w.mass,
        "modes": [
            {"k": list(m.k), "c": [complex(m.c).real, complex(m.c).imag]}
            for m in w.modes
        ],
    }


def classify_pair(p, s, tols=DEFAULT_TOLERANCES):
    """The verdict of a raw (p, s) pair on the scalar path."""
    return _candidates(p, s, tols)[-1]
