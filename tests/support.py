"""Shared builders for randomized test inputs, and the test oracles: psi, its
gradient, the stress-energy tensor, index raising, the config writer, the
verdict of a raw pair and the lattice path against the event path."""

import cmath
import math

import numpy as np

from kgbohm import (
    DEFAULT_TOLERANCES,
    FourVector,
    PlaneWaveMode,
    Superposition,
    Tolerances,
    euclidean_sq,
    grid_scan,
    inner,
)
from kgbohm.construction import _candidates
from kgbohm.measure import _axis_coords, _verdicts

BAND = 10.0  # a margin within this factor of its tolerance edge is in the band
PS_UNITS = 1e-12  # p and s bound, in units of amp_sum * max|k| / |psi|
RTOL = 1e-10


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


def packet(seed, modes=24):
    """The seeded packet of the given mode count that the tests share."""
    return random_superposition(np.random.default_rng([seed, modes]), n_modes=modes)


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


def stress_energy(w, x):
    """(T, L) at x: the Klein-Gordon stress-energy tensor T^mu_nu, a 4x4
    array with the first index raised, and the Lagrangian L, where
    T_mu_nu = 2 Re(d_mu psi* d_nu psi) - g_mu_nu L and
    L = d psi* . d psi - m^2 |psi|^2. Both come from psi and its gradient
    summed over the modes, with no polar split and no theta."""
    psi, d = evaluate(w, x), gradient(w, x)
    g = np.diag([1.0, -1.0, -1.0, -1.0])
    lower = np.array([[2.0 * (a.conjugate() * b).real for b in d] for a in d])
    lagrangian = sum(g[i, i] * abs(d[i]) ** 2 for i in range(4)) - w.mass**2 * abs(psi) ** 2
    return g @ (lower - g * lagrangian), lagrangian


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


def w_fields(p, s, th):
    """The candidates (exp(th) p + s, -exp(-th) p + s) as FourVectors, with
    _candidates' operations in its order: the reference of the band checks."""
    ep, em = math.exp(th), -math.exp(-th)
    return (
        FourVector(*(a * ep + b for a, b in zip(p, s))),
        FourVector(*(a * em + b for a, b in zip(p, s))),
    )


def candidate_class(v, tols=DEFAULT_TOLERANCES):
    """The causal class _candidates gives the vector 2v, as the plus
    candidate exp(0) p + s of p = v + d and s = v - d, or None where that
    pair is degenerate.

    p.p and s.s are equal bit for bit, so theta is exactly 0. Where v has a
    zero component, d is 4 max|v_i| (4 for the zero vector) there, which
    keeps p.s = v.v - d.d far from 0 even where v is null; elsewhere d is
    zero, and the p.s ~ 0 threshold is the smallest subnormal, so p = s = v
    is degenerate only where v.v is (nearly) 0.
    """
    d = [0.0] * 4
    if 0.0 in v:
        d[list(v).index(0.0)] = 4.0 * (max(map(abs, v)) or 1.0)
    p = FourVector(*(c + e for c, e in zip(v, d)))
    s = FourVector(*(c - e for c, e in zip(v, d)))
    th, wp, _, cp, _, _ = _candidates(p, s, Tolerances(causal=tols.causal, ortho=5e-324))
    assert th is None or wp == tuple(c * 2.0 for c in v)
    return cp


def near(value, scale, tol):
    """|value| within a factor BAND of the tolerance edge tol * scale, per row."""
    return (tol * scale / BAND < np.abs(value)) & (np.abs(value) <= BAND * tol * scale)


def check_lattice(w, region, resolution, tols=DEFAULT_TOLERANCES):
    """Assert grid_scan's lattice contract against the event path, which is
    polar_gradients_batch and _verdicts on the meshgrid of the same axes:

    - p and s agree within PS_UNITS * amp_sum * max|k| / |psi| off the nodes;
    - codes are equal wherever every margin lies outside BAND times its
      tolerance;
    - theta and the candidate norms w.w agree within RTOL relative (to |theta|
      and to w's component square sum), plus the first-order change that
      the p and s bound allows. theta = arcsinh((p.p - s.s) / 2 p.s) is
      ill-conditioned where p.s is small, so that term can exceed RTOL
      outside the band.

    Returns the number of rows whose codes were compared.
    """
    axes = [_axis_coords(region.lo[i], region.hi[i], resolution[i]) for i in range(4)]
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    psi, p, s, node = w.polar_gradients_batch(x, tols)
    _, p_l, s_l, node_l = w.polar_gradients_lattice(axes, tols)
    codes, th, wp_sq, wm_sq = _verdicts(w, x, tols)
    scan = grid_scan(w, region, resolution, tols)
    assert scan.axes == tuple(axes)

    k_max = max(math.sqrt(euclidean_sq(m.k)) for m in w.modes)
    live = ~node & ~node_l
    with np.errstate(all="ignore"):
        unit = w.amp_sum * k_max / np.abs(psi)
        assert (np.abs(p_l - p)[live].max(axis=1, initial=0.0) <= PS_UNITS * unit[live]).all()
        assert (np.abs(s_l - s)[live].max(axis=1, initial=0.0) <= PS_UNITS * unit[live]).all()

        p, s = p.T, s.T  # one row per component, as inner reads them
        pn, sn, q = np.sqrt(euclidean_sq(p)), np.sqrt(euclidean_sq(s)), inner(p, s)
        band = near(psi, w.amp_sum, tols.node) | near(q, pn * sn, tols.ortho)
        # candidates exp(th) p + s and -exp(-th) p + s, as b p + s
        cands = [(np.exp(th), wp_sq, scan.w_plus_sq), (-np.exp(-th), wm_sq, scan.w_minus_sq)]
        for b, w_sq, _ in cands:
            band |= near(w_sq, euclidean_sq(b * p + s), tols.causal)
        assert np.array_equal(scan.codes[~band], codes[~band])

        # first-order bounds for |dp|, |ds| <= eps * m, with m = max(|p|, |s|)
        m = np.maximum(pn, sn)
        eps = PS_UNITS * unit / m
        X = (inner(p, p) - inner(s, s)) / (2.0 * q)
        k_th = m * (pn + sn) * (1.0 + np.abs(X)) / (np.abs(q) * np.sqrt(1.0 + X * X))
        rows = ~band & np.isfinite(th)
        assert (np.abs(scan.theta - th) <= RTOL * np.abs(th) + eps * k_th)[rows].all()
        for b, w_sq, got in cands:
            k_w = 2.0 * m * (b * b * pn + np.abs(b) * (pn + sn) + sn)
            k_w += 2.0 * np.abs(b) * np.abs(b * inner(p, p) + q) * k_th
            bound = RTOL * euclidean_sq(b * p + s) + eps * k_w
            assert (np.abs(got - w_sq) <= bound)[rows].all()
    return int((~band).sum())
