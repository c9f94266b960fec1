"""Finite positive-energy plane-wave superpositions of the Klein-Gordon field.

A wave function is psi(x) = sum_i c_i exp(i k^(i)_mu x^mu) with every wave
covector k on the mass shell (k.k = m^2) and k_0 > 0, which makes psi an
exact solution of -box(psi) = m^2 psi built purely from positive-energy
modes. The phase pairs the covariant k with the event's contravariant
coordinates, so it is the plain component sum k0*x0 + k1*x1 + k2*x2 + k3*x3,
not the Minkowski form.

Off the nodal set, writing psi = exp(p + i*s) with real p and s defines the
gradient covectors p_mu and s_mu through grad(psi)/psi = p_mu + i*s_mu,
evaluated here from the exact analytic gradient (no discretization).

Wave functions here are finite mode sums only; richer square-integrable
packets are approximated by adding modes, not by a separate function class.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .minkowski import (
    DEFAULT_TOLERANCES,
    FourVector,
    Tolerances,
    _positive_finite,
    _rescaled,
    euclidean_sq,
    inner,
)

__all__ = [
    "ON_SHELL_RTOL",
    "PlaneWaveMode",
    "PolarGradients",
    "Superposition",
    "counterexample",
    "load_superposition",
]

ON_SHELL_RTOL = 1e-12


@dataclass(frozen=True)
class PlaneWaveMode:
    """One on-shell positive-energy plane wave: covector k and amplitude c."""

    k: FourVector
    c: complex


class PolarGradients(NamedTuple):
    """psi and its log-gradient split at one point, p_mu + i*s_mu = grad(psi)/psi.

    On the nodal set the split is undefined and p_mu and s_mu are None.
    """

    psi: complex
    p_mu: FourVector | None
    s_mu: FourVector | None


def _validate_mode(index: int, mode: PlaneWaveMode, mass: float) -> None:
    if not isinstance(mode.k, FourVector):
        raise ValueError(f"mode {index}: k must be a FourVector")
    if not mode.k.is_finite():
        raise ValueError(f"mode {index}: k has non-finite components: {mode.k}")
    c = complex(mode.c)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError(f"mode {index}: amplitude is not finite: {c!r}")
    if c == 0:
        raise ValueError(f"mode {index}: amplitude must be nonzero")
    if mode.k.c0 <= 0.0:
        raise ValueError(
            f"mode {index}: k0 = {mode.k.c0!r} violates the positive-energy "
            f"requirement k0 > 0"
        )
    # Relative to the component square sum of k, which the rounding of k.k
    # scales with, and compared on k and m scaled together by one exact
    # power of two, which moves neither side against the other, so squares
    # that under- or overflow cannot pass an off-shell mode.
    k, mv = _rescaled(mode.k, FourVector(mass, 0.0, 0.0, 0.0))
    m = mv.c0
    residual = inner(k, k) - m * m
    scale = euclidean_sq(k)
    if not abs(residual) <= ON_SHELL_RTOL * scale:
        rel = abs(residual) / scale if scale else math.inf
        raise ValueError(
            f"mode {index}: off the mass shell: |k.k - m^2| / (k0^2 + k1^2 + "
            f"k2^2 + k3^2) = {rel:.3e} exceeds {ON_SHELL_RTOL:.1e}"
        )


@dataclass(frozen=True)
class Superposition:
    """Mass m plus an ordered list of on-shell positive-energy modes.

    Immutable after construction, and every evaluation is pure. Mode order
    is preserved but irrelevant to outputs up to float roundoff (the wave
    function is a sum).
    """

    mass: float
    modes: tuple[PlaneWaveMode, ...]
    amp_sum: float = field(init=False, repr=False, compare=False)
    # (k0, k1, k2, k3, c, 1j * c) per mode, the factors of every evaluation
    _terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _positive_finite(self.mass):
            raise ValueError(f"mass must be a positive finite real, got {self.mass!r}")
        object.__setattr__(self, "mass", float(self.mass))
        modes = tuple(self.modes)
        if len(modes) < 1:
            raise ValueError("a superposition needs at least one mode")
        object.__setattr__(self, "modes", modes)
        for i, mode in enumerate(modes):
            _validate_mode(i, mode, self.mass)
        object.__setattr__(
            self, "amp_sum", sum(abs(complex(m.c)) for m in modes)
        )
        # 1j * c * e evaluates as (1j * c) * e, so keeping 1j * c moves no bit
        object.__setattr__(
            self, "_terms", tuple((*m.k, m.c, 1j * m.c) for m in modes)
        )

    def polar_gradients(
        self, x: FourVector, tols: Tolerances = DEFAULT_TOLERANCES
    ) -> PolarGradients:
        """Split grad(psi)/psi into real and imaginary covectors at x.

        Where |psi| <= tols.node * sum_i |c_i| (the nodal set) p_mu and s_mu
        are None, as the batch kernel's node mask says; the threshold is
        relative to the maximum attainable |psi|, so nodal detection is
        scale-free in the amplitudes. psi and the gradient are summed term
        by term in mode order, so a plain loop over the modes gives the same
        bits.
        """
        # psi and the gradient fused, one cos/sin per mode
        x0, x1, x2, x3 = x
        psi = g0 = g1 = g2 = g3 = 0j
        for k0, k1, k2, k3, c, ic in self._terms:
            phase = k0 * x0 + k1 * x1 + k2 * x2 + k3 * x3
            e = complex(math.cos(phase), math.sin(phase))
            psi += c * e
            f = ic * e
            g0 += f * k0
            g1 += f * k1
            g2 += f * k2
            g3 += f * k3
        if abs(psi) <= tols.node * self.amp_sum:
            return PolarGradients(psi, None, None)
        r0 = g0 / psi
        r1 = g1 / psi
        r2 = g2 / psi
        r3 = g3 / psi
        return PolarGradients(
            psi=psi,
            p_mu=FourVector(r0.real, r1.real, r2.real, r3.real),
            s_mu=FourVector(r0.imag, r1.imag, r2.imag, r3.imag),
        )

    def polar_gradients_batch(
        self, x: np.ndarray, tols: Tolerances = DEFAULT_TOLERANCES
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """polar_gradients at every row of the events x (N, 4), without raising.

        Returns (psi, p, s, node): psi complex (N,), p and s (N, 4), and
        node, True where |psi| <= tols.node * sum_i |c_i|; p and s are NaN
        on those rows. psi and the gradient are accumulated mode by mode
        in polar_gradients' order, and divided as Python divides complex
        numbers, so every value equals the scalar path's wherever numpy's sin
        and cos equal math's.
        """
        import numpy as np

        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != 4:
            raise ValueError(f"events must have shape (N, 4), got {x.shape}")
        x0, x1, x2, x3 = x.T
        psi_re = np.zeros(len(x))
        psi_im = np.zeros(len(x))
        g_re = np.zeros((4, len(x)))  # one row per gradient component
        g_im = np.zeros((4, len(x)))
        with np.errstate(all="ignore"):
            for k0, k1, k2, k3, c, _ in self._terms:
                phase = k0 * x0 + k1 * x1 + k2 * x2 + k3 * x3
                cos, sin = np.cos(phase), np.sin(phase)
                term_re = c.real * cos - c.imag * sin
                term_im = c.real * sin + c.imag * cos
                psi_re += term_re
                psi_im += term_im
                # d_mu of the term is i k_mu times it
                k_col = np.array((k0, k1, k2, k3))[:, None]
                g_re -= k_col * term_im
                g_im += k_col * term_re
            # Smith's division, as CPython's complex g / psi does it
            swap = np.abs(psi_re) < np.abs(psi_im)
            ratio = np.where(swap, psi_re / psi_im, psi_im / psi_re)
            denom = np.where(swap, psi_re * ratio + psi_im, psi_re + psi_im * ratio)
            u = np.where(swap, g_im, g_re)
            v = np.where(swap, g_re, g_im)
            p = (u + v * ratio) / denom
            s = (v - u * ratio) / np.where(swap, -denom, denom)
            node = np.hypot(psi_re, psi_im) <= tols.node * self.amp_sum
        p[:, node] = np.nan
        s[:, node] = np.nan
        psi = np.empty(len(x), dtype=complex)
        psi.real, psi.imag = psi_re, psi_im
        return psi, p.T, s.T, node

    @classmethod
    def from_dict(cls, data: dict) -> "Superposition":
        """Build from the JSON structure {"mass": m, "modes": [{"k": [...], "c": [re, im]}]}.

        Validation failures report the offending mode index.
        """
        if not isinstance(data, dict):
            raise ValueError("superposition config must be a JSON object")
        if "mass" not in data:
            raise ValueError("superposition config missing 'mass'")
        if "modes" not in data or not isinstance(data["modes"], list):
            raise ValueError("superposition config missing 'modes' list")
        mass = _numbers([data["mass"]], 1, "mass must be a number")[0]
        modes = []
        for i, entry in enumerate(data["modes"]):
            if not isinstance(entry, dict):
                raise ValueError(f"mode {i}: entry must be an object")
            k = _numbers(entry.get("k"), 4, f"mode {i}: 'k' must be a list of 4 numbers")
            c = _numbers(entry.get("c"), 2, f"mode {i}: 'c' must be [re, im]")
            modes.append(PlaneWaveMode(k=FourVector(*k), c=complex(*c)))
        return cls(mass=mass, modes=tuple(modes))


def _numbers(values, count: int, refusal: str) -> list[float]:
    """A JSON list of count numbers (not booleans) as floats, else ValueError."""
    if not isinstance(values, list) or len(values) != count or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in values
    ):
        raise ValueError(refusal)
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise ValueError(f"{refusal}; got an integer too large for a float") from None


def counterexample(mass: float = 1.0) -> Superposition:
    """Three-wave superposition whose candidate velocity covectors are both
    spacelike in a neighborhood of the coordinate origin.

    Modes (covariant components, units of mass):

        k^(1) = (m, 0, 0, 0)              c1 = 3
        k^(2) = (sqrt(27) m, sqrt(26) m, 0, 0)   c2 = -1/sqrt(3) - i
        k^(3) = (sqrt(27) m, 0, sqrt(26) m, 0)   c3 = i

    At the origin the gradient covectors come out as p = (0, a, -a, 0) and
    s = (0, -b, 0, 0) with a = sqrt(26) m / g, b = a/sqrt(3), g = 3 - 1/sqrt(3),
    which span a spacelike 2-plane. Two modes cannot produce this (p and s
    always lie in the span of the mode covectors).
    """
    if not _positive_finite(mass):
        raise ValueError(f"mass must be a positive finite real, got {mass!r}")
    m = float(mass)
    root26 = math.sqrt(26.0)
    root27 = math.sqrt(27.0)
    return Superposition(
        mass=m,
        modes=(
            PlaneWaveMode(FourVector(m, 0.0, 0.0, 0.0), 3.0 + 0.0j),
            PlaneWaveMode(
                FourVector(root27 * m, root26 * m, 0.0, 0.0),
                complex(-1.0 / math.sqrt(3.0), -1.0),
            ),
            PlaneWaveMode(FourVector(root27 * m, 0.0, root26 * m, 0.0), 1.0j),
        ),
    )


def load_superposition(path: str | Path) -> Superposition:
    """Read and validate a superposition config from a JSON file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: not valid JSON: {e}") from e
    return Superposition.from_dict(data)
