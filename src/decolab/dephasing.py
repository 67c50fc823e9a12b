"""Exact pure dephasing of qubits coupled to a bosonic bath.

Discrete-mode coherence suppression factors, continuum decay functions
F_vac and F_th for power-law spectral densities with exponential cutoff,

    J(omega) = a * omega * (omega/omega_c)**(d-1) * exp(-omega/omega_c),

time-regime classification for the Ohmic case d = 1, the super-Ohmic (d = 3)
long-time plateau, and the N-qubit generalization with decoherence-free
subspaces. Natural units hbar = k_B = 1.

The decay functions are

    F_vac(t) = int J(w) (1 - cos wt) / w^2 dw
    F_th(t)  = int J(w) (1 - cos wt) (coth(w/2T) - 1) / w^2 dw

so the total coherence factor is chi(t) = exp(-F_vac) * exp(-F_th); F_th is
the thermal excess on top of the vacuum contribution.

Both are evaluated in closed form. With x = (omega_c t)^2, c = T/omega_c,
w = 1 + c and y = T t (coth - 1 = 2 sum_n exp(-n w/T) resums F_th):

    d = 1: F_vac = (a/2) log(1 + x),          F_th = 2a [lnGamma(w) - Re lnGamma(w + iy)]
    d = 2: F_vac = a x/(1 + x),               F_th = 2a c [Re psi(w + iy) - psi(w)]
    d = 3: F_vac = a (3x + x^2)/(1 + x)^2,    F_th = 2a c^2 [psi'(w) - Re psi'(w + iy)]

For y < w/4 the F_th differences cancel, so their Taylor series is summed
to k = 16 instead (psi^(-1) = lnGamma):

    F_th = 2a c^(d-1) (-1)^(d+1) sum_k (-1)^(k+1) y^(2k)/(2k)! psi^(d-2+2k)(w).

Against 40-digit references both routes are within 1.4e-13 for T/omega_c <= 30.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PhysicsError

# coth(x) is 1 to better than 1e-26 beyond this argument; avoids overflow.
_COTH_CUT = 30.0
# Below y = T t = 0.25 w the gamma-function differences in F_th lose digits
# to cancellation; the terms of their Taylor series in y fall off like
# (y/w)^(2k) there, so 16 terms leave a remainder below 1e-19.
_SMALL_Y = 0.25
_FLOAT_MAX = sys.float_info.max
_SQRT_MAX = math.sqrt(_FLOAT_MAX)
_SERIES_K = np.arange(1, 17)
_SERIES_COEF = np.array([(-1.0) ** (k + 1) / math.factorial(2 * k) for k in _SERIES_K])
# the lnGamma, psi and psi' asymptotic tails are used from |x| = 15 on; their
# first omitted terms, x^-13/156, x^-14/12 and 7/6 x^-15, are below 4e-18 there
_GAMMA_SHIFT = 15.0
# psi^(n)(w) = (-1)^(n+1) n! zeta(n+1, w) for the series orders n = 1..33,
# tabulated by s = n + 1: 20 direct terms of the Hurwitz zeta, then the
# Euler-Maclaurin tail, whose B_2j/(2j)! (s)_(2j-1) a^(1-s-2j) terms for
# j = 1..8 at a = w + 20 >= 21 leave below 1e-16 of the series sum
_ZETA_S = np.arange(2, 35)
_ZETA_SIGNED = np.array([(-1.0) ** s * math.factorial(s - 1) for s in _ZETA_S])
_EM_COEF = np.array([[b / math.factorial(2 * j) * math.prod(range(s, s + 2 * j - 1))
                      for j, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66,
                                             -691 / 2730, 7 / 6, -3617 / 510), 1)]
                     for s in _ZETA_S])


@dataclass(frozen=True)
class SpectralDensity:
    """Power-law bath spectral density with exponential cutoff."""

    a: float
    omega_c: float
    d: int = 1

    def __post_init__(self):
        if self.a <= 0 or self.omega_c <= 0:
            raise PhysicsError("spectral density requires a > 0 and omega_c > 0")
        if self.d not in (1, 2, 3):
            raise PhysicsError(f"bath dimension d must be 1, 2 or 3, got {self.d}")

    def __call__(self, omega):
        omega = np.asarray(omega, dtype=float)
        x = omega / self.omega_c
        return self.a * omega * x ** (self.d - 1) * np.exp(-x)


@dataclass(frozen=True)
class BathModes:
    """Discrete bath: tuple of (coupling g_k, frequency omega_k) pairs."""

    modes: tuple

    def __post_init__(self):
        for g, w in self.modes:
            if w <= 0:
                raise PhysicsError(f"mode frequency must be positive, got {w}")


def alpha_k(g_k, omega_k, t) -> complex:
    """Displacement amplitude alpha_k(t) = 2 g_k (1 - exp(i omega_k t)) / omega_k."""
    if omega_k <= 0:
        raise PhysicsError("omega_k must be positive")
    if t < 0:
        raise PhysicsError("t must be nonnegative")
    return 2.0 * g_k * (1.0 - np.exp(1j * omega_k * t)) / omega_k


def _coth_minus_one(x: float) -> float:
    """coth(x) - 1 = 2/(e^{2x} - 1); returns exactly 0 beyond the guard."""
    if x >= _COTH_CUT:
        return 0.0
    return 2.0 / math.expm1(2.0 * x)


def _coth(x: float) -> float:
    return 1.0 + _coth_minus_one(x)


def _one_minus_cos_over_w2(w: float, t: float) -> float:
    """(1 - cos wt)/w^2 = (t^2/2) sinc^2(wt/2); finite and stable at w = 0."""
    s = float(np.sinc(0.5 * w * t / np.pi))
    return 0.5 * t * t * s * s


def chi_vacuum_discrete(bath: BathModes, t) -> complex:
    """Zero-temperature coherence factor of a discrete bath.

    Product over modes of exp(-|alpha_k(t)|^2 / 2), which equals
    exp(-sum_k 4|g_k|^2 (1 - cos omega_k t)/omega_k^2).
    """
    if t < 0:
        raise PhysicsError("t must be nonnegative")
    total = 0.0
    for g, w in bath.modes:
        total += 4.0 * abs(g) ** 2 * _one_minus_cos_over_w2(w, t)
    return complex(math.exp(-total))


def chi_thermal_discrete(bath: BathModes, temperature, t) -> complex:
    """Finite-temperature coherence factor; each mode weighted by coth(w/2T)."""
    if temperature < 0:
        raise PhysicsError("temperature must be nonnegative")
    if t < 0:
        raise PhysicsError("t must be nonnegative")
    total = 0.0
    for g, w in bath.modes:
        weight = 1.0 if temperature == 0 else _coth(0.5 * w / temperature)
        total += 4.0 * abs(g) ** 2 * _one_minus_cos_over_w2(w, t) * weight
    return complex(math.exp(-total))


def discretize_spectral_density(j: SpectralDensity, n_modes, omega_max=None) -> BathModes:
    """Linear-grid discretization with 4|g_i|^2 = J(omega_i) * d_omega."""
    if omega_max is None:
        omega_max = 50.0 * j.omega_c
    edges = np.linspace(0.0, omega_max, n_modes + 1)
    centers = 0.5 * (edges[1:] + edges[:-1])
    dw = edges[1] - edges[0]
    gs = 0.5 * np.sqrt(j(centers) * dw)
    return BathModes(tuple(zip(gs, centers)))


def F_vac(j: SpectralDensity, t) -> float:
    """Vacuum decay function int J(w)(1 - cos wt)/w^2 dw, in closed form.

    The forms in x = (omega_c t)^2 hold while x (d = 1), a x (d = 2) or
    a x^2 (d = 3) stays finite; beyond, the same forms in r = 1/x are used.
    """
    if t < 0:
        raise PhysicsError("t must be nonnegative")
    u = j.omega_c * t
    if j.d == 1:
        limit = _SQRT_MAX
    else:
        limit = (_FLOAT_MAX / max(j.a, 1.0)) ** (0.5 if j.d == 2 else 0.25)
    if u < limit:
        x = u ** 2
        if j.d == 1:
            return 0.5 * j.a * math.log1p(x)
        if j.d == 2:
            return float(j.a * x / (1.0 + x))
        # cancellation-free form of a [1 - (1 - x)/(1 + x)^2]
        return float(j.a * (3.0 * x + x * x) / (1.0 + x) ** 2)
    r = (1.0 / u) ** 2
    if j.d == 1:
        return float(j.a * math.log(u) + 0.5 * j.a * math.log1p(r))
    if j.d == 2:
        return float(j.a / (1.0 + r))
    return float(j.a * (1.0 + 3.0 * r) / (1.0 + r) ** 2)


@lru_cache(maxsize=64)
def _series_derivs(d: int, w: float) -> np.ndarray:
    """psi^(d-2+2k)(w), k = 1..16: the small-y series' derivatives, which a
    t-grid at fixed bath and temperature shares."""
    rows = slice(d - 1, d + 31, 2)
    s = _ZETA_S[rows]
    a = w + 20.0
    zeta = (((w + np.arange(20.0))[:, None] ** -s).sum(axis=0)
            + a ** (1 - s) / (s - 1) + 0.5 * a ** -s
            + a ** -s * (_EM_COEF[rows] @ a ** (1.0 - 2 * np.arange(1, 9))))
    derivs = _ZETA_SIGNED[rows] * zeta
    derivs.flags.writeable = False
    return derivs


def F_th(j: SpectralDensity, temperature, t) -> float:
    """Thermal excess decay function, weight coth(w/2T) - 1 on top of J/w^2,
    from the gamma-function forms or, for y < w/4, their series in y."""
    if temperature < 0:
        raise PhysicsError("temperature must be nonnegative")
    if t < 0:
        raise PhysicsError("t must be nonnegative")
    if t == 0.0 or temperature == 0.0:
        return 0.0
    c = temperature / j.omega_c
    w = 1.0 + c
    y = temperature * t
    scale = 2.0 * j.a * c ** (j.d - 1)
    if y < _SMALL_Y * w:
        return float(scale * (-1) ** (j.d + 1)
                     * np.dot(_SERIES_COEF * y ** (2 * _SERIES_K), _series_derivs(j.d, w)))
    z = complex(w, y)
    if j.d == 1:
        return float(scale * _loggamma_drop(w, y))
    if j.d == 2:
        return float(scale * (_psi(z).real - _psi(complex(w)).real))
    return float(scale * (trigamma(w) - trigamma(z).real))


def _log_modulus(r: float) -> float:
    """ln|1 + ir| = log1p(r^2)/2, without overflow at large r."""
    return 0.5 * math.log1p(r * r) if r < 1e150 else math.log(r)


def _stirling_tail(z):
    """lnGamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2 for |z| >= _GAMMA_SHIFT
    (A&S 6.1.41)."""
    inv = 1.0 / z
    inv2 = inv * inv
    return inv * (1.0 / 12.0 + inv2 * (-1.0 / 360.0 + inv2 * (1.0 / 1260.0 + inv2 * (
        -1.0 / 1680.0 + inv2 * (1.0 / 1188.0 + inv2 * -691.0 / 360360.0)))))


def _loggamma_drop(w: float, y: float) -> float:
    """lnGamma(w) - Re lnGamma(w + iy) for w > 0 and y >= 0 without
    differencing two lnGamma values: each shift lnGamma(z) = lnGamma(z+1) - ln z
    up to w >= _GAMMA_SHIFT adds ln|1 + iy/w|, and Stirling's series leaves
    y arg(w + iy) - (w - 1/2) ln|1 + iy/w| plus the difference of its tails,
    which cancels only where y << w, below the series switch of F_th."""
    acc = 0.0
    while w < _GAMMA_SHIFT:
        acc += _log_modulus(y / w)
        w += 1.0
    return (acc + y * math.atan2(y, w) - (w - 0.5) * _log_modulus(y / w)
            + _stirling_tail(w) - _stirling_tail(complex(w, y)).real)


def _psi(z: complex) -> complex:
    """psi(z) for Re z > 0, via psi(z) = psi(z+1) - 1/z up to
    |z| >= _GAMMA_SHIFT plus the asymptotic series (A&S 6.3.18)."""
    acc = 0.0
    while abs(z) < _GAMMA_SHIFT:
        acc -= 1.0 / z
        z += 1.0
    inv = 1.0 / z
    inv2 = inv * inv
    tail = inv2 * (-1.0 / 12.0 + inv2 * (1.0 / 120.0 + inv2 * (-1.0 / 252.0 + inv2 * (
        1.0 / 240.0 + inv2 * (-1.0 / 132.0 + inv2 * 691.0 / 32760.0)))))
    return acc + cmath.log(z) - 0.5 * inv + tail


def trigamma(x) -> float | complex:
    """psi'(x) for real x > 0 or complex x with Re x > 0, via the recurrence
    psi'(x) = psi'(x+1) + 1/x^2 up to |x| >= _GAMMA_SHIFT plus an asymptotic
    tail (A&S 6.4.12); relative error below 1e-16 in the tail."""
    if x.real <= 0:
        raise PhysicsError("trigamma implemented for Re x > 0 only")
    acc = 0.0
    while abs(x) < _GAMMA_SHIFT:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    # 1/x + 1/2x^2 + 1/6x^3 - 1/30x^5 + 1/42x^7 - 1/30x^9 + 5/66x^11 - 691/2730x^13
    tail = inv * (1.0 + inv * (0.5 + inv * (1.0 / 6.0 + inv2 * (-1.0 / 30.0 + inv2 * (
        1.0 / 42.0 + inv2 * (-1.0 / 30.0 + inv2 * (5.0 / 66.0 + inv2 * -691.0 / 2730.0)))))))
    return acc + tail


def F_superohmic_limit(j: SpectralDensity, temperature) -> float:
    """Long-time plateau of F_th for d = 3: 2a (T/omega_c)^2 psi'(1 + T/omega_c).

    Exact for the exponential cutoff, including the T -> 0 falloff.
    """
    if j.d != 3:
        raise PhysicsError(f"plateau exists for d = 3 only, got d = {j.d}")
    if temperature < 0:
        raise PhysicsError("temperature must be nonnegative")
    if temperature == 0.0:
        return 0.0
    r = temperature / j.omega_c
    return 2.0 * j.a * r * r * trigamma(1.0 + r)


def matsubara_time(temperature) -> float:
    """t_T = 1/(pi T), the thermal crossover time."""
    if temperature <= 0:
        raise PhysicsError("temperature must be positive")
    return 1.0 / (math.pi * temperature)


def classify_regime(j: SpectralDensity, temperature, t):
    """Ohmic decay regime at time t: (label, asymptotic F).

    short_time (t < 1/omega_c):              F ~ (a/2) omega_c^2 t^2
    vacuum     (1/omega_c <= t < 1/omega_1): F ~ a log(omega_c t)
    thermal    (t >= 1/omega_1):             F ~ a t/t_T
    with omega_1 = 2/t_T = 2 pi T the first thermal frequency.
    """
    if j.d != 1:
        raise PhysicsError("regime classification applies to the Ohmic case d = 1")
    if t < 0:
        raise PhysicsError("t must be nonnegative")
    t_t = matsubara_time(temperature)
    omega_1 = 2.0 / t_t
    if 1.0 / j.omega_c >= 1.0 / omega_1:
        raise PhysicsError("scales overlap (omega_c <= omega_1): regimes are undefined")
    if t < 1.0 / j.omega_c:
        return "short_time", 0.5 * j.a * (j.omega_c * t) ** 2
    if t < 1.0 / omega_1:
        return "vacuum", j.a * math.log(j.omega_c * t)
    return "thermal", j.a * t / t_t


def _bit_sum(x):
    return bin(x).count("1")


def coherence_weight(m, n, coupling) -> int:
    """Integer exponent weight multiplying F_vac + F_th for the pair (m, n)."""
    if coupling == "same_reservoir":
        return (_bit_sum(m) - _bit_sum(n)) ** 2
    if coupling == "different_reservoirs":
        return _bit_sum(m ^ n)
    raise PhysicsError(f"unknown coupling {coupling!r}")


def n_qubit_coherence(n_qubits, m, n, coupling, decay) -> float:
    """Coherence factor exp(-weight * decay) between basis states m and n.

    coupling = "same_reservoir": weight = (sum_j m_j - sum_j n_j)^2, so pairs
    with equal excitation number are untouched (decoherence-free subspace).
    coupling = "different_reservoirs": weight = Hamming distance, all pairs
    decay and the worst case grows like N instead of N^2.
    """
    if not (0 <= m < 2 ** n_qubits and 0 <= n < 2 ** n_qubits):
        raise PhysicsError("basis indices out of range")
    return math.exp(-coherence_weight(m, n, coupling) * decay)


def dfs_states(n_qubits):
    """Basis-index groups with equal excitation number (collective coupling).

    Superpositions inside one group are decoherence-free; the largest group
    has binomial(N, floor(N/2)) members.
    """
    groups = [[] for _ in range(n_qubits + 1)]
    for idx in range(2 ** n_qubits):
        groups[_bit_sum(idx)].append(idx)
    return groups
