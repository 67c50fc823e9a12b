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

F_vac is closed-form in x = (omega_c t)^2: (a/2) log(1 + x), a x/(1 + x)
and a (3x + x^2)/(1 + x)^2 for d = 1, 2, 3. F_th is the series that
coth - 1 = 2 sum_n exp(-n w/T) gives; with c = T/omega_c, y = T t,
x_n = 1 + c + n, L = log|1 + iy/x| and theta = arg(x + iy),

    F_th = 2a sum_n c^(d-1) f_d(x_n),   f_1 = L,   f_d = x^(1-d) g_(d-1),
    g_k = 1 - cos(k theta) cos^k(theta) = -expm1(-kL) + 2 e^(-kL) sin^2(k theta/2),

so every term is exact and nonnegative. (The sums are lnGamma(w) - Re
lnGamma(w + iy), Re psi(w + iy) - psi(w) and psi'(w) - Re psi'(w + iy) at
w = 1 + c.) Terms with x_n < 15 are summed directly, the rest by
Euler-Maclaurin at the first x = x_n >= 15,

    int_x^inf f_d + f_d(x)/2 - sum_(k=1..8) B_2k/(2k)! f_d^(2k-1)(x),

with f_d^(m) = (-1)^m (m+d-2)! x^-(m+d-1) g_(m+d-1) and the integrals
y theta - x L, L and g_1/x for d = 1, 2, 3. Against 40-digit references
F_th is within 1e-14 and F_vac within 1.4e-13 for T/omega_c <= 30.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsError

# coth(x) is 1 to better than 1e-26 beyond this argument; avoids overflow.
_COTH_CUT = 30.0
_FLOAT_MAX = sys.float_info.max
_SQRT_MAX = math.sqrt(_FLOAT_MAX)
# discrete baths span (0, 50 omega_c); J carries exp(-50) = 2e-22 at the top
_DISCRETE_CUTOFFS = 50.0
# F_th's series goes over to Euler-Maclaurin at x = 15. By d, the pairs
# (2k+d-2, B_2k/(2k)! (2k+d-3)!) for k = 1..8 give the terms coef x^-(2k-1)
# g_(2k+d-2); the first omitted one, k = 9, is below 1e-17 of the sum there.
_EM_START = 15.0
# below this r = y/x every tail integral is its leading term, exact to a
# relative r^2 < 1e-300, while r^2 itself nears underflow
_TINY_RATIO = 1e-150
_EM_TERMS = {d: tuple((2 * k + d - 2, b / math.factorial(2 * k) * math.factorial(2 * k + d - 3))
                      for k, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66,
                                             -691 / 2730, 7 / 6, -3617 / 510), 1))
             for d in (1, 2, 3)}


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
    """Zero-temperature coherence factor of a discrete bath: the thermal one
    with every coth weight 1, exp(-sum_k 4|g_k|^2 (1 - cos omega_k t)/omega_k^2),
    which is the product over modes of exp(-|alpha_k(t)|^2 / 2)."""
    return chi_thermal_discrete(bath, 0.0, t)


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


def discretize_spectral_density(j: SpectralDensity, n_modes) -> BathModes:
    """Linear-grid discretization with 4|g_i|^2 = J(omega_i) * d_omega on
    (0, _DISCRETE_CUTOFFS omega_c)."""
    edges = np.linspace(0.0, _DISCRETE_CUTOFFS * j.omega_c, n_modes + 1)
    centers = 0.5 * (edges[1:] + edges[:-1])
    dw = edges[1] - edges[0]
    gs = 0.5 * np.sqrt(j(centers) * dw)
    return BathModes(tuple(zip(gs, centers)))


def F_vac(j: SpectralDensity, t) -> float:
    """Vacuum decay function int J(w)(1 - cos wt)/w^2 dw, in closed form.

    The forms in x = (omega_c t)^2 hold while x (d = 1), a x (d = 2) or
    a x^2 (d = 3) stays finite and no numerator overflows; beyond, the same
    forms in r = 1/x are used. A value beyond the float range raises.
    """
    t = float(t)
    if t < 0:
        raise PhysicsError("t must be nonnegative")
    u = j.omega_c * t
    if j.d == 1:
        limit = _SQRT_MAX
    else:
        limit = (_FLOAT_MAX / max(j.a, 1.0)) ** (0.5 if j.d == 2 else 0.25)
    vac = math.inf
    if u < limit:
        x = u ** 2
        if j.d == 1:
            vac = 0.5 * j.a * math.log1p(x)
        elif j.d == 2:
            vac = j.a * x / (1.0 + x)
        else:
            # cancellation-free form of a [1 - (1 - x)/(1 + x)^2]
            vac = j.a * (3.0 * x + x * x) / (1.0 + x) ** 2
    if vac == math.inf:
        r = (1.0 / u) ** 2
        if j.d == 1:
            # log(omega_c) + log(t) stays finite where omega_c t overflows
            vac = j.a * (math.log(j.omega_c) + math.log(t)) + 0.5 * j.a * math.log1p(r)
        elif j.d == 2:
            vac = j.a / (1.0 + r)
        else:
            vac = j.a * ((1.0 + 3.0 * r) / (1.0 + r) ** 2)
    if not math.isfinite(vac):
        raise PhysicsError(f"F_vac overflows: a = {j.a!r}, omega_c t = {u!r}")
    return vac


def _low_orders(x: float, y: float) -> tuple:
    """(L, g_1, g_2) at x > 0, y >= 0: log1p(X)/2, X/(1 + X) and g_1 (1 + 2q)
    with X = (y/x)^2 and q = 1/(1 + X) = cos^2(theta), in 1/X where X > 1."""
    if y <= x:
        X = (y / x) ** 2
        q = 1.0 / (1.0 + X)
        return 0.5 * math.log1p(X), X * q, X * q * (1.0 + 2.0 * q)
    R = (x / y) ** 2
    g1 = 1.0 / (1.0 + R)
    return math.log(y / x) + 0.5 * math.log1p(R), g1, g1 * (1.0 + 2.0 * R * g1)


def _matsubara_sum(d: int, c: float, w: float, y: float) -> float:
    """sum_{n>=0} c^(d-1) f_d(w + n) of the module docstring: directly below
    x = _EM_START, then the Euler-Maclaurin tail. c^(d-1) enters as powers of
    c/x, at most 1 where c < w."""
    total = 0.0
    x = w
    while x < _EM_START:
        total += (c / x) ** (d - 1) * _low_orders(x, y)[d - 1]
        x += 1.0
    low = _low_orders(x, y)
    L, theta, inv = low[0], math.atan2(y, x), 1.0 / x
    em, inv_power = 0.0, inv
    for k, coef in _EM_TERMS[d]:
        em += coef * inv_power * (2.0 * math.exp(-k * L) * math.sin(0.5 * k * theta) ** 2
                                  - math.expm1(-k * L))
        inv_power *= inv * inv
    # the integrals y theta - x L, c L and c g_1 are y r/2, s y r/2 and s y r
    # (1 + O(r^2)) with r = y/x, s = c/x; x L, L and g_1 are lost once r^2
    # underflows, so below _TINY_RATIO the leading terms are taken
    r = y / x
    if d == 1:
        integral = 0.5 * y * r if r < _TINY_RATIO else y * theta - x * L
        return total + integral + (0.5 * L + em)
    s = c / x
    integral = (d - 1) * s * (0.5 * y * r) if r < _TINY_RATIO else c * low[d - 2]
    return total + s ** (d - 2) * (integral + s * (0.5 * low[d - 1] + em))


def _beyond_range(d: int, r: float) -> float:
    """The series divided by y where x = 1 + c is beyond the float range.
    The series is then its Euler-Maclaurin integral, to 1/x, at c/x = 1 and
    y/x = r = omega_c t: y theta - x L, c L and c g_1 at x = y/r, so y
    times theta - L/r, L/r and g_1/r, taken at their leading terms r/2, r/2
    and r below _TINY_RATIO."""
    if r < _TINY_RATIO:
        return (1.0 if d == 3 else 0.5) * r
    L, g1, _ = _low_orders(1.0, r)
    if d == 1:
        return math.atan(r) - L / r
    return (L if d == 2 else g1) / r


def F_th(j: SpectralDensity, temperature, t) -> float:
    """Thermal excess decay function, weight coth(w/2T) - 1 on top of J/w^2,
    as the series of the module docstring. Where T/omega_c is beyond the
    float range the series is its integral, y = T t times `_beyond_range`
    of omega_c t, which tends to (d - 1)! a T t^2 omega_c for omega_c t << 1.
    A value beyond the float range raises, naming a, T/omega_c and T t."""
    temperature, t = float(temperature), float(t)
    if temperature < 0:
        raise PhysicsError("temperature must be nonnegative")
    if t < 0:
        raise PhysicsError("t must be nonnegative")
    if t == 0.0 or temperature == 0.0:
        return 0.0
    c = temperature / j.omega_c
    y = temperature * t
    if c < math.inf:
        th = _matsubara_sum(j.d, c, 1.0 + c, y)
    else:
        th = y * _beyond_range(j.d, j.omega_c * t)
    th = j.a * (2.0 * th)
    if not math.isfinite(th):
        raise PhysicsError(f"F_th overflows: a = {j.a!r}, T/omega_c = {c!r}, T t = {y!r}")
    return th


def trigamma(x) -> float:
    """psi'(x) = sum_n (x + n)^-2 for real x > 0: the d = 3 series of F_th
    at c = 1 and y = inf, where every g_k is 1."""
    if isinstance(x, complex) or not x > 0:
        raise PhysicsError("trigamma implemented for real x > 0 only")
    return _matsubara_sum(3, 1.0, float(x), math.inf)


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
    return j.a * (2.0 * _matsubara_sum(3, r, 1.0 + r, math.inf))


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
