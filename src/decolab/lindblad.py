"""Markovian master equations in Lindblad form.

Generator containers and standard-form conversions, Liouvillian
superoperator matrices and their Heisenberg duals, gauge freedom, and
closed-form solutions for the exactly solvable models: energy dephasing,
the damped harmonic oscillator with coherent and cat states, and free
quantum Brownian motion (first and second moments plus the position
coherence decay). Natural units hbar = k_B = 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PhysicsError
from .operator_core import (
    TAU_HERM,
    TAU_POS,
    Propagator,
    as_operator,
    dag,
    devectorize,
    sandwich,
    spost,
    spre,
    vectorize,
)

# the dense superoperator has order dim^2, so its eigenbasis or exponential
# costs dim^6; above this, RK45 steps the matrix-form right-hand side
_DENSE_DIM_MAX = 12
_RK_RTOL = 1e-9
_FOCK_LEAK_TOL = 1e-6
# amplitude parts up to this keep |alpha0 - beta0|^2 and alpha0 conj(beta0) finite
_AMPLITUDE_MAX = 2.0 ** 509


def _read_only(a) -> np.ndarray:
    """A read-only complex copy of a finite square matrix."""
    a = as_operator(np.array(a, dtype=complex))
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class LindbladGenerator:
    """Effective Hamiltonian plus weighted jump channels (rate, operator).

    Holds read-only copies of its arrays and compares and hashes by
    identity, so an instance can key a cache of what is derived from it.
    """

    hamiltonian: np.ndarray
    channels: tuple = ()

    def __post_init__(self):
        h = _read_only(self.hamiltonian)
        if np.linalg.norm(h - dag(h)) > TAU_HERM * max(1.0, np.linalg.norm(h)):
            raise PhysicsError("Hamiltonian must be hermitian")
        object.__setattr__(self, "hamiltonian", h)
        clean = []
        for rate, op in self.channels:
            if rate < 0:
                raise PhysicsError(f"negative rate {rate}")
            op = _read_only(op)
            if op.shape != h.shape:
                raise DimensionError("channel operator dimension mismatch")
            clean.append((float(rate), op))
        object.__setattr__(self, "channels", tuple(clean))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class FirstStandardForm:
    """Generator data (H, orthonormal traceless basis E_j, coefficient matrix)."""

    hamiltonian: np.ndarray
    basis: tuple
    alpha: np.ndarray

    def __post_init__(self):
        h = as_operator(self.hamiltonian)
        if np.linalg.norm(h - dag(h)) > TAU_HERM * max(1.0, np.linalg.norm(h)):
            raise PhysicsError("Hamiltonian must be hermitian")
        object.__setattr__(self, "hamiltonian", h)
        basis = tuple(as_operator(e) for e in self.basis)
        d = h.shape[0]
        if not 1 <= len(basis) <= d * d - 1:
            raise DimensionError(f"basis size {len(basis)} invalid for dim {d}")
        for i, e in enumerate(basis):
            if abs(np.trace(e)) > 1e-10:
                raise PhysicsError(f"basis element {i} is not traceless")
            for k, f in enumerate(basis):
                want = 1.0 if i == k else 0.0
                if abs(np.trace(dag(e) @ f) - want) > 1e-10:
                    raise PhysicsError("basis is not orthonormal")
        object.__setattr__(self, "basis", basis)
        a = np.asarray(self.alpha, dtype=complex)
        if a.shape != (len(basis), len(basis)):
            raise DimensionError("coefficient matrix shape does not match basis")
        if np.linalg.norm(a - dag(a)) > TAU_HERM * max(1.0, np.linalg.norm(a)):
            raise PhysicsError("coefficient matrix must be hermitian")
        object.__setattr__(self, "alpha", a)


def hermitian_basis(dim):
    """Orthonormal traceless hermitian basis of dim x dim matrices.

    Generalized Pauli construction: real and imaginary off-diagonal pairs
    over sqrt(2), then the diagonal ladder; dim^2 - 1 elements.
    """
    out = []
    for i in range(dim):
        for k in range(i + 1, dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, k] = e[k, i] = 1.0 / math.sqrt(2.0)
            out.append(e)
            e = np.zeros((dim, dim), dtype=complex)
            e[i, k] = -1j / math.sqrt(2.0)
            e[k, i] = 1j / math.sqrt(2.0)
            out.append(e)
    for l in range(1, dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[:l, :l] = np.eye(l)
        e[l, l] = -l
        out.append(e / math.sqrt(l * (l + 1)))
    return out


def to_lindblad_form(form: FirstStandardForm) -> LindbladGenerator:
    """Diagonalize the coefficient matrix into weighted jump channels."""
    rates, vecs = np.linalg.eigh(form.alpha)
    if rates.min() < -TAU_POS:
        raise PhysicsError(
            f"coefficient matrix has eigenvalue {rates.min():.3e}: not completely positive")
    channels = []
    for k in range(len(rates)):
        rate = max(float(rates[k]), 0.0)
        if rate == 0.0:
            continue
        op = sum(vecs[i, k] * form.basis[i] for i in range(len(form.basis)))
        channels.append((rate, op))
    return LindbladGenerator(form.hamiltonian, tuple(channels))


def to_first_standard_form(gen: LindbladGenerator) -> FirstStandardForm:
    """Expand channels over the full traceless basis; inverse of to_lindblad_form.

    Trace parts of the jump operators are gauged away first, which shifts
    the Hamiltonian but not the generator's action.
    """
    d = gen.dim
    shifts = [-np.trace(op) / d for _, op in gen.channels]
    traceless = gauge_shift(gen, shifts)
    basis = hermitian_basis(d)
    alpha = np.zeros((d * d - 1, d * d - 1), dtype=complex)
    for rate, op in traceless.channels:
        coeff = np.array([np.trace(dag(e) @ op) for e in basis])
        alpha += rate * np.outer(coeff, coeff.conj())
    return FirstStandardForm(traceless.hamiltonian, tuple(basis), alpha)


def liouvillian(gen: LindbladGenerator) -> np.ndarray:
    """Superoperator matrix of the generator (column-stacking convention)."""
    h = gen.hamiltonian
    out = -1j * (spre(h) - spost(h))
    for rate, op in gen.channels:
        opd_op = dag(op) @ op
        out += rate * (sandwich(op, dag(op)) - 0.5 * spre(opd_op) - 0.5 * spost(opd_op))
    return out


def dual_liouvillian(gen: LindbladGenerator) -> np.ndarray:
    """Heisenberg-picture generator L#, the Hilbert-Schmidt adjoint of L:
    tr(A† L(rho)) = tr(L#(A)† rho); L#(I) = 0."""
    return dag(liouvillian(gen))


def apply_generator(gen: LindbladGenerator, rho: np.ndarray) -> np.ndarray:
    """Matrix-form action L(rho) without building the superoperator."""
    h = gen.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    for rate, op in gen.channels:
        opd_op = dag(op) @ op
        out += rate * (op @ rho @ dag(op) - 0.5 * (opd_op @ rho + rho @ opd_op))
    return out


def gauge_shift(gen: LindbladGenerator, shifts) -> LindbladGenerator:
    """Shift L_k -> L_k + c_k, absorbing the difference into the Hamiltonian.

    H -> H + sum_k (gamma_k/2i)(conj(c_k) L_k - c_k L_k†) leaves the
    generator's action invariant.
    """
    if len(shifts) != len(gen.channels):
        raise DimensionError("one shift per channel required")
    h = gen.hamiltonian.astype(complex).copy()
    channels = []
    for c, (rate, op) in zip(shifts, gen.channels):
        c = complex(c)
        h += (rate / 2j) * (np.conj(c) * op - c * dag(op))
        channels.append((rate, op + c * np.eye(gen.dim)))
    return LindbladGenerator(h, tuple(channels))


def mix_channels(gen: LindbladGenerator, u) -> LindbladGenerator:
    """Unitary remixing of the rate-weighted jump operators; same generator."""
    u = np.asarray(u, dtype=complex)
    r = len(gen.channels)
    if u.shape != (r, r):
        raise DimensionError("mixing matrix must be square over the channels")
    if np.linalg.norm(u @ dag(u) - np.eye(r)) > 1e-10:
        raise PhysicsError("mixing matrix must be unitary")
    weighted = [math.sqrt(rate) * op for rate, op in gen.channels]
    channels = []
    for j in range(r):
        channels.append((1.0, sum(u[j, k] * weighted[k] for k in range(r))))
    return LindbladGenerator(gen.hamiltonian, tuple(channels))


def evolve(gen: LindbladGenerator, rho: np.ndarray, t: float) -> np.ndarray:
    """Propagate rho for time t: exp(t L) from the dense superoperator up to
    _DENSE_DIM_MAX, adaptive RK45 on the matrix-form right-hand side above
    (QuadratureError, a PhysicsError, if its step underflows)."""
    rho, d = as_operator(rho), gen.dim
    if d <= _DENSE_DIM_MAX:
        return devectorize(Propagator(1j * liouvillian(gen)).apply(vectorize(rho), t))
    return Propagator(derivative=lambda y: apply_generator(gen, y.reshape(d, d)).ravel(),
                      rtol=_RK_RTOL, atol=1e-12).apply(rho, t)


def heisenberg_evolve(gen: LindbladGenerator, a: np.ndarray, t: float) -> np.ndarray:
    """Dual-evolved observable exp(L# t) A (small dimensions only)."""
    if gen.dim > _DENSE_DIM_MAX:
        raise DimensionError("dual propagation needs the dense superoperator: dim too large")
    k = 1j * dual_liouvillian(gen)
    return devectorize(Propagator(k).apply(vectorize(as_operator(a)), t))


def dephasing_solution(energies, gamma, rho0, t) -> np.ndarray:
    """Energy-basis solution of pure dephasing with H-coupled noise:

    rho_mn(t) = rho_mn(0) exp(-i(E_m - E_n)t - (gamma/2)(E_m - E_n)^2 t).
    """
    if t < 0:
        raise PhysicsError("t must be nonnegative")
    if gamma < 0:
        raise PhysicsError("gamma must be nonnegative")
    e = np.asarray(energies, dtype=float)
    rho0 = as_operator(rho0)
    if rho0.shape[0] != e.size:
        raise DimensionError("energy list does not match state dimension")
    spread = float(e.max() - e.min())
    if not 0.5 * gamma * (spread * spread) < math.inf:
        raise PhysicsError(f"dephasing rate overflows: gamma {gamma!r}, energy spread {spread!r}")
    diff = e[:, None] - e[None, :]
    return rho0 * np.exp((-1j * diff - 0.5 * gamma * diff ** 2) * t)


# -- damped harmonic oscillator -------------------------------------------

def destroy(n_max: int) -> np.ndarray:
    """Truncated Fock-space annihilation operator."""
    if n_max < 2:
        raise DimensionError("need at least two Fock levels")
    return np.diag(np.sqrt(np.arange(1, n_max, dtype=float)), k=1).astype(complex)


def damped_oscillator_generator(omega, gamma, n_max) -> LindbladGenerator:
    """H = omega a†a with a single jump channel (gamma, a)."""
    if gamma < 0:
        raise PhysicsError("gamma must be nonnegative")
    a = destroy(n_max)
    return LindbladGenerator(omega * (dag(a) @ a), ((gamma, a),))


@dataclass(frozen=True)
class CoherentStateSpec:
    """Coherent amplitude plus the Fock truncation carrying it."""

    alpha: complex
    n_max: int

    def __post_init__(self):
        if abs(self.alpha) ** 2 > self.n_max / 4.0:
            raise PhysicsError(
                f"truncation too small: need n_max >= 4|alpha|^2 = {4 * abs(self.alpha) ** 2:.1f}")


def coherent_vector(spec: CoherentStateSpec) -> np.ndarray:
    """Normalized truncated coherent state |alpha> as a ket."""
    n = np.arange(spec.n_max)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, spec.n_max)))))
    amp = np.exp(n * np.log(complex(spec.alpha)) - 0.5 * log_fact) if spec.alpha != 0 \
        else np.eye(spec.n_max, 1, dtype=complex).ravel()
    if spec.alpha != 0:
        amp *= math.exp(-0.5 * abs(spec.alpha) ** 2)
    return amp / np.linalg.norm(amp)


def coherent_state(spec: CoherentStateSpec) -> np.ndarray:
    v = coherent_vector(spec)
    return np.outer(v, v.conj())


def check_fock_leakage(rho: np.ndarray):
    """Error out once the top two Fock levels carry visible population."""
    pops = np.real(np.diag(as_operator(rho)))
    leak = float(pops[-2:].sum())
    if leak >= _FOCK_LEAK_TOL:
        raise PhysicsError(f"Fock truncation leakage {leak:.2e} >= {_FOCK_LEAK_TOL:.0e}")
    return leak


def cat_coherence_factor(alpha0, beta0, gamma, t) -> complex:
    """Interference-term factor c_t/c_0 for a two-component superposition
    under damping: exp([-|a-b|^2/2 + i Im(a conj(b))](1 - e^{-gamma t}))."""
    if t < 0:
        raise PhysicsError("t must be nonnegative")
    a, b = complex(alpha0), complex(beta0)
    exponent = -cat_decoherence_ratio(a, b) + 1j * (a * np.conj(b)).imag
    return complex(np.exp(exponent * -math.expm1(-gamma * t)))


def cat_decoherence_ratio(alpha0, beta0) -> float:
    """Initial decoherence rate over damping rate: |alpha_0 - beta_0|^2 / 2."""
    a, b = complex(alpha0), complex(beta0)
    if not max(map(abs, (a.real, a.imag, b.real, b.imag))) <= _AMPLITUDE_MAX:
        raise PhysicsError(f"amplitudes {a}, {b}: parts beyond {_AMPLITUDE_MAX:.3g} overflow")
    return 0.5 * abs(a - b) ** 2


def alpha_from_phase_space(x, p, m, omega, hbar=1.0) -> complex:
    """Coherent amplitude of a phase-space point:
    alpha = sqrt(m omega/(2 hbar)) (x + i p/(m omega))."""
    if m <= 0 or omega <= 0 or hbar <= 0 or m * omega == 0.0:
        raise PhysicsError(f"m = {m!r}, omega = {omega!r}, hbar = {hbar!r}: need m omega > 0")
    return math.sqrt(m * omega / (2.0 * hbar)) * (x + 1j * p / (m * omega))


# -- free quantum Brownian motion ------------------------------------------

@dataclass(frozen=True)
class PhaseSpaceMoments:
    """First and second central moments of a single-particle state."""

    x: float
    p: float
    sigma_xx: float
    sigma_pp: float
    cross: float = 0.0  # <xp + px> - 2<x><p>

    def __post_init__(self):
        if self.sigma_xx <= 0 or self.sigma_pp <= 0:
            raise PhysicsError("variances must be positive")


def kinetic_energy(moments: PhaseSpaceMoments, m) -> float:
    return (moments.sigma_pp + moments.p ** 2) / (2.0 * m)


def thermal_momentum(m, temperature) -> float:
    """p_th = 2 sqrt(m T); the momentum scale of thermal equilibrium."""
    return 2.0 * math.sqrt(m * temperature)


def qbm_generator(x, p, m, gamma, temperature) -> LindbladGenerator:
    """Brownian-motion generator on explicit (x, p) matrices:

    H = p^2/2m + (gamma/2)(xp + px),  L = sqrt(4mT gamma) x + i sqrt(gamma/4mT) p.

    Heisenberg flow gives d<x>/dt = <p>/m and d<p>/dt = -2 gamma <p>; finite
    matrix truncations violate the canonical commutator in the top block, so
    these identities hold on the interior only.
    """
    x = as_operator(x)
    p = as_operator(p)
    h = p @ p / (2.0 * m) + 0.5 * gamma * (x @ p + p @ x)
    jump = math.sqrt(4.0 * m * temperature * gamma) * x \
        + 1j * math.sqrt(gamma / (4.0 * m * temperature)) * p
    return LindbladGenerator(h, ((1.0, jump),))


# psi(u) = sum_k c_k u^k of qbm_moments for k = 3..26; at u < 1/2 the first
# omitted term is below 1e-17 of the sum
_PSI_SERIES = tuple((k, ((-2.0) ** k - (-4.0) ** k / 4.0) / math.factorial(k))
                    for k in range(3, 27))


def qbm_moments(m, gamma, temperature, initial: PhaseSpaceMoments,
                t) -> PhaseSpaceMoments:
    """Closed-form moment flow of free Brownian motion.

    <p> damps at 2 gamma, <x> drifts by the integrated momentum, sigma_pp
    relaxes to mT at 4 gamma, and sigma_xx picks up the diffusive slope
    T/(gamma m) plus the momentum-channel floor gamma/(4mT).

    With u = gamma t, E = 1 - e^(-2u) and h = E/(2 gamma m) (h -> t/m as
    u -> 0), every term is nonnegative apart from the initial cross moment:

        cross = cross_0 e^(-2u) + 2h (mT E + sigma_pp,0 e^(-2u))
        sigma_xx = sigma_xx,0 + gamma t/(4mT) + cross_0 h + sigma_pp,0 h^2
                   + T psi(u)/(gamma^2 m),

    psi(u) = u - 3/4 + e^(-2u) - e^(-4u)/4 = sum_(k>=3) ((-2u)^k - (-4u)^k/4)/k!,
    summed as its series below u = 1/2, where the closed form cancels.
    """
    if m <= 0 or gamma <= 0 or temperature <= 0:
        raise PhysicsError("m, gamma, temperature must be positive")
    if t < 0:
        raise PhysicsError("t must be nonnegative")
    if t == 0.0:
        return initial
    if gamma * m == 0.0 or m * temperature == 0.0:
        raise PhysicsError(f"gamma m = {gamma * m!r} or m T = {m * temperature!r} underflows")
    u = gamma * t
    e2 = math.exp(-2.0 * u)
    e4 = e2 * e2
    one_minus_e2 = -math.expm1(-2.0 * u)
    # h = (t/m) E/(2u), and E/(2u) rounds to 1 where E is subnormal or 0
    h = one_minus_e2 / (2.0 * gamma * m) if one_minus_e2 >= sys.float_info.min else t / m
    p_t = initial.p * e2
    x_t = initial.x + initial.p * h

    spp_t = m * temperature + (initial.sigma_pp - m * temperature) * e4
    cross_t = initial.cross * e2 + 2.0 * h * (m * temperature * one_minus_e2
                                              + initial.sigma_pp * e2)
    if u < 0.5:
        psi_over_gamma = sum(c * u ** k for k, c in _PSI_SERIES) / gamma
    else:
        psi_over_gamma = t - (0.75 - e2 + 0.25 * e4) / gamma
    sxx_t = (initial.sigma_xx + gamma / (4.0 * m * temperature) * t
             + initial.cross * h + initial.sigma_pp * h * h
             + temperature / (gamma * m) * psi_over_gamma)
    if not all(map(math.isfinite, (x_t, p_t, sxx_t, spp_t, cross_t))):
        raise PhysicsError(f"moment overflow: m {m!r}, gamma {gamma!r}, T {temperature!r}")
    return PhaseSpaceMoments(x_t, p_t, sxx_t, spp_t, cross_t)


def thermal_wavelength_sq(m, temperature) -> float:
    """Squared thermal de Broglie wavelength 2 pi/(m T) in natural units."""
    if m <= 0 or temperature <= 0:
        raise PhysicsError("m and temperature must be positive")
    return 2.0 * math.pi / (m * temperature)


def qbm_coherence_ratio(x, x_prime, temperature, m) -> float:
    """Spatial decoherence rate over damping rate: 4 pi (x - x')^2 / Lambda_th^2."""
    return 4.0 * math.pi * (x - x_prime) ** 2 / thermal_wavelength_sq(m, temperature)


def qbm_coherence_decay(x, x_prime, temperature, m, gamma, t) -> float:
    """Off-diagonal suppression exp(-gamma_deco t) of the position matrix."""
    if t < 0:
        raise PhysicsError("t must be nonnegative")
    return math.exp(-gamma * qbm_coherence_ratio(x, x_prime, temperature, m) * t)
