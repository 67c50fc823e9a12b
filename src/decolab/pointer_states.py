"""Robust-state selection: the entropy-production sieve and the nonlinear
norm-preserving flow whose fixed families are the pointer states.

The sieve ranks pure states by how fast the open dynamics degrades them; the
flow evolves a single pure state so that its projector follows the double
commutator [P, [P, L(P)]], staying exactly pure; its operator work is
compiled once per generator, a diagonal channel kept as a vector. For a free
particle whose position is monitored, the flow has Gaussian fixed points of a
definite width, computed here on a periodic position grid: the kinetic term
acts through the FFT and the monitor as a diagonal, so no n x n matrix is
formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsError
from .lindblad import LindbladGenerator, apply_generator
from .operator_core import dag, march, vector_norm
from .units import HBAR, K_B

_NORM_TOL = 1e-9
# evolve_robust's RK45 tolerances
_RTOL = 1e-8
_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class MonitoredParticle:
    """Free particle on a periodic uniform grid with its position monitored:
    H has the unitary-DFT eigenvalues `kinetic` (numpy FFT order), and the
    one channel, at `rate`, is diagonal in x with diagonal `monitor`. Built
    by `qbm_pointer_particle`, which copies the grid and makes all three
    arrays read-only."""

    grid: np.ndarray
    kinetic: np.ndarray
    rate: float
    monitor: np.ndarray

    @property
    def spectral_radius(self) -> float:
        """Stiffness estimate of the flow: the largest kinetic eigenvalue
        plus rate/2 times the squared range of the monitor diagonal, the
        largest decay rate the channel term can reach on the grid. Before
        the grid exists, `qbm_flow_spectral_radius` gives the same sum."""
        spread = float(self.monitor.max() - self.monitor.min())
        return float(np.abs(self.kinetic).max()) + 0.5 * self.rate * spread**2


@dataclass(frozen=True)
class RobustStateFlow:
    """Accepted-step snapshot of the nonlinear flow: a normalized pure state
    vector, the generator driving it, and the time it was reached."""

    xi: np.ndarray
    gen: LindbladGenerator | MonitoredParticle
    t: float

    def __post_init__(self):
        norm = vector_norm(np.ravel(self.xi))
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise PhysicsError(f"flow state norm {norm!r} drifted off unity")


def linear_entropy_rate(rho, gen: LindbladGenerator) -> float:
    """Growth rate of the linear entropy 1 - tr(rho^2): equals -2 tr(rho L(rho)).

    Evaluated on pure states this ranks pointer-state candidates: the most
    robust states produce entropy slowest. Zero for stationary states and for
    purely unitary generators.
    """
    rho = np.asarray(rho, dtype=complex)
    return float(-2.0 * np.trace(rho @ apply_generator(gen, rho)).real)


def nonlinear_rhs(xi, gen: LindbladGenerator | MonitoredParticle) -> np.ndarray:
    """Pure-state flow derivative: -iH xi plus, per channel with rate g,
    g[<L+>(L - <L>) - (L+L - <L+L>)/2] xi, expectations taken in xi.

    The global-phase term proportional to <H> is dropped; it cancels from
    the projector and from every observable. The norm is preserved to first
    order: Re<xi|rhs> vanishes identically.
    """
    return _flow_rhs(gen)(xi)


def _flow_rhs(gen: LindbladGenerator | MonitoredParticle):
    """`nonlinear_rhs` compiled for one generator. A MonitoredParticle applies
    H as ifft(kinetic * fft(xi)) and folds its real monitor diagonal d into
    one coefficient vector, rate [<d> d - d^2/2 + <d^2>/2 - <d>^2], with <.>
    taken in xi. A LindbladGenerator forms L+L once per channel."""
    if isinstance(gen, MonitoredParticle):
        return _particle_rhs(gen)
    h = gen.hamiltonian
    terms = [(rate, op, dag(op) @ op) for rate, op in gen.channels]

    def rhs(xi):
        xi = np.asarray(xi, dtype=complex)
        out = -1j * (h @ xi)
        for rate, op, ll in terms:
            l_xi, ll_xi = op @ xi, ll @ xi
            exp_l = np.vdot(xi, l_xi)
            exp_ll = np.vdot(xi, ll_xi).real
            out += rate * (np.conj(exp_l) * (l_xi - exp_l * xi)
                           - 0.5 * (ll_xi - exp_ll * xi))
        return out
    return rhs


def _particle_rhs(particle: MonitoredParticle):
    """The particle's compiled right-hand side. Its moment, coefficient and
    spectrum vectors are buffers of this compile, so one compiled rhs must
    not run in two threads at once; the array it returns is new. The 1/n of
    the inverse transform rides in the kinetic phases, so ifft runs
    unscaled: on a power-of-two grid, where 1/n is exact, that moves no
    bit."""
    fft, ifft = np.fft.fft, np.fft.ifft
    n = particle.kinetic.size
    phases, rate, d = -1j * particle.kinetic / n, particle.rate, particle.monitor
    half_d2 = 0.5 * rate * d * d
    # rows d and rate d^2/2 with each entry twice: against the squared float
    # view (re, im, re, ...) of xi one product gives <d> and <rate d^2/2>
    table = np.repeat(np.stack((d, half_d2)), 2, axis=1)
    squares, coefs, spectra = np.empty(2 * n), np.empty(n), np.empty(n, dtype=complex)

    def rhs(xi):
        xi = np.ascontiguousarray(xi, dtype=complex)
        # the buffers are rebound here: `-=` on a closure name would make it
        # a local of rhs, unbound at its first use
        parts, coef, spec = xi.view(float), coefs, spectra
        mean, half_d2_mean = (table @ np.multiply(parts, parts, out=squares)).tolist()
        np.multiply(d, rate * mean, out=coef)
        coef -= half_d2
        coef += half_d2_mean - rate * mean * mean
        fft(xi, out=spec)
        spec *= phases
        out = ifft(spec, norm="forward")
        out += np.multiply(coef, xi, out=spec)
        return out
    return rhs


def projector_flow_rhs(rho, gen: LindbladGenerator) -> np.ndarray:
    """Double-commutator form [P, [P, L(P)]] of the same flow, for
    cross-checking the vector equation."""
    rho = np.asarray(rho, dtype=complex)
    z = apply_generator(gen, rho)
    return rho @ z + z @ rho - 2.0 * rho @ z @ rho


def evolve_robust(xi0, gen: LindbladGenerator | MonitoredParticle,
                  t_final: float) -> tuple:
    """Integrate the nonlinear flow by one `march` (rtol _RTOL, atol _ATOL)
    of the right-hand side compiled once, in `_flow_rhs`. The equation
    preserves the norm only to first order, so the state is renormalized
    after every accepted step, before drift can compound. That moves it by
    rounding size only (measured up to 2.4e-15 relative on the particle
    flow, 2.6e-12 on a dim-40 damped oscillator), so `march` keeps the
    step's derivative for the next one.

    Returns the accepted-step snapshots as RobustStateFlow objects, initial
    state included, so purity holds exactly along the whole trajectory.
    Raises QuadratureError, naming t and the step, if the step underflows.
    """
    xi0 = np.asarray(xi0, dtype=complex)
    if not abs(np.linalg.norm(xi0) - 1.0) <= _NORM_TOL:
        raise PhysicsError("initial flow state must be normalized")
    if t_final < 0:
        raise PhysicsError("flow time must be nonnegative")
    snapshots = [RobustStateFlow(xi=xi0.copy(), gen=gen, t=0.0)]
    if t_final != 0.0:
        steps = march(_flow_rhs(gen), xi0, [t_final], _RTOL, _ATOL,
                      after_step=lambda y: np.divide(y, vector_norm(y), out=y))
        snapshots += (RobustStateFlow(xi=y, gen=gen, t=float(t)) for t, y in steps)
    return tuple(snapshots)


def qbm_soliton_width(m: float, gamma: float, temperature: float,
                      si: bool = False) -> float:
    """Stationary width of the Gaussian pointer state of a monitored free
    particle: (1/(8 gamma m^2 T))^{1/4} with hbar = k_B = 1. With si=True
    the inputs are kg, 1/s, K and the result is in meters. Where that order
    under- or overflows, it is (hbar^3/8 k_B)^{1/4} gamma^{-1/4} T^{-1/4}
    m^{-1/2}, with no m^2; PhysicsError if the width is 0 or inf in floats."""
    if m <= 0 or gamma <= 0 or temperature <= 0:
        raise PhysicsError("mass, rate and temperature must be positive")
    hbar3, k_b = (HBAR**3, K_B) if si else (1.0, 1.0)
    try:
        with np.errstate(all="raise"):
            return float(hbar3 / (np.float64(8) * gamma * m * m * k_b * temperature)) ** 0.25
    except FloatingPointError:
        width = (hbar3 / (8.0 * k_b)) ** 0.25 * gamma**-0.25 * temperature**-0.25 / m**0.5
    if not 0.0 < width < math.inf:
        raise PhysicsError(f"width off the float range: (m, gamma, T) = {m, gamma, temperature}")
    return width


def _check_grid_holds_width(m, gamma, temperature, span, dx):
    """PhysicsError unless span >= 10 sigma_0 and sigma_0 >= 4 dx."""
    sigma0 = qbm_soliton_width(m, gamma, temperature)
    if span < 10.0 * sigma0:
        raise PhysicsError("grid span must cover 10 stationary widths")
    if sigma0 < 4.0 * dx:
        raise PhysicsError("grid too coarse: stationary width under 4 dx")


def qbm_flow_spectral_radius(m: float, gamma: float, temperature: float,
                             span: float, points: int) -> float:
    """`spectral_radius` of the particle that `qbm_pointer_particle` builds
    on `points` uniform points across `span`, from those numbers alone:
    (2 pi floor(n/2) / (n dx))^2 / 2m with dx = span/(n - 1), the largest
    kinetic eigenvalue, plus gamma/2 times (2 sqrt(mT) span)^2, so a run's
    cost can be bounded before any grid is allocated. PhysicsError, as from
    `qbm_pointer_particle`, if the span or step cannot hold sigma_0."""
    dx = span / (points - 1)
    _check_grid_holds_width(m, gamma, temperature, span, dx)
    k_max = 2.0 * math.pi * (points // 2) / (points * dx)
    return k_max**2 / (2.0 * m) + 2.0 * gamma * m * temperature * span**2


def qbm_pointer_particle(m: float, gamma: float, temperature: float,
                         grid) -> MonitoredParticle:
    """Free particle with monitored position on a uniform periodic 1D grid:
    H = p^2/2m by spectral differentiation, with eigenvalues the FFT of the
    symmetrized real column ifft(k^2/2m), and one channel (gamma,
    2 sqrt(mT) x). The grid must contain and resolve the stationary width:
    span >= 10 sigma_0, at least 256 points, sigma_0 >= 4 dx."""
    grid = np.array(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 256:
        raise PhysicsError("grid needs at least 256 points")
    steps = np.diff(grid)
    dx = float(steps[0])
    # each point is rounded to within eps |x| / 2, so a step can be off by
    # eps max|x| however fine the grid
    rounding = 4.0 * np.finfo(float).eps * float(np.abs(grid).max())
    if dx <= 0 or not np.allclose(steps, dx, rtol=1e-12, atol=rounding):
        raise PhysicsError("grid must be uniform and increasing")
    _check_grid_holds_width(m, gamma, temperature, grid[-1] - grid[0], dx)

    k = 2.0 * math.pi * np.fft.fftfreq(grid.size, d=dx)
    column = np.fft.ifft(k**2 / (2.0 * m)).real
    # symmetrize c[j] and c[-j] so the circulant is exactly symmetric and
    # its spectrum real
    column = 0.5 * (column + np.roll(column[::-1], 1))
    kinetic = np.fft.fft(column).real.copy()
    monitor = 2.0 * math.sqrt(m * temperature) * grid
    for array in (grid, kinetic, monitor):
        array.setflags(write=False)
    return MonitoredParticle(grid=grid, kinetic=kinetic, rate=gamma, monitor=monitor)


def state_width(grid, xi) -> float:
    """Root second central moment of |xi|^2 on the grid; moment-based so
    small non-Gaussian tails cannot skew a curve fit."""
    grid = np.asarray(grid, dtype=float)
    weight = np.abs(np.asarray(xi)) ** 2
    total = weight.sum()
    if total <= 0:
        raise PhysicsError("state has no weight on the grid")
    weight = weight / total
    mean = float(weight @ grid)
    return math.sqrt(float(weight @ (grid - mean) ** 2))
