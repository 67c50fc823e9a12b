"""Robust-state selection: the entropy-production sieve and the nonlinear
norm-preserving flow whose fixed families are the pointer states.

The sieve ranks pure states by how fast the open dynamics degrades them; the
flow evolves a single pure state so that its projector follows the double
commutator [P, [P, L(P)]], staying exactly pure; its operator work is
compiled once per generator, a diagonal channel kept as a vector. For a free
particle whose position is monitored, the flow has Gaussian fixed points of a
definite width, computed here on a position grid with spectral momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsError
from .lindblad import LindbladGenerator, apply_generator
from .operator_core import _DormandPrince, dag
from .units import HBAR, K_B

_NORM_TOL = 1e-9
# evolve_robust's RK45 tolerances
_RTOL = 1e-8
_ATOL = 1e-10


@dataclass(frozen=True)
class RobustStateFlow:
    """Accepted-step snapshot of the nonlinear flow: a normalized pure state
    vector, the generator driving it, and the time it was reached."""

    xi: np.ndarray
    gen: LindbladGenerator
    t: float

    def __post_init__(self):
        norm = float(np.linalg.norm(self.xi))
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


def nonlinear_rhs(xi, gen: LindbladGenerator) -> np.ndarray:
    """Pure-state flow derivative: -iH xi plus, per channel with rate g,
    g[<L+>(L - <L>) - (L+L - <L+L>)/2] xi, expectations taken in xi.

    The global-phase term proportional to <H> is dropped; it cancels from
    the projector and from every observable. The norm is preserved to first
    order: Re<xi|rhs> vanishes identically.
    """
    return _flow_rhs(gen)(xi)


def _flow_rhs(gen: LindbladGenerator):
    """`nonlinear_rhs` compiled for one generator: L+L formed once per
    channel, and a diagonal L kept as its diagonal d, with L+L = |d|^2."""
    h, terms = gen.hamiltonian, []
    for rate, op in gen.channels:
        diag = np.diagonal(op)
        if np.count_nonzero(op) == np.count_nonzero(diag):
            terms.append((rate, diag, np.abs(diag) ** 2))
        else:
            terms.append((rate, op, dag(op) @ op))

    def rhs(xi):
        xi = np.asarray(xi, dtype=complex)
        out = -1j * (h @ xi)
        for rate, op, ll in terms:
            l_xi = op * xi if op.ndim == 1 else op @ xi
            ll_xi = ll * xi if ll.ndim == 1 else ll @ xi
            exp_l = np.vdot(xi, l_xi)
            exp_ll = np.vdot(xi, ll_xi).real
            out += rate * (np.conj(exp_l) * (l_xi - exp_l * xi)
                           - 0.5 * (ll_xi - exp_ll * xi))
        return out
    return rhs


def projector_flow_rhs(rho, gen: LindbladGenerator) -> np.ndarray:
    """Double-commutator form [P, [P, L(P)]] of the same flow, for
    cross-checking the vector equation."""
    rho = np.asarray(rho, dtype=complex)
    z = apply_generator(gen, rho)
    return rho @ z + z @ rho - 2.0 * rho @ z @ rho


def evolve_robust(xi0, gen: LindbladGenerator, t_final: float) -> tuple:
    """Integrate the nonlinear flow with an embedded RK pair (rtol _RTOL,
    atol _ATOL), renormalizing the state after every accepted step; the
    equation only preserves the norm to first order, so drift is removed
    before it can compound. The right-hand side is compiled once per call,
    in `_flow_rhs`.

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
    if t_final == 0.0:
        return tuple(snapshots)

    rhs = _flow_rhs(gen)
    stepper = _DormandPrince(rhs, xi0, t_final, _RTOL, _ATOL)
    while stepper.t < t_final:
        stepper.step()
        stepper.y /= np.linalg.norm(stepper.y)
        # the cached derivative predates the renormalization; refresh it
        # so the FSAL stage of the next step sees the corrected state
        stepper.f = rhs(stepper.y)
        snapshots.append(RobustStateFlow(xi=stepper.y.copy(), gen=gen,
                                         t=float(stepper.t)))
    return tuple(snapshots)


def qbm_soliton_width(m: float, gamma: float, temperature: float,
                      si: bool = False) -> float:
    """Stationary width of the Gaussian pointer state of a monitored free
    particle: (1/(8 gamma m^2 T))^{1/4} with hbar = k_B = 1. With si=True
    the inputs are kg, 1/s, K and the result is in meters."""
    if m <= 0 or gamma <= 0 or temperature <= 0:
        raise PhysicsError("mass, rate and temperature must be positive")
    if si:
        return (HBAR**3 / (8.0 * gamma * m * m * K_B * temperature)) ** 0.25
    return (1.0 / (8.0 * gamma * m * m * temperature)) ** 0.25


def qbm_pointer_generator(m: float, gamma: float, temperature: float,
                          grid) -> LindbladGenerator:
    """Free particle with monitored position on a uniform 1D grid:
    H = p^2/2m via spectral differentiation, the circulant of the real, even
    ifft(k^2/2m), and one channel (gamma, 2 sqrt(mT) x). The grid must
    contain and resolve the stationary width: span >= 10 sigma_0, at least
    256 points, sigma_0 >= 4 dx."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 256:
        raise PhysicsError("grid needs at least 256 points")
    steps = np.diff(grid)
    dx = float(steps[0])
    if dx <= 0 or not np.allclose(steps, dx, rtol=1e-12, atol=0.0):
        raise PhysicsError("grid must be uniform and increasing")
    sigma0 = qbm_soliton_width(m, gamma, temperature)
    if grid[-1] - grid[0] < 10.0 * sigma0:
        raise PhysicsError("grid span must cover 10 stationary widths")
    if sigma0 < 4.0 * dx:
        raise PhysicsError("grid too coarse: stationary width under 4 dx")

    n = grid.size
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    column = np.fft.ifft(k**2 / (2.0 * m)).real
    # symmetrize c[j] and c[-j] so the circulant is exactly symmetric
    column = 0.5 * (column + np.roll(column[::-1], 1))
    # circulant: kinetic[i, j] = column[(i - j) % n]
    kinetic = column[(np.arange(n)[:, None] - np.arange(n)) % n]
    monitor = 2.0 * math.sqrt(m * temperature) * np.diag(grid).astype(complex)
    return LindbladGenerator(hamiltonian=kinetic, channels=((gamma, monitor),))


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
