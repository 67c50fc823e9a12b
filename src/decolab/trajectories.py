"""Stochastic jump unravelling of Lindblad dynamics.

Piecewise-deterministic trajectories: non-hermitian no-jump evolution
under H_C = H - (i/2) sum_k gamma_k L_k†L_k, waiting times sampled by
inverting the survival probability, jump-channel selection, records with
their probability densities, and ensemble reconstruction of the
deterministic master-equation solution.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import DimensionError, PhysicsError
from .lindblad import LindbladGenerator
from .operator_core import Propagator, as_operator, dag

_GRID_POINTS = 256
_BISECT_REL = 1e-10
_DARK_WEIGHT = 1e-14
_NORM_TOL = 1e-10


def effective_hamiltonian(gen: LindbladGenerator) -> np.ndarray:
    """Non-hermitian drift H - (i/2) sum_k gamma_k L_k† L_k."""
    h_c = gen.hamiltonian.astype(complex).copy()
    for rate, op in gen.channels:
        h_c -= 0.5j * rate * (dag(op) @ op)
    return h_c


# one (Propagator of H_C, decay operator) per generator: generators are
# immutable and hash by identity, and an entry holds no reference to its
# generator, so it lives exactly as long as the generator it was built from
_PROPAGATORS = weakref.WeakKeyDictionary()


def _propagator(gen: LindbladGenerator):
    entry = _PROPAGATORS.get(gen)
    if entry is None:
        h_c = effective_hamiltonian(gen)
        # decay = sum_k gamma_k L_k†L_k = i (H_C - H_C†); -d|psi|^2/dtau = <psi|decay|psi>
        entry = _PROPAGATORS[gen] = Propagator(h_c), 1j * (h_c - h_c.conj().T)
    return entry


def no_jump_propagate(psi, gen: LindbladGenerator, tau: float) -> np.ndarray:
    """Unnormalized conditioned state exp(-i tau H_C) psi; its squared norm
    is the probability that no jump occurred up to tau."""
    return _propagator(gen)[0].apply(psi, tau)


def _norm_sq(rows) -> np.ndarray:
    return np.einsum("ij,ij->i", rows.conj(), rows).real


def _waiting_times(prop: Propagator, decay, psi, us, t_max: float) -> np.ndarray:
    """First tau with survival(tau) = u for each u; inf where survival(t_max) > u.

    A uniform grid brackets each crossing at the first point where the
    running minimum of the survival is <= u. Inside the bracket, Newton on
    f = log survival - log u, with f' = -<psi|decay|psi>/survival exact,
    takes the crossing; a step that leaves the bracket or fails to halve the
    previous one is replaced by bisection.
    """
    grid = np.linspace(0.0, t_max, _GRID_POINTS + 1)
    surv = np.minimum.accumulate(_norm_sq(prop.states(psi, grid)))
    idx = np.searchsorted(-surv, -us, side="left")
    out = np.where(idx == 0, 0.0, np.inf)
    work = np.nonzero((idx >= 1) & (idx <= _GRID_POINTS))[0]
    j = idx[work]
    lo, hi, log_u = grid[j - 1], grid[j], np.log(us[work])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # start from the log-linear interpolant between the bracket ends
        tau = lo + (hi - lo) * (np.log(surv[j - 1]) - log_u) \
            / (np.log(surv[j - 1]) - np.log(surv[j]))
        tau = np.where((tau >= lo) & (tau <= hi), tau, 0.5 * (lo + hi))
        last = hi - lo
        while work.size:
            rows = prop.states(psi, tau)
            s = _norm_sq(rows)
            rate = np.einsum("ij,ij->i", rows.conj(), rows @ decay.T).real
            f = np.log(s) - log_u
            hi = np.where(f <= 0.0, tau, hi)
            lo = np.where(f <= 0.0, lo, tau)
            new = tau + f * s / rate
            done = np.abs(new - tau) <= _BISECT_REL * new
            newton = (new > lo) & (new < hi) & (np.abs(new - tau) <= 0.5 * last)
            new = np.where(done | newton, new, 0.5 * (lo + hi))
            last = np.abs(new - tau)
            done |= last <= _BISECT_REL * new
            out[work[done]] = new[done]
            keep = ~done
            work, tau, lo, hi, log_u, last = (
                work[keep], new[keep], lo[keep], hi[keep], log_u[keep], last[keep])
    return out


def sample_jump_time(psi, gen: LindbladGenerator, u: float, t_max: float):
    """Waiting time by survival inversion: first tau with
    |no_jump_propagate(psi, tau)|^2 = u; None when no jump occurs by t_max."""
    tau = sample_jump_times(psi, gen, [u], t_max)[0]
    return None if np.isinf(tau) else float(tau)


def sample_jump_times(psi, gen: LindbladGenerator, us, t_max: float) -> np.ndarray:
    """Waiting times for an array of survival levels; no-jump entries are inf."""
    us = np.asarray(us, dtype=float)
    if not np.all((us > 0.0) & (us < 1.0)):
        raise PhysicsError("u must lie in (0, 1)")
    if not t_max > 0:
        raise PhysicsError("t_max must be positive")
    psi = np.asarray(psi, dtype=complex)
    if not np.all(np.isfinite(psi)):
        raise PhysicsError("state has non-finite entries")
    return _waiting_times(*_propagator(gen), psi, us.ravel(),
                          float(t_max)).reshape(us.shape)


def apply_jump(psi, gen: LindbladGenerator, rng: Generator):
    """Pick channel k with probability gamma_k |L_k psi|^2 / total and collapse."""
    psi = np.asarray(psi, dtype=complex)
    jumps = [np.sqrt(rate) * (op @ psi) for rate, op in gen.channels]
    weights = np.array([float(np.vdot(v, v).real) for v in jumps])
    total = weights.sum()
    if total <= _DARK_WEIGHT:
        raise PhysicsError("all jump amplitudes vanish: dark state cannot jump")
    k = int(np.searchsorted(np.cumsum(weights) / total, rng.random(), side="right"))
    k = min(k, len(jumps) - 1)
    out = jumps[k]
    return k, out / np.linalg.norm(out)


@dataclass(frozen=True)
class JumpRecord:
    """Ordered click times with their channels over a fixed horizon."""

    events: tuple
    horizon: float

    def __post_init__(self):
        if self.horizon < 0:
            raise PhysicsError("horizon must be nonnegative")
        last = 0.0
        for t, _ in self.events:
            if not last < t < self.horizon:
                raise PhysicsError("event times must be strictly ordered inside the horizon")
            last = t


def _stream(base_seed: int, index: int) -> Generator:
    # counter-based streams: trajectory i of seed s draws from key (s, i),
    # so distinct seeds or indices never share a stream
    return Generator(Philox(key=np.array([base_seed, index], dtype=np.uint64)))


def _run(psi0, gen, horizon, rng):
    prop, decay = _propagator(gen)
    psi, t, events = np.array(psi0, dtype=complex), 0.0, []
    while t < horizon:
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        tau = float(_waiting_times(prop, decay, psi, np.array([u]), horizon - t)[0])
        # a crossing rounded onto the horizon itself counts as no jump: the
        # record invariant keeps click times strictly inside the window
        jump = t + tau < horizon
        psi = prop.apply(psi, tau if jump else horizon - t)
        norm = np.linalg.norm(psi)
        if norm == 0.0:
            raise PhysicsError("trajectory state collapsed to zero")
        psi = psi / norm
        if not jump:
            break
        t += tau
        k, psi = apply_jump(psi, gen, rng)
        events.append((t, k))
    return JumpRecord(tuple(events), horizon), psi


def _initial_state(psi0) -> np.ndarray:
    """psi0 as a complex array; PhysicsError unless its norm is within
    _NORM_TOL of 1 (so a NaN or inf entry fails)."""
    psi0 = np.asarray(psi0, dtype=complex)
    if not abs(np.linalg.norm(psi0) - 1.0) <= _NORM_TOL:
        raise PhysicsError("initial state must be normalized")
    return psi0


def _horizon(horizon) -> float:
    """horizon as a float; PhysicsError unless 0 < horizon < inf (so NaN fails)."""
    horizon = float(horizon)
    if not 0.0 < horizon < np.inf:
        raise PhysicsError(f"horizon must be positive and finite, got {horizon!r}")
    return horizon


def run_trajectory(psi0, gen: LindbladGenerator, horizon: float, seed: int,
                   index: int = 0):
    """Trajectory `index` of `seed`, drawn from Philox key (seed, index);
    returns (record, final state)."""
    return _run(_initial_state(psi0), gen, _horizon(horizon), _stream(seed, index))


def record_operator(record: JumpRecord, gen: LindbladGenerator) -> np.ndarray:
    """Compound conditioning operator M_R: no-jump stretches interleaved with
    the recorded jump operators, ending at the horizon."""
    prop = _propagator(gen)[0]
    m = np.eye(gen.dim, dtype=complex)
    t_prev = 0.0
    for t_i, k_i in record.events:
        m = gen.channels[k_i][1] @ prop.apply(m, t_i - t_prev)
        t_prev = t_i
    return prop.apply(m, record.horizon - t_prev)


def record_probability_density(record: JumpRecord, rho0, gen: LindbladGenerator) -> float:
    """Density tr(M_R rho M_R†) prod_i gamma_{k_i} in the click times; for an
    empty record this is the plain no-jump probability."""
    rho0 = as_operator(rho0)
    if rho0.shape[0] != gen.dim:
        raise DimensionError("state dimension does not match generator")
    m = record_operator(record, gen)
    value = float(np.trace(m @ rho0 @ dag(m)).real)
    for _, k_i in record.events:
        value *= gen.channels[k_i][0]
    return max(value, 0.0)


def ensemble_average(psi0, gen: LindbladGenerator, horizon: float,
                     n_traj: int, base_seed: int) -> np.ndarray:
    """Mean projector over independent trajectories; converges to the
    master-equation state at the Monte-Carlo 1/sqrt(n) rate."""
    if n_traj < 1:
        raise PhysicsError("need at least one trajectory")
    psi0, horizon = _initial_state(psi0), _horizon(horizon)
    acc = np.zeros((gen.dim, gen.dim), dtype=complex)
    for i in range(n_traj):
        _, psi = _run(psi0, gen, horizon, _stream(base_seed, i))
        acc += np.outer(psi, psi.conj())
    return acc / n_traj
