"""Stochastic jump unravelling of Lindblad dynamics.

Piecewise-deterministic trajectories: non-hermitian no-jump evolution
under H_C = H - (i/2) sum_k gamma_k L_k†L_k, waiting times sampled by
inverting the survival probability, jump-channel selection, records with
their probability densities, and ensemble reconstruction of the
deterministic master-equation solution.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import DimensionError, PhysicsError
from .lindblad import LindbladGenerator
from .operator_core import Propagator, as_operator, dag

_BISECT_REL = 1e-10
_DARK_WEIGHT = 1e-14
_NORM_TOL = 1e-10
_EPS = float(np.finfo(float).eps)


def effective_hamiltonian(gen: LindbladGenerator) -> np.ndarray:
    """Non-hermitian drift H - (i/2) sum_k gamma_k L_k† L_k."""
    h_c = gen.hamiltonian.astype(complex).copy()
    for rate, op in gen.channels:
        h_c -= 0.5j * rate * (dag(op) @ op)
    return h_c


# the no-jump evolution of each generator: the Propagator of its H_C and its
# `_Renewal` (None where a click need not reset the state), built at its
# first use. Generators are immutable and hash by identity, and neither
# object holds a reference to its generator, so both live exactly as long as
# the generator they were built from
_NO_JUMP = weakref.WeakKeyDictionary()


def _no_jump(gen: LindbladGenerator) -> tuple:
    """(Propagator of H_C, `_Renewal` or None) of gen."""
    entry = _NO_JUMP.get(gen)
    if entry is None:
        entry = _NO_JUMP[gen] = Propagator(effective_hamiltonian(gen)), _renewal(gen)
    return entry


def no_jump_propagate(psi, gen: LindbladGenerator, tau: float) -> np.ndarray:
    """Unnormalized conditioned state exp(-i tau H_C) psi; its squared norm
    is the probability that no jump occurred up to tau."""
    return _no_jump(gen)[0].apply(psi, tau)


def _start(lo, hi, a, b, log_u):
    """First probe in the bracket [lo, hi] whose ends have log survival a, b:
    the log-linear interpolant at log u, or the midpoint where that leaves it."""
    tau = lo + (hi - lo) * (a - log_u) / (a - b) if a > b else math.nan
    return tau if lo <= tau <= hi else 0.5 * (lo + hi)


def _update(tau, lo, hi, last, f, step):
    """(new tau, lo, hi, done) after the probe tau of f = log survival - log u
    and its Newton step -f/f'; bisection replaces a step that leaves the
    bracket or fails to halve the previous one, `last`."""
    if f <= 0.0:
        hi = tau
    else:
        lo = tau
    new = tau + step
    done = abs(new - tau) <= _BISECT_REL * new
    if not (done or lo < new < hi and abs(new - tau) <= 0.5 * last):
        new = 0.5 * (lo + hi)
        done = abs(new - tau) <= _BISECT_REL * new
    return new, lo, hi, done


def _waiting_time(seg, u: float, lo: float, hi: float, s_lo: float, s_hi: float) -> float:
    """First tau with survival(tau) = u on the segment `seg`
    (`Propagator.segment`), given the bracket [lo, hi] of its `bracket` call
    with survivals s_lo > u >= s_hi. Each probe reads the survival s and
    its rate of loss from `seg.probe`, so f = log s - log u has the exact
    f' = -rate/s."""
    log_u = math.log(u)
    b = math.log(s_hi) if s_hi > 0.0 else -math.inf
    tau, last = _start(lo, hi, math.log(s_lo), b, log_u), hi - lo
    while True:
        s, rate = seg.probe(tau)
        f = (math.log(s) if s > 0.0 else -math.inf) - log_u
        new, lo, hi, done = _update(tau, lo, hi, last, f, f * s / rate if rate else math.nan)
        if done:
            return new
        tau, last = new, abs(new - tau)


def sample_jump_times(psi, gen: LindbladGenerator, us, t_max: float) -> np.ndarray:
    """Waiting times by survival inversion for an array of levels u: the
    first tau with |no_jump_propagate(psi, tau)|^2 = u, 0.0 where the
    survival of psi is already at or below u, inf where it stays above u up
    to t_max. Each level is solved alone by `_waiting_time` on one segment
    of psi, whose `bracket` starts from psi every time."""
    us = np.asarray(us, dtype=float)
    if not np.all((us > 0.0) & (us < 1.0)):
        raise PhysicsError("u must lie in (0, 1)")
    t_max = _horizon(t_max)
    psi = np.asarray(psi, dtype=complex)
    if not np.all(np.isfinite(psi)):
        raise PhysicsError("state has non-finite entries")
    seg = _no_jump(gen)[0].segment(psi)
    out = np.empty(us.size)
    for i, u in enumerate(us.ravel().tolist()):
        lo, hi, s_lo, s_hi = seg.bracket(u, t_max)
        if s_lo <= u:
            out[i] = 0.0
        elif s_hi > u:
            out[i] = math.inf
        else:
            out[i] = _waiting_time(seg, u, lo, hi, s_lo, s_hi)
    return out.reshape(us.shape)


def _channel(weights, norm_sq: float, rng: Generator) -> int:
    """Channel k with probability weights[k] / total, from one draw of rng;
    PhysicsError when total / norm_sq, the click rate of the normalized
    state, is _DARK_WEIGHT or less."""
    total = sum(weights)
    if total <= _DARK_WEIGHT * norm_sq:
        raise PhysicsError("all jump amplitudes vanish: dark state cannot jump")
    # k = number of cumulative fractions <= r, capped at the last channel
    k, acc, r = 0, 0.0, rng.random()
    for w in weights[:-1]:
        acc += w
        if acc / total > r:
            break
        k += 1
    return k


def apply_jump(psi, gen: LindbladGenerator, rng: Generator):
    """Pick channel k with probability gamma_k |L_k psi|^2 / total and collapse."""
    psi = np.asarray(psi, dtype=complex)
    jumps = [math.sqrt(rate) * (op @ psi) for rate, op in gen.channels]
    weights = [float(np.vdot(v, v).real) for v in jumps]
    k = _channel(weights, 1.0, rng)
    return k, jumps[k] / math.sqrt(weights[k])


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


# one reusable Philox per thread: resetting its state costs a fraction of
# constructing one, and each thread resets only its own
_STREAMS = threading.local()
_ZEROS = np.zeros(4, dtype=np.uint64)


def _stream(base_seed: int, index: int) -> Generator:
    """The Generator of key (seed, index), reset to the state a fresh
    `Generator(Philox(key=...))` starts from, so it gives the same draws.
    Counter-based streams: distinct seeds or indices never share a stream.
    The Generator is this thread's only one, valid until the next call."""
    key = np.array([base_seed, index], dtype=np.uint64)
    rng = getattr(_STREAMS, "rng", None)
    if rng is None:
        rng = _STREAMS.rng = Generator(Philox(key=key))
    else:
        rng.bit_generator.state = {
            "bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
            "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


class _Renewal:
    """Clicks that reset the state. Every channel of the generator has rank
    one, L_k = s_k |a_k><b_k|, so a click in channel k leaves |a_k> times
    the phase of <b_k|psi>, and the stretch after it is the survival law of
    |a_k> (`Propagator.law`) whatever came before: a renewal process
    (Cohen-Tannoudji & Dalibard, Europhys. Lett. 1, 441 (1986)). Each law
    is built at the first click into its channel, and one more serves the
    last initial state, so at most len(channels) + 1 are kept; where the
    propagator gives no law, `initial` returns None and no click reaches
    `click`. A law's amplitudes are over the rows sqrt(gamma_k) s_k <b_k|,
    whose squared moduli are the channel weights at a click."""

    def __init__(self, kets, bras):
        self._kets, self._bras = kets, bras
        self._laws = [None] * len(kets)
        self._initial = None, None

    def initial(self, prop: Propagator, psi0):
        """The law of psi0, or None (DimensionError for a state of another
        shape where the propagator gives laws)."""
        key = psi0.shape, psi0.tobytes()
        last, law = self._initial
        if last != key:
            law = prop.law(psi0, self._bras)
            self._initial = key, law
        return law

    def click(self, prop: Propagator, law, tau: float, level: float, rng: Generator):
        """(channel k, law of |a_k>, phase) of a click at tau on `law`, whose
        survival there is the level solved for; the phase multiplies the
        phase carried before the click."""
        amps = law.amplitudes(tau)
        k = _channel([(a * a.conjugate()).real for a in amps], level, rng)
        reset = self._laws[k]
        if reset is None:
            reset = self._laws[k] = prop.law(self._kets[k], self._bras)
        return k, reset, amps[k] / abs(amps[k])


def _renewal(gen: LindbladGenerator):
    """gen's `_Renewal`: None without channels, or with a channel whose
    second singular value exceeds eps times its first."""
    if not gen.channels:
        return None
    kets, bras = [], []
    for rate, op in gen.channels:
        u, s, vh = np.linalg.svd(op)
        if s.size > 1 and s[1] > _EPS * s[0]:
            return None
        kets.append(u[:, 0])
        bras.append(math.sqrt(rate) * s[0] * vh[0])
    return _Renewal(kets, np.array(bras))


def _normalized(psi) -> np.ndarray:
    norm = math.sqrt(np.vdot(psi, psi).real)
    if norm == 0.0:
        raise PhysicsError("trajectory state collapsed to zero")
    return psi / norm


def _run(psi0, gen, horizon, rng):
    prop, renewal = _no_jump(gen)
    psi, t, events = np.array(psi0, dtype=complex), 0.0, []
    # where a renewal's propagator gives laws, every stretch is a survival
    # law, which forms no state between clicks: the state is law.at(t) times
    # `phase`, normalized; otherwise each stretch is one segment of psi
    law = renewal.initial(prop, psi) if renewal else None
    phase = 1.0
    while True:
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        # the bracket forms the end survival (and, for a segment, the state at
        # the horizon, or in rk mode the state where the survival falls to u on
        # the way), and no crossing is sought unless it has fallen to u
        seg, t_max = law or prop.segment(psi), horizon - t
        lo, hi, s_lo, s_hi = seg.bracket(u, t_max)
        if s_hi > u:
            break
        tau = _waiting_time(seg, u, lo, hi, s_lo, s_hi)
        # a crossing rounded onto the horizon itself counts as no jump: the
        # record invariant keeps click times strictly inside the window
        if not t + tau < horizon:
            break
        t += tau
        if law is None:
            k, psi = apply_jump(_normalized(seg.at(tau)), gen, rng)
        else:
            k, law, turn = renewal.click(prop, law, tau, u, rng)
            phase *= turn
        events.append((t, k))
    return JumpRecord(tuple(events), horizon), phase * _normalized(seg.at(t_max))


def _initial_state(psi0) -> np.ndarray:
    """psi0 as a complex array; PhysicsError unless its norm is within
    _NORM_TOL of 1 (so a NaN or inf entry fails)."""
    psi0 = np.asarray(psi0, dtype=complex)
    if not abs(math.sqrt(np.vdot(psi0, psi0).real) - 1.0) <= _NORM_TOL:
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
    prop = _no_jump(gen)[0]
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
