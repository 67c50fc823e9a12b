"""Jump-unravelling tests: waiting-time law, record densities, ensemble limit."""

import csv
import gc
import json
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.integrate import dblquad, quad
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.stats import kstest

from decolab.errors import DimensionError, PhysicsError
from decolab.lindblad import (
    CoherentStateSpec,
    LindbladGenerator,
    coherent_vector,
    damped_oscillator_generator,
    destroy,
    evolve,
)
from decolab import operator_core, trajectories
from decolab.cli import main
from decolab.operator_core import trace_distance
from decolab.trajectories import (
    JumpRecord,
    apply_jump,
    effective_hamiltonian,
    ensemble_average,
    no_jump_propagate,
    record_operator,
    record_probability_density,
    run_trajectory,
    sample_jump_times,
)
from conftest import random_generator, random_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SM = np.array([[0, 1], [0, 0]], dtype=complex)
SP = SM.conj().T
KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)


def decay_generator(gamma):
    return LindbladGenerator(np.zeros((2, 2)), ((gamma, SM),))


def driven_decay_generator(omega=1.0, gamma=0.5):
    return LindbladGenerator(omega * SX, ((gamma, SM),))


def propagator(gen):
    """The cached no-jump Propagator of gen."""
    return trajectories._no_jump(gen)[0]


# a norm guard written as `abs(norm - 1) > tol` lets NaN through
BAD_INITIAL_STATES = [np.array([math.nan, 0j]), np.array([math.inf, 0j]), 2.0 * KET1]
BAD_IDS = ["nan", "inf", "norm2"]
# a guard written as `horizon <= 0` lets NaN through
BAD_HORIZONS = [math.nan, math.inf, 0.0, -1.0]


def ks_statistic(samples, cdf):
    x = np.sort(np.asarray(samples))
    n = x.size
    f = cdf(x)
    i = np.arange(1, n + 1)
    return max(np.max(np.abs(i / n - f)), np.max(np.abs(f - (i - 1) / n)))


class TestEffectiveHamiltonian:
    def test_no_channels_returns_hamiltonian(self, rng):
        h = rng.normal(size=(3, 3))
        h = h + h.T
        gen = LindbladGenerator(h, ())
        assert np.allclose(effective_hamiltonian(gen), h, atol=1e-14)

    def test_damped_oscillator_number_form(self):
        a = destroy(6)
        gen = LindbladGenerator(1.3 * a.conj().T @ a, ((0.4, a),))
        n_op = a.conj().T @ a
        expected = (1.3 - 0.2j) * n_op
        assert np.allclose(effective_hamiltonian(gen), expected, atol=1e-14)

    def test_antihermitian_part_nonpositive(self, rng):
        for dim in (2, 3, 5):
            gen = random_generator(rng, dim)
            h_c = effective_hamiltonian(gen)
            anti = (h_c - h_c.conj().T) / 2j
            assert np.max(np.linalg.eigvalsh(anti)) <= 1e-12


class TestNoJumpPropagation:
    def test_zero_time_identity(self, rng):
        psi = random_state(rng, 4)
        out = no_jump_propagate(psi, random_generator(rng, 4), 0.0)
        assert np.allclose(out, psi, atol=1e-15)

    def test_qubit_survival_is_exponential(self):
        gen = decay_generator(0.7)
        for tau in (0.1, 0.5, 2.0, 8.0):
            out = no_jump_propagate(KET1, gen, tau)
            surv = float(np.vdot(out, out).real)
            assert surv == pytest.approx(math.exp(-0.7 * tau), rel=1e-10)

    def test_dark_state_untouched(self):
        out = no_jump_propagate(KET0, decay_generator(1.0), 3.0)
        assert np.allclose(out, KET0, atol=1e-12)

    def test_matches_direct_exponential(self, rng):
        """Eigenbasis evaluation must agree with the dense matrix exponential."""
        gen = random_generator(rng, 5)
        psi = random_state(rng, 5)
        h_c = effective_hamiltonian(gen)
        for tau in (0.3, 1.7):
            direct = expm(-1j * tau * h_c) @ psi
            assert np.allclose(no_jump_propagate(psi, gen, tau), direct, atol=1e-10)

    def test_large_dimension_rk_route(self, rng, monkeypatch):
        # above the dense-exponential cutoff, with the eigenbasis refused;
        # diagonal generator keeps an exact reference available componentwise
        monkeypatch.setattr(operator_core, "_EIG_COND_MAX", 0.0)
        dim = 70
        h_diag = rng.normal(size=dim)
        l_diag = rng.normal(size=dim)
        gen = LindbladGenerator(np.diag(h_diag), ((0.8, np.diag(l_diag)),))
        psi = random_state(rng, dim)
        tau = 0.9
        expected = np.exp(-1j * tau * h_diag - 0.4 * tau * l_diag**2) * psi
        out = no_jump_propagate(psi, gen, tau)
        assert np.allclose(out, expected, rtol=1e-8, atol=1e-10)

    def test_norm_never_increases(self, rng):
        gen = random_generator(rng, 4)
        psi = random_state(rng, 4)
        taus = np.linspace(0.0, 3.0, 40)
        norms = [np.linalg.norm(no_jump_propagate(psi, gen, t)) for t in taus]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_negative_time_rejected(self, rng):
        with pytest.raises(PhysicsError):
            no_jump_propagate(KET0, decay_generator(1.0), -0.1)

    def test_infinite_time_rejected(self):
        """An infinite time or horizon once gave NaN states silently."""
        gen = decay_generator(1.0)
        with pytest.raises(PhysicsError, match="nonnegative and finite"):
            no_jump_propagate(KET1, gen, math.inf)
        with pytest.raises(PhysicsError, match="nonnegative and finite"):
            record_operator(JumpRecord((), math.inf), gen)

    def test_overflowing_drift_raises(self):
        """A valid generator whose H_C overflows is refused, where a NaN
        survival once gave the waiting time 0.00390625 without an error.
        The overflow is the point, so its warning is silenced around the
        calls that make it; pytest's `error::RuntimeWarning` setting holds
        for the rest of the test."""
        gen = LindbladGenerator(np.zeros((2, 2)), ((1e300, 1e10 * SM),))
        with np.errstate(over="ignore"):
            with pytest.raises(PhysicsError, match="non-finite"):
                no_jump_propagate(KET1, gen, 0.5)
            with pytest.raises(PhysicsError, match="non-finite"):
                sample_jump_times(KET1, gen, [0.5], 1.0)


class TestWaitingTimes:
    def test_exponential_inversion(self):
        gen = decay_generator(0.7)
        for u in (0.9, 0.5, 0.1, 0.01):
            tau = sample_jump_times(KET1, gen, [u], 100.0)[0]
            assert tau == pytest.approx(-math.log(u) / 0.7, rel=1e-8)

    def test_no_jump_when_survival_stays_high(self):
        gen = decay_generator(0.7)
        u = math.exp(-0.7 * 2.0) / 2
        assert sample_jump_times(KET1, gen, [u], 1.0)[0] == math.inf

    def test_dark_state_never_jumps(self):
        assert sample_jump_times(KET0, decay_generator(1.0), [0.5], 50.0)[0] == math.inf

    def test_inverts_survival_probability(self, rng):
        gen = random_generator(rng, 3)
        psi = random_state(rng, 3)
        tau = sample_jump_times(psi, gen, [0.4], 50.0)[0]
        out = no_jump_propagate(psi, gen, tau)
        assert float(np.vdot(out, out).real) == pytest.approx(0.4, abs=1e-8)

    def test_batch_matches_scalar(self, rng):
        """Every level is solved alone on the one segment of psi, so a batch,
        the same batch reversed and one level at a time agree bit for bit."""
        gen = random_generator(rng, 3)
        psi = random_state(rng, 3)
        us = np.concatenate([rng.uniform(0.01, 0.99, size=8), [0.999, 1e-4]])
        batch = sample_jump_times(psi, gen, us, 2.0)
        assert np.isinf(batch).any() and np.isfinite(batch).any()
        assert sample_jump_times(psi, gen, us[::-1], 2.0).tolist() == batch[::-1].tolist()
        for u, t_batch in zip(us, batch):
            assert t_batch == sample_jump_times(psi, gen, [u], 2.0)[0]

    @pytest.mark.parametrize("levels", [1, 2000])
    def test_one_end_state_per_call(self, monkeypatch, levels):
        """Every level is bracketed to the same t_max, so one call forms the
        end state of its segment once, whatever the number of levels, and a
        batch still gives each level's time alone bit for bit."""
        at, calls = operator_core._EigSegment.at, []

        def counting(seg, t):
            calls.append(t)
            return at(seg, t)

        monkeypatch.setattr(operator_core._EigSegment, "at", counting)
        gen = driven_decay_generator(1.3, 0.9)
        assert propagator(gen).mode == "eig"
        us = np.random.default_rng(4).uniform(0.02, 0.98, levels)
        taus = sample_jump_times(KET1, gen, us, 5.0)
        assert calls == [5.0]
        assert np.isfinite(taus).any()
        singles = [sample_jump_times(KET1, gen, [u], 5.0)[0] for u in us[:20].tolist()]
        assert taus[:20].tolist() == singles

    def test_waiting_time_distribution(self):
        """Sampled waiting times follow the exponential law (KS test)."""
        gen = decay_generator(1.0)
        us = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64))).random(30000)
        us = np.clip(us, 1e-12, 1 - 1e-12)
        times = sample_jump_times(KET1, gen, us, 20.0)
        assert np.all(np.isfinite(times))
        d = ks_statistic(times, lambda t: 1.0 - np.exp(-t))
        assert d < 0.015

    def test_u_outside_unit_interval_rejected(self):
        gen = decay_generator(1.0)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(PhysicsError):
                sample_jump_times(KET1, gen, [bad], 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_state_rejected(self, bad):
        """A NaN state once gave the waiting time 0."""
        with pytest.raises(PhysicsError, match="non-finite"):
            sample_jump_times(np.array([bad, 0j]), decay_generator(1.0), [0.5], 1.0)

    @pytest.mark.parametrize("t_max", BAD_HORIZONS)
    def test_bad_t_max_rejected(self, t_max):
        """An infinite t_max, which the segment's bracket would march toward
        forever in rk mode, is refused with the others."""
        with pytest.raises(PhysicsError, match="horizon must be positive and finite"):
            sample_jump_times(KET1, decay_generator(1.0), [0.5], t_max)

    @pytest.mark.parametrize("psi", [np.ones(3) / math.sqrt(3.0), np.eye(2)],
                             ids=["length-3", "2-d"])
    def test_wrong_shape_state_rejected(self, psi):
        with pytest.raises(DimensionError, match="for K of order 2"):
            sample_jump_times(psi, decay_generator(1.0), [0.5], 1.0)


class TestDriversAgree:
    """`sample_jump_times` and every `traject` click solve a level with the
    one solver `_waiting_time` on a `Propagator.segment`. Over levels from a
    fixed stream, its eig-mode waiting times hold brentq on the
    `scipy.linalg.expm` survival to 1e-12 relative."""

    @pytest.mark.parametrize("gen, psi", [
        (driven_decay_generator(1.3, 0.9), (KET0 + 0.5j * KET1) / math.sqrt(1.25)),
        (decay_generator(0.7), KET1),
        (decay_generator(0.7), (KET0 + KET1) / math.sqrt(2.0)),
    ], ids=["driven", "decay", "decay-to-half"])
    def test_grid_free_solver_matches_expm(self, gen, psi):
        assert propagator(gen).mode == "eig"
        h_c = effective_hamiltonian(gen)
        t_max = 12.0
        end = expm(-1j * t_max * h_c) @ psi
        s_end = float(np.vdot(end, end).real)
        stream = Generator(Philox(key=np.array([11, 0], dtype=np.uint64)))
        us = stream.random(500)
        us = us[us >= s_end]
        assert us.size >= 200
        taus = sample_jump_times(psi, gen, us, t_max)
        for u, tau in zip(us.tolist(), taus.tolist()):
            want = brentq(lambda t: math.log(
                np.linalg.norm(expm(-1j * t * h_c) @ psi) ** 2 / u),
                0.0, t_max, xtol=1e-15, rtol=1e-15)
            assert tau == pytest.approx(want, rel=1e-12)


class TestRkSegment:
    """In rk mode the one-level driver solves on a segment whose bracket
    march stopped at the crossing, and probes march from the step before;
    waiting times and states at the click hold the `expm` oracle to the
    1e-9 bar of rk mode."""

    US = [0.01, 0.05, 0.2, 0.45, 0.7, 0.93]

    def test_waiting_time_and_state_match_expm(self, monkeypatch):
        monkeypatch.setattr(operator_core, "_EIG_COND_MAX", 0.0)
        gen = driven_decay_generator(1.3, 0.9)
        prop = propagator(gen)
        assert prop.mode == "rk"
        psi = (KET0 + 0.5j * KET1) / math.sqrt(1.25)
        h_c = effective_hamiltonian(gen)
        t_max = 12.0
        for u in self.US:
            seg = prop.segment(psi)
            lo, hi, s_lo, s_hi = seg.bracket(u, t_max)
            assert s_lo > u >= s_hi and hi < t_max
            tau = trajectories._waiting_time(seg, u, lo, hi, s_lo, s_hi)
            want = brentq(lambda t: math.log(
                np.linalg.norm(expm(-1j * t * h_c) @ psi) ** 2 / u),
                0.0, t_max, xtol=1e-14, rtol=1e-15)
            assert tau == pytest.approx(want, rel=1e-9)
            ref = expm(-1j * tau * h_c) @ psi
            assert np.linalg.norm(seg.at(tau) - ref) <= 1e-9 * np.linalg.norm(ref)


class TestPropagatorModes:
    """Waiting times and record operators agree whichever way the no-jump
    propagator is evaluated: eigenbasis or RK45."""

    US = np.array([1e-4, 0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999])

    @staticmethod
    def force(monkeypatch, mode):
        if mode == "rk":
            monkeypatch.setattr(operator_core, "_EIG_COND_MAX", 0.0)

    def results(self, monkeypatch, mode):
        gen = driven_decay_generator(1.3, 0.9)
        with monkeypatch.context() as patch:
            self.force(patch, mode)
            assert propagator(gen).mode == mode
            psi = (KET0 + 0.5j * KET1) / math.sqrt(1.25)
            batch = sample_jump_times(psi, gen, self.US, 4.0)
            single = [sample_jump_times(psi, gen, [u], 4.0)[0] for u in self.US]
            record = JumpRecord(((0.4, 0), (1.7, 0), (2.05, 0)), 3.5)
            return batch, single, record_operator(record, gen)

    def test_rk_mode_frees_propagator_without_cycle_collector(self, monkeypatch):
        """Once the caller drops an rk-mode propagator, nothing the RK45
        stepper left behind keeps it (and its dense H_C) alive."""
        self.force(monkeypatch, "rk")
        prop = operator_core.Propagator(
            effective_hamiltonian(driven_decay_generator(1.3, 0.9)))
        assert prop.mode == "rk"
        ref = weakref.ref(prop)
        gc.disable()
        try:
            assert np.linalg.norm(prop.apply(KET0, 0.5)) < 1.0
            del prop
            assert ref() is None
        finally:
            gc.enable()

    def test_every_mode_agrees(self, monkeypatch):
        ref_times, _, ref_op = self.results(monkeypatch, "eig")
        assert np.isinf(ref_times).any() and np.isfinite(ref_times).sum() >= 5
        for mode in ("eig", "rk"):
            times, single, op = self.results(monkeypatch, mode)
            assert times.tolist() == single
            np.testing.assert_allclose(times, ref_times, rtol=1e-9)
            np.testing.assert_allclose(op, ref_op, rtol=0, atol=1e-9)

    def test_eigenbasis_above_the_expm_cutoff(self, monkeypatch):
        """A well-conditioned dim-70 drift (above the order 64 where a Pade
        mode once stopped) takes the eigenbasis, and its waiting times match
        rk mode's."""
        gen = damped_oscillator_generator(1.0, 0.5, 70)
        psi = coherent_vector(CoherentStateSpec(2.0, 70))
        us = np.array([0.05, 0.3, 0.8])
        assert propagator(gen).mode == "eig"
        eig_times = sample_jump_times(psi, gen, us, 3.0)
        self.force(monkeypatch, "rk")
        rk_gen = damped_oscillator_generator(1.0, 0.5, 70)
        assert propagator(rk_gen).mode == "rk"
        assert np.isfinite(eig_times).all()
        np.testing.assert_allclose(sample_jump_times(psi, rk_gen, us, 3.0),
                                   eig_times, rtol=1e-9)


def expm_click_times(omega, gamma, horizon, seed, index):
    """Click times of trajectory `index` of `seed` for the `traject`
    scenario (drive omega sigma_x, decay of |0> into |1> at gamma, start in
    |0>), by survival inversion on scipy.linalg.expm: brentq on the
    log-survival, which never rises, with the draws of the package's stream
    (one level, then one channel pick per click)."""
    h_c = omega * SX - 0.5j * gamma * SM @ SP
    rng = Generator(Philox(key=np.array([seed, index], dtype=np.uint64)))
    t, psi, times = 0.0, KET0, []
    while True:
        u = rng.random()
        def log_survival(tau):
            return math.log(np.linalg.norm(expm(-1j * tau * h_c) @ psi) ** 2 / u)
        if log_survival(horizon - t) > 0.0:
            return times
        tau = brentq(log_survival, 0.0, horizon - t, xtol=1e-14, rtol=1e-15)
        rng.random()
        psi = SP @ expm(-1j * tau * h_c) @ psi
        psi = psi / np.linalg.norm(psi)
        t += tau
        times.append(t)


class TestExceptionalPoint:
    @pytest.mark.parametrize("omega, gamma, horizon, n_traj, mode, rtol, most", [
        (0.25, 1.0, 3.0, 40, "rk", 1e-9, 2),
        (2.0, 1.2, 2.5, 60, "eig", 1e-12, 2),
        (0.0, 1.5, 2.0, 60, "eig", 1e-12, 1),
    ], ids=["rk", "eig-driven", "eig-decay"])
    def test_traject_run_matches_expm_oracle(self, tmp_path, monkeypatch, omega,
                                             gamma, horizon, n_traj, mode, rtol, most):
        """At omega = gamma/4 the no-jump drift of the driven decay has a
        double eigenvalue, and its eigenvectors have cond ~1e8, so a plain
        `traject` run propagates in rk mode; its click times agree with the
        oracle to 1e-9 relative. Driven and pure-decay runs in the
        benchmark's range propagate in eig mode and agree to 1e-12. Click
        counts are the oracle's in every mode."""
        modes = []

        class Recording(operator_core.Propagator):
            def __init__(self, k):
                super().__init__(k)
                modes.append(self.mode)

        monkeypatch.setattr(trajectories, "Propagator", Recording)
        seed = 3
        config = tmp_path / "traject.json"
        config.write_text(json.dumps({
            "scenario": "traject", "seed": seed, "params": {
                "gamma": gamma, "omega": omega, "horizon": horizon, "n_traj": n_traj}}))
        out = tmp_path / "traject.csv"
        assert main(["run", str(config), "--output", str(out)]) == 0
        assert modes == [mode]
        counts = []
        for row in csv.DictReader(out.read_text().splitlines()):
            want = expm_click_times(omega, gamma, horizon, seed, int(row["traj"]))
            counts.append(len(want))
            assert int(row["n_events"]) == len(want)
            if want:
                np.testing.assert_allclose(
                    [float(row["first_event"]), float(row["last_event"])],
                    [want[0], want[-1]], rtol=rtol)
        assert 0 in counts and max(counts) >= most


def post_jump_survival(omega, gamma, tau):
    """Closed-form no-jump probability of the `traject` qubit (drive
    omega sigma_x, decay of |0> into |1> at gamma) from |1>, where every
    click leaves it: e^{-gamma tau/2} [(c + gamma s/4)^2 + (omega s)^2] with
    c = cos(nu tau), s = sin(nu tau)/nu and nu = sqrt(omega^2 - gamma^2/16);
    cosh and sinh below omega = gamma/4, and c = 1, s = tau at it. Minus its
    derivative is the waiting-time density gamma omega^2 e^{-gamma tau/2} s^2."""
    tau = np.asarray(tau, dtype=float)
    nu2 = omega ** 2 - gamma ** 2 / 16
    if nu2 > 0:
        nu = math.sqrt(nu2)
        c, s = np.cos(nu * tau), np.sin(nu * tau) / nu
    elif nu2 < 0:
        kappa = math.sqrt(-nu2)
        c, s = np.cosh(kappa * tau), np.sinh(kappa * tau) / kappa
    else:
        c, s = 1.0, tau
    return np.exp(-gamma * tau / 2) * ((c + gamma * s / 4) ** 2 + (omega * s) ** 2)


class TestPostJumpWaitingTimes:
    """Waiting times after a click follow the closed-form law of the driven
    qubit, above and below the exceptional point omega = gamma/4 and at it,
    where `traject` propagates in rk mode. Every KS test passes at p > 1e-7,
    so a correct solver fails one with probability below 1e-7."""

    CASES = pytest.mark.parametrize("omega, gamma, mode", [
        (1.5, 1.5, "eig"), (0.25, 1.0, "rk"), (0.1, 0.8, "eig"),
    ], ids=["omega=gamma", "omega=gamma/4", "omega=gamma/8"])

    @staticmethod
    def generator(omega, gamma, mode):
        gen = LindbladGenerator(omega * SX, ((gamma, SP),))
        assert propagator(gen).mode == mode
        return gen

    @staticmethod
    def drained(omega, gamma):
        """The time at which the survival from |1> falls to 1e-12."""
        return brentq(lambda t: math.log(post_jump_survival(omega, gamma, t) / 1e-12),
                      0.0, 700.0 / gamma)

    @CASES
    def test_closed_form_matches_expm(self, omega, gamma, mode):
        h_c = omega * SX - 0.5j * gamma * SM @ SP
        for tau in (0.3, 2.0, 9.0):
            out = expm(-1j * tau * h_c) @ KET1
            assert post_jump_survival(omega, gamma, tau) == pytest.approx(
                float(np.vdot(out, out).real), rel=1e-13)

    @CASES
    def test_second_click_through_run_trajectory(self, omega, gamma, mode):
        """The interval between the first and second clicks, each from a
        trajectory whose first click leaves enough horizon that the survival
        falls below 1e-12, so no interval is censored. At the exceptional
        point rk mode costs about 5 ms per click, so 120 trajectories past a
        horizon of tau(1e-12) = 68/gamma would take about 9 s; there the
        horizon is 6/gamma, and the interval
        is tested under the law truncated at the horizon left after the
        first click, which is uniform once passed through its own CDF."""
        gen = self.generator(omega, gamma, mode)
        drained = self.drained(omega, gamma)
        horizon, n_traj = ((drained + 10.0 / gamma, 120) if mode == "eig"
                           else (6.0 / gamma, 30))
        levels = []
        for index in range(n_traj):
            record, _ = run_trajectory(KET0, gen, horizon, seed=8, index=index)
            if not record.events:
                continue
            t1 = record.events[0][0]
            if mode == "eig" and horizon - t1 < drained:
                continue
            if len(record.events) >= 2:
                left = 1.0 - post_jump_survival(omega, gamma, horizon - t1)
                tau = record.events[1][0] - t1
                levels.append((1.0 - post_jump_survival(omega, gamma, tau)) / left)
            else:
                assert mode == "rk", "an uncensored interval was lost"
        assert len(levels) >= (100 if mode == "eig" else 10)
        assert kstest(levels, "uniform").pvalue > 1e-7

    @CASES
    def test_from_the_ground_state_through_sample_jump_times(self, omega, gamma, mode):
        gen = self.generator(omega, gamma, mode)
        stream = Generator(Philox(key=np.array([8, 1], dtype=np.uint64)))
        us = 1e-12 + (1.0 - 2e-12) * stream.random(5000 if mode == "eig" else 400)
        taus = sample_jump_times(KET1, gen, us, self.drained(omega, gamma))
        assert np.isfinite(taus).all()
        surv = post_jump_survival(omega, gamma, taus)
        np.testing.assert_allclose(surv, us, rtol=1e-8, atol=1e-12)
        assert kstest(taus, lambda t: 1.0 - post_jump_survival(omega, gamma, t)).pvalue > 1e-7


def segment_run(psi0, gen, horizon, seed, index):
    """Trajectory `index` of `seed` by the loop `_run` ran before survival
    laws: one `Propagator.segment` of the state per stretch, the shared
    `_waiting_time`, and `apply_jump` on the normalized state at each click.
    Returns (events, final state)."""
    prop = propagator(gen)
    rng = Generator(Philox(key=np.array([seed, index], dtype=np.uint64)))
    psi, t, events = np.array(psi0, dtype=complex), 0.0, []
    while True:
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        seg, t_max = prop.segment(psi), horizon - t
        lo, hi, s_lo, s_hi = seg.bracket(u, t_max)
        jump = False
        if s_hi <= u:
            tau = trajectories._waiting_time(seg, u, lo, hi, s_lo, s_hi)
            jump = t + tau < horizon
        psi = seg.at(tau if jump else t_max)
        psi = psi / math.sqrt(np.vdot(psi, psi).real)
        if not jump:
            return events, psi
        t += tau
        k, psi = apply_jump(psi, gen, rng)
        events.append((t, k))


def lambda_generator():
    """A Lambda atom: |e> = |2> driven from |0> and |1> (couplings Omega_0,
    Omega_1) on two-photon resonance, so Omega_1|0> - Omega_0|1> is dark, and
    decaying into |0> and |1> at different rates: two rank-one channels."""
    h = np.zeros((3, 3), dtype=complex)
    h[2, 0] = h[0, 2] = 0.7
    h[2, 1] = h[1, 2] = 1.1
    h[2, 2] = 0.4
    down = [np.outer(np.eye(3)[j], np.eye(3)[2]) for j in (0, 1)]
    return LindbladGenerator(h, ((0.6, down[0]), (1.4, down[1])))


def complex_rank_one_generator():
    """A dim-3 drift and one channel 0.8 |a><b| with complex |a>, |b> off
    every basis vector."""
    rng = np.random.default_rng(12)
    a, b = random_state(rng, 3), random_state(rng, 3)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return LindbladGenerator(h + h.conj().T, ((0.8, np.outer(a, b.conj())),))


class TestRenewal:
    """Every channel below has rank one, so `_run` runs on survival laws:
    one per reset state, solved and clicked on Python floats, with the
    post-click phase carried apart. It holds the segment-only loop
    `segment_run`: the same channels and counts, event times within 1e-12
    relative and final states within 1e-12 entrywise, phase included."""

    @pytest.mark.parametrize("gen, psi0, horizon", [
        (decay_generator(0.7), KET1, 4.0),
        (driven_decay_generator(0.125, 1.0), KET1, 8.0),
        (driven_decay_generator(0.22, 1.0), KET1, 8.0),
        (driven_decay_generator(1.0, 1.0), KET1, 6.0),
        (driven_decay_generator(3.0, 1.0), KET1, 5.0),
        (lambda_generator(), np.eye(3)[2].astype(complex), 8.0),
        (complex_rank_one_generator(), random_state(np.random.default_rng(5), 3), 6.0),
        (driven_decay_generator(1.3, 0.9), (KET0 + 0.5j * KET1) / math.sqrt(1.25), 6.0),
    ], ids=["decay", "omega=gamma/8", "omega=0.22gamma", "omega=gamma", "omega=3gamma", "lambda",
            "complex-rank-one", "initial-superposition"])
    def test_matches_the_segment_loop(self, gen, psi0, horizon):
        prop, renewal = trajectories._no_jump(gen)
        assert renewal.initial(prop, psi0) is not None
        clicks = set()
        for index in range(60):
            record, psi = run_trajectory(psi0, gen, horizon, seed=4, index=index)
            want, want_psi = segment_run(psi0, gen, horizon, 4, index)
            assert [k for _, k in record.events] == [k for _, k in want]
            np.testing.assert_allclose([t for t, _ in record.events],
                                       [t for t, _ in want], rtol=1e-12, atol=0)
            np.testing.assert_allclose(psi, want_psi, rtol=0, atol=1e-12)
            clicks.update(record.events)
        assert {k for _, k in clicks} == set(range(len(gen.channels)))
        assert len(clicks) >= 20

    @pytest.mark.parametrize("omega", [0.251, 0.2501, 0.25001])
    def test_no_law_near_the_exceptional_point(self, omega):
        """Just above omega = gamma / 4 the eigenvectors are still in eig
        mode but near parallel (cond 22 to 224), where a law's survival
        would round to eps cond^2. The segment loop runs there and meets
        the same bars."""
        gen = driven_decay_generator(omega, 1.0)
        prop, renewal = trajectories._no_jump(gen)
        assert prop.mode == "eig" and prop.cond > operator_core._LAW_COND_MAX
        assert renewal.initial(prop, KET1) is None
        clicks = 0
        for index in range(60):
            record, psi = run_trajectory(KET1, gen, 8.0, seed=4, index=index)
            want, want_psi = segment_run(KET1, gen, 8.0, 4, index)
            assert [k for _, k in record.events] == [k for _, k in want]
            np.testing.assert_allclose([t for t, _ in record.events],
                                       [t for t, _ in want], rtol=1e-12, atol=0)
            np.testing.assert_allclose(psi, want_psi, rtol=0, atol=1e-12)
            clicks += len(record.events)
        assert clicks >= 20

    @pytest.mark.parametrize("omega", [1.0, 0.3], ids=["omega=gamma", "omega=0.3gamma"])
    def test_probes_per_click_do_not_grow_with_the_horizon(self, monkeypatch, omega):
        """Each stretch's first probe lies in one interval of its law's
        table, wherever the horizon is. With n_traj * horizon fixed at 3e4,
        probes per click at horizon 3e4 stay within one of those at horizon
        3. Bracketing [0, time left] made 5.4 and 17.5 at omega = gamma, and
        4.8 and 16.0 at omega = 0.3 gamma, the slowest decay on the law
        path (cond 3.3)."""
        gen = driven_decay_generator(omega, 1.0)
        probes = []
        update = trajectories._update

        def counting(*args):
            probes.append(None)
            return update(*args)

        monkeypatch.setattr(trajectories, "_update", counting)
        per_click = []
        for horizon, n_traj in ((3.0, 10_000), (3e4, 1)):
            probes.clear()
            clicks = sum(len(run_trajectory(KET1, gen, horizon, seed=1, index=i)[0].events)
                         for i in range(n_traj))
            assert clicks > 4000
            per_click.append(len(probes) / clicks)
        assert abs(per_click[1] - per_click[0]) <= 1.0, per_click


class TestWorkPerTrajectory:
    """Under rank-one channels in eig mode each stretch is a survival law,
    built once per reset state. Otherwise each stretch between clicks is one
    `Propagator.segment`. Survival never rises, so a click's level is
    bracketed with no grid pass: in eig mode by [0, time left] and the end
    survival. In rk mode the bracket march stops at the first step at or
    below the level, the probes march from the step before, and every march
    has one stop, so nothing is integrated twice."""

    @staticmethod
    def count_builds(monkeypatch):
        """The states of every law that `Propagator.law` builds and of every
        `Propagator.segment` call."""
        laws, segments = [], []
        law, segment = operator_core.Propagator.law, operator_core.Propagator.segment

        def counting_law(prop, x, bras):
            built = law(prop, x, bras)
            if built is not None:
                laws.append(np.array(x))
            return built

        def counting_segment(prop, x):
            segments.append(np.array(x))
            return segment(prop, x)

        monkeypatch.setattr(operator_core.Propagator, "law", counting_law)
        monkeypatch.setattr(operator_core.Propagator, "segment", counting_segment)
        return laws, segments

    @staticmethod
    def count_marches(monkeypatch):
        """[number of stops, right-hand-side calls] of every RK45 `march`."""
        marches = []
        march = operator_core.march

        def counting(fun, y0, ts, *args):
            entry = [len(ts), 0]
            marches.append(entry)

            def rhs(y):
                entry[1] += 1
                return fun(y)

            yield from march(rhs, y0, ts, *args)

        monkeypatch.setattr(operator_core, "march", counting)
        return marches

    def test_cli_job_builds_two_laws_and_no_segment(self, tmp_path, monkeypatch):
        """A 200-trajectory `traject` job builds the law of |e>, its initial
        state, and of |g>, where every click leaves it, and no segment."""
        laws, segments = self.count_builds(monkeypatch)
        config = tmp_path / "traject.json"
        config.write_text(json.dumps({
            "scenario": "traject", "seed": 5,
            "params": {"gamma": 1.0, "omega": 1.0, "horizon": 3.0, "n_traj": 200}}))
        out = tmp_path / "traject.csv"
        assert main(["run", str(config), "--output", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 200 and sum(int(row["n_events"]) for row in rows) > 200
        assert segments == []
        assert [np.abs(x).round(15).tolist() for x in laws] == [[1.0, 0.0], [0.0, 1.0]]

    def test_damped_oscillator_builds_no_law(self, monkeypatch):
        """The dim-11 oscillator's channel a has rank 10, so its clicks do
        not reset the state: every stretch is a segment, and no law is built."""
        laws, segments = self.count_builds(monkeypatch)
        gen = damped_oscillator_generator(1.0, 1.0, 11)
        psi0 = coherent_vector(CoherentStateSpec(1.0, 11))
        ensemble_average(psi0, gen, 1.0, 20, base_seed=72)
        assert trajectories._no_jump(gen)[1] is None
        assert laws == [] and len(segments) > 20

    def test_rank_one_channel_above_dimension_five_builds_no_law(self, monkeypatch):
        """A law sums n(n+1)/2 exponentials per probe on Python floats, so
        from dimension 6 on a rank-one channel keeps the segment path."""
        laws, segments = self.count_builds(monkeypatch)
        rng = np.random.default_rng(6)
        a, b = random_state(rng, 6), random_state(rng, 6)
        gen = LindbladGenerator(np.diag(rng.normal(size=6)), ((1.0, np.outer(a, b.conj())),))
        assert propagator(gen).mode == "eig"
        record, _ = run_trajectory(a, gen, 20.0, seed=2)
        prop, renewal = trajectories._no_jump(gen)
        assert renewal is not None and prop.law(a, renewal._bras) is None
        assert laws == [] and len(segments) == len(record.events) + 1

    def test_rk_probes_cost_a_few_steps(self, monkeypatch):
        """On a forced-rk dim-70 one-click trajectory every RK45 `march` has
        one stop: the bracket marches, the probes and the state at the
        click. Their right-hand-side calls (670 here, 4950 when the end
        state was formed before the solve re-integrated toward the crossing)
        stay under a ceiling about 10% above that."""
        monkeypatch.setattr(operator_core, "_EIG_COND_MAX", 0.0)
        rng = np.random.default_rng(3)
        dim = 70
        # every level but |0> decays into |0> through one channel, and |0> is
        # dark and uncoupled, so the trajectory clicks at most once
        c = np.concatenate([[0.0], rng.normal(size=dim - 1)])
        c /= np.linalg.norm(c)
        gen = LindbladGenerator(np.diag(np.concatenate([[0.0], rng.normal(size=dim - 1)])),
                                ((0.3, np.outer(np.eye(dim)[0], c)),))
        marches = self.count_marches(monkeypatch)
        record, _ = run_trajectory(c, gen, 6.0, seed=5)
        assert propagator(gen).mode == "rk"
        assert len(record.events) == 1
        # the bracket march to the crossing, then the probes, the state at
        # the click and the bracket march to the horizon after it
        assert len(marches) >= 4
        assert all(stops == 1 for stops, _ in marches)
        assert sum(rhs for _, rhs in marches) < 740

    def test_rk_oscillator_integrates_nothing_twice(self, monkeypatch):
        """Five forced-rk trajectories of a dim-20 damped oscillator from a
        coherent state (12 clicks): right-hand-side calls stay under a
        ceiling about 10% above the 21790 measured, where forming each end
        state and then re-integrating toward the crossing took 79018."""
        monkeypatch.setattr(operator_core, "_EIG_COND_MAX", 0.0)
        gen = damped_oscillator_generator(1.0, 0.5, 20)
        psi = coherent_vector(CoherentStateSpec(2.0, 20))
        marches = self.count_marches(monkeypatch)
        clicks = sum(len(run_trajectory(psi, gen, 3.0, seed=1, index=i)[0].events)
                     for i in range(5))
        assert propagator(gen).mode == "rk"
        assert clicks == 12
        assert all(stops == 1 for stops, _ in marches)
        assert sum(rhs for _, rhs in marches) < 24000


class TestPropagatorCache:
    def test_one_construction_for_a_cli_job(self, tmp_path, monkeypatch):
        """A 200-trajectory `traject` job builds the no-jump propagator
        (eig, cond and inv of H_C) once, not once per trajectory."""
        built = []

        class Counting(operator_core.Propagator):
            def __init__(self, k):
                built.append(k.shape[0])
                super().__init__(k)

        monkeypatch.setattr(trajectories, "Propagator", Counting)
        config = tmp_path / "traject.json"
        config.write_text(json.dumps({
            "scenario": "traject", "seed": 5,
            "params": {"gamma": 1.0, "omega": 1.0, "horizon": 3.0, "n_traj": 200}}))
        out = tmp_path / "traject.csv"
        assert main(["run", str(config), "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 201
        assert built == [2]

    def test_generator_and_propagator_die_without_cycle_collector(self):
        """A run that built survival laws leaves no cycle: the generator, its
        propagator, its renewal and both laws are freed by reference
        counting alone."""
        gen = driven_decay_generator(1.3, 0.9)
        gc.disable()
        try:
            record, _ = run_trajectory(KET0, gen, 6.0, seed=3)
            assert record.events
            prop, renewal = trajectories._no_jump(gen)
            assert propagator(gen) is prop
            laws = [renewal._initial[1], *renewal._laws]
            assert all(isinstance(law, operator_core._SurvivalLaw) for law in laws)
            refs = [weakref.ref(obj) for obj in (gen, prop, renewal, *laws)]
            del gen, prop, renewal, laws
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()


class TestStreams:
    """Trajectory `index` of `seed` draws from Philox key (seed, index).
    Each thread resets one Generator to that key instead of building one,
    and the draws are those of a fresh `Generator(Philox(key=...))`."""

    @staticmethod
    def draws(rng):
        # an odd number of 32-bit draws leaves half a 64-bit word buffered
        return [rng.random(5), rng.integers(0, 2**32, 3, dtype=np.uint32),
                rng.random(), rng.standard_normal(4), rng.integers(0, 7, 5)]

    def test_interleaved_keys_match_fresh_generators(self):
        for key in [(5, 3), (7, 0), (5, 3), (0, 2**64 - 1), (7, 0), (5, 3)]:
            want = self.draws(Generator(Philox(key=np.array(key, dtype=np.uint64))))
            got = self.draws(trajectories._stream(*key))
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_two_threads_keep_their_own_streams(self):
        """Two threads running trajectories at once, with the interpreter
        switching between them every microsecond, give the records of one
        thread alone."""
        gen = driven_decay_generator(1.3, 0.9)
        n = 40
        want = [run_trajectory(KET0, gen, 4.0, seed=6, index=i)[0] for i in range(n)]
        got = [[], []]

        def work(out):
            for i in range(n):
                out.append(run_trajectory(KET0, gen, 4.0, seed=6, index=i)[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(out,)) for out in got]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sum(len(r.events) for r in want) >= n
        assert got == [want, want]


class TestJumps:
    def test_single_channel_collapse(self, rng):
        k, psi = apply_jump(KET1, decay_generator(0.3), rng)
        assert k == 0
        assert np.allclose(psi, KET0, atol=1e-14)

    def test_equal_weights_split_evenly(self):
        gen = LindbladGenerator(np.zeros((2, 2)), ((1.0, SM), (1.0, SP)))
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        stream = np.random.Generator(np.random.Philox(key=np.array([9, 0], dtype=np.uint64)))
        counts = sum(apply_jump(plus, gen, stream)[0] == 0 for _ in range(10000))
        assert abs(counts - 5000) < 200

    def test_rate_weighted_selection(self):
        gen = LindbladGenerator(np.zeros((2, 2)), ((4.0, SM), (1.0, SM)))
        stream = np.random.Generator(np.random.Philox(key=np.array([10, 0], dtype=np.uint64)))
        counts = sum(apply_jump(KET1, gen, stream)[0] == 0 for _ in range(10000))
        assert abs(counts - 8000) < 200

    def test_dark_state_raises(self, rng):
        with pytest.raises(PhysicsError):
            apply_jump(KET0, decay_generator(1.0), rng)


class TestJumpRecord:
    def test_ordering_enforced(self):
        with pytest.raises(PhysicsError):
            JumpRecord(((0.8, 0), (0.3, 0)), 1.0)

    def test_event_inside_horizon(self):
        with pytest.raises(PhysicsError):
            JumpRecord(((1.2, 0),), 1.0)
        with pytest.raises(PhysicsError):
            JumpRecord(((0.0, 0),), 1.0)

    def test_negative_horizon_rejected(self):
        with pytest.raises(PhysicsError):
            JumpRecord((), -1.0)


class TestRecordDensities:
    def test_empty_record_is_no_jump_probability(self):
        gen = decay_generator(0.8)
        rho0 = np.outer(KET1, KET1)
        value = record_probability_density(JumpRecord((), 1.3), rho0, gen)
        assert value == pytest.approx(math.exp(-0.8 * 1.3), rel=1e-9)

    def test_single_decay_click_density(self):
        """One click at t1 from the excited state has density gamma e^{-gamma t1}."""
        gamma = 0.8
        gen = decay_generator(gamma)
        rho0 = np.outer(KET1, KET1)
        for t1 in (0.2, 1.0, 1.9):
            rec = JumpRecord(((t1, 0),), 2.0)
            value = record_probability_density(rec, rho0, gen)
            assert value == pytest.approx(gamma * math.exp(-gamma * t1), rel=1e-9)

    def test_density_ignores_time_after_dark_collapse(self):
        gen = decay_generator(0.8)
        rho0 = np.outer(KET1, KET1)
        short = record_probability_density(JumpRecord(((0.4, 0),), 0.5), rho0, gen)
        long = record_probability_density(JumpRecord(((0.4, 0),), 9.0), rho0, gen)
        assert short == pytest.approx(long, rel=1e-12)

    def test_concatenation(self):
        """Densities compose across a cut when the state is conditioned on the
        first stretch."""
        gen = driven_decay_generator(1.0, 0.5)
        rho0 = np.outer(KET1, KET1)
        full = record_probability_density(JumpRecord(((0.5, 0), (2.1, 0)), 3.0), rho0, gen)
        first = JumpRecord(((0.5, 0),), 1.0)
        p1 = record_probability_density(first, rho0, gen)
        m1 = record_operator(first, gen)
        rho1 = m1 @ rho0 @ m1.conj().T
        rho1 = rho1 / np.trace(rho1)
        p2 = record_probability_density(JumpRecord(((1.1, 0),), 2.0), rho1, gen)
        assert full == pytest.approx(p1 * p2, rel=1e-9)

    def test_densities_sum_to_one(self):
        """No-jump weight plus integrated one- and two-click sectors exhaust
        the probability over a short window."""
        gen = driven_decay_generator(1.0, 0.5)
        rho0 = np.outer(KET1, KET1)
        horizon = 0.3

        p0 = record_probability_density(JumpRecord((), horizon), rho0, gen)

        def one_click(t1):
            return record_probability_density(JumpRecord(((t1, 0),), horizon), rho0, gen)

        p1, err1 = quad(one_click, 0.0, horizon, epsabs=1e-10, limit=200)

        def two_clicks(t2, t1):
            rec = JumpRecord(((t1, 0), (t2, 0)), horizon)
            return record_probability_density(rec, rho0, gen)

        p2, err2 = dblquad(two_clicks, 0.0, horizon, lambda t1: t1, lambda _: horizon,
                           epsabs=1e-10)
        assert p0 + p1 + p2 == pytest.approx(1.0, abs=1e-6)

    def test_dimension_mismatch_rejected(self):
        gen = decay_generator(1.0)
        with pytest.raises(PhysicsError):
            record_probability_density(JumpRecord((), 1.0), np.eye(3) / 3, gen)


class TestRunTrajectory:
    def test_no_channels_gives_unitary_and_empty_record(self, rng):
        h = rng.normal(size=(3, 3))
        h = h + h.T
        gen = LindbladGenerator(h, ())
        psi0 = random_state(rng, 3)
        record, psi = run_trajectory(psi0, gen, 2.0, seed=3)
        assert record.events == ()
        assert np.allclose(psi, expm(-2j * h) @ psi0, atol=1e-9)

    def test_dark_state_returned_bit_for_bit(self):
        """|g> under pure decay never clicks, and its law has no decaying
        term, so the horizon's state is |g> itself."""
        gen = decay_generator(1.0)
        for index in range(20):
            record, psi = run_trajectory(KET0, gen, 5.0, seed=2, index=index)
            assert record.events == ()
            assert np.array_equal(psi, KET0)

    def test_deterministic_for_fixed_seed(self):
        gen = driven_decay_generator()
        rec_a, psi_a = run_trajectory(KET0, gen, 5.0, seed=42)
        rec_b, psi_b = run_trajectory(KET0, gen, 5.0, seed=42)
        assert rec_a == rec_b
        assert np.array_equal(psi_a, psi_b)

    def test_pure_decay_has_at_most_one_jump(self):
        gen = decay_generator(1.0)
        for seed in range(200):
            record, psi = run_trajectory(KET1, gen, 1.0, seed=seed)
            assert len(record.events) <= 1
            target = KET0 if record.events else KET1
            assert np.allclose(psi, target, atol=1e-9)

    def test_jump_fraction_matches_exponential_law(self):
        gen = decay_generator(1.0)
        jumps = sum(bool(run_trajectory(KET1, gen, 1.0, seed=s)[0].events)
                    for s in range(400))
        expected = 400 * (1.0 - math.exp(-1.0))
        assert abs(jumps - expected) < 40

    def test_final_state_matches_record_operator(self):
        """Replaying the record through the compound operator reproduces the
        trajectory endpoint."""
        gen = driven_decay_generator(1.3, 0.9)
        found = None
        for seed in range(50):
            record, psi = run_trajectory(KET0, gen, 6.0, seed=seed)
            if len(record.events) >= 2:
                found = (record, psi)
                break
        assert found is not None
        record, psi = found
        replay = record_operator(record, gen) @ KET0
        replay = replay / np.linalg.norm(replay)
        assert np.allclose(psi, replay, atol=1e-8)

    def test_input_validation(self):
        gen = decay_generator(1.0)
        with pytest.raises(PhysicsError):
            run_trajectory(KET1, gen, 0.0, seed=0)

    @pytest.mark.parametrize("psi0", [np.array([0, 1, 0], dtype=complex), KET1[:, None]],
                             ids=["length-3", "column"])
    def test_state_of_another_shape_refused(self, psi0):
        """A trajectory propagates one vector of the generator's dimension;
        a longer one, or a column, is DimensionError."""
        gen = decay_generator(1.0)
        with pytest.raises(DimensionError):
            run_trajectory(psi0, gen, 2.0, seed=0)
        with pytest.raises(DimensionError):
            ensemble_average(psi0, gen, 2.0, 2, 0)

    @pytest.mark.parametrize("horizon", BAD_HORIZONS)
    def test_horizon_refused(self, horizon):
        """NaN once gave an empty record; inf ran a NaN grid and failed as a
        dark state."""
        with pytest.raises(PhysicsError, match="horizon"):
            run_trajectory(KET1, driven_decay_generator(), horizon, seed=0)

    @pytest.mark.parametrize("psi0", BAD_INITIAL_STATES, ids=BAD_IDS)
    def test_unnormalized_state_rejected(self, psi0):
        """A NaN state passed the old guard and never returned."""
        with pytest.raises(PhysicsError, match="normalized"):
            run_trajectory(psi0, decay_generator(1.0), 1.0, seed=0)


class TestEnsemble:
    def test_population_decay(self):
        gen = decay_generator(1.0)
        rho = ensemble_average(KET1, gen, 1.0, 10000, base_seed=17)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rho, rho.conj().T, atol=1e-12)
        assert rho[1, 1].real == pytest.approx(math.exp(-1.0), abs=0.02)

    def test_matches_master_equation(self):
        gen = driven_decay_generator(0.7, 0.6)
        rho_mc = ensemble_average(KET0, gen, 1.2, 4000, base_seed=23)
        rho_exact = evolve(gen, np.outer(KET0, KET0), 1.2)
        assert trace_distance(rho_mc, rho_exact) <= 0.03

    def test_oscillator_mean_photon_number(self):
        gen = damped_oscillator_generator(1.0, 1.0, 12)
        psi0 = coherent_vector(CoherentStateSpec(1.0, 12))
        rho = ensemble_average(psi0, gen, 0.5, 1000, base_seed=31)
        a = destroy(12)
        n_mean = float(np.trace(a.conj().T @ a @ rho).real)
        assert n_mean == pytest.approx(math.exp(-0.5), abs=0.06)

    def test_monte_carlo_error_scaling(self):
        """Trace distance to the exact solution shrinks like 1/sqrt(n)."""
        gen = driven_decay_generator(0.7, 0.6)
        rho_exact = evolve(gen, np.outer(KET0, KET0), 1.0)
        ns = [100, 1000, 10000]
        mean_dist = []
        for n in ns:
            dists = [trace_distance(ensemble_average(KET0, gen, 1.0, n, base_seed=s),
                                    rho_exact) for s in (11, 22, 33, 44)]
            mean_dist.append(np.mean(dists))
        slope = np.polyfit(np.log(ns), np.log(mean_dist), 1)[0]
        assert abs(slope + 0.5) < 0.15

    def test_reproducible(self):
        gen = decay_generator(1.0)
        rho_a = ensemble_average(KET1, gen, 1.0, 50, base_seed=7)
        rho_b = ensemble_average(KET1, gen, 1.0, 50, base_seed=7)
        assert np.array_equal(rho_a, rho_b)

    @pytest.mark.parametrize("horizon", BAD_HORIZONS)
    def test_horizon_refused(self, horizon):
        """Unchecked before: NaN gave the initial state back, 0 was accepted."""
        with pytest.raises(PhysicsError, match="horizon"):
            ensemble_average(KET1, driven_decay_generator(), horizon, 5, base_seed=0)

    def test_requires_trajectories(self):
        with pytest.raises(PhysicsError):
            ensemble_average(KET1, decay_generator(1.0), 1.0, 0, base_seed=0)

    @pytest.mark.parametrize("psi0", BAD_INITIAL_STATES, ids=BAD_IDS)
    def test_unnormalized_state_rejected(self, psi0):
        """Unchecked before: a NaN state hung, a norm-2 state gave a result."""
        with pytest.raises(PhysicsError, match="normalized"):
            ensemble_average(psi0, decay_generator(1.0), 1.0, 5, base_seed=0)
