"""Jump-unravelling tests: waiting-time law, record densities, ensemble limit."""

import csv
import gc
import json
import math
import weakref

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.integrate import dblquad, quad
from scipy.linalg import expm
from scipy.optimize import brentq

from decolab.errors import PhysicsError
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
    sample_jump_time,
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
            tau = sample_jump_time(KET1, gen, u, 100.0)
            assert tau == pytest.approx(-math.log(u) / 0.7, rel=1e-8)

    def test_no_jump_when_survival_stays_high(self):
        gen = decay_generator(0.7)
        u = math.exp(-0.7 * 2.0) / 2
        assert sample_jump_time(KET1, gen, u, 1.0) is None

    def test_dark_state_never_jumps(self):
        assert sample_jump_time(KET0, decay_generator(1.0), 0.5, 50.0) is None

    def test_inverts_survival_probability(self, rng):
        gen = random_generator(rng, 3)
        psi = random_state(rng, 3)
        tau = sample_jump_time(psi, gen, 0.4, 50.0)
        out = no_jump_propagate(psi, gen, tau)
        assert float(np.vdot(out, out).real) == pytest.approx(0.4, abs=1e-8)

    def test_batch_matches_scalar(self, rng):
        gen = random_generator(rng, 3)
        psi = random_state(rng, 3)
        us = np.concatenate([rng.uniform(0.01, 0.99, size=8), [0.999, 1e-4]])
        batch = sample_jump_times(psi, gen, us, 2.0)
        for u, t_batch in zip(us, batch):
            t_single = sample_jump_time(psi, gen, float(u), 2.0)
            if t_single is None:
                assert np.isinf(t_batch)
            else:
                assert t_batch == pytest.approx(t_single, rel=1e-12)

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
                sample_jump_time(KET1, gen, bad, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_state_rejected(self, bad):
        """A NaN state once gave the waiting time 0."""
        with pytest.raises(PhysicsError, match="non-finite"):
            sample_jump_times(np.array([bad, 0j]), decay_generator(1.0), [0.5], 1.0)


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
            assert trajectories._propagator(gen)[0].mode == mode
            psi = (KET0 + 0.5j * KET1) / math.sqrt(1.25)
            batch = sample_jump_times(psi, gen, self.US, 4.0)
            single = [sample_jump_time(psi, gen, u, 4.0) for u in self.US]
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
            np.testing.assert_allclose(
                times, [np.inf if t is None else t for t in single], rtol=1e-12)
            np.testing.assert_allclose(times, ref_times, rtol=1e-9)
            np.testing.assert_allclose(op, ref_op, rtol=0, atol=1e-9)

    def test_eigenbasis_above_the_expm_cutoff(self, monkeypatch):
        """A well-conditioned dim-70 drift (above the order 64 where a Pade
        mode once stopped) takes the eigenbasis, and its waiting times match
        rk mode's."""
        gen = damped_oscillator_generator(1.0, 0.5, 70)
        psi = coherent_vector(CoherentStateSpec(2.0, 70))
        us = np.array([0.05, 0.3, 0.8])
        assert trajectories._propagator(gen)[0].mode == "eig"
        eig_times = sample_jump_times(psi, gen, us, 3.0)
        self.force(monkeypatch, "rk")
        rk_gen = damped_oscillator_generator(1.0, 0.5, 70)
        assert trajectories._propagator(rk_gen)[0].mode == "rk"
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
    def test_traject_run_matches_expm_oracle(self, tmp_path, monkeypatch):
        """At omega = gamma/4 the no-jump drift of the driven decay has a
        double eigenvalue, and its eigenvectors have cond ~1e8, so a plain
        `traject` run propagates in rk mode. Its click counts are the
        oracle's, and its click times agree to 1e-9 relative."""
        modes = []

        class Recording(operator_core.Propagator):
            def __init__(self, k):
                super().__init__(k)
                modes.append(self.mode)

        monkeypatch.setattr(trajectories, "Propagator", Recording)
        omega, gamma, horizon, seed = 0.25, 1.0, 3.0, 3
        config = tmp_path / "traject.json"
        config.write_text(json.dumps({
            "scenario": "traject", "seed": seed, "params": {
                "gamma": gamma, "omega": omega, "horizon": horizon, "n_traj": 40}}))
        out = tmp_path / "traject.csv"
        assert main(["run", str(config), "--output", str(out)]) == 0
        assert modes == ["rk"]
        counts = []
        for row in csv.DictReader(out.read_text().splitlines()):
            want = expm_click_times(omega, gamma, horizon, seed, int(row["traj"]))
            counts.append(len(want))
            assert int(row["n_events"]) == len(want)
            if want:
                np.testing.assert_allclose(
                    [float(row["first_event"]), float(row["last_event"])],
                    [want[0], want[-1]], rtol=1e-9)
        assert 0 in counts and max(counts) >= 2


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
        gen = driven_decay_generator(1.3, 0.9)
        gc.disable()
        try:
            run_trajectory(KET0, gen, 2.0, seed=3)
            entry = trajectories._propagator(gen)
            assert trajectories._propagator(gen) is entry
            prop = entry[0]
            del entry
            refs = [weakref.ref(gen), weakref.ref(prop)]
            del gen, prop
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


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
