"""Pointer-state tests: sieve oracles by 2x2 and coherent-state algebra,
vector-vs-projector flow consistency, grid soliton convergence."""

import gc
import math
import weakref

import numpy as np
import pytest
from scipy.linalg import expm

from decolab.errors import PhysicsError
from decolab.lindblad import (
    CoherentStateSpec,
    LindbladGenerator,
    coherent_vector,
    damped_oscillator_generator,
    destroy,
)
from decolab.pointer_states import (
    RobustStateFlow,
    evolve_robust,
    linear_entropy_rate,
    nonlinear_rhs,
    projector_flow_rhs,
    qbm_pointer_generator,
    qbm_soliton_width,
    state_width,
)
from decolab.units import HBAR, YEAR, UnitSystem

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def dephasing_qubit(gamma):
    return LindbladGenerator(hamiltonian=np.zeros((2, 2), dtype=complex),
                             channels=((gamma, SZ),))


def bloch_state(theta):
    return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)], dtype=complex)


def conjugated(gen, u):
    return LindbladGenerator(
        hamiltonian=u @ gen.hamiltonian @ u.conj().T,
        channels=tuple((r, u @ op @ u.conj().T) for r, op in gen.channels))


class TestRobustStateFlow:
    def test_accepts_normalized(self):
        flow = RobustStateFlow(xi=np.array([1.0, 0.0], dtype=complex),
                               gen=dephasing_qubit(1.0), t=0.0)
        assert flow.t == 0.0

    def test_rejects_norm_drift(self):
        with pytest.raises(PhysicsError):
            RobustStateFlow(xi=np.array([1.0, 1e-4], dtype=complex),
                            gen=dephasing_qubit(1.0), t=0.0)


class TestLinearEntropyRate:
    def test_unitary_generator_produces_nothing(self, rng):
        gen = LindbladGenerator(hamiltonian=0.7 * SX, channels=())
        for _ in range(5):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = a @ a.conj().T
            rho = rho / np.trace(rho)
            assert abs(linear_entropy_rate(rho, gen)) <= 1e-12

    def test_dephasing_pointer_basis(self):
        gen = dephasing_qubit(0.7)
        ket0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        assert linear_entropy_rate(ket0, gen) == pytest.approx(0.0, abs=1e-14)
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        assert linear_entropy_rate(plus, gen) == pytest.approx(2 * 0.7, rel=1e-12)

    def test_dephasing_variance_law(self):
        """Pure-state rate is 2 gamma (1 - <sigma_z>^2), by 2x2 algebra."""
        gen = dephasing_qubit(1.3)
        for theta in (0.3, 1.0, 2.2):
            psi = bloch_state(theta)
            rho = np.outer(psi, psi.conj())
            expected = 2 * 1.3 * (1.0 - math.cos(theta) ** 2)
            assert linear_entropy_rate(rho, gen) == pytest.approx(expected, rel=1e-10)

    def test_stationary_state_rate_is_zero(self):
        assert linear_entropy_rate(0.5 * np.eye(2, dtype=complex),
                                   dephasing_qubit(2.0)) == pytest.approx(0.0, abs=1e-14)

    def test_coherent_state_beats_cat(self):
        """Damped oscillator: coherent |a> produces almost no entropy, the
        +-a superposition produces 2 gamma a^2 tanh(a^2)."""
        gamma, alpha, n_max = 0.3, 2.0, 40
        gen = damped_oscillator_generator(1.0, gamma, n_max)
        coh = coherent_vector(CoherentStateSpec(alpha, n_max))
        rate_coh = linear_entropy_rate(np.outer(coh, coh.conj()), gen)
        cat = coh + coherent_vector(CoherentStateSpec(-alpha, n_max))
        cat = cat / np.linalg.norm(cat)
        rate_cat = linear_entropy_rate(np.outer(cat, cat.conj()), gen)
        assert abs(rate_coh) <= 1e-8
        expected = 2 * gamma * alpha**2 * math.tanh(alpha**2)
        assert rate_cat == pytest.approx(expected, rel=1e-6)
        assert rate_coh < rate_cat

    def test_sieve_is_basis_independent(self, rng):
        from conftest import random_generator, random_state, random_unitary
        for dim in (2, 3, 4):
            gen = random_generator(rng, dim)
            psi = random_state(rng, dim)
            rho = np.outer(psi, psi.conj())
            u = random_unitary(rng, dim)
            base = linear_entropy_rate(rho, gen)
            moved = linear_entropy_rate(u @ rho @ u.conj().T, conjugated(gen, u))
            assert moved == pytest.approx(base, rel=1e-10, abs=1e-12)


class TestNonlinearRhs:
    def test_unitary_only_is_schroedinger(self):
        gen = LindbladGenerator(hamiltonian=0.7 * SX, channels=())
        xi = bloch_state(0.9)
        assert np.array_equal(nonlinear_rhs(xi, gen), -1j * (0.7 * SX @ xi))

    def test_norm_preserved_to_first_order(self, rng):
        from conftest import random_generator, random_state
        for dim in (2, 3, 5):
            gen = random_generator(rng, dim)
            xi = random_state(rng, dim)
            assert abs(np.vdot(xi, nonlinear_rhs(xi, gen)).real) <= 1e-10

    def test_matches_projector_double_commutator(self, rng):
        from conftest import random_generator, random_state
        for dim in (2, 3, 5):
            gen = random_generator(rng, dim)
            xi = random_state(rng, dim)
            rhs = nonlinear_rhs(xi, gen)
            dp_vector = np.outer(rhs, xi.conj()) + np.outer(xi, rhs.conj())
            dp_projector = projector_flow_rhs(np.outer(xi, xi.conj()), gen)
            assert np.max(np.abs(dp_vector - dp_projector)) <= 1e-9

    def test_coherent_state_kills_jump_bracket(self):
        """The <a+>(a - <a>) term annihilates a (truncated) coherent state."""
        n_max = 40
        gen = damped_oscillator_generator(1.0, 1.0, n_max)
        xi = coherent_vector(CoherentStateSpec(1.5, n_max))
        a = destroy(n_max)
        exp_a = np.vdot(xi, a @ xi)
        bracket = np.conj(exp_a) * (a @ xi - exp_a * xi)
        assert np.linalg.norm(bracket) <= 1e-6

    def test_dephasing_pointer_state_is_fixed_ray(self):
        gen = LindbladGenerator(hamiltonian=0.5 * 1.1 * SZ, channels=((0.8, SZ),))
        xi = np.array([1.0, 0.0], dtype=complex)
        rhs = nonlinear_rhs(xi, gen)
        orthogonal = rhs - xi * np.vdot(xi, rhs)
        assert np.linalg.norm(orthogonal) <= 1e-14


class TestEvolveRobust:
    def test_zero_dissipation_is_unitary(self):
        h = 0.7 * SX
        gen = LindbladGenerator(hamiltonian=h, channels=())
        xi0 = bloch_state(0.4)
        final = evolve_robust(xi0, gen, 2.0)[-1]
        target = expm(-1j * h * 2.0) @ xi0
        assert abs(np.vdot(target, final.xi)) ** 2 >= 1.0 - 1e-7

    def test_snapshots_are_normalized_and_ordered(self):
        gen = dephasing_qubit(0.6)
        snaps = evolve_robust(bloch_state(1.1), gen, 1.5)
        times = [s.t for s in snaps]
        assert times[0] == 0.0 and times[-1] == pytest.approx(1.5)
        assert all(b > a for a, b in zip(times, times[1:]))
        for s in snaps:
            proj = np.outer(s.xi, s.xi.conj())
            assert np.trace(proj @ proj).real == pytest.approx(1.0, abs=1e-12)

    def test_zero_time_returns_initial_only(self):
        snaps = evolve_robust(bloch_state(0.2), dephasing_qubit(1.0), 0.0)
        assert len(snaps) == 1

    def test_validation(self):
        gen = dephasing_qubit(1.0)
        with pytest.raises(PhysicsError):
            evolve_robust(np.array([1.0, 1.0]), gen, 1.0)
        with pytest.raises(PhysicsError):
            evolve_robust(bloch_state(0.1), gen, -1.0)

    def test_generator_freed_without_cycle_collector(self):
        """Once the snapshots are dropped, nothing the integrator left
        behind keeps the generator (and its dense matrices) alive."""
        gen = dephasing_qubit(0.6)
        ref = weakref.ref(gen)
        gc.disable()
        try:
            snaps = evolve_robust(bloch_state(1.1), gen, 1.5)
            assert len(snaps) > 2
            del snaps, gen
            assert ref() is None
        finally:
            gc.enable()

    def test_damped_oscillator_tracks_decaying_coherent_state(self):
        """The flow keeps a coherent state coherent: fidelity with
        |a0 e^{-iwt - gt/2}> stays >= 0.999 out to gamma t = 2."""
        omega, gamma, n_max, alpha0 = 1.0, 1.0, 40, 1.5
        gen = damped_oscillator_generator(omega, gamma, n_max)
        xi0 = coherent_vector(CoherentStateSpec(alpha0, n_max))
        snaps = evolve_robust(xi0, gen, 2.0)
        for snap in snaps:
            alpha_t = alpha0 * np.exp(-1j * omega * snap.t - 0.5 * gamma * snap.t)
            target = coherent_vector(CoherentStateSpec(alpha_t, n_max))
            assert abs(np.vdot(target, snap.xi)) ** 2 >= 0.999

    def test_qbm_soliton_width_convergence(self):
        """Monitored free particle: a Gaussian at twice the stationary width
        relaxes onto the soliton width."""
        m, temp, gamma = 1.0, 1.0, 1.0 / 8.0
        sigma0 = qbm_soliton_width(m, gamma, temp)
        assert sigma0 == pytest.approx(1.0, rel=1e-12)
        grid = np.linspace(-10.0, 10.0, 256)
        gen = qbm_pointer_generator(m, gamma, temp, grid)
        xi0 = np.exp(-grid**2 / (4.0 * (2.0 * sigma0) ** 2)).astype(complex)
        xi0 /= np.linalg.norm(xi0)
        assert state_width(grid, xi0) == pytest.approx(2.0 * sigma0, rel=1e-3)
        final = evolve_robust(xi0, gen, 6.0)[-1]
        assert state_width(grid, final.xi) == pytest.approx(sigma0, rel=0.05)


class TestQbmPointerModel:
    def test_kinetic_term_is_spectral(self):
        grid = np.linspace(-10.0, 10.0, 256)
        gen = qbm_pointer_generator(1.0, 1.0 / 8.0, 1.0, grid)
        dx = grid[1] - grid[0]
        k0 = 2.0 * math.pi * 5 / (256 * dx)
        wave = np.exp(1j * k0 * grid) / math.sqrt(256)
        applied = gen.hamiltonian @ wave
        assert np.allclose(applied, (k0**2 / 2.0) * wave, rtol=1e-10, atol=1e-12)

    def test_monitor_channel(self):
        grid = np.linspace(-10.0, 10.0, 256)
        m, temp, gamma = 1.0, 0.5, 1.0 / 8.0
        gen = qbm_pointer_generator(m, gamma, temp, grid)
        assert len(gen.channels) == 1
        rate, op = gen.channels[0]
        assert rate == gamma
        assert np.array_equal(np.diag(op).real, 2.0 * math.sqrt(m * temp) * grid)

    def test_grid_validation(self):
        with pytest.raises(PhysicsError):
            qbm_pointer_generator(1.0, 1.0 / 8.0, 1.0, np.linspace(-10, 10, 100))
        with pytest.raises(PhysicsError):
            qbm_pointer_generator(1.0, 1.0 / 8.0, 1.0, np.linspace(-4, 4, 256))
        # stationary width far below the grid spacing
        with pytest.raises(PhysicsError):
            qbm_pointer_generator(1.0, 1e8, 1.0, np.linspace(-10, 10, 256))
        uneven = np.linspace(-10, 10, 256)
        uneven[100] += 0.01
        with pytest.raises(PhysicsError):
            qbm_pointer_generator(1.0, 1.0 / 8.0, 1.0, uneven)

    def test_width_formula_and_scaling(self):
        assert qbm_soliton_width(1.0, 1.0 / 8.0, 1.0) == pytest.approx(1.0, rel=1e-12)
        ratio = qbm_soliton_width(1.0, 0.01, 1.0) / qbm_soliton_width(1.0, 0.16, 1.0)
        assert ratio == pytest.approx(2.0, rel=1e-12)
        with pytest.raises(PhysicsError):
            qbm_soliton_width(1.0, -1.0, 1.0)

    def test_dust_grain_width_in_si(self):
        gamma = 1.0 / (13.7e9 * YEAR)
        width = qbm_soliton_width(1e-8, gamma, 2.7, si=True)
        assert width == pytest.approx(2.0e-12, rel=0.15)
        units = UnitSystem()
        via_natural = units.to_si(
            qbm_soliton_width(units.to_natural(1e-8, "mass"),
                              units.to_natural(gamma, "rate"),
                              units.to_natural(2.7, "temperature")), "length")
        assert via_natural == pytest.approx(width, rel=1e-12)


class TestStateWidth:
    def test_recovers_gaussian_sigma(self):
        grid = np.linspace(-8.0, 8.0, 512)
        xi = np.exp(-grid**2 / (4.0 * 1.3**2))
        assert state_width(grid, xi) == pytest.approx(1.3, rel=1e-6)

    def test_rejects_zero_state(self):
        with pytest.raises(PhysicsError):
            state_width(np.linspace(-1, 1, 8), np.zeros(8))
