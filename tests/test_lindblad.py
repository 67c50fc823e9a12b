import gc
import json
import math
import weakref

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from conftest import random_density, random_generator, random_hermitian, random_state
from decolab import lindblad
from decolab.errors import DimensionError, PhysicsError
from decolab.lindblad import (
    CoherentStateSpec,
    FirstStandardForm,
    LindbladGenerator,
    PhaseSpaceMoments,
    alpha_from_phase_space,
    apply_generator,
    cat_coherence_factor,
    cat_decoherence_ratio,
    check_fock_leakage,
    coherent_state,
    coherent_vector,
    damped_oscillator_generator,
    dephasing_solution,
    destroy,
    dual_liouvillian,
    evolve,
    gauge_shift,
    heisenberg_evolve,
    hermitian_basis,
    kinetic_energy,
    liouvillian,
    mix_channels,
    qbm_coherence_decay,
    qbm_coherence_ratio,
    qbm_generator,
    qbm_moments,
    thermal_momentum,
    thermal_wavelength_sq,
    to_first_standard_form,
    to_lindblad_form,
)
from decolab.operator_core import Propagator, dag, devectorize, fidelity, vectorize

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


class TestGeneratorContainer:
    def test_holds_read_only_copies(self):
        """Later writes to the caller's arrays cannot reach the generator,
        and its own arrays refuse writes, so caches keyed on it stay valid."""
        h = np.diag([1.0, -1.0]).astype(complex)
        op = np.array([[0, 1], [0, 0]], dtype=complex)
        gen = LindbladGenerator(h, ((0.5, op),))
        h[0, 0], op[0, 1] = 5.0, 3.0
        assert gen.hamiltonian[0, 0] == 1.0 and gen.channels[0][1][0, 1] == 1.0
        for arr in (gen.hamiltonian, gen.channels[0][1]):
            with pytest.raises(ValueError, match="read-only"):
                arr[1, 0] = 2.0

    def test_compares_and_hashes_by_identity(self):
        gen = LindbladGenerator(np.eye(2))
        twin = LindbladGenerator(np.eye(2))
        assert gen == gen and gen != twin
        assert {gen: 1, twin: 2}[gen] == 1


class TestStandardForms:
    def test_hermitian_basis_is_orthonormal_traceless(self):
        for dim in (2, 3, 4):
            basis = hermitian_basis(dim)
            assert len(basis) == dim * dim - 1
            for i, e in enumerate(basis):
                assert abs(np.trace(e)) < 1e-14
                np.testing.assert_allclose(e, dag(e), atol=1e-14)
                for k, f in enumerate(basis):
                    want = 1.0 if i == k else 0.0
                    assert abs(np.trace(dag(e) @ f) - want) < 1e-14

    def test_diagonal_alpha_passthrough(self):
        basis = (SX / math.sqrt(2), SY / math.sqrt(2))
        form = FirstStandardForm(np.zeros((2, 2)), basis, np.diag([0.5, 2.0]))
        gen = to_lindblad_form(form)
        rates = sorted(r for r, _ in gen.channels)
        assert rates == pytest.approx([0.5, 2.0])
        for rate, op in gen.channels:
            which = 0 if rate == pytest.approx(0.5) else 1
            overlap = abs(np.trace(dag(basis[which]) @ op))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_alpha_merges_channels(self):
        # alpha = [[1,1],[1,1]] over (sx, sy)/sqrt(2): one channel, rate 2,
        # jump operator (sx + sy)/2 up to a global phase
        form = FirstStandardForm(np.zeros((2, 2)),
                                 (SX / math.sqrt(2), SY / math.sqrt(2)),
                                 np.ones((2, 2)))
        gen = to_lindblad_form(form)
        assert len(gen.channels) == 1
        rate, op = gen.channels[0]
        assert rate == pytest.approx(2.0)
        expected = (SX + SY) / 2.0
        overlap = abs(np.trace(dag(expected) @ op))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_preserves_liouvillian(self, rng):
        for dim in (2, 3):
            gen = random_generator(rng, dim, n_channels=3)
            back = to_lindblad_form(to_first_standard_form(gen))
            np.testing.assert_allclose(liouvillian(back), liouvillian(gen), atol=1e-10)

    def test_first_form_action_matches(self, rng):
        gen = random_generator(rng, 3)
        form = to_first_standard_form(gen)
        rebuilt = to_lindblad_form(form)
        for _ in range(20):
            rho = random_density(rng, 3)
            np.testing.assert_allclose(
                apply_generator(rebuilt, rho), apply_generator(gen, rho), atol=1e-9)

    def test_non_cp_alpha_rejected(self):
        basis = (SX / math.sqrt(2), SY / math.sqrt(2))
        with pytest.raises(PhysicsError, match="completely positive"):
            to_lindblad_form(FirstStandardForm(
                np.zeros((2, 2)), basis, np.diag([1.0, -0.1])))

    def test_form_validation(self):
        with pytest.raises(PhysicsError, match="traceless"):
            FirstStandardForm(np.zeros((2, 2)), (np.eye(2),), np.eye(1))
        with pytest.raises(PhysicsError, match="orthonormal"):
            FirstStandardForm(np.zeros((2, 2)), (SX,), np.eye(1))
        with pytest.raises(DimensionError):
            FirstStandardForm(np.zeros((2, 2)), (SX / math.sqrt(2),), np.eye(2))


class TestLiouvillian:
    def test_trivial_generator(self):
        gen = LindbladGenerator(np.zeros((3, 3)))
        assert np.all(liouvillian(gen) == 0)

    def test_dephasing_spectrum(self):
        # H = (delta/2) sz, jump sz at rate g: eigenvalues 0, 0, -+i delta - 2g
        delta, g = 0.7, 0.3
        gen = LindbladGenerator(0.5 * delta * SZ, ((g, SZ),))
        eig = np.sort_complex(np.linalg.eigvals(liouvillian(gen)))
        expected = np.sort_complex([0.0, 0.0, -1j * delta - 2 * g, 1j * delta - 2 * g])
        np.testing.assert_allclose(eig, expected, atol=1e-12)

    def test_traceless_action(self, rng):
        gen = random_generator(rng, 4)
        lv = liouvillian(gen)
        # tr(L rho) = vec(I)† L vec(rho) for every rho
        trace_row = vectorize(np.eye(4)).conj() @ lv
        assert np.max(np.abs(trace_row)) < 1e-12

    def test_matrix_form_agrees_with_superoperator(self, rng):
        gen = random_generator(rng, 3)
        rho = random_density(rng, 3)
        via_super = devectorize(liouvillian(gen) @ vectorize(rho))
        np.testing.assert_allclose(apply_generator(gen, rho), via_super, atol=1e-12)

    def test_duality_pairing(self, rng):
        gen = random_generator(rng, 3)
        dual = dual_liouvillian(gen)
        lv = liouvillian(gen)
        for _ in range(20):
            rho = random_density(rng, 3)
            a = random_hermitian(rng, 3)
            lhs = np.trace(a @ devectorize(lv @ vectorize(rho)))
            rhs = np.trace(rho @ devectorize(dual @ vectorize(a)))
            assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_dual_annihilates_identity(self, rng):
        gen = random_generator(rng, 4)
        out = dual_liouvillian(gen) @ vectorize(np.eye(4))
        assert np.max(np.abs(out)) < 1e-12

    def test_hamiltonian_only_dual_is_isometric(self, rng):
        gen = LindbladGenerator(random_hermitian(rng, 3))
        a = random_hermitian(rng, 3)
        a_t = heisenberg_evolve(gen, a, 2.3)
        assert np.linalg.norm(a_t) == pytest.approx(np.linalg.norm(a), rel=1e-10)

    def test_qbm_dual_flow_equations(self):
        # d<x>/dt = <p>/m and d<p>/dt = -2 gamma <p> hold where the canonical
        # commutator does, i.e. away from the truncation edge
        n, m, gamma, temp = 14, 1.3, 0.21, 0.8
        a = destroy(n)
        x = (a + dag(a)) / math.sqrt(2.0 * m)
        p = 1j * (dag(a) - a) * math.sqrt(m / 2.0)
        gen = qbm_generator(x, p, m, gamma, temp)
        dual = dual_liouvillian(gen)
        dx = devectorize(dual @ vectorize(x))
        dp = devectorize(dual @ vectorize(p))
        blk = np.s_[:10, :10]
        np.testing.assert_allclose(dx[blk], (p / m)[blk], atol=1e-10)
        np.testing.assert_allclose(dp[blk], (-2.0 * gamma * p)[blk], atol=1e-10)


class TestGaugeFreedom:
    def test_zero_shift_identity(self, rng):
        gen = random_generator(rng, 3)
        shifted = gauge_shift(gen, [0.0] * len(gen.channels))
        np.testing.assert_allclose(shifted.hamiltonian, gen.hamiltonian, atol=1e-14)

    def test_liouvillian_invariant(self, rng):
        gen = random_generator(rng, 3)
        shifts = rng.normal(size=2) + 1j * rng.normal(size=2)
        shifted = gauge_shift(gen, shifts)
        np.testing.assert_allclose(liouvillian(shifted), liouvillian(gen), atol=1e-10)
        assert not np.allclose(shifted.hamiltonian, gen.hamiltonian)

    def test_damped_oscillator_shift(self):
        gen = damped_oscillator_generator(1.0, 0.4, 8)
        shifted = gauge_shift(gen, [1.0])
        np.testing.assert_allclose(liouvillian(shifted), liouvillian(gen), atol=1e-10)

    def test_traceless_normalization(self, rng):
        gen = random_generator(rng, 4)
        shifts = [-np.trace(op) / 4 for _, op in gen.channels]
        for _, op in gauge_shift(gen, shifts).channels:
            assert abs(np.trace(op)) < 1e-12

    def test_channel_mixing_invariant(self, rng):
        from conftest import random_unitary

        gen = random_generator(rng, 3, n_channels=2)
        mixed = mix_channels(gen, random_unitary(rng, 2))
        np.testing.assert_allclose(liouvillian(mixed), liouvillian(gen), atol=1e-10)

    def test_mixing_requires_unitary(self, rng):
        gen = random_generator(rng, 2, n_channels=2)
        with pytest.raises(PhysicsError, match="unitary"):
            mix_channels(gen, np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestDephasingSolution:
    def test_scalar_oracle(self):
        rho0 = 0.5 * np.ones((2, 2), dtype=complex)
        out = dephasing_solution([0.0, 1.0], 1.0, rho0, 1.0)
        assert out[0, 1] == pytest.approx(0.5 * np.exp(1j) * math.exp(-0.5), abs=1e-14)
        np.testing.assert_allclose(np.diag(out), np.diag(rho0), atol=1e-14)

    def test_diagonal_invariant(self, rng):
        rho0 = random_density(rng, 5)
        energies = rng.normal(size=5)
        out = dephasing_solution(energies, 0.7, rho0, 3.0)
        np.testing.assert_allclose(np.diag(out), np.diag(rho0), atol=1e-14)

    def test_integrator_oracle(self, rng):
        energies = rng.normal(size=4)
        gamma = 0.6
        h = np.diag(energies).astype(complex)
        gen = LindbladGenerator(h, ((gamma, h),))
        rho0 = random_density(rng, 4)
        for t in (0.3, 1.0, 4.0):
            np.testing.assert_allclose(
                dephasing_solution(energies, gamma, rho0, t), evolve(gen, rho0, t),
                atol=1e-10)


class TestDampedOscillator:
    def test_energy_decay(self):
        # <H>_t = e^{-gamma t} <H>_0; n_max = 30 forces the RK code path
        gen = damped_oscillator_generator(1.0, 0.5, 30)
        rho0 = coherent_state(CoherentStateSpec(1.0, 30))
        e0 = np.trace(gen.hamiltonian @ rho0).real
        for t in (0.8, 2.0):
            rho_t = evolve(gen, rho0, t)
            check_fock_leakage(rho_t)
            e_t = np.trace(gen.hamiltonian @ rho_t).real
            assert e_t == pytest.approx(math.exp(-0.5 * t) * e0, rel=1e-4)

    def test_vacuum_stationary(self):
        gen = damped_oscillator_generator(1.0, 0.4, 6)
        vac = coherent_state(CoherentStateSpec(0.0, 6))
        np.testing.assert_allclose(evolve(gen, vac, 5.0), vac, atol=1e-9)

    def test_coherent_stays_pure_and_tracks_spiral(self):
        omega, gamma, n_max = 1.0, 0.5, 30
        gen = damped_oscillator_generator(omega, gamma, n_max)
        rho0 = coherent_state(CoherentStateSpec(1.0, n_max))
        for t in (0.5, 2.0):
            rho_t = evolve(gen, rho0, t)
            assert np.trace(rho_t @ rho_t).real == pytest.approx(1.0, abs=1e-3)
            alpha_t = 1.0 * np.exp(-1j * omega * t - 0.5 * gamma * t)
            target = coherent_state(CoherentStateSpec(alpha_t, n_max))
            assert fidelity(rho_t, target) >= 0.999

    def test_rk_path_frees_generator_without_cycle_collector(self, monkeypatch):
        """Once evolve returns, nothing the RK45 stepper left behind keeps
        the generator (and its dense matrices) alive."""
        monkeypatch.setattr(lindblad, "_DENSE_DIM_MAX", 0)
        gen = damped_oscillator_generator(1.0, 0.5, 6)
        rho0 = coherent_state(CoherentStateSpec(0.5, 6))
        ref = weakref.ref(gen)
        gc.disable()
        try:
            rho_t = evolve(gen, rho0, 0.5)
            assert np.trace(rho_t).real == pytest.approx(1.0, abs=1e-9)
            del gen
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("n_max", [4, 8, 12])
    def test_eig_mode_matches_scipy_expm(self, n_max):
        """Up to dim 12 `evolve` applies exp(t L) from the eigenbasis of the
        dense Liouvillian: the whole map and one state within 1e-12
        (Frobenius, relative) of scipy.linalg.expm."""
        gen = damped_oscillator_generator(1.0, 0.3, n_max)
        liou = liouvillian(gen)
        prop = Propagator(1j * liou)
        assert prop.mode == "eig"
        rho0 = coherent_state(CoherentStateSpec(0.8 + 0.3j, n_max))
        for t in (0.01, 0.7, 5.0):
            want = expm(liou * t)
            got = prop.apply(np.eye(n_max ** 2), t)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            want = devectorize(want @ vectorize(rho0))
            got = evolve(gen, rho0, t)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_rk_mode_at_the_exceptional_point_matches_scipy_expm(self):
        """The driven decay of the `traject` scenario (drive omega sigma_x,
        |0> decaying into |1> at gamma) has a Liouvillian exceptional point
        at omega = gamma/8, where the eigenvectors of the dense Liouvillian
        have cond ~1.4e8. `evolve` there runs RK45 on the dense K, and the
        whole map and one state stay within 1e-10 (Frobenius, relative) of
        scipy.linalg.expm."""
        gamma = 1.0
        lower = np.array([[0, 0], [1, 0]], dtype=complex)
        gen = LindbladGenerator(gamma / 8.0 * SX, ((gamma, lower),))
        liou = liouvillian(gen)
        prop = Propagator(1j * liou)
        assert prop.mode == "rk"
        rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        for t in (0.01, 0.7, 5.0):
            want = expm(liou * t)
            got = prop.apply(np.eye(4), t)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
            want = devectorize(want @ vectorize(rho0))
            got = evolve(gen, rho0, t)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_coherent_vector_amplitudes(self):
        alpha, n_max = 1.3 + 0.4j, 25
        v = coherent_vector(CoherentStateSpec(alpha, n_max))
        direct = np.array([alpha ** n / math.sqrt(math.factorial(n)) for n in range(n_max)])
        direct /= np.linalg.norm(direct)
        np.testing.assert_allclose(v, direct, atol=1e-12)
        a = destroy(n_max)
        assert np.vdot(v, a @ v) == pytest.approx(alpha, abs=1e-8)

    def test_truncation_guards(self):
        with pytest.raises(PhysicsError, match="truncation"):
            CoherentStateSpec(2.0, 10)
        with pytest.raises(PhysicsError, match="leakage"):
            check_fock_leakage(np.eye(8) / 8.0)
        assert check_fock_leakage(coherent_state(CoherentStateSpec(1.0, 20))) < 1e-10


class TestCatCoherence:
    def test_equal_amplitudes_inert(self):
        assert cat_coherence_factor(1.5, 1.5, 0.7, 3.0) == pytest.approx(1.0)
        assert cat_decoherence_ratio(1.5, 1.5) == 0.0

    def test_magnitude_decreases(self):
        vals = [abs(cat_coherence_factor(2.0, -2.0, 0.3, t)) for t in (0.0, 0.5, 1.0, 3.0)]
        assert vals[0] == pytest.approx(1.0)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_ratio_is_quadratic(self):
        assert cat_decoherence_ratio(1.0, -1.0) == pytest.approx(2.0)
        assert cat_decoherence_ratio(2.0, -2.0) == pytest.approx(8.0)

    def test_short_time_rate(self):
        # Richardson-extrapolated log-derivative at t -> 0 recovers
        # gamma * |alpha - beta|^2 / 2
        alpha0, beta0, gamma = 2.0, -2.0, 0.7
        h = 0.01 / gamma

        def g(step):
            return -math.log(abs(cat_coherence_factor(alpha0, beta0, gamma, step))) / step

        rate = 2.0 * g(h / 2) - g(h)
        expected = gamma * cat_decoherence_ratio(alpha0, beta0)
        assert rate == pytest.approx(expected, rel=1e-3)

    def test_against_truncated_integrator(self):
        # four-term cat density matrix under the full master equation
        omega, gamma, n_max = 1.0, 0.2, 40
        alpha0, beta0 = 1.5, -1.5
        gen = damped_oscillator_generator(omega, gamma, n_max)
        va = coherent_vector(CoherentStateSpec(alpha0, n_max))
        vb = coherent_vector(CoherentStateSpec(beta0, n_max))
        psi = va + vb
        psi /= np.linalg.norm(psi)
        rho_t = evolve(gen, np.outer(psi, psi.conj()), 1.0)
        check_fock_leakage(rho_t)
        decay = np.exp(-1j * omega - 0.5 * gamma)
        spec_a = CoherentStateSpec(alpha0 * decay, n_max)
        spec_b = CoherentStateSpec(beta0 * decay, n_max)
        basis = np.column_stack([coherent_vector(spec_a), coherent_vector(spec_b)])
        gram = basis.conj().T @ basis
        coeff = np.linalg.solve(gram, basis.conj().T @ rho_t @ basis) @ np.linalg.inv(gram)
        measured = coeff[0, 1] / math.sqrt(coeff[0, 0].real * coeff[1, 1].real)
        expected = cat_coherence_factor(alpha0, beta0, gamma, 1.0)
        assert measured == pytest.approx(expected, rel=1e-3)

    def test_phase_space_map(self):
        # alpha = sqrt(m omega/2 hbar)(x + ip/(m omega)); pendulum numbers
        # give a mesoscopic-scale separation
        alpha = alpha_from_phase_space(0.01, 0.0, 0.1, 2.0 * math.pi, hbar=1.054571817e-34)
        ratio = cat_decoherence_ratio(alpha, -alpha)
        assert 1e29 < ratio < 1e31


class TestBrownianMotion:
    def test_time_zero_identity(self):
        init = PhaseSpaceMoments(1.0, -2.0, 0.5, 3.0, 0.2)
        out = qbm_moments(1.0, 0.1, 1.0, init, 0.0)
        assert out == init

    def test_momentum_damping(self):
        init = PhaseSpaceMoments(0.0, 2.0, 1.0, 1.0)
        out = qbm_moments(1.0, 0.5, 1.0, init, 1.0)  # gamma t = 0.5
        assert out.p == pytest.approx(2.0 / math.e, rel=1e-12)

    def test_kinetic_equilibration(self):
        # <T>_infty = p_th^2/8m = T/2 regardless of the initial state
        m, temp = 2.0, 0.7
        init = PhaseSpaceMoments(0.0, 3.0, 1.0, 10.0)
        out = qbm_moments(m, 0.5, temp, init, 20.0)
        assert kinetic_energy(out, m) == pytest.approx(temp / 2.0, rel=1e-3)
        assert thermal_momentum(m, temp) ** 2 / (8.0 * m) == pytest.approx(temp / 2.0)

    @pytest.mark.parametrize("p, sigma_pp, m, want", [
        (1e160, 1.0, 1e100, 5e219),       # p^2 overflows
        (1e154, 1e308, 1.0, 1e308),       # sigma_pp + p^2 overflows
        (2.0, 1.0, 1e308, 2.5e-308),      # 2m overflows, where 5/inf gave 0
        (3.0, 2.0, 0.5, 11.0),            # the ordinary form
    ])
    def test_kinetic_energy_without_spurious_overflow(self, p, sigma_pp, m, want):
        moments = PhaseSpaceMoments(0.0, p, 1.0, sigma_pp)
        assert kinetic_energy(moments, m) == pytest.approx(want, rel=1e-15)

    def test_kinetic_energy_overflow_raises(self):
        with pytest.raises(PhysicsError, match="p = -1.1e\\+228, m = 1.0"):
            kinetic_energy(PhaseSpaceMoments(0.0, -1.1e228, 1.0, 1.0), 1.0)

    def test_diffusive_slope(self):
        m, gamma, temp = 1.0, 0.01, 1.0
        init = PhaseSpaceMoments(0.0, 0.0, 1.0, 1.0)
        s1 = qbm_moments(m, gamma, temp, init, 300.0).sigma_xx
        s2 = qbm_moments(m, gamma, temp, init, 400.0).sigma_xx
        slope = (s2 - s1) / 100.0
        assert slope == pytest.approx(temp / (gamma * m), rel=0.05)

    def test_against_moment_odes(self):
        # independent route: integrate the moment ODE system directly
        m, gamma, temp = 1.3, 0.4, 0.9
        init = PhaseSpaceMoments(0.5, -1.0, 0.8, 2.0, 0.3)

        def rhs(_, y):
            x, p, sxx, spp, cross = y
            return [p / m,
                    -2.0 * gamma * p,
                    cross / m + gamma / (4.0 * m * temp),
                    4.0 * gamma * m * temp - 4.0 * gamma * spp,
                    2.0 * spp / m - 2.0 * gamma * cross]

        y0 = [init.x, init.p, init.sigma_xx, init.sigma_pp, init.cross]
        for t in (0.5, 2.0, 8.0):
            sol = solve_ivp(rhs, (0.0, t), y0, rtol=1e-11, atol=1e-13)
            out = qbm_moments(m, gamma, temp, init, t)
            np.testing.assert_allclose(
                [out.x, out.p, out.sigma_xx, out.sigma_pp, out.cross],
                sol.y[:, -1], rtol=1e-6, atol=1e-9)

    @staticmethod
    def mpmath_moments(mpmath, m, gamma, temp, init, t):
        """(x, sigma_xx, sigma_pp, cross) of the closed form, evaluated as
        written in mpmath at the caller's working precision."""
        g, m, temp, t = (mpmath.mpf(v) for v in (gamma, m, temp, t))
        e2 = mpmath.exp(-2 * g * t)
        e4 = e2 * e2
        a = init.sigma_pp - m * temp
        d = init.cross - temp / g + a / (g * m)
        x = init.x + init.p * (1 - e2) / (2 * g * m)
        spp = m * temp + a * e4
        cross = temp / g - (a / (g * m)) * e4 + d * e2
        sxx = (init.sigma_xx + (temp / (g * m) + g / (4 * m * temp)) * t
               + d * (1 - e2) / (2 * g * m) - a * (1 - e4) / (4 * g * g * m * m))
        return x, sxx, spp, cross

    def test_small_damping_matches_mpmath(self):
        """The closed form, evaluated as written at 640 digits, enough for
        its terms of order 1/gamma^2 to cancel down to gamma = 1e-300. In
        double precision var_x once came out 9.1% off at gamma = 1e-8 and
        negative at 1e-10; at 1e-200 and 1e-300, near the free-particle
        limit, a guard on (gamma m)^2 underflowing refused the call."""
        mpmath = pytest.importorskip("mpmath")
        m, temp, t = 1.0, 1.0, 1.0
        init = PhaseSpaceMoments(0.3, 0.5, 1.0, 2.0, 0.4)
        with mpmath.workdps(640):
            for gamma in [*np.geomspace(1e-2, 1e-12, 11), 1e-200, 1e-300]:
                x, sxx, _, cross = self.mpmath_moments(mpmath, m, gamma, temp, init, t)
                out = qbm_moments(m, gamma, temp, init, t)
                assert out.sigma_xx == pytest.approx(float(sxx), rel=1e-12, abs=0.0)
                assert out.cross == pytest.approx(float(cross), rel=1e-12, abs=0.0)
                assert out.x == pytest.approx(float(x), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("gamma, temp", [(1e-100, 1e100), (1e-150, 1e200)])
    def test_hot_free_particle_run_matches_mpmath(self, tmp_path, gamma, temp):
        """Valid `qbm` configs where e^(-4 gamma t) rounds to 1 while m T u
        is of order 1, and T/(gamma m) overflows while u^3 underflows. Once
        sigma_pp cancelled to 0 ("variances must be positive") and the psi
        term was inf times 0 ("moment overflow"); now every row is finite,
        positive and the closed form at 800 digits."""
        mpmath = pytest.importorskip("mpmath")
        from decolab.cli import main
        config = tmp_path / "qbm.json"
        config.write_text(json.dumps({"scenario": "qbm", "params": {
            "mass": 1, "gamma": gamma, "temperature": temp}}))
        out = tmp_path / "qbm.csv"
        assert main(["run", str(config), "--output", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert header.split(",")[:6] == ["t", "x_mean", "p_mean", "var_x", "var_p", "cov_xp"]
        init = PhaseSpaceMoments(0.0, 0.0, 1.0, 1.0, 0.0)
        assert len(rows) == 50
        with mpmath.workdps(800):
            for row in rows:
                t, _, _, sxx, spp, cross = map(float, row.split(",")[:6])
                assert math.isfinite(sxx) and sxx > 0 and spp > 0
                _, want_sxx, want_spp, want_cross = self.mpmath_moments(
                    mpmath, 1.0, gamma, temp, init, t)
                assert sxx == pytest.approx(float(want_sxx), rel=1e-12, abs=0.0)
                assert spp == pytest.approx(float(want_spp), rel=1e-12, abs=0.0)
                assert cross == pytest.approx(float(want_cross), rel=1e-12, abs=0.0)

    def test_coherence_ratio_identities(self):
        assert qbm_coherence_ratio(0.3, 0.3, 1.0, 1.0) == 0.0
        r1 = qbm_coherence_ratio(0.0, 1.0, 2.0, 3.0)
        r2 = qbm_coherence_ratio(0.0, 2.0, 2.0, 3.0)
        assert r2 == pytest.approx(4.0 * r1, rel=1e-12)
        # ratio * Lambda_th^2 / 4pi recovers the squared separation
        lam2 = thermal_wavelength_sq(3.0, 2.0)
        assert r1 * lam2 / (4.0 * math.pi) == pytest.approx(1.0, rel=1e-12)

    def test_coherence_decay_factor(self):
        m, temp, gamma, t = 1.0, 1.0, 0.1, 2.0
        dx = 0.7
        rate = gamma * 2.0 * m * temp * dx ** 2
        assert qbm_coherence_decay(0.0, dx, temp, m, gamma, t) == pytest.approx(
            math.exp(-rate * t), rel=1e-12)


class TestGeneratorProperties:
    def test_trace_hermiticity_positivity(self, rng):
        # light version of the full 50-generator acceptance sweep
        for dim in (2, 3, 4, 5):
            for _ in range(3):
                gen = random_generator(rng, dim, n_channels=2)
                rho0 = random_density(rng, dim)
                for t in (0.1, 1.0, 10.0):
                    rho_t = evolve(gen, rho0, t)
                    assert abs(np.trace(rho_t) - 1.0) < 1e-9
                    assert np.linalg.norm(rho_t - dag(rho_t)) < 1e-9
                    assert np.linalg.eigvalsh(0.5 * (rho_t + dag(rho_t))).min() > -1e-7

    def test_semigroup_law(self, rng):
        gen = random_generator(rng, 3)
        rho0 = random_density(rng, 3)
        once = evolve(gen, rho0, 1.7)
        twice = evolve(gen, evolve(gen, rho0, 0.9), 0.8)
        np.testing.assert_allclose(once, twice, atol=1e-9)

    def test_schroedinger_heisenberg_duality(self, rng):
        gen = random_generator(rng, 3)
        rho0 = random_density(rng, 3)
        a = random_hermitian(rng, 3)
        t = 1.3
        lhs = np.trace(a @ evolve(gen, rho0, t))
        rhs = np.trace(rho0 @ heisenberg_evolve(gen, a, t))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_generator_validation(self):
        with pytest.raises(PhysicsError, match="hermitian"):
            LindbladGenerator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(PhysicsError, match="negative rate"):
            LindbladGenerator(np.zeros((2, 2)), ((-0.1, SX),))
        with pytest.raises(DimensionError):
            LindbladGenerator(np.zeros((2, 2)), ((1.0, np.zeros((3, 3))),))

    def test_evolve_rejects_negative_time(self, rng):
        gen = random_generator(rng, 2)
        with pytest.raises(PhysicsError):
            evolve(gen, np.eye(2) / 2, -1.0)
