"""Pointer-state tests: sieve oracles by 2x2 and coherent-state algebra,
vector-vs-projector flow consistency, grid soliton convergence, the Riccati
closed form of Gaussian widths, and the per-call flow derivative and dense
DFT kinetic matrix kept as oracles for the compiled routes."""

import cmath
import gc
import math
import weakref

import numpy as np
import pytest
from scipy.linalg import circulant, dft, expm

from decolab.errors import PhysicsError
from decolab.lindblad import (
    CoherentStateSpec,
    LindbladGenerator,
    coherent_vector,
    damped_oscillator_generator,
    destroy,
)
from decolab.operator_core import dag, herm_part
from decolab.pointer_states import (
    RobustStateFlow,
    _flow_rhs,
    evolve_robust,
    linear_entropy_rate,
    nonlinear_rhs,
    projector_flow_rhs,
    qbm_pointer_generator,
    qbm_soliton_width,
    state_width,
)
from decolab.units import HBAR, K_B, YEAR

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def dephasing_qubit(gamma):
    return LindbladGenerator(hamiltonian=np.zeros((2, 2), dtype=complex),
                             channels=((gamma, SZ),))


def bloch_state(theta):
    return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)], dtype=complex)


# NaN and inf fail a norm guard only when it is written as `not dev <= tol`
BAD_STATES = [np.array([math.nan, 0j]), np.array([math.inf, 0j]),
              np.array([2.0, 0j])]
BAD_IDS = ["nan", "inf", "norm2"]


def conjugated(gen, u):
    return LindbladGenerator(
        hamiltonian=u @ gen.hamiltonian @ u.conj().T,
        channels=tuple((r, u @ op @ u.conj().T) for r, op in gen.channels))


def per_call_rhs(xi, gen):
    """The flow derivative as first written: every operator product formed
    on every call, L+L applied as dag(L) @ (L xi)."""
    xi = np.asarray(xi, dtype=complex)
    out = -1j * (gen.hamiltonian @ xi)
    for rate, op in gen.channels:
        l_xi = op @ xi
        exp_l = np.vdot(xi, l_xi)
        ll_xi = dag(op) @ l_xi
        exp_ll = np.vdot(xi, ll_xi).real
        out = out + rate * (np.conj(exp_l) * (l_xi - exp_l * xi)
                            - 0.5 * (ll_xi - exp_ll * xi))
    return out


def dft_kinetic(grid, m):
    """Spectral p^2/2m as the dense product F+ diag(k^2/2m) F, F the unitary
    DFT matrix: O(n^3) to build."""
    n = grid.size
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=grid[1] - grid[0])
    f = dft(n, scale="sqrtn")
    return herm_part(f.conj().T @ ((k**2)[:, None] / (2.0 * m) * f))


def riccati_width(m, gamma, temperature, width0, t):
    """Width of the Gaussian exp(-a x^2 + b x) under the monitored free
    particle's flow: da/dt = c1 - c2 a^2 with c1 = 2 gamma m T and
    c2 = 2i/m, solved by a = r tanh(kappa t + artanh(a0/r)), r = sqrt(c1/c2),
    kappa = sqrt(c1 c2); sigma^2 = 1/(4 Re a)."""
    c1, c2 = 2.0 * gamma * m * temperature, 2j / m
    r, kappa = cmath.sqrt(c1 / c2), cmath.sqrt(c1 * c2)
    a0 = 1.0 / (4.0 * width0**2)
    a = r * cmath.tanh(kappa * t + cmath.atanh(a0 / r))
    return 1.0 / (2.0 * math.sqrt(a.real))


class TestRobustStateFlow:
    def test_accepts_normalized(self):
        flow = RobustStateFlow(xi=np.array([1.0, 0.0], dtype=complex),
                               gen=dephasing_qubit(1.0), t=0.0)
        assert flow.t == 0.0

    def test_rejects_norm_drift(self):
        with pytest.raises(PhysicsError):
            RobustStateFlow(xi=np.array([1.0, 1e-4], dtype=complex),
                            gen=dephasing_qubit(1.0), t=0.0)

    @pytest.mark.parametrize("xi", BAD_STATES, ids=BAD_IDS)
    def test_rejects_nonfinite_and_unnormalized(self, xi):
        with pytest.raises(PhysicsError, match="drifted"):
            RobustStateFlow(xi=xi, gen=dephasing_qubit(1.0), t=0.0)


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

    def test_compiled_matches_per_call_route(self, rng):
        """The compiled derivative against the per-call one, on generators
        mixing a diagonal channel (one zero on its diagonal) with dense ones,
        one of which is nonzero off the diagonal in a single entry."""
        from conftest import random_hermitian, random_state
        for dim in (2, 3, 5, 16):
            d = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            d[dim // 2] = 0.0
            dense = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            corner = np.diag(rng.normal(size=dim)).astype(complex)
            corner[0, dim - 1] = 0.4 - 0.2j
            gen = LindbladGenerator(random_hermitian(rng, dim),
                                    ((0.7, np.diag(d)), (1.3, dense), (0.4, corner)))
            rhs = _flow_rhs(gen)
            for _ in range(3):
                xi = random_state(rng, dim)
                expected = per_call_rhs(xi, gen)
                scale = np.linalg.norm(expected)
                assert np.linalg.norm(rhs(xi) - expected) <= 1e-13 * scale
                assert np.array_equal(nonlinear_rhs(xi, gen), rhs(xi))

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

    @pytest.mark.parametrize("xi0", BAD_STATES, ids=BAD_IDS)
    def test_rejects_nonfinite_initial_state(self, xi0):
        """A NaN state once came back as the t = 0 snapshot."""
        with pytest.raises(PhysicsError, match="normalized"):
            evolve_robust(xi0, dephasing_qubit(1.0), 0.0)

    def test_generator_freed_without_cycle_collector(self):
        """Once the snapshots are dropped, nothing the integrator left
        behind, the compiled right-hand side included, keeps the generator
        or its matrices alive: one diagonal and one dense channel."""
        gen = LindbladGenerator(hamiltonian=0.7 * SX,
                                channels=((0.6, SZ.copy()), (0.2, SX.copy())))
        refs = [weakref.ref(gen), weakref.ref(gen.hamiltonian)]
        refs += [weakref.ref(op) for _, op in gen.channels]
        gc.disable()
        try:
            snaps = evolve_robust(bloch_state(1.1), gen, 1.5)
            assert len(snaps) > 2
            del snaps, gen
            assert [ref() for ref in refs] == [None] * len(refs)
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

    @pytest.mark.parametrize("m, gamma, temp", [(1.0, 1.0, 1.0), (2.0, 0.5, 1.5),
                                                (1.0, 1.0 / 8.0, 1.0)])
    def test_widths_follow_riccati_closed_form(self, m, gamma, temp):
        """A Gaussian stays Gaussian under the flow, its width following the
        Riccati solution at every accepted step. The grid spans +-30 sigma_0
        so the initial state's cut-off tail stays below the bar."""
        sigma0 = qbm_soliton_width(m, gamma, temp)
        grid = np.linspace(-30.0 * sigma0, 30.0 * sigma0, 256)
        gen = qbm_pointer_generator(m, gamma, temp, grid)
        xi0 = np.exp(-grid**2 / (4.0 * (2.0 * sigma0) ** 2)).astype(complex)
        xi0 /= np.linalg.norm(xi0)
        snaps = evolve_robust(xi0, gen, 2.0)
        assert snaps[-1].t == 2.0
        for snap in snaps:
            expected = riccati_width(m, gamma, temp, 2.0 * sigma0, snap.t)
            assert state_width(grid, snap.xi) == pytest.approx(expected, rel=1e-9)


class TestQbmPointerModel:
    @pytest.mark.parametrize("n", [256, 512])
    def test_kinetic_matches_dense_dft_product(self, n):
        grid = np.linspace(-10.0, 10.0, n)
        h = qbm_pointer_generator(1.0, 1.0 / 8.0, 1.0, grid).hamiltonian
        oracle = dft_kinetic(grid, 1.0)
        assert np.max(np.abs(h - oracle)) <= 1e-12 * np.max(np.abs(oracle))
        assert not np.any(h.imag)
        assert np.array_equal(h, h.T)
        assert np.array_equal(h, circulant(h[:, 0]))

    @pytest.mark.parametrize("n", [256, 512])
    def test_kinetic_is_the_scipy_circulant_bit_for_bit(self, n):
        """The index-arithmetic circulant equals scipy.linalg.circulant of the
        symmetrized column, the matrix the generator was built from before."""
        grid = np.linspace(-10.0, 10.0, n)
        h = qbm_pointer_generator(1.3, 1.0 / 8.0, 1.0, grid).hamiltonian
        k = 2.0 * math.pi * np.fft.fftfreq(n, d=grid[1] - grid[0])
        column = np.fft.ifft(k**2 / (2.0 * 1.3)).real
        assert np.array_equal(h, circulant(0.5 * (column + np.roll(column[::-1], 1))))

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
        # natural units of 1 J and 1 kg: a rate in 1/s times hbar and a
        # temperature in K times k_B; the unit of length is hbar metres
        via_natural = HBAR * qbm_soliton_width(1e-8, gamma * HBAR, 2.7 * K_B)
        assert via_natural == pytest.approx(width, rel=1e-12)

    @pytest.mark.parametrize("m, gamma, temp, si", [
        (3.6e-224, 1.0, 1.0, True),      # m^2 underflows to 0
        (1e300, 1e300, 1e300, True),     # 8 gamma m^2 T overflows; subnormal width
        (3.5e-161, 1.0, 1e20, False),    # 8 gamma m^2 subnormal, times T normal
        (1.0, 1.0, 1.0, False),
        (1e-3, 1e-2, 4.0, True),
    ])
    def test_width_against_mpmath_where_m_squared_leaves_the_range(self, m, gamma,
                                                                   temp, si):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            scale = mpmath.mpf(HBAR) ** 3 / mpmath.mpf(K_B) if si else 1
            want = float(mpmath.root(scale / (8 * mpmath.mpf(gamma) * mpmath.mpf(m) ** 2
                                              * mpmath.mpf(temp)), 4))
        got = qbm_soliton_width(m, gamma, temp, si=si)
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_width_outside_the_float_range_raises(self):
        with pytest.raises(PhysicsError, match="off the float range"):
            qbm_soliton_width(1e-320, 1e-320, 1e-320)
        with pytest.raises(PhysicsError, match="off the float range"):
            qbm_soliton_width(1e308, 1e308, 1e308, si=True)


class TestStateWidth:
    def test_recovers_gaussian_sigma(self):
        grid = np.linspace(-8.0, 8.0, 512)
        xi = np.exp(-grid**2 / (4.0 * 1.3**2))
        assert state_width(grid, xi) == pytest.approx(1.3, rel=1e-6)

    def test_rejects_zero_state(self):
        with pytest.raises(PhysicsError):
            state_width(np.linspace(-1, 1, 8), np.zeros(8))
