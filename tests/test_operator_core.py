import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from decolab import operator_core as oc
from decolab.errors import DimensionError, PhysicsError
from decolab.lindblad import LindbladGenerator
from decolab.trajectories import effective_hamiltonian

from conftest import random_density, random_generator, random_state, random_unitary


def test_vectorize_roundtrip_exact():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(oc.devectorize(oc.vectorize(a)), a)


def test_vectorize_is_column_stacking():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    # column stacking reads down the columns first
    assert np.array_equal(oc.vectorize(a), np.array([1, 3, 2, 4], dtype=complex))


def test_sandwich_identity():
    rng = np.random.default_rng(2)
    a, b, x = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
    lhs = oc.devectorize(oc.sandwich(a, b) @ oc.vectorize(x))
    assert np.max(np.abs(lhs - a @ x @ b)) < 1e-12
    lhs = oc.devectorize(oc.spre(a) @ oc.vectorize(x))
    assert np.max(np.abs(lhs - a @ x)) < 1e-12
    lhs = oc.devectorize(oc.spost(b) @ oc.vectorize(x))
    assert np.max(np.abs(lhs - x @ b)) < 1e-12


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        rho = random_density(rng, 2)
        sigma = random_density(rng, 3)
        out = oc.partial_trace(np.kron(rho, sigma), [2, 3], keep=0)
        assert np.max(np.abs(out - rho)) < 1e-12
        out = oc.partial_trace(np.kron(rho, sigma), [2, 3], keep=1)
        assert np.max(np.abs(out - sigma)) < 1e-12

    def test_bell_state_is_maximally_mixed(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        out = oc.partial_trace(rho, [2, 2], keep=1)
        assert np.max(np.abs(out - np.eye(2) / 2)) < 1e-12

    def test_post_scattering_coherence_factor(self):
        # 2-level system, environment qubit: S_tot = |0><0| x S0 + |1><1| x S1
        # with S0 = I, S1 = -I; brute-force 4x4 conjugation and trace.
        s0 = np.eye(2, dtype=complex)
        s1 = -np.eye(2, dtype=complex)
        s_tot = np.zeros((4, 4), dtype=complex)
        s_tot[:2, :2] = s0
        s_tot[2:, 2:] = s1
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        sys0 = np.outer(plus, plus.conj())
        env = np.outer(plus, plus.conj())
        rho_tot = s_tot @ np.kron(sys0, env) @ s_tot.conj().T
        out = oc.partial_trace(rho_tot, [2, 2], keep=0)
        overlap = plus.conj() @ (s0.conj().T @ s1) @ plus  # <psi|S0^dag S1|psi> = -1
        assert abs(out[0, 1] - sys0[0, 1] * np.conj(overlap)) < 1e-12
        assert abs(out[1, 0] - sys0[1, 0] * overlap) < 1e-12
        assert abs(out[0, 0] - sys0[0, 0]) < 1e-12

    def test_trace_preserving_and_positive(self, rng):
        for dims in ([2, 2], [2, 3]):
            for _ in range(50):
                rho = random_density(rng, int(np.prod(dims)))
                for keep in range(2):
                    out = oc.partial_trace(rho, dims, keep)
                    assert abs(out.trace() - 1.0) < 1e-12
                    assert np.linalg.eigvalsh(out).min() > -1e-12

    def test_three_subsystems(self, rng):
        rho = random_density(rng, 2)
        sigma = random_density(rng, 2)
        tau = random_density(rng, 3)
        full = np.kron(np.kron(rho, sigma), tau)
        out = oc.partial_trace(full, [2, 2, 3], keep=1)
        assert np.max(np.abs(out - sigma)) < 1e-12

    def test_dimension_mismatch_raises(self, rng):
        with pytest.raises(DimensionError):
            oc.partial_trace(np.eye(4) / 4, [2, 3], keep=0)
        with pytest.raises(DimensionError):
            oc.partial_trace(np.eye(4) / 4, [2, 2], keep=2)


def semigroup(superop, rho, t):
    """exp(t superop) rho through the propagator of K = i superop."""
    return oc.devectorize(oc.Propagator(1j * superop).apply(oc.vectorize(rho), t))


class TestExpmApply:
    """The semigroup exp(t L) applied to an operator by Propagator."""

    def test_zero_generator_is_identity(self, rng):
        rho = random_density(rng, 3)
        out = semigroup(np.zeros((9, 9)), rho, 2.7)
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_t_zero_exact(self, rng):
        rho = random_density(rng, 2)
        l = rng.normal(size=(4, 4))
        assert np.array_equal(semigroup(l, rho, 0.0), rho)

    def test_dephasing_closed_form(self):
        # qubit energy dephasing: rho_mn(t) = rho_mn(0) exp(-i(Em-En)t - (g/2)(Em-En)^2 t)
        e = np.array([0.0, 1.3])
        g = 0.7
        h = np.diag(e).astype(complex)
        l_op = np.sqrt(g) * h
        liou = (-1j * (oc.spre(h) - oc.spost(h))
                + oc.sandwich(l_op, l_op.conj().T)
                - 0.5 * oc.spre(l_op.conj().T @ l_op)
                - 0.5 * oc.spost(l_op.conj().T @ l_op))
        rho0 = np.array([[0.6, 0.5j], [-0.5j, 0.4]], dtype=complex)
        t = 0.9
        out = semigroup(liou, rho0, t)
        de = e[0] - e[1]
        expected01 = rho0[0, 1] * np.exp(-1j * de * t - 0.5 * g * de * de * t)
        assert abs(out[0, 1] - expected01) < 1e-10
        assert abs(out[0, 0] - rho0[0, 0]) < 1e-10

    def test_negative_time_rejected(self, rng):
        with pytest.raises(PhysicsError):
            semigroup(np.zeros((4, 4)), random_density(rng, 2), -1.0)

    def test_semigroup_law(self, rng):
        # random Lindblad-type generator, trace-preserving
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = 0.5 * (g + g.conj().T)
        l_op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        ldl = l_op.conj().T @ l_op
        liou = (-1j * (oc.spre(h) - oc.spost(h))
                + oc.sandwich(l_op, l_op.conj().T)
                - 0.5 * oc.spre(ldl) - 0.5 * oc.spost(ldl))
        rho = random_density(rng, 3)
        one = semigroup(liou, rho, 0.8 + 0.5)
        two = semigroup(liou, semigroup(liou, rho, 0.8), 0.5)
        assert np.max(np.abs(one - two)) < 1e-9


class TestPropagator:
    """One exp(-i t K) for every time-independent generator: the mode rule,
    agreement between modes, and refusal of a nonfinite K."""

    @staticmethod
    def force(monkeypatch, mode):
        if mode == "rk":
            monkeypatch.setattr(oc, "_EIG_COND_MAX", 0.0)

    @pytest.mark.parametrize("mode", ["eig", "rk"])
    def test_modes_match_scipy(self, rng, monkeypatch, mode):
        self.force(monkeypatch, mode)
        drift = effective_hamiltonian(random_generator(rng, 6))
        prop = oc.Propagator(drift)
        assert prop.mode == mode
        psi = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        for t in (0.9, 0.0, 0.3):
            want = expm(-1j * t * drift) @ psi
            np.testing.assert_allclose(prop.apply(psi, t), want, rtol=0, atol=1e-9)
            np.testing.assert_allclose(prop.apply(psi[:, 0], t), want[:, 0], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("mode", ["eig", "rk"])
    def test_states_zero_repeated_and_negative_times(self, rng, monkeypatch, mode):
        """A repeated time gives the same state twice and a time of 0 gives
        a copy of x. A negative, infinite or NaN time is PhysicsError, in
        either mode."""
        self.force(monkeypatch, mode)
        prop = oc.Propagator(effective_hamiltonian(random_generator(rng, 4)))
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert np.array_equal(prop.apply(psi, 0.5), prop.apply(psi, 0.5))
        zero = prop.apply(psi, 0.0)
        assert np.array_equal(zero, psi) and zero is not psi
        for bad in (-0.1, np.inf, np.nan):
            with pytest.raises(PhysicsError, match="nonnegative"):
                prop.apply(psi, bad)

    def test_vector_apply_is_one_column_apply(self, rng):
        """Eig mode contracts a vector directly, with no reshape to a column;
        the result is the one-column matrix result bit for bit."""
        for dim in range(2, 71, 4):
            prop = oc.Propagator(effective_hamiltonian(random_generator(rng, dim, 1)))
            assert prop.mode == "eig"
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            for t in (0.05, 0.7, 3.0):
                assert np.array_equal(prop.apply(psi, t), prop.apply(psi[:, None], t)[:, 0])

    def test_eig_segment_states_are_apply_bit_for_bit(self, rng):
        """An eig-mode segment forms c = V^-1 x once. Its end state and
        every state `at` a time equal `apply(x, t)` bit for bit, and so do
        the bracket's and every probe's survival, whatever order the times
        come in; a probe's rate of loss is <y|i(K - K†)|y>."""
        for dim in range(2, 71, 4):
            drift = effective_hamiltonian(random_generator(rng, dim, 1))
            prop = oc.Propagator(drift)
            assert prop.mode == "eig"
            loss = 1j * (drift - drift.conj().T)
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            seg = prop.segment(psi)
            lo, hi, s_lo, s_hi = seg.bracket(0.5, 2.5)
            want = prop.apply(psi, 2.5)
            assert (lo, hi, s_lo) == (0.0, 2.5, float(np.vdot(psi, psi).real))
            assert np.array_equal(seg.at(2.5), want) and s_hi == float(np.vdot(want, want).real)
            for t in rng.permutation(np.concatenate([rng.uniform(0.0, 2.5, 8), [2.5]])):
                want = prop.apply(psi, t)
                s, rate = seg.probe(t)
                assert np.array_equal(seg.at(t), want)
                assert s == float(np.vdot(want, want).real)
                assert rate == pytest.approx(np.vdot(want, loss @ want).real, rel=1e-9)

    def test_rk_segment_stops_at_the_crossing(self, rng, monkeypatch):
        """An rk-mode segment's bracket leaves its one `march` at the first
        accepted step whose |y|^2 is at or below the level, and probes march
        from the step before; without a crossing it ends on the survival of
        the state `apply` forms, bit for bit."""
        self.force(monkeypatch, "rk")
        drift = effective_hamiltonian(random_generator(rng, 6))
        prop = oc.Propagator(drift)
        assert prop.mode == "rk"
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi /= np.linalg.norm(psi)
        steps, march = [], oc.march

        def recording(fun, y0, ts, *args):
            for t, y in march(fun, y0, ts, *args):
                steps.append(t)
                yield t, y

        monkeypatch.setattr(oc, "march", recording)
        lo, hi, s_lo, s_end = prop.segment(psi).bracket(0.0, 4.0)
        end = prop.apply(psi, 4.0)
        assert hi == 4.0 and s_end > 0.0 and s_end == float(np.vdot(end, end).real)
        level = 0.5 * (1.0 + s_end)
        steps.clear()
        seg = prop.segment(psi)
        lo, hi, s_lo, s_hi = seg.bracket(level, 4.0)
        assert steps[-2:] == [lo, hi] and hi < 4.0
        assert s_lo > level >= s_hi
        steps.clear()
        np.testing.assert_allclose(seg.at(lo), expm(-1j * lo * drift) @ psi, rtol=0, atol=1e-9)
        assert steps == []
        for t in (lo, 0.5 * (lo + hi), hi):
            s, rate = seg.probe(t)
            y = seg.at(t)
            want = expm(-1j * t * drift) @ psi
            np.testing.assert_allclose(y, want, rtol=0, atol=1e-9)
            assert s == float(np.vdot(y, y).real)
            assert rate == pytest.approx(
                np.vdot(want, 1j * (drift - drift.conj().T) @ want).real, rel=1e-8)

    def test_derivative_route(self, rng):
        drift = effective_hamiltonian(random_generator(rng, 4))
        prop = oc.Propagator(derivative=lambda y: -1j * drift @ y)
        assert prop.mode == "rk"
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        np.testing.assert_allclose(prop.apply(psi, 0.7), expm(-0.7j * drift) @ psi,
                                   rtol=0, atol=1e-9)

    @pytest.mark.parametrize("mode", ["eig", "rk"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_generator_raises(self, monkeypatch, mode, bad):
        self.force(monkeypatch, mode)
        k = np.eye(3, dtype=complex)
        k[0, 2] = bad
        with pytest.raises(PhysicsError, match="non-finite"):
            oc.Propagator(k)

    def test_only_operator_core_reaches_the_kernels(self):
        """Every other module steps through Propagator or `march`, so
        _DormandPrince is bound in operator_core alone. The deleted Pade
        exponential _expm is neither defined nor bound anywhere."""
        binds = {"_expm": set(), "_DormandPrince": set()}
        for path in pathlib.Path(oc.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                name = getattr(node, "id", None) or getattr(node, "attr", None) \
                    or getattr(node, "name", None)
                if name in binds:
                    binds[name].add(path.stem)
        assert binds == {"_expm": set(), "_DormandPrince": {"operator_core"}}


def traject_qubit(omega, gamma=1.0):
    """The `traject` scenario's generator: drive omega sigma_x and decay of
    |0> into |1> at gamma, one rank-one channel."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    return LindbladGenerator(omega * sx, ((gamma, np.array([[0, 0], [1, 0]], dtype=complex)),))


class TestLaw:
    """`Propagator.law` alone decides whether a stretch is a survival law:
    None where its Gram-form sum would miss a segment's bars or cost more,
    a law otherwise. The three driven-qubit routes of `traject` are pinned
    here: rk mode at omega = gamma/4, a segment at eigenvector cond 22
    (omega = 0.251 gamma), a law at omega = gamma."""

    BRAS = np.array([[1.0, 0.0]], dtype=complex)

    def test_none_in_rk_mode(self):
        prop = oc.Propagator(effective_hamiltonian(traject_qubit(0.25)))
        assert prop.mode == "rk" and prop.cond > oc._EIG_COND_MAX
        assert prop.law(np.array([0.0, 1.0]), self.BRAS) is None
        assert oc.Propagator(derivative=lambda y: -y).law(np.ones(2), self.BRAS) is None

    def test_none_above_the_cond_bound(self):
        prop = oc.Propagator(effective_hamiltonian(traject_qubit(0.251)))
        assert prop.mode == "eig" and 22.0 < prop.cond < 23.0
        assert prop.cond > oc._LAW_COND_MAX
        assert prop.law(np.array([0.0, 1.0]), self.BRAS) is None

    def test_none_above_order_five(self):
        """A rank-one channel at dimension 6 with well-conditioned
        eigenvectors: only the order bound refuses the law."""
        rng = np.random.default_rng(6)
        a, b = random_state(rng, 6), random_state(rng, 6)
        gen = LindbladGenerator(np.diag(rng.normal(size=6)), ((1.0, np.outer(a, b.conj())),))
        prop = oc.Propagator(effective_hamiltonian(gen))
        assert prop.mode == "eig" and prop.cond <= oc._LAW_COND_MAX and prop.n == 6
        assert prop.n > oc._LAW_MAX_DIM
        assert prop.law(a, b.conj()[None, :]) is None

    def test_law_at_omega_equal_gamma(self):
        """At omega = gamma (cond 1.29) a law is built; its survival and
        rate of loss hold the segment's to 1e-14, its bracket has the
        segment's shape, and a state of another shape is DimensionError."""
        prop = oc.Propagator(effective_hamiltonian(traject_qubit(1.0)))
        assert prop.mode == "eig" and prop.cond == pytest.approx(1.29, abs=0.01)
        ket1 = np.array([0.0, 1.0], dtype=complex)
        law, seg = prop.law(ket1, self.BRAS), prop.segment(ket1)
        assert isinstance(law, oc._SurvivalLaw)
        for t in (0.0, 0.3, 2.0, 7.5):
            assert law.probe(t) == pytest.approx(seg.probe(t), rel=1e-14, abs=1e-16)
            assert np.array_equal(law.at(t), seg.at(t))
        lo, hi, s_lo, s_hi = law.bracket(0.5, 3.0)
        assert 0.0 <= lo < hi <= 3.0 and s_lo > 0.5 >= s_hi
        with pytest.raises(DimensionError, match="for K of order 2"):
            prop.law(np.ones(3), self.BRAS)


class TestMetrics:
    def test_trace_distance_self_is_zero(self, rng):
        rho = random_density(rng, 4)
        assert oc.trace_distance(rho, rho) == 0.0

    def test_trace_distance_orthogonal_pure(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        assert abs(oc.trace_distance(zero, one) - 1.0) < 1e-14

    def test_fidelity_frozen_overlap(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        assert abs(oc.fidelity(zero, plus) - 0.5) < 1e-12

    def test_fidelity_symmetric_and_normalized(self, rng):
        rho = random_density(rng, 3)
        sigma = random_density(rng, 3)
        assert abs(oc.fidelity(rho, sigma) - oc.fidelity(sigma, rho)) < 1e-10
        assert abs(oc.fidelity(rho, rho) - 1.0) < 1e-10
        assert 0.0 <= oc.fidelity(rho, sigma) <= 1.0

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            oc.trace_distance(random_density(rng, 2), random_density(rng, 3))


class TestDensityValidation:
    def test_valid_passes(self, rng):
        rho = random_density(rng, 3)
        assert oc.check_density(rho) is rho

    def test_nonhermitian_fails(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(PhysicsError):
            oc.check_density(bad)

    def test_trace_fails(self):
        with pytest.raises(PhysicsError):
            oc.check_density(np.eye(2, dtype=complex))

    def test_negative_eigenvalue_fails(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(PhysicsError):
            oc.check_density(bad)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5))
def test_unitary_conjugation_preserves_metrics(seed, dim):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, dim)
    sigma = random_density(rng, dim)
    u = random_unitary(rng, dim)
    urho = u @ rho @ u.conj().T
    usigma = u @ sigma @ u.conj().T
    assert abs(oc.trace_distance(rho, sigma) - oc.trace_distance(urho, usigma)) < 1e-9
    assert abs(oc.fidelity(rho, sigma) - oc.fidelity(urho, usigma)) < 1e-9
