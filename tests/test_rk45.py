"""The package's Dormand-Prince 5(4) stepping loop, `march`, against
scipy's RK45, its oracle: accepted t, y and next trial step agree bit for
bit, step by step, for the pointer flow (renormalized through `after_step`
with the FSAL derivative kept, six right-hand sides per trial step) and for
plain cases that reject steps, cap the step, run real-valued and clip the
last step. `lindblad.evolve` and the rk-mode no-jump propagation match
`solve_ivp` end states bit for bit, and a multi-stop `march` is one scipy
RK45 run whose end is moved through the sorted stops. The states `march`
yields and the `evolve_robust` snapshots keep their bytes after the run and
share no memory with each other or with the stepper's buffers. Failure paths: a
right-hand side that turns NaN ends in step-size underflow with t and the
step in the message; invalid tolerances, step caps and ends raise
PhysicsError."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import RK45, solve_ivp

from decolab import lindblad, operator_core, pointer_states, trajectories
from decolab.errors import PhysicsError, QuadratureError
from decolab.lindblad import (
    CoherentStateSpec,
    apply_generator,
    coherent_state,
    coherent_vector,
    damped_oscillator_generator,
    evolve,
)
from decolab.operator_core import Propagator, _DormandPrince, march
from decolab.pointer_states import (
    _flow_rhs,
    evolve_robust,
    qbm_pointer_particle,
    qbm_soliton_width,
)
from decolab.trajectories import effective_hamiltonian, no_jump_propagate

UNDERFLOW = re.compile(r"at t = \S+: step \S+ under 10 ulp\(t\)")


class Counted:
    """Right-hand side that counts its calls and, from call `nan_after` on,
    returns NaN."""

    def __init__(self, fun, nan_after=math.inf):
        self.fun, self.nan_after, self.calls = fun, nan_after, 0

    def __call__(self, *args):
        self.calls += 1
        out = self.fun(*args)
        return out * np.nan if self.calls > self.nan_after else out


def oracle_steps(fun, y0, t_bound, rtol, atol, renormalize=False):
    """(t, y, next trial step) after each accepted step of scipy's RK45;
    `renormalize` divides solver.y by its norm in place and keeps solver.f."""
    solver = RK45(lambda _, y: fun(y), 0.0, y0, t_bound, rtol=rtol, atol=atol)
    out = []
    while solver.status == "running":
        assert solver.step() is None
        if renormalize:
            solver.y /= np.linalg.norm(solver.y)
        out.append((solver.t, solver.y.copy(), solver.h_abs))
    return out


def renormalized(y):
    return np.divide(y, np.linalg.norm(y), out=y)


def stepper_steps(fun, y0, t_bound, rtol, atol, renormalize=False):
    """(t, y, next trial step) after each accepted step of `march` to
    t_bound, renormalizing through `after_step`, which keeps the FSAL
    derivative. The trial step is read from a stepper subclass that notes
    it after every accepted step."""
    trials = []

    class Noting(_DormandPrince):
        def step(self):
            super().step()
            trials.append(self.h_abs)

    after = renormalized if renormalize else None
    with mock.patch.object(operator_core, "_DormandPrince", Noting):
        steps = [(t, y.copy()) for t, y in march(fun, y0, [t_bound], rtol, atol, after)]
    assert len(trials) == len(steps)
    return [(t, y, h) for (t, y), h in zip(steps, trials)]


def assert_bitwise(ours, oracle):
    assert len(ours) == len(oracle)
    for (t, y, h), (t_o, y_o, h_o) in zip(ours, oracle):
        assert np.float64(t).tobytes() == np.float64(t_o).tobytes()
        assert np.float64(h).tobytes() == np.float64(h_o).tobytes()
        assert y.dtype == y_o.dtype and y.tobytes() == y_o.tobytes()


def rejections(fun: Counted, accepted):
    """Rejected trials: two calls for the first step, six per trial (FSAL)."""
    return (fun.calls - 2) // 6 - accepted


def van_der_pol(y, mu=5.0):
    return np.array([y[1], mu * (1.0 - y[0] ** 2) * y[1] - y[0]])


def complex_van_der_pol(z, mu=5.0):
    """The same oscillator with (x, v) packed as x + i v per component."""
    x, v = z.real, z.imag
    return v + 1j * (mu * (1.0 - x ** 2) * v - x)


def pointer_case(t_max=0.1):
    sigma0 = qbm_soliton_width(1.0, 1.0, 1.0)
    grid = np.linspace(-10.0 * sigma0, 10.0 * sigma0, 256)
    gen = qbm_pointer_particle(1.0, 1.0, 1.0, grid)
    xi0 = np.exp(-grid ** 2 / (16.0 * sigma0 ** 2)).astype(complex)
    return gen, xi0 / np.linalg.norm(xi0), t_max


class TestAgainstScipyRK45:
    def test_pointer_flow_renormalized_with_fsal_kept(self):
        gen, xi0, t_max = pointer_case()
        rhs = Counted(_flow_rhs(gen))
        ours = stepper_steps(rhs, xi0, t_max, 1e-8, 1e-10, renormalize=True)
        assert len(ours) > 100 and rejections(rhs, len(ours)) >= 1
        oracle = oracle_steps(_flow_rhs(gen), xi0, t_max, 1e-8, 1e-10, renormalize=True)
        assert_bitwise(ours, oracle)
        # evolve_robust is this loop: its snapshots are the oracle's states
        snaps = evolve_robust(xi0, gen, t_max)[1:]
        assert [s.t for s in snaps] == [t for t, _, _ in oracle]
        assert all(s.xi.tobytes() == y.tobytes() for s, (_, y, _) in zip(snaps, oracle))

    def test_pointer_flow_makes_six_calls_per_trial(self, monkeypatch):
        """`evolve_robust` evaluates the flow twice to start and six times
        per trial step, accepted or rejected: the renormalization costs no
        call. The trial count is scipy's on the same flow."""
        compiled, counted = pointer_states._flow_rhs, []

        def counting(gen):
            counted.append(Counted(compiled(gen)))
            return counted[-1]
        monkeypatch.setattr(pointer_states, "_flow_rhs", counting)
        gen, xi0, t_max = pointer_case()
        accepted = len(evolve_robust(xi0, gen, t_max)) - 1
        oracle = Counted(compiled(gen))
        assert len(oracle_steps(oracle, xi0, t_max, 1e-8, 1e-10, renormalize=True)) == accepted
        (rhs,) = counted
        rejected = rejections(rhs, accepted)
        assert rejected >= 1 and rhs.calls == 2 + 6 * (accepted + rejected) == oracle.calls

    def test_rejected_steps(self):
        fun = Counted(complex_van_der_pol)
        y0 = np.array([2.0 + 0.0j, 0.5 + 0.1j])
        ours = stepper_steps(fun, y0, 6.0, 1e-6, 1e-9)
        assert rejections(fun, len(ours)) >= 10
        assert_bitwise(ours, oracle_steps(complex_van_der_pol, y0, 6.0, 1e-6, 1e-9))

    def test_real_valued(self):
        fun = Counted(van_der_pol)
        y0 = np.array([2.0, 0.0])
        ours = stepper_steps(fun, y0, 6.0, 1e-6, 1e-9)
        assert ours[-1][1].dtype == np.float64 and rejections(fun, len(ours)) >= 10
        assert_bitwise(ours, oracle_steps(van_der_pol, y0, 6.0, 1e-6, 1e-9))

    def test_last_step_clipped_at_bound(self):
        def fun(y):
            return -y
        y0 = np.array([1.0, -0.5])
        ours = stepper_steps(fun, y0, 1.2345, 1e-8, 1e-10)
        (t_prev, _, h_prev), (t_end, _, _) = ours[-2:]
        assert t_end == 1.2345 and t_end - t_prev < 0.5 * h_prev
        assert_bitwise(ours, oracle_steps(fun, y0, 1.2345, 1e-8, 1e-10))

    def test_tiny_rtol_raised_like_scipy(self):
        def fun(y):
            return -y
        y0 = np.array([1.0])
        stepper = _DormandPrince(fun, y0, 0.1, 1e-20, 1e-30)
        assert stepper.rtol == 100 * np.finfo(float).eps
        with pytest.warns(UserWarning, match="rtol"):
            oracle = oracle_steps(fun, y0, 0.1, 1e-20, 1e-30)
        assert_bitwise(stepper_steps(fun, y0, 0.1, 1e-20, 1e-30), oracle)


class TestYieldedStates:
    """The stepper forms its stage states, error estimate and scale in
    arrays it reuses from step to step; every state `march` yields is its
    own. After the run each yielded (t, y) keeps the bytes it had when it
    was yielded, and no yielded array shares memory with another one or
    with any array the stepper holds but its current state."""

    @pytest.fixture
    def steppers(self, monkeypatch):
        made = []

        class Kept(_DormandPrince):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(operator_core, "_DormandPrince", Kept)
        return made

    @staticmethod
    def assert_apart(states, stepper):
        held = [a for name, a in vars(stepper).items()
                if isinstance(a, np.ndarray) and name != "y"]
        assert len(held) > 1 and stepper.y is states[-1]
        for i, y in enumerate(states):
            assert not any(np.shares_memory(y, a) for a in held)
            assert not any(np.shares_memory(y, z) for z in states[i + 1:])

    @pytest.mark.parametrize("case", ["pointer", "real", "rejecting"])
    def test_march_states_are_kept(self, steppers, case):
        if case == "pointer":
            gen, y0, t_bound = pointer_case()
            fun, rtol, atol, after = Counted(_flow_rhs(gen)), 1e-8, 1e-10, renormalized
        else:
            fun = Counted(van_der_pol if case == "real" else complex_van_der_pol)
            y0 = np.array([2.0, 0.0]) if case == "real" else np.array([2.0 + 0.0j, 0.5 + 0.1j])
            t_bound, rtol, atol, after = 6.0, 1e-6, 1e-9, None
        seen = [(t, y, y.tobytes()) for t, y in march(fun, y0, [t_bound], rtol, atol, after)]
        assert len(seen) > 50 and rejections(fun, len(seen)) >= 1
        assert seen[-1][1].dtype == (np.float64 if case == "real" else np.complex128)
        assert all(y.tobytes() == kept for _, y, kept in seen)
        (stepper,) = steppers
        self.assert_apart([y for _, y, _ in seen], stepper)

    def test_evolve_robust_snapshots_are_kept(self, steppers):
        """Snapshots hold the states a `march` of the same flow yields, with
        the bytes they had when yielded."""
        gen, xi0, t_max = pointer_case()
        seen = [(t, y.tobytes()) for t, y in march(_flow_rhs(gen), xi0, [t_max], 1e-8,
                                                    1e-10, renormalized)]
        snaps = evolve_robust(xi0, gen, t_max)
        assert [(s.t, s.xi.tobytes()) for s in snaps[1:]] == seen
        _, stepper = steppers
        self.assert_apart([s.xi for s in snaps], stepper)


class TestEndStates:
    def test_lindblad_evolve_dim_14(self):
        """Above dim 12 `evolve` steps the matrix-form generator; its end
        state is solve_ivp's, bit for bit, in the route it replaced."""
        gen = damped_oscillator_generator(1.0, 0.5, 14)
        rho0 = coherent_state(CoherentStateSpec(1.2 + 0.3j, 14))
        d, t = 14, 0.8
        sol = solve_ivp(lambda _, y: apply_generator(gen, y.reshape(d, d)).ravel(),
                        (0.0, t), rho0.ravel().astype(complex),
                        method="RK45", rtol=1e-9, atol=1e-12)
        assert sol.success and sol.t.size > 10
        want = sol.y[:, -1].reshape(d, d)
        assert evolve(gen, rho0, t).tobytes() == want.tobytes()

    def test_rk_mode_no_jump_propagation_dim_70(self, monkeypatch):
        monkeypatch.setattr(operator_core, "_EIG_COND_MAX", 0.0)
        gen = damped_oscillator_generator(1.0, 0.3, 70)
        h_c = effective_hamiltonian(gen)
        assert Propagator(h_c).mode == "rk"
        psi = coherent_vector(CoherentStateSpec(2.0, 70))
        sol = solve_ivp(lambda _, y: -1j * (h_c @ y.reshape(70, -1)).ravel(),
                        (0.0, 0.5), psi, method="RK45", rtol=1e-10, atol=1e-13)
        assert sol.success and sol.t.size > 100
        assert no_jump_propagate(psi, gen, 0.5).tobytes() == sol.y[:, -1].tobytes()

    def test_rk_mode_states_are_one_run_dim_70(self):
        """A multi-stop `march` is one RK45 run from 0: each stop ends an
        accepted step once t_bound is moved to it, and every step is bit for
        bit scipy's RK45 continued the same way."""
        h_c = effective_hamiltonian(damped_oscillator_generator(1.0, 0.3, 70))

        def fun(y):
            return -1j * (h_c @ y.reshape(70, -1)).ravel()

        psi = coherent_vector(CoherentStateSpec(2.0, 70))
        stops = [0.05, 0.125, 0.3, 0.5]
        solver = RK45(lambda _, y: fun(y), 0.0, psi, stops[-1], rtol=1e-10, atol=1e-13)
        want = []
        for t in stops:
            solver.t_bound, solver.status = t, "running"
            while solver.status == "running":
                assert solver.step() is None
                want.append((solver.t, solver.y.copy()))
        assert len(want) > 50
        got = [(t, y.copy()) for t, y in march(fun, psi, stops, 1e-10, 1e-13)]
        assert [t for t, _ in got] == [t for t, _ in want]
        assert set(stops) <= {t for t, _ in got}
        assert np.array([y for _, y in got]).tobytes() == np.array([y for _, y in want]).tobytes()


class TestFailurePaths:
    """The right-hand sides here turn NaN on purpose, so the tests that step
    on past it silence numpy's invalid-value warning with np.errstate around
    the stepping alone; pytest's `error::RuntimeWarning` setting holds for
    the rest of each test."""

    def test_nan_from_the_start_fails_at_zero(self):
        steps = march(Counted(lambda y: -y, nan_after=0), np.ones(2), [1.0], 1e-8, 1e-10)
        with pytest.raises(QuadratureError, match=r"at t = 0\.0: step nan") as err:
            next(steps)
        assert math.isnan(err.value.estimate)

    def test_nan_midway_shrinks_the_step_to_underflow(self):
        fun = Counted(lambda y: -y, nan_after=40)
        reached = [0.0]
        with pytest.raises(QuadratureError, match=UNDERFLOW) as err:
            for t, _ in march(fun, np.ones(2), [10.0], 1e-8, 1e-10):
                reached.append(t)
        assert 0.0 < reached[-1] < 10.0 and math.isnan(err.value.estimate)
        t = float(re.search(r"at t = (\S+):", str(err.value)).group(1))
        step = float(re.search(r": step (\S+) under", str(err.value)).group(1))
        assert t == reached[-1] and 0.0 < step < 10 * math.ulp(t)

    def test_evolve_robust_raises_quadrature_error(self, monkeypatch):
        compiled = pointer_states._flow_rhs
        monkeypatch.setattr(pointer_states, "_flow_rhs",
                            lambda gen: Counted(compiled(gen), nan_after=30))
        gen, xi0, _ = pointer_case()
        with pytest.raises(QuadratureError, match=UNDERFLOW), np.errstate(invalid="ignore"):
            evolve_robust(xi0, gen, 0.5)

    def test_lindblad_evolve_raises_physics_error(self, monkeypatch):
        monkeypatch.setattr(lindblad, "_DENSE_DIM_MAX", 0)
        monkeypatch.setattr(lindblad, "apply_generator",
                            Counted(apply_generator, nan_after=30))
        gen = damped_oscillator_generator(1.0, 0.5, 6)
        with pytest.raises(PhysicsError, match=UNDERFLOW), np.errstate(invalid="ignore"):
            evolve(gen, coherent_state(CoherentStateSpec(0.5, 6)), 2.0)

    def test_rk_mode_raises_physics_error(self, monkeypatch):
        def nan_drift(gen):
            h_c = effective_hamiltonian(gen)
            h_c[0, 0] = np.nan
            return h_c
        monkeypatch.setattr(trajectories, "effective_hamiltonian", nan_drift)
        gen = damped_oscillator_generator(1.0, 0.3, 70)
        psi = coherent_vector(CoherentStateSpec(2.0, 70))
        # refused when the propagator is built, before any RK45 step
        with pytest.raises(PhysicsError, match="non-finite"):
            no_jump_propagate(psi, gen, 0.5)


class TestArguments:
    """Invalid arguments fail as PhysicsError where scipy raised a bare
    ValueError."""

    @pytest.mark.parametrize("t_bound", [math.inf, math.nan, 0.0, -1.0])
    def test_end_not_positive_and_finite(self, t_bound):
        """An infinite end once gave an infinite step, a NaN error norm and
        a march that never returned."""
        with pytest.raises(PhysicsError, match="must be positive and finite"):
            next(march(lambda y: -y, np.ones(2), [t_bound], 1e-8, 1e-10))

    @pytest.mark.parametrize("atol", [-1e-10, -1.0])
    def test_negative_atol(self, atol):
        with pytest.raises(PhysicsError, match="atol"):
            next(march(lambda y: -y, np.ones(2), [1.0], 1e-8, atol))

    def test_tiny_rtol_is_raised(self):
        """rtol = 1e-300 steps the renormalized pointer flow exactly as
        rtol = 100 eps does, and reaches the end."""
        gen, xi0, _ = pointer_case()
        fun = pointer_states._flow_rhs(gen)
        tiny = stepper_steps(fun, xi0, 1e-3, 1e-300, 1e-10, renormalize=True)
        assert len(tiny) >= 2 and tiny[-1][0] == 1e-3
        assert_bitwise(tiny, stepper_steps(fun, xi0, 1e-3, 100 * np.finfo(float).eps,
                                           1e-10, renormalize=True))
