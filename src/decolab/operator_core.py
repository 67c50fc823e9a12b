"""Dense linear-algebra substrate for finite-dimensional open quantum systems.

Everything operates on plain complex numpy arrays. Density operators are
hermitian, unit-trace, positive matrices; :func:`check_density` enforces this
at the module tolerances. Superoperators are (d*d, d*d) matrices acting on
column-stacked operators, see :func:`vectorize`.

Natural units hbar = k_B = 1 are assumed throughout the package; conversion
to and from SI happens only at the CLI boundary.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left

import numpy as np

from .errors import DimensionError, PhysicsError, QuadratureError

# Double-precision dense algebra at dims up to a few hundred.
TAU_HERM = 1e-10
TAU_TRACE = 1e-10
TAU_POS = 1e-8


def as_operator(a) -> np.ndarray:
    """Coerce to a finite square complex matrix."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise PhysicsError("operator has non-finite entries")
    return a


def dag(a) -> np.ndarray:
    return np.asarray(a).conj().T


def herm_part(a) -> np.ndarray:
    return 0.5 * (a + dag(a))


def check_density(rho) -> np.ndarray:
    """Validate a density operator and return it unchanged.

    Raises PhysicsError if hermiticity (TAU_HERM), unit trace (TAU_TRACE),
    or positivity (smallest eigenvalue >= -TAU_POS) fails.
    """
    rho = as_operator(rho)
    herm_defect = np.max(np.abs(rho - dag(rho)))
    if herm_defect > TAU_HERM:
        raise PhysicsError(f"not hermitian: defect {herm_defect:.2e} > {TAU_HERM:.0e}")
    tr_defect = abs(rho.trace() - 1.0)
    if tr_defect > TAU_TRACE:
        raise PhysicsError(f"trace off unity by {tr_defect:.2e} > {TAU_TRACE:.0e}")
    wmin = np.linalg.eigvalsh(herm_part(rho)).min()
    if wmin < -TAU_POS:
        raise PhysicsError(f"negative eigenvalue {wmin:.2e} below -{TAU_POS:.0e}")
    return rho


# -- column-stacking vectorization --------------------------------------------
#
# vec(A X B) = (B.T kron A) vec(X) under column stacking; spre/spost/sandwich
# below encode exactly that identity.

def vectorize(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    return a.reshape(-1, order="F")


def devectorize(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    dim = int(round(np.sqrt(v.size)))
    if dim * dim != v.size:
        raise DimensionError(f"vector of length {v.size} is not dim^2")
    return v.reshape(dim, dim, order="F")


def spre(a) -> np.ndarray:
    """Superoperator for X -> A X."""
    a = as_operator(a)
    return np.kron(np.eye(a.shape[0]), a)


def spost(b) -> np.ndarray:
    """Superoperator for X -> X B."""
    b = as_operator(b)
    return np.kron(b.T, np.eye(b.shape[0]))


def sandwich(a, b) -> np.ndarray:
    """Superoperator for X -> A X B."""
    a = as_operator(a)
    b = as_operator(b)
    return np.kron(b.T, a)


# -- core operations -----------------------------------------------------------

def partial_trace(rho_tot, dims, keep) -> np.ndarray:
    """Trace out all subsystems except ``keep``.

    Parameters
    ----------
    rho_tot : square matrix on the tensor-product space
    dims : ordered subsystem dimensions, product must match rho_tot
    keep : index into ``dims`` of the subsystem to keep
    """
    rho_tot = as_operator(rho_tot)
    dims = [int(d) for d in dims]
    if any(d <= 0 for d in dims):
        raise DimensionError(f"nonpositive subsystem dimension in {dims}")
    total = int(np.prod(dims))
    if total != rho_tot.shape[0]:
        raise DimensionError(
            f"dims {dims} give total {total}, matrix has dimension {rho_tot.shape[0]}")
    n = len(dims)
    if not 0 <= keep < n:
        raise DimensionError(f"keep={keep} out of range for {n} subsystems")
    t = rho_tot.reshape(dims + dims)
    row = list(range(n))
    col = list(range(n))
    col[keep] = n  # distinct output label; all other axes contract pairwise
    return np.einsum(t, row + col, [keep, n])


# Propagator modes: an eigenbasis with cond < _EIG_COND_MAX costs O(n^2) per
# t; without one, RK45 steps y -> -i K y
_EIG_COND_MAX = 1e8
# a survival law tabulates |y|^2 at this many evenly spaced times, down to
# 2**-53, the smallest nonzero level numpy's `Generator.random` draws
_LAW_NODES = 257
_LAW_FLOOR = 2.0 ** -53
# a survival law sums n(n+1)/2 exponentials per probe on Python floats; from
# order 6 on, a segment's one numpy product per probe was cheaper per click
_LAW_MAX_DIM = 5
# a survival law's terms are of size cond(V)^2 for the eigenvectors V and
# cancel to at most 1, so it rounds to about eps cond^2 where a segment's
# |y|^2 rounds to eps cond: up to cond 4 that stays within 16 ulps. Near the
# driven qubit's exceptional point (cond 22 at omega = 0.251 gamma) click
# times would leave the segment loop's by 5e-11 relative
_LAW_COND_MAX = 4.0


# -- adaptive Dormand-Prince 5(4) ------------------------------------------------
#
# Tableau of Dormand & Prince, J. Comput. Appl. Math. 6, 19 (1980), with the
# step control of scipy's RK45 (the test oracle): the same floating-point
# operations in the same order, so accepted steps agree bit for bit. The
# right-hand sides here are autonomous, so the nodes c_i never enter.

_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
# the stage rows a[s, :s], B and E in each state dtype, cast once here rather
# than by np.dot on every stage: the cast values are the ones np.dot forms
_DP_TABLEAU = {dtype: ([_DP_A[s, :s].astype(dtype) for s in range(6)],
                       _DP_B.astype(dtype), _DP_E.astype(dtype))
               for dtype in (np.dtype(float), np.dtype(complex))}
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5
_RTOL_MIN = 100 * np.finfo(float).eps


def vector_norm(x) -> float:
    """np.linalg.norm of a 1-d array by its own operations, Re.Re + Im.Im
    then the square root, without its per-call dispatch: the same bits."""
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def _rms(x) -> float:
    return vector_norm(x) / x.size ** 0.5


class _DormandPrince:
    """Adaptive explicit RK45 for the autonomous dy/dt = fun(y) on [0, t_bound],
    driven by `march` alone: `step` makes one accepted step to `t`, a new
    array `y` that no later step writes, `f` = fun(y) and the next trial
    step `h_abs`. Stage states, the error estimate and its scale are formed
    in buffers of the stepper, never handed out. rtol below 100 eps is
    raised to 100 eps. Nothing held refers back to it, so reference
    counting frees it once dropped."""

    def __init__(self, fun, y0, t_bound, rtol, atol):
        if not 0 < t_bound < math.inf:
            raise PhysicsError(f"integration end {t_bound!r} must be positive and finite")
        if atol < 0:
            raise PhysicsError(f"atol {atol!r} must be nonnegative")
        y0 = np.asarray(y0)
        self.y = y0.astype(complex if np.iscomplexobj(y0) else float, copy=False)
        if self.y.ndim != 1 or not np.all(np.isfinite(self.y)):
            raise PhysicsError("initial state must be a finite 1-d array")
        self.fun, self.t_bound = fun, float(t_bound)
        self.rtol, self.atol = max(rtol, _RTOL_MIN), atol
        self.t = 0.0
        self.f = fun(self.y)
        self.h_abs = self._initial_step()
        n, dtype = self.y.size, self.y.dtype
        self._k = np.empty((7, n), dtype=dtype)
        self._stage, self._err = np.empty(n, dtype=dtype), np.empty(n, dtype=dtype)
        self._scale, self._abs = np.empty(n), np.empty(n)
        self._tableau = _DP_TABLEAU[dtype]

    def _initial_step(self):
        """Starting step of Hairer, Norsett & Wanner, Solving ODEs I, II.4.
        Its norms are numpy scalars, so an infinite or zero one gives inf or
        NaN, as in scipy, not a ZeroDivisionError."""
        y0, f0 = self.y, self.f
        scale = self.atol + np.abs(y0) * self.rtol
        d0, d1 = np.float64(_rms(y0 / scale)), np.float64(_rms(f0 / scale))
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, self.t_bound)
        d2 = np.float64(_rms((self.fun(y0 + h0 * f0) - f0) / scale)) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        return float(min(100 * h0, h1, self.t_bound))

    def step(self):
        """One accepted step, clipped at t_bound. Raises QuadratureError
        once the trial step falls below 10 ulp of t (a NaN step included).
        Each sum is scipy's with its factors swapped, y + dot(K.T, a) h as
        dot(K.T, a) h + y, which IEEE arithmetic leaves bit for bit."""
        t, y, k, stage = self.t, self.y, self._k, self._stage
        rows, b, e = self._tableau
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = min_step if self.h_abs < min_step else self.h_abs
        rejected, error_norm = False, math.nan
        while True:
            if not h_abs >= min_step:
                raise QuadratureError(
                    f"RK45 step size underflow at t = {float(t)!r}: step "
                    f"{float(h_abs):.3e} under 10 ulp(t) = {float(min_step):.3e}, "
                    f"last error norm {float(error_norm):.3e}", estimate=float(error_norm))
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = abs(h)
            k[0] = self.f
            for s in range(1, 6):
                np.dot(k[:s].T, rows[s], out=stage)
                stage *= h
                stage += y
                k[s] = self.fun(stage)
            y_new = np.dot(k[:-1].T, b)
            y_new *= h
            y_new += y
            f_new = k[-1] = self.fun(y_new)
            scale = np.abs(y, out=self._scale)
            np.maximum(scale, np.abs(y_new, out=self._abs), out=scale)
            scale *= self.rtol
            scale += self.atol
            err = np.dot(k.T, e, out=self._err)
            err *= h
            err /= scale
            error_norm = _rms(err)
            if error_norm < 1:
                factor = _MAX_FACTOR if error_norm == 0 else \
                    min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        self.t, self.y, self.f, self.h_abs = t_new, y_new, f_new, h_abs


def march(fun, y0, ts, rtol, atol, after_step=None):
    """Yield (t, y) after every accepted step of one `_DormandPrince` run of
    dy/dt = fun(y) from t = 0; each time of the sorted, positive `ts` ends a
    step, and the run stops at the last. `after_step(y)` returns the state
    that replaces y. The FSAL derivative fun(y) of the step is kept, not
    re-evaluated, so `after_step` may move y by rounding or local-error size
    only, as a renormalization of a norm-preserving flow does."""
    stepper = _DormandPrince(fun, y0, ts[-1], rtol, atol)
    for t_stop in ts:
        stepper.t_bound = float(t_stop)
        while stepper.t < t_stop:
            stepper.step()
            if after_step is not None:
                stepper.y = after_step(stepper.y)
            yield stepper.t, stepper.y


class Propagator:
    """exp(-i t K) for a time-independent K, such as i L for the semigroup
    exp(t L) or H_C for the no-jump evolution. From the dense K (PhysicsError
    if nonfinite) the mode is picked once: "eig" if the eigenvectors have
    cond < _EIG_COND_MAX, else "rk" on y -> -i K y. From `derivative` (that
    map on flat arrays) it is "rk"; `rtol` and `atol` serve rk mode only.
    `cond` is that condition number (inf from `derivative`); with the mode
    and the order it also decides whether `law` gives a law. Nothing held
    refers back to it."""

    def __init__(self, k=None, derivative=None, rtol=1e-10, atol=1e-13):
        self.rtol, self.atol, self._fun, self.n = rtol, atol, derivative, None
        self._stack = self._gram = None
        self.cond = math.inf
        if k is None:
            self.mode = "rk"
            return
        k = as_operator(k)
        n = self.n = k.shape[0]
        vals, vecs = np.linalg.eig(k)
        self.cond = float(np.linalg.cond(vecs))
        if self.cond < _EIG_COND_MAX:
            self.mode, self._rates, self._vecs = "eig", -1j * vals, vecs
            self._inv = np.linalg.inv(vecs)
        else:
            self.mode = "rk"
            self._fun = lambda y: -1j * (k @ y.reshape(n, -1)).ravel()

    def apply(self, x, t: float) -> np.ndarray:
        """exp(-i t K) applied to a vector or to each column of a matrix; a
        derivative-built propagator steps x.ravel() as one state."""
        if not 0 <= t < math.inf:
            raise PhysicsError(f"propagation time must be nonnegative and finite, got {t}")
        x = np.asarray(x, dtype=complex)
        if self.n is not None and x.shape[0] != self.n:
            raise DimensionError(f"state of length {x.shape[0]} for K of order {self.n}")
        if t == 0.0:
            return x.copy()
        if self.mode == "eig":
            if x.ndim == 1:
                return _eig_state(self, self._inv @ x, t)
            cols = self._inv @ x.reshape(self.n, -1)
            return (self._vecs @ (np.exp(t * self._rates)[:, None] * cols)
                    ).reshape(x.shape)
        return _RkSegment(self, x.ravel()).at(t).reshape(x.shape)

    def segment(self, x):
        """The evolution y(t) = exp(-i t K) x of one vector x, for a caller
        that seeks where |y|^2 first falls to a level: an `_EigSegment` or an
        `_RkSegment`, which share one interface."""
        x = np.asarray(x, dtype=complex)
        if self.n is not None and x.shape != (self.n,):
            raise DimensionError(f"segment of a state of shape {x.shape} for K of order {self.n}")
        if self.mode == "rk":
            return _RkSegment(self, x)
        if self._stack is None:
            # [V; V diag(rates)] maps eigen coordinates w to [y; dy/dt]
            self._stack = np.vstack([self._vecs, self._vecs * self._rates])
        return _EigSegment(self, x)

    def law(self, x, bras):
        """The survival law of one vector x, a `_SurvivalLaw`: the segment
        of x as sums on Python floats, with the overlaps of y(t) with each
        row of the matrix `bras`. None where such sums would miss a
        segment's bars or cost more than it: in rk mode, above
        `_LAW_COND_MAX` or above order `_LAW_MAX_DIM`. G = V†V is formed
        once here."""
        if self.mode == "rk" or self.cond > _LAW_COND_MAX or self.n > _LAW_MAX_DIM:
            return None
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.n,):
            raise DimensionError(f"law of a state of shape {x.shape} for K of order {self.n}")
        if self._gram is None:
            self._gram = self._vecs.conj().T @ self._vecs
        return _SurvivalLaw(self, x, np.asarray(bras, dtype=complex))


def _norm_sq(y) -> float:
    return float(np.vdot(y, y).real)


def _eig_state(owner, c, t: float) -> np.ndarray:
    """V (e^{t rates} * c), the eig-mode state at t of eigen coordinates c,
    from the V and rates of `owner`, a Propagator or an `_EigSegment`."""
    return owner._vecs @ (np.exp(t * owner._rates) * c)


class _EigSegment:
    """y(t) from the eigen coordinates c = V^-1 x, formed once: every state
    is `_eig_state`, bit for bit `Propagator.apply(x, t)`, and none is
    propagated from another.

    `bracket(level, t_end)` returns (lo, hi, |y(lo)|^2, |y(hi)|^2) with
    lo = 0 and hi = t_end. The end state and its survival do not depend on
    the level, so they are formed once per t_end and kept: a caller that
    brackets many levels to one t_end, or asks `at(t_end)` after its
    bracket, gets the same array back each time and must not write it.
    `probe(t)` returns |y(t)|^2 and its rate of loss -d|y|^2/dt =
    -2 Re <y|dy/dt>, both from one product with [V; V diag(rates)].
    `at(t)` returns y(t)."""

    def __init__(self, prop: Propagator, x):
        self._rates, self._vecs, self._stack = prop._rates, prop._vecs, prop._stack
        self._n, self._c, self._s0 = prop.n, prop._inv @ x, _norm_sq(x)
        self._end = None

    def at(self, t: float) -> np.ndarray:
        if self._end is not None and self._end[0] == t:
            return self._end[1]
        return _eig_state(self, self._c, t)

    def bracket(self, level: float, t_end: float):
        if self._end is None or self._end[0] != t_end:
            end = self.at(t_end)
            self._end = t_end, end, _norm_sq(end)
        return 0.0, t_end, self._s0, self._end[2]

    def probe(self, t: float):
        both, n = self._stack @ (np.exp(t * self._rates) * self._c), self._n
        y, dy = both[:n], both[n:]
        return _norm_sq(y), -2.0 * float(np.vdot(y, dy).real)


class _SurvivalLaw:
    """The segment y(t) = V (e^{t rates} * c) of x, c = V^-1 x, with the
    `_EigSegment` interface, whose survival is the exponential sum
    S(t) = Re sum_{j<=k} A_jk e^{E_jk t}: A_jk = w conj(c_j) c_k G_jk with
    G = V†V and w = 1 on the diagonal, 2 off it, and E_jk = conj(r_j) + r_k
    for the rates r. `probe` sums it and its rate of loss -dS/dt on Python
    floats and forms no state; `at(t)` is the `_EigSegment` of x. The terms
    are of size cond(V)^2 and cancel to S, so S carries about eps cond(V)^2
    of rounding where the segment's |y|^2 carries eps cond(V): `Propagator.law`
    builds laws only for a well-conditioned V.

    A table of S at `_LAW_NODES` even times spans [0, T], where T doubles
    from the fastest decay time 1/max(-Re E) until S falls to `_LAW_FLOOR`
    or falls by no more than that from T to 2T, at most 53 times: a rate
    below 2**-53 of the fastest is rounding in the eigenvalues.
    `bracket(level, t_end)` bisects it for the nodes around the crossing,
    cut at t_end, so the first probe placed in that bracket does not depend
    on t_end. Without a decaying term there is no table and the bracket is
    [0, t_end]. `amplitudes(t)` returns the overlaps <b_k|y(t)> with the
    rows of `bras`, n-term sums over the rows <b_k|V formed here. It keeps
    arrays and lists of the propagator, never the propagator itself."""

    def __init__(self, prop: Propagator, x, bras):
        self._seg, n = _EigSegment(prop, x), prop.n
        r, w, g = prop._rates.tolist(), self._seg._c.tolist(), prop._gram.tolist()
        terms = [((2.0 if j < k else 1.0) * g[j][k] * w[j].conjugate() * w[k],
                  r[j].conjugate() + r[k]) for j in range(n) for k in range(j, n)]
        self._terms = [(amp, exp_, amp * exp_) for amp, exp_ in terms if amp]
        self._coords = list(zip(r, w))
        self._rows = (bras @ prop._vecs).tolist()
        self._s0 = self.probe(0.0)[0]
        self._table = None
        fastest = max((-exp_.real for _, exp_, _ in self._terms), default=0.0)
        if fastest > 0.0:
            span = 1.0 / fastest
            s = self.probe(span)[0]
            for _ in range(53):
                s_next = self.probe(2.0 * span)[0]
                if s <= _LAW_FLOOR or s - s_next <= _LAW_FLOOR:
                    break
                span, s = 2.0 * span, s_next
            amp, exps, _ = np.array(self._terms).T
            step = span / (_LAW_NODES - 1)
            times = np.arange(_LAW_NODES) * step
            self._table = step, (-np.exp(np.outer(times, exps)) @ amp).real.tolist()

    def at(self, t: float) -> np.ndarray:
        return self._seg.at(t)

    def bracket(self, level: float, t_end: float):
        lo, s_lo = 0.0, self._s0
        if self._table is not None:
            # the table holds -S at the times i * step, and S(lo) > level >= S(hi)
            # at lo = (i - 1) step, hi = i step, whether or not S is sorted
            step, neg = self._table
            i = bisect_left(neg, -level)
            if 0 < i < len(neg) and i * step <= t_end:
                return (i - 1) * step, i * step, -neg[i - 1], -neg[i]
            if 0 < i and (i - 1) * step < t_end:
                lo, s_lo = (i - 1) * step, -neg[i - 1]
        return lo, t_end, s_lo, self.probe(t_end)[0]

    def probe(self, t: float):
        s = rate = 0.0
        for amp, exp_, slope in self._terms:
            w = cmath.exp(exp_ * t)
            s += (amp * w).real
            rate -= (slope * w).real
        return s, rate

    def amplitudes(self, t: float) -> list:
        z = [cmath.exp(r * t) * c for r, c in self._coords]
        return [sum(b * w for b, w in zip(row, z)) for row in self._rows]


class _RkSegment:
    """y(t) by RK45, with the `_EigSegment` interface. `bracket` makes one
    `march` from x toward t_end and leaves it at the first accepted step
    with |y|^2 <= level, so nothing past the crossing is integrated: that
    step is hi and the one before it lo. Without a crossing the march ends
    at hi = t_end. It keeps y(lo), so `at(lo)` marches nothing, and
    `probe(t)` and `at(t)` for t > lo make one-stop marches from it; the
    probe's rate of loss is -2 Re <y|fun(y)>."""

    def __init__(self, prop: Propagator, x):
        self._prop, self._x, self._lo, self._y_lo = prop, x, 0.0, x

    def at(self, t: float) -> np.ndarray:
        prop, y = self._prop, self._y_lo
        if t > self._lo:
            for _, y in march(prop._fun, y, (t - self._lo,), prop.rtol, prop.atol):
                pass
        return y

    def bracket(self, level: float, t_end: float):
        prop, lo, y_lo = self._prop, 0.0, self._x
        s_lo = _norm_sq(y_lo)
        for hi, y in march(prop._fun, y_lo, (t_end,), prop.rtol, prop.atol):
            s = _norm_sq(y)
            if s <= level:
                break
            lo, y_lo, s_lo = hi, y, s
        self._lo, self._y_lo = float(lo), y_lo
        return self._lo, float(hi), s_lo, s

    def probe(self, t: float):
        y = self.at(t)
        return _norm_sq(y), -2.0 * float(np.vdot(y, self._prop._fun(y)).real)


def trace_distance(rho, sigma) -> float:
    """(1/2) tr|rho - sigma| for hermitian arguments."""
    rho = as_operator(rho)
    sigma = as_operator(sigma)
    if rho.shape != sigma.shape:
        raise DimensionError(f"shape mismatch {rho.shape} vs {sigma.shape}")
    w = np.linalg.eigvalsh(herm_part(rho - sigma))
    return float(0.5 * np.sum(np.abs(w)))


def psd_sqrt(a) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix (eigenvalues clipped at 0)."""
    a = as_operator(a)
    w, u = np.linalg.eigh(herm_part(a))
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ dag(u)


def fidelity(rho, sigma) -> float:
    """Squared Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    For pure states this reduces to the overlap |<psi|phi>|^2.
    """
    rho = as_operator(rho)
    sigma = as_operator(sigma)
    if rho.shape != sigma.shape:
        raise DimensionError(f"shape mismatch {rho.shape} vs {sigma.shape}")
    s = np.linalg.svd(psd_sqrt(rho) @ psd_sqrt(sigma), compute_uv=False)
    f = float(np.sum(s) ** 2)
    return min(max(f, 0.0), 1.0)
