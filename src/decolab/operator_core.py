"""Dense linear-algebra substrate for finite-dimensional open quantum systems.

Everything operates on plain complex numpy arrays. Density operators are
hermitian, unit-trace, positive matrices; :func:`check_density` enforces this
at the module tolerances. Superoperators are (d*d, d*d) matrices acting on
column-stacked operators, see :func:`vectorize`.

Natural units hbar = k_B = 1 are assumed throughout the package; conversion
to and from SI happens only at the CLI boundary.
"""

from __future__ import annotations

import math

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
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5
_RTOL_MIN = 100 * np.finfo(float).eps


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


class _DormandPrince:
    """Adaptive explicit RK45 for the autonomous dy/dt = fun(y) on [0, t_bound],
    driven by `march` alone: `step` makes one accepted step to `t`, a new
    array `y` that no later step writes, `f` = fun(y) and the next trial
    step `h_abs`. rtol below 100 eps is raised to 100 eps. Nothing held
    refers back to it, so reference counting frees it once dropped."""

    def __init__(self, fun, y0, t_bound, rtol, atol):
        if not t_bound > 0:
            raise PhysicsError(f"integration end {t_bound!r} must be positive")
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
        self._k = np.empty((7, self.y.size), dtype=self.y.dtype)

    def _initial_step(self):
        """Starting step of Hairer, Norsett & Wanner, Solving ODEs I, II.4."""
        y0, f0 = self.y, self.f
        scale = self.atol + np.abs(y0) * self.rtol
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, self.t_bound)
        d2 = _rms((self.fun(y0 + h0 * f0) - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        return min(100 * h0, h1, self.t_bound)

    def step(self):
        """One accepted step, clipped at t_bound. Raises QuadratureError
        once the trial step falls below 10 ulp of t (a NaN step included)."""
        t, y, k = self.t, self.y, self._k
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
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
                k[s] = self.fun(y + np.dot(k[:s].T, _DP_A[s, :s]) * h)
            y_new = y + h * np.dot(k[:-1].T, _DP_B)
            f_new = k[-1] = self.fun(y_new)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = _rms(np.dot(k.T, _DP_E) * h / scale)
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
    that replaces y, and the FSAL derivative is refreshed from that state."""
    stepper = _DormandPrince(fun, y0, ts[-1], rtol, atol)
    for t_stop in ts:
        stepper.t_bound = float(t_stop)
        while stepper.t < t_stop:
            stepper.step()
            if after_step is not None:
                stepper.y = after_step(stepper.y)
                stepper.f = fun(stepper.y)
            yield stepper.t, stepper.y


class Propagator:
    """exp(-i t K) for a time-independent K, such as i L for the semigroup
    exp(t L) or H_C for the no-jump evolution. From the dense K (PhysicsError
    if nonfinite) the mode is picked once: "eig" if the eigenvectors have
    cond < _EIG_COND_MAX, else "rk" on y -> -i K y. From `derivative` (that
    map on flat arrays) it is "rk"; `rtol` and `atol` serve rk mode only.
    Nothing held refers back to it."""

    def __init__(self, k=None, derivative=None, rtol=1e-10, atol=1e-13):
        self.rtol, self.atol, self._fun, self.n = rtol, atol, derivative, None
        if k is None:
            self.mode = "rk"
            return
        k = as_operator(k)
        n = self.n = k.shape[0]
        vals, vecs = np.linalg.eig(k)
        if np.linalg.cond(vecs) < _EIG_COND_MAX:
            self.mode, self._vals, self._vecs = "eig", vals, vecs
            self._inv = np.linalg.inv(vecs)
        else:
            self.mode = "rk"
            self._fun = lambda y: -1j * (k @ y.reshape(n, -1)).ravel()

    def apply(self, x, t: float) -> np.ndarray:
        """exp(-i t K) applied to a vector or to each column of a matrix; a
        derivative-built propagator steps x.ravel() as one state."""
        if not t >= 0:
            raise PhysicsError(f"propagation time must be nonnegative, got {t}")
        x = np.asarray(x, dtype=complex)
        if self.n is not None and x.shape[0] != self.n:
            raise DimensionError(f"state of length {x.shape[0]} for K of order {self.n}")
        if t == 0.0:
            return x.copy()
        if self.mode == "eig":
            cols = self._inv @ x.reshape(self.n, -1)
            return (self._vecs @ (np.exp(-1j * t * self._vals)[:, None] * cols)
                    ).reshape(x.shape)
        return self.states(x, np.array([t]))[0]

    def states(self, x, ts) -> np.ndarray:
        """Rows exp(-i t K) x of a vector x, one for each t of a 1-d array.
        In rk mode one `march` over the sorted distinct times ends an
        accepted step on each, so no row is interpolated."""
        if self.mode == "eig":
            phases = np.exp(-1j * ts[:, None] * self._vals[None, :])
            return (phases * (self._inv @ x)[None, :]) @ self._vecs.T
        if not np.all(ts >= 0):
            raise PhysicsError("propagation times must be nonnegative")
        x = np.asarray(x, dtype=complex)
        stops, where = np.unique(ts, return_inverse=True)
        rows = np.empty((stops.size,) + x.shape, dtype=complex)
        i = int(np.count_nonzero(stops == 0.0))
        rows[:i] = x
        if i < stops.size:
            for t, y in march(self._fun, x.ravel(), stops[i:], self.rtol, self.atol):
                if t == stops[i]:
                    rows[i] = y.reshape(x.shape)
                    i += 1
        return rows[where]


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
