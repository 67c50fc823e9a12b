"""Quantum channels and generalized measurements.

Kraus maps built from a composite-space scattering unitary and an environment
state, the commuting-scattering decoherence map, POVMs with state update,
left polar splitting of measurement operators, and indirect measurements
through a probe.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, PhysicsError
from .operator_core import as_operator, dag, partial_trace

# Kraus operators below this Frobenius norm correspond to zero-probability
# environment transitions and are dropped.
KRAUS_NORM_FLOOR = 1e-12
# Environment eigenvalues below this are treated as exactly zero.
ENV_EIG_FLOOR = 1e-12

_UNITARITY_TOL = 1e-8
_COMPLETENESS_TOL = 1e-8


def _check_unitary(u, what="operator"):
    u = as_operator(u)
    defect = np.max(np.abs(dag(u) @ u - np.eye(u.shape[0])))
    if defect > _UNITARITY_TOL:
        raise PhysicsError(f"{what} is not unitary: defect {defect:.2e}")
    return u


def check_kraus(kraus_ops):
    """Validate the completeness relation sum_k W_k^dag W_k = I."""
    ops = [as_operator(w) for w in kraus_ops]
    if not ops:
        raise PhysicsError("empty Kraus set")
    d = ops[0].shape[0]
    acc = np.zeros((d, d), dtype=complex)
    for w in ops:
        if w.shape[0] != d:
            raise DimensionError("Kraus operators of mixed dimension")
        acc += dag(w) @ w
    defect = np.max(np.abs(acc - np.eye(d)))
    if defect > _COMPLETENESS_TOL:
        raise PhysicsError(f"Kraus completeness defect {defect:.2e} > {_COMPLETENESS_TOL:.0e}")
    return ops


def apply_channel(kraus_ops, rho) -> np.ndarray:
    """rho' = sum_k W_k rho W_k^dag."""
    ops = check_kraus(kraus_ops)
    rho = as_operator(rho)
    out = np.zeros_like(rho)
    for w in ops:
        out += w @ rho @ dag(w)
    return out


def choi_matrix(kraus_ops) -> np.ndarray:
    """Choi matrix sum_k vec(W_k) vec(W_k)^dag; positivity is the canonical CP test."""
    ops = [as_operator(w) for w in kraus_ops]
    d = ops[0].shape[0]
    choi = np.zeros((d * d, d * d), dtype=complex)
    for w in ops:
        v = w.reshape(-1, order="F")
        choi += np.outer(v, v.conj())
    return choi


def kraus_from_scattering(s_tot, dims, rho_env):
    """Kraus operators of the reduced map rho -> tr_E(S (rho x rho_E) S^dag).

    Parameters
    ----------
    s_tot : unitary on the system x environment space
    dims : (d_sys, d_env)
    rho_env : environment density operator

    The environment is eigendecomposed; W_{jl} = sqrt(p_l) <e_j|S|e_l> in the
    eigenbasis of rho_env, one operator per (final, initial) basis pair with
    nonzero weight.
    """
    d_sys, d_env = int(dims[0]), int(dims[1])
    s_tot = _check_unitary(s_tot, "scattering operator")
    if s_tot.shape[0] != d_sys * d_env:
        raise DimensionError(
            f"S has dimension {s_tot.shape[0]}, dims give {d_sys * d_env}")
    rho_env = as_operator(rho_env)
    if rho_env.shape[0] != d_env:
        raise DimensionError("environment state dimension mismatch")
    p, basis = np.linalg.eigh(0.5 * (rho_env + dag(rho_env)))
    # S reshaped so environment bra/ket indices can be contracted directly
    s4 = s_tot.reshape(d_sys, d_env, d_sys, d_env)
    ops = []
    for l in range(d_env):
        if p[l] < ENV_EIG_FLOOR:
            continue
        ket = basis[:, l]
        for j in range(d_env):
            bra = basis[:, j].conj()
            w = np.sqrt(p[l]) * np.einsum("e,aebf,f->ab", bra, s4, ket)
            if np.linalg.norm(w) >= KRAUS_NORM_FLOOR:
                ops.append(w)
    check_kraus(ops)
    return ops


def scatter_commuting(rho, basis, s_list, psi_in) -> np.ndarray:
    """Single-collision decoherence map for [S_tot, basis projectors] = 0.

    In the given system basis each matrix element gets multiplied by the
    environment overlap <psi_in|S_n^dag S_m|psi_in>; populations are untouched
    by construction (the diagonal factors are set to exactly 1).
    """
    rho = as_operator(rho)
    d = rho.shape[0]
    basis = np.asarray(basis, dtype=complex)
    if basis.shape != (d, d):
        raise DimensionError("basis must be a square matrix of column vectors")
    if np.max(np.abs(dag(basis) @ basis - np.eye(d))) > 1e-10:
        raise PhysicsError("basis vectors are not orthonormal")
    if len(s_list) != d:
        raise DimensionError(f"need {d} environment operators, got {len(s_list)}")
    s_ops = [_check_unitary(s, f"S_{n}") for n, s in enumerate(s_list)]
    psi = np.asarray(psi_in, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    moved = [s @ psi for s in s_ops]
    overlap = np.empty((d, d), dtype=complex)
    for m in range(d):
        for n in range(d):
            overlap[m, n] = 1.0 if m == n else moved[n].conj() @ moved[m]
    rho_b = dag(basis) @ rho @ basis
    return basis @ (rho_b * overlap) @ dag(basis)


def born_probability(effect, rho) -> float:
    """Outcome probability tr(F rho)."""
    effect = as_operator(effect)
    rho = as_operator(rho)
    if effect.shape != rho.shape:
        raise DimensionError("effect/state dimension mismatch")
    return float(np.real(np.trace(effect @ rho)))


def check_povm(effects):
    ops = [as_operator(f) for f in effects]
    d = ops[0].shape[0]
    for f in ops:
        if np.linalg.eigvalsh(0.5 * (f + dag(f))).min() < -1e-8:
            raise PhysicsError("POVM effect is not positive")
    defect = np.max(np.abs(sum(ops) - np.eye(d)))
    if defect > _COMPLETENESS_TOL:
        raise PhysicsError(f"POVM does not resolve the identity, defect {defect:.2e}")
    return ops


def measure_update(meas_ops, rho, alpha) -> np.ndarray:
    """Conditional state after outcome alpha.

    ``meas_ops[alpha]`` is either one operator (efficient measurement) or a
    list of operators M_{alpha,k}; the update is
    sum_k M rho M^dag / prob(alpha).
    """
    rho = as_operator(rho)
    group = meas_ops[alpha]
    if isinstance(group, np.ndarray) and group.ndim == 2:
        group = [group]
    group = [as_operator(m) for m in group]
    out = np.zeros_like(rho)
    for m in group:
        out += m @ rho @ dag(m)
    prob = np.real(np.trace(out))
    if prob < 1e-12:
        raise PhysicsError(
            f"outcome {alpha} has probability {prob:.2e}; conditional state undefined")
    return out / prob


def polar_split(m):
    """Left polar decomposition M = U sqrt(F) with F = M^dag M.

    Raises for rank-deficient M, where the unitary part is not unique.
    """
    m = as_operator(m)
    w, s, vh = np.linalg.svd(m)
    if s[0] == 0.0 or s[-1] < 1e-10 * s[0]:
        raise PhysicsError("rank-deficient measurement operator: polar part not unique")
    sqrt_f = (vh.conj().T * s) @ vh
    u = w @ vh
    return u, sqrt_f


def indirect_measurement(s_tot, dims, rho_probe, projectors):
    """POVM and measurement operators realized by probing.

    The probe in state rho_probe is coupled via the unitary s_tot and then
    measured projectively with ``projectors``. Returns (effects, ops) where
    effects[alpha] = tr_probe(S^dag [I x P_alpha] S [I x rho_probe]) and
    ops[alpha] is the list of operators M_{alpha,k} = sqrt(w_k) <a|S|phi_k>
    over probe eigenvectors, satisfying sum_k M^dag M = F_alpha.
    """
    d_sys, d_probe = int(dims[0]), int(dims[1])
    s_tot = _check_unitary(s_tot, "coupling unitary")
    rho_probe = as_operator(rho_probe)
    proj = [as_operator(p) for p in projectors]
    for p in proj:
        if np.max(np.abs(p @ p - p)) > 1e-10 or np.max(np.abs(p - dag(p))) > 1e-10:
            raise PhysicsError("probe projectors must be hermitian idempotents")
    if np.max(np.abs(sum(proj) - np.eye(d_probe))) > 1e-10:
        raise PhysicsError("probe projectors do not resolve the identity")

    w, probe_basis = np.linalg.eigh(0.5 * (rho_probe + dag(rho_probe)))
    s4 = s_tot.reshape(d_sys, d_probe, d_sys, d_probe)
    effects = []
    op_sets = []
    eye_sys = np.eye(d_sys)
    for p in proj:
        big = np.kron(eye_sys, p)
        f = partial_trace(dag(s_tot) @ big @ s_tot @ np.kron(eye_sys, rho_probe),
                          [d_sys, d_probe], keep=0)
        f = 0.5 * (f + dag(f))
        ops = []
        pw, pv = np.linalg.eigh(p)
        for a in range(d_probe):
            if pw[a] < 0.5:  # eigenvalues are 0 or 1
                continue
            bra = pv[:, a].conj()
            for k in range(d_probe):
                if w[k] < ENV_EIG_FLOOR:
                    continue
                ket = probe_basis[:, k]
                m = np.sqrt(w[k]) * np.einsum("e,aebf,f->ab", bra, s4, ket)
                if np.linalg.norm(m) >= KRAUS_NORM_FLOOR:
                    ops.append(m)
        effects.append(f)
        op_sets.append(ops)
    return effects, op_sets
