"""Output checks for single benchmark jobs.

Every job is judged on its own output file (plus its printed summary, which
carries the saturation rate of `collide`). A check returns a list of
problems; an empty list is a pass. Each tolerance below states why it is the
bar it is:

* closed forms (dephasing F_vac/F_th/visibility, constant-amplitude collide
  rates and saturation) at the code's quadrature acceptance bar of 1e-6
  relative;
* frozen references (``reference.json``, written by ``freeze.py`` from the
  commit that introduced the benchmark) at the error bar of the route that
  produced the column;
* trajectory jump counts statistically, against the master-equation mean,
  so a change of the trajectory seeding rule does not fail them.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm
from scipy.special import dawsn, loggamma, psi

from jobs import config_key

# (rtol, atol as a share of the column's largest magnitude, reason)
QUAD_BAR = (1e-6, 1e-9,
            "quadrature acceptance bar: error estimate <= 1e-6 |value|; the "
            "absolute part covers the cancellation at small separations")
GRID_BAR = (1e-12, 0.0, "grid built by geomspace from the config values")
PRINTED_BAR = (1e-5, 0.0, "summary line prints 6 significant digits")
FROZEN_BARS = {
    ("collide", "natural"): QUAD_BAR,
    ("dot", "natural"): QUAD_BAR,
    ("pointer", "natural"): (
        1e-6, 1e-12, "RK45 at rtol 1e-8 per step; a rounding change can "
        "shift accepted steps, so two decades are left for step control"),
    ("pointer", "si"): (1e-12, 0.0, "closed-form width, rounding only"),
    ("cat", "natural"): (1e-10, 1e-14, "closed-form coherence factor"),
    ("cat", "si"): (1e-10, 0.0, "closed-form decoherence ratio"),
    ("qbm", "natural"): (1e-10, 1e-12, "closed-form moment flow"),
    ("lindblad", "natural"): (1e-10, 1e-13, "closed-form dephasing solution"),
    ("nqubit", "natural"): (1e-12, 0.0, "integer weights and one exponential"),
    ("weakcoupling", "natural"): (
        1e-9, 1e-14, "eigendecomposition of a 2x2 Hamiltonian"),
}
# Jump-count means must sit within this many standard errors of the
# master-equation value: a false alarm has probability below 1e-6 per job.
SIGMAS = 5.0


# --- reading outputs --------------------------------------------------------

def _scalar(text: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def load_output(path, fmt: str) -> tuple:
    """(columns as name -> list with complex columns rejoined, metadata of a
    JSON file or None)."""
    if fmt == "json":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        return normalize_columns(payload["columns"]), payload["metadata"]
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    headers, body = rows[0], rows[1:]
    raw = {h: [_scalar(row[i]) for row in body] for i, h in enumerate(headers)}
    columns = {}
    for h in headers:
        if h.endswith("_im") and h[:-3] + "_re" in raw:
            continue
        if h.endswith("_re") and h[:-3] + "_im" in raw:
            base = h[:-3]
            columns[base] = [complex(a, b) for a, b in
                             zip(raw[h], raw[base + "_im"])]
        else:
            columns[h] = raw[h]
    return columns, None


def normalize_columns(columns: dict) -> dict:
    """JSON column values with [re, im] pairs turned back into complex."""
    return {name: [complex(*v) if isinstance(v, list) else v for v in values]
            for name, values in columns.items()}


# --- comparisons ------------------------------------------------------------

def _compare(name, got, want, bar) -> list:
    rtol, atol_share, reason = bar
    if len(got) != len(want):
        return [f"{name}: {len(got)} rows, expected {len(want)}"]
    numeric = [abs(w) for w in want
               if isinstance(w, (int, float, complex)) and not isinstance(w, bool)]
    atol = atol_share * max(numeric, default=0.0)
    for i, (g, w) in enumerate(zip(got, want)):
        if isinstance(w, (str, type(None))) or isinstance(g, (str, type(None))):
            ok = g == w
        elif isinstance(w, int) and isinstance(g, int):
            ok = g == w
        else:
            ok = abs(g - w) <= rtol * abs(w) + atol
        if not ok:
            return [f"{name}[{i}] = {g!r}, expected {w!r} "
                    f"(rtol {rtol:g}, atol {atol:.3g}: {reason})"]
    return []


def _summary_value(summary: str, prefix: str):
    for line in summary.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):].split()[0])
    return None


# --- closed forms -----------------------------------------------------------

def _trigamma(z: complex) -> complex:
    """psi'(z) for Re z > 0: recurrence up to Re z >= 12, then the
    asymptotic series (relative accuracy ~1e-15 there)."""
    acc = 0j
    while z.real < 12.0:
        acc += 1.0 / (z * z)
        z += 1.0
    inv = 1.0 / z
    inv2 = inv * inv
    return acc + inv * (1.0 + inv * (0.5 + inv * (1.0 / 6.0 + inv2 * (
        -1.0 / 30.0 + inv2 * (1.0 / 42.0 + inv2 * (
            -1.0 / 30.0 + inv2 * 5.0 / 66.0))))))


def dephasing_closed_forms(p: dict, t: float):
    """(F_vac, F_th) for J = a w (w/wc)^(d-1) exp(-w/wc).

    With b_n = 1/wc + n/T the thermal excess is a sum over Matsubara-like
    terms that resums to log-gamma (d = 1), digamma (d = 2) and trigamma
    (d = 3) of 1 + T/wc + iTt.
    """
    a, wc, temp, d = p["a"], p["omega_c"], p["temperature"], int(p["d"])
    x = (wc * t) ** 2
    c = temp / wc
    z = complex(1.0 + c, temp * t)
    if d == 1:
        vac = 0.5 * a * math.log1p(x)
        th = 2.0 * a * (loggamma(1.0 + c).real - loggamma(z).real)
    elif d == 2:
        vac = a * x / (1.0 + x)
        th = 2.0 * a * c * (psi(z).real - psi(1.0 + c))
    else:
        vac = a * (3.0 * x + x * x) / (1.0 + x) ** 2
        th = 2.0 * a * c * c * (_trigamma(complex(1.0 + c)).real
                                - _trigamma(z).real)
    return vac, th


def _regime(p: dict, t: float) -> str:
    """Ohmic regime boundaries as documented by `classify_regime`."""
    if t < 1.0 / p["omega_c"]:
        return "short_time"
    if t < 1.0 / (2.0 * math.pi * p["temperature"]):
        return "vacuum"
    return "thermal"


def constant_amplitude_rates(p: dict, xs):
    """Localization rate n sigma <v (1 - j0(m v x)^2)> of a constant
    amplitude over a Maxwell gas, with the speed average in closed form via
    Dawson's integral; and the saturation rate n sigma <v>."""
    n, m, temp = p["n_gas"], p["mass"], p["temperature"]
    sigma = 4.0 * math.pi * abs(complex(p["amp_re"], p["amp_im"])) ** 2
    beta = m / (2.0 * temp)
    mean_v = math.sqrt(8.0 * temp / (math.pi * m))
    pref = 4.0 * math.pi * (m / (2.0 * math.pi * temp)) ** 1.5
    rates = []
    for x in xs:
        k = 2.0 * m * x
        # int_0^inf v exp(-beta v^2) sin^2(m x v) dv
        i_cos = 1.0 / (2.0 * beta) - k / (2.0 * beta ** 1.5) * dawsn(
            k / (2.0 * math.sqrt(beta)))
        i_sin2 = 0.5 * (1.0 / (2.0 * beta) - i_cos)
        rates.append(n * sigma * (mean_v - pref * i_sin2 / (m * x) ** 2))
    return rates, n * sigma * mean_v


def expected_jumps(p: dict) -> float:
    """Mean number of clicks over the horizon for H = omega sx and one decay
    channel gamma |1><0|, started in |0>: gamma int_0^T rho_00 dt from the
    two-level master equation, integrated exactly with an augmented
    matrix exponential."""
    gamma, omega, horizon = p["gamma"], p["omega"], p["horizon"]
    h = omega * np.array([[0, 1], [1, 0]], dtype=complex)
    lo = np.array([[0, 0], [1, 0]], dtype=complex)
    eye = np.eye(2)
    lld = lo.conj().T @ lo
    # row-major vec: vec(A rho B) = kron(A, B.T) vec(rho)
    gen = (-1j * (np.kron(h, eye) - np.kron(eye, h.T))
           + gamma * (np.kron(lo, lo.conj()) - 0.5 * np.kron(lld, eye)
                      - 0.5 * np.kron(eye, lld.T)))
    aug = np.zeros((8, 8), dtype=complex)
    aug[:4, :4] = gen
    aug[4:, :4] = np.eye(4)
    rho0 = np.array([1, 0, 0, 0], dtype=complex)
    integral = (expm(aug * horizon) @ np.concatenate([rho0, np.zeros(4)]))[4:]
    return gamma * integral[0].real


# --- per-kind checks --------------------------------------------------------

def _check_dephase(job, cols, summary, ref):
    p = job["config"]["params"]
    ts = np.geomspace(p["t_min"], p["t_max"], p["n_points"])
    problems = _compare("t", cols.get("t", []), [float(t) for t in ts], GRID_BAR)
    if problems:
        return problems
    vac, th = zip(*(dephasing_closed_forms(p, float(t)) for t in ts))
    problems += _compare("f_vac", cols["f_vac"], list(vac), QUAD_BAR)
    problems += _compare("f_th", cols["f_th"], list(th), QUAD_BAR)
    # exp(-F) moves by F times the relative error of F
    for i, (v, f) in enumerate(zip(cols["visibility"], np.add(vac, th))):
        want = math.exp(-f)
        if abs(v - want) > QUAD_BAR[0] * f * want + 1e-15:
            problems.append(f"visibility[{i}] = {v!r}, expected {want!r} "
                            f"(rtol {QUAD_BAR[0]:g} of F: {QUAD_BAR[2]})")
            break
    want = [_regime(p, t) for t in cols["t"]] if int(p["d"]) == 1 \
        else [None] * len(ts)
    # an empty CSV cell and an empty JSON string both mean "no regime"
    got = [r or None for r in cols["regime"]]
    problems += _compare("regime", got, want,
                         (0.0, 0.0, "documented regime boundaries"))
    return problems


def _check_collide(job, cols, summary, ref):
    p = job["config"]["params"]
    xs = np.geomspace(p["x_min"], p["x_max"], p["n_points"])
    problems = _compare("x", cols.get("x", []), [float(x) for x in xs], GRID_BAR)
    sat = _summary_value(summary, "saturation rate n<sigma v> = ")
    if p.get("radius") is None:
        rates, want_sat = constant_amplitude_rates(p, xs)
        problems += _compare("rate", cols.get("rate", []), rates, QUAD_BAR)
    else:
        problems += _compare("rate", cols.get("rate", []),
                             ref["columns"]["rate"], QUAD_BAR)
        want_sat = _summary_value(ref["summary"], "saturation rate n<sigma v> = ")
    if sat is None:
        return problems + ["summary: no saturation rate line"]
    return problems + _compare("saturation", [sat], [want_sat], PRINTED_BAR)


def _check_traject(job, cols, summary, ref):
    p = job["config"]["params"]
    n = p["n_traj"]
    counts = cols.get("n_events", [])
    problems = _compare("traj", cols.get("traj", []), list(range(n)),
                        (0.0, 0.0, "trajectory index"))
    if problems or len(counts) != n:
        return problems or [f"n_events: {len(counts)} rows, expected {n}"]
    for i, (k, first, last) in enumerate(zip(counts, cols["first_event"],
                                             cols["last_event"])):
        if k == 0:
            ok = first is None and last is None
        else:
            ok = (isinstance(k, int) and k > 0 and first is not None
                  and 0.0 < first <= last < p["horizon"]
                  and (k > 1 or first == last))
        if not ok:
            return [f"row {i}: events {k!r} first {first!r} last {last!r} "
                    "inconsistent with a click record inside the horizon"]
    mean = sum(counts) / n
    want = expected_jumps(p)
    if p["omega"] == 0.0:
        # pure decay: at most one click, with probability 1 - exp(-gamma T)
        if max(counts) > 1:
            return ["n_events: a decayed state clicked again"]
        exact = 1.0 - math.exp(-p["gamma"] * p["horizon"])
        if abs(want - exact) > 1e-9:
            return [f"master-equation mean {want} disagrees with {exact}"]
        spread = math.sqrt(exact * (1.0 - exact) / n)
        reason = "binomial bound"
    else:
        # resonance-fluorescence clicks are sub-Poissonian, so the Poisson
        # variance bounds the true one when the sample is too small to say
        var = sum((k - mean) ** 2 for k in counts) / max(n - 1, 1)
        spread = math.sqrt(max(var, want) / n)
        reason = "standard error, variance floored at the Poisson value"
    if abs(mean - want) > SIGMAS * spread + 0.5 / n:
        problems.append(f"mean jumps {mean:.4f} vs master equation {want:.4f} "
                        f"(bound {SIGMAS:g} x {spread:.4f} + 1/2n: {reason})")
    return problems


def _check_frozen(job, cols, summary, ref):
    cfg = job["config"]
    bar = FROZEN_BARS[(cfg["scenario"], cfg.get("units", "natural"))]
    want = ref["columns"]
    problems = []
    if set(cols) != set(want):
        return [f"columns {sorted(cols)} differ from {sorted(want)}"]
    for name in want:
        problems += _compare(name, cols[name], want[name], bar)
    return problems


_CHECKS = {
    "dephase": _check_dephase,
    "collide": _check_collide,
    "traject": _check_traject,
}


def needs_reference(config: dict) -> bool:
    scenario = config["scenario"]
    return scenario not in _CHECKS or (
        scenario == "collide" and config["params"].get("radius") is not None)


def load_references(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        refs = json.load(fh)
    for entry in refs.values():
        entry["columns"] = normalize_columns(entry["columns"])
    return refs


def check_job(job, output_path, summary: str, references: dict) -> list:
    """Problems with one job's output; an empty list is a pass."""
    cfg = job["config"]
    ref = None
    if needs_reference(cfg):
        key = config_key(cfg["scenario"], cfg.get("units", "natural"),
                         cfg["params"])
        ref = references.get(key)
        if ref is None:
            return [f"no frozen reference for {key}"]
    if not Path(output_path).exists():
        return ["no output file"]
    try:
        cols, meta = load_output(output_path, job["format"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
    if meta is not None and meta.get("config", {}).get("scenario") != cfg["scenario"]:
        return ["metadata does not echo the scenario"]
    check = _CHECKS.get(cfg["scenario"], _check_frozen)
    try:
        return check(job, cols, summary, ref)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]
