"""Scenario runner: JSON config in, CSV or JSON series out.

All physics stays in the library modules, in natural units (hbar = k_B = 1);
this layer validates configs, dispatches, converts units where a scenario
accepts SI input, and serializes results. Complex columns become re/im pairs
in CSV and [re, im] in JSON. Exit codes: 0 ok, 2 config problem, 3 physics
failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .collisional import (
    ChannelSpec,
    GasModel,
    constant_amplitude,
    dot_rate_tensor,
    hard_sphere_amplitude,
    localization_rate,
    saturation_rate,
)
from .dephasing import (
    F_th,
    F_vac,
    SpectralDensity,
    classify_regime,
    coherence_weight,
    n_qubit_coherence,
)
from .errors import PhysicsError, SchemaError
from .lindblad import (
    LindbladGenerator,
    PhaseSpaceMoments,
    alpha_from_phase_space,
    cat_coherence_factor,
    cat_decoherence_ratio,
    dephasing_solution,
    kinetic_energy,
    qbm_moments,
)
from .pointer_states import (
    evolve_robust,
    qbm_pointer_generator,
    qbm_soliton_width,
    state_width,
)
from .trajectories import run_trajectory
from .units import HBAR
from .weak_coupling import BathSpectrum, build_secular_generator, decompose_eigenoperators

SCENARIOS = ("cat", "collide", "dephase", "dot", "lindblad", "nqubit",
             "pointer", "qbm", "traject", "weakcoupling")
_FORMATS = ("csv", "json")
_UNITS = ("natural", "si")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved run description: every default filled in, so the echo
    stored in result metadata reproduces the run exactly."""

    scenario: str
    params: dict
    units: str
    seed: object
    output_path: str
    output_format: str

    def echo(self) -> dict:
        return {
            "scenario": self.scenario,
            "params": self.params,
            "units": self.units,
            "seed": self.seed,
            "output": {"path": self.output_path, "format": self.output_format},
        }


@dataclass(frozen=True)
class ResultSeries:
    """Named columns plus metadata (config echo, package version, seed)."""

    columns: dict
    metadata: dict

    def __post_init__(self):
        lengths = {len(values) for values in self.columns.values()}
        if len(lengths) > 1:
            raise SchemaError("result columns must have equal lengths")


# ---------------------------------------------------------------------------
# config schema
#
# Parameter kinds: pos (finite > 0), nonneg, num, int, posint, complexpair
# ([re, im]), numlist, pairlist ([[m, n], ...]), ampmap ({"a,b": [re, im]}),
# choice:<opt|opt>. A row is (kind, required, default). Tables keyed by
# (scenario, units) override the plain scenario table when a scenario takes
# SI input with different parameters.

_PARAM_TABLES = {
    "dephase": {
        "a": ("pos", True, None),
        "omega_c": ("pos", True, None),
        "temperature": ("pos", True, None),
        "d": ("choice:1|2|3", False, 1),
        "t_min": ("pos", False, 0.01),
        "t_max": ("pos", False, 20.0),
        "n_points": ("posint", False, 50),
    },
    "nqubit": {
        "n_qubits": ("posint", True, None),
        "pairs": ("pairlist", False, None),
        "decay": ("pos", False, 1.0),
    },
    "lindblad": {
        "energies": ("numlist", True, None),
        "gamma": ("pos", True, None),
        "t_max": ("pos", False, 5.0),
        "n_points": ("posint", False, 50),
    },
    "cat": {
        "alpha0": ("complexpair", True, None),
        "beta0": ("complexpair", True, None),
        "gamma": ("pos", True, None),
        "t_max": ("pos", False, 1.0),
        "n_points": ("posint", False, 50),
    },
    ("cat", "si"): {
        "mass": ("pos", True, None),
        "omega": ("pos", True, None),
        "displacement": ("pos", True, None),
        "momentum": ("num", False, 0.0),
    },
    "qbm": {
        "mass": ("pos", True, None),
        "gamma": ("pos", True, None),
        "temperature": ("pos", True, None),
        "t_max": ("pos", False, 10.0),
        "n_points": ("posint", False, 50),
        "x0": ("num", False, 0.0),
        "p0": ("num", False, 0.0),
        "var_x0": ("pos", False, 1.0),
        "var_p0": ("pos", False, 1.0),
        "cov0": ("num", False, 0.0),
    },
    "traject": {
        "gamma": ("pos", True, None),
        "horizon": ("pos", True, None),
        "n_traj": ("posint", True, None),
        "omega": ("nonneg", False, 0.0),
    },
    "weakcoupling": {
        "omega0": ("pos", True, None),
        "gamma0": ("pos", True, None),
        "temperature": ("pos", True, None),
    },
    "collide": {
        "n_gas": ("pos", True, None),
        "mass": ("pos", True, None),
        "temperature": ("pos", True, None),
        "amp_re": ("num", False, None),
        "amp_im": ("num", False, None),
        "radius": ("pos", False, None),
        "x_min": ("pos", False, 0.01),
        "x_max": ("pos", False, 100.0),
        "n_points": ("posint", False, 25),
    },
    "dot": {
        "n_gas": ("pos", True, None),
        "mass": ("pos", True, None),
        "temperature": ("pos", True, None),
        "energies": ("numlist", True, None),
        "amplitudes": ("ampmap", True, None),
    },
    "pointer": {
        "mass": ("pos", True, None),
        "gamma": ("pos", True, None),
        "temperature": ("pos", True, None),
        "t_max": ("pos", False, 6.0),
        "grid_points": ("posint", False, 256),
        "span": ("pos", False, None),
        "width0": ("pos", False, None),
        "n_points": ("posint", False, 100),
    },
    ("pointer", "si"): {
        "mass": ("pos", True, None),
        "gamma": ("pos", True, None),
        "temperature": ("pos", True, None),
    },
}


def _is_num(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _check_kind(value, kind):
    if kind == "num":
        return None if _is_num(value) else "must be a finite number"
    if kind == "pos":
        return None if _is_num(value) and value > 0 else "must be a positive number"
    if kind == "nonneg":
        return None if _is_num(value) and value >= 0 else "must be a nonnegative number"
    if kind == "int":
        return None if isinstance(value, int) and not isinstance(value, bool) \
            else "must be an integer"
    if kind == "posint":
        return None if isinstance(value, int) and not isinstance(value, bool) \
            and value > 0 else "must be a positive integer"
    if kind == "complexpair":
        if isinstance(value, list) and len(value) == 2 and all(_is_num(v) for v in value):
            return None
        return "must be a [re, im] pair"
    if kind == "numlist":
        if isinstance(value, list) and value and all(_is_num(v) for v in value):
            return None
        return "must be a nonempty list of numbers"
    if kind == "pairlist":
        ok = isinstance(value, list) and value and all(
            isinstance(p, list) and len(p) == 2
            and all(isinstance(i, int) and not isinstance(i, bool) and i >= 0 for i in p)
            for p in value)
        return None if ok else "must be a list of [m, n] index pairs"
    if kind == "ampmap":
        if not isinstance(value, dict) or not value:
            return "must be a nonempty map of \"a,b\" keys to [re, im] pairs"
        for key, pair in value.items():
            parts = key.split(",") if isinstance(key, str) else []
            if len(parts) != 2 or not all(p.strip().isdigit() for p in parts):
                return f"key {key!r} is not of the form \"a,b\""
            if _check_kind(pair, "complexpair"):
                return f"entry {key!r} must be a [re, im] pair"
        return None
    options = kind.split(":", 1)[1].split("|")
    if str(value) in options:
        return None
    return f"must be one of {', '.join(options)}"


def _scenario_table(scenario: str, units: str) -> dict:
    return _PARAM_TABLES.get((scenario, units)) or _PARAM_TABLES[scenario]


def _extra_violations(scenario: str, units: str, params: dict) -> list:
    """Cross-field rules that a single-key check cannot express."""
    bad = []
    if scenario in ("dephase", "collide"):
        lo, hi = ("t_min", "t_max") if scenario == "dephase" else ("x_min", "x_max")
        if _is_num(params.get(lo)) and _is_num(params.get(hi)) \
                and params[hi] <= params[lo]:
            bad.append(f"params.{hi}: must exceed {lo}")
    if scenario == "dephase" and str(params.get("d", 1)) == "1" \
            and _is_num(params.get("omega_c")) and params["omega_c"] > 0 \
            and _is_num(params.get("temperature")) and params["temperature"] > 0 \
            and params["omega_c"] <= 2.0 * math.pi * params["temperature"]:
        bad.append("params.omega_c: must exceed 2 pi temperature so decay "
                   "regimes are separated (d = 1)")
    if scenario == "nqubit":
        n = params.get("n_qubits")
        if isinstance(n, int) and n > 16:
            bad.append("params.n_qubits: at most 16 supported")
        elif isinstance(n, int) and isinstance(params.get("pairs"), list):
            top = 2**n
            for pair in params["pairs"]:
                if isinstance(pair, list) and len(pair) == 2 \
                        and any(isinstance(i, int) and i >= top for i in pair):
                    bad.append(f"params.pairs: indices in {pair} exceed 2^n - 1")
    if scenario == "lindblad" and isinstance(params.get("energies"), list) \
            and len(params["energies"]) < 2:
        bad.append("params.energies: need at least two levels")
    if scenario == "collide" and units == "natural":
        has_amp = params.get("amp_re") is not None or params.get("amp_im") is not None
        if params.get("radius") is not None and has_amp:
            bad.append("params: give either radius or amp_re/amp_im, not both")
        if params.get("radius") is None and params.get("amp_re") is None:
            bad.append("params: give a constant amplitude (amp_re) or a "
                       "hard-sphere radius")
    if scenario == "dot" and isinstance(params.get("energies"), list) \
            and isinstance(params.get("amplitudes"), dict):
        top = len(params["energies"])
        for key in params["amplitudes"]:
            parts = [p.strip() for p in str(key).split(",")]
            if len(parts) == 2 and all(p.isdigit() for p in parts) \
                    and any(int(p) >= top for p in parts):
                bad.append(f"params.amplitudes: key {key!r} outside the "
                           f"{top}-channel range")
    if scenario == "pointer" and units == "natural":
        gp = params.get("grid_points")
        if isinstance(gp, int) and not isinstance(gp, bool) and 0 < gp < 256:
            bad.append("params.grid_points: need at least 256")
    return bad


def validate_config(raw) -> list:
    """All schema violations in a parsed config, without running physics."""
    if not isinstance(raw, dict):
        return ["config: must be a JSON object"]
    bad = []
    unknown_top = set(raw) - {"scenario", "params", "units", "output", "seed"}
    for key in sorted(unknown_top):
        bad.append(f"{key}: unknown top-level key")

    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        bad.append(f"scenario: unknown scenario {scenario!r}; allowed: "
                   + ", ".join(SCENARIOS))
        return bad

    units = raw.get("units", "natural")
    if units not in _UNITS:
        bad.append(f"units: must be one of {', '.join(_UNITS)}")
        units = "natural"
    if units == "si" and (scenario, "si") not in _PARAM_TABLES:
        bad.append(f"units: scenario {scenario!r} supports natural units only")
        return bad

    params = raw.get("params")
    if not isinstance(params, dict):
        bad.append("params: must be an object")
        return bad
    table = _scenario_table(scenario, units)
    for key in sorted(set(params) - set(table)):
        bad.append(f"params.{key}: unknown key for scenario {scenario!r}")
    for name, (kind, required, _) in table.items():
        # null and absent are the same thing, so echoed configs
        # (which spell out every default) revalidate cleanly
        if params.get(name) is None:
            if required:
                bad.append(f"params.{name}: required")
            continue
        problem = _check_kind(params[name], kind)
        if problem:
            bad.append(f"params.{name}: {problem}")
    bad.extend(_extra_violations(scenario, units, params))

    output = raw.get("output", {})
    if not isinstance(output, dict):
        bad.append("output: must be an object with path/format")
    else:
        for key in sorted(set(output) - {"path", "format"}):
            bad.append(f"output.{key}: unknown key")
        if "path" in output and not isinstance(output["path"], str):
            bad.append("output.path: must be a string")
        if "format" in output and output["format"] not in _FORMATS:
            bad.append(f"output.format: must be one of {', '.join(_FORMATS)}")
    seed = raw.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        bad.append("seed: must be an integer")
    return bad


def resolve_config(raw, seed_override=None, output_override=None,
                   format_override=None) -> ScenarioConfig:
    """Apply defaults and command-line overrides to a validated config."""
    scenario = raw["scenario"]
    units = raw.get("units", "natural")
    table = _scenario_table(scenario, units)
    params = {}
    for name, (_, _, default) in table.items():
        given = raw["params"].get(name)
        params[name] = default if given is None else given
    if scenario == "nqubit" and params["pairs"] is None:
        params["pairs"] = [[0, 2 ** params["n_qubits"] - 1]]
    if scenario == "collide" and params["radius"] is None \
            and params["amp_im"] is None:
        params["amp_im"] = 0.0

    seed = seed_override if seed_override is not None else raw.get("seed")
    if seed is None and scenario == "traject":
        seed = 0

    output = raw.get("output", {})
    fmt = format_override or output.get("format") or "csv"
    path = output_override or output.get("path") \
        or f"decolab-{scenario}.{fmt}"
    return ScenarioConfig(scenario=scenario, params=params, units=units,
                          seed=seed, output_path=path, output_format=fmt)


def _worker_count() -> int:
    text = os.environ.get("DECOLAB_THREADS")
    if text is None:
        return 1
    try:
        count = int(text)
    except ValueError:
        raise SchemaError(f"DECOLAB_THREADS must be an integer, got {text!r}")
    if count < 1:
        raise SchemaError("DECOLAB_THREADS must be at least 1")
    return count


# ---------------------------------------------------------------------------
# scenario runners: ScenarioConfig -> (columns dict, summary lines)

_SZ = np.diag([1.0, -1.0]).astype(complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def _run_dephase(cfg):
    p = cfg.params
    j = SpectralDensity(a=p["a"], omega_c=p["omega_c"], d=int(p["d"]))
    ts = np.geomspace(p["t_min"], p["t_max"], p["n_points"])
    f_vac = [F_vac(j, t) for t in ts]
    f_th = [F_th(j, p["temperature"], t) for t in ts]
    visibility = [math.exp(-(a + b)) for a, b in zip(f_vac, f_th)]
    if j.d == 1:
        regimes = [classify_regime(j, p["temperature"], t)[0] for t in ts]
    else:
        regimes = [""] * len(ts)
    columns = {"t": [float(t) for t in ts], "f_vac": f_vac, "f_th": f_th,
               "visibility": visibility, "regime": regimes}
    summary = [f"visibility at t = {p['t_max']:g}: {visibility[-1]:.6g}"]
    if j.d == 1:
        summary.append(f"final regime: {regimes[-1]}")
    return columns, summary


def _run_nqubit(cfg):
    p = cfg.params
    cols = {"m": [], "n": [], "same_weight": [], "different_weight": [],
            "same_coherence": [], "different_coherence": []}
    for m, n in p["pairs"]:
        cols["m"].append(m)
        cols["n"].append(n)
        cols["same_weight"].append(coherence_weight(m, n, "same_reservoir"))
        cols["different_weight"].append(
            coherence_weight(m, n, "different_reservoirs"))
        cols["same_coherence"].append(
            n_qubit_coherence(p["n_qubits"], m, n, "same_reservoir", p["decay"]))
        cols["different_coherence"].append(
            n_qubit_coherence(p["n_qubits"], m, n, "different_reservoirs",
                              p["decay"]))
    worst = max(cols["same_weight"])
    return cols, [f"largest same-reservoir weight over {len(p['pairs'])} "
                  f"pair(s): {worst}"]


def _run_lindblad(cfg):
    p = cfg.params
    energies = p["energies"]
    dim = len(energies)
    psi = np.ones(dim, dtype=complex) / math.sqrt(dim)
    rho0 = np.outer(psi, psi.conj())
    ts = np.linspace(0.0, p["t_max"], p["n_points"])
    coherence, purity = [], []
    for t in ts:
        rho_t = dephasing_solution(energies, p["gamma"], rho0, t)
        coherence.append(complex(rho_t[0, 1]))
        purity.append(float(np.trace(rho_t @ rho_t).real))
    rate = 0.5 * p["gamma"] * (energies[0] - energies[1]) ** 2
    columns = {"t": [float(t) for t in ts], "coherence_01": coherence,
               "purity": purity}
    return columns, [f"coherence 0-1 decay rate: {rate:.6g}"]


def _run_cat(cfg):
    p = cfg.params
    if cfg.units == "si":
        alpha = alpha_from_phase_space(p["displacement"], p["momentum"],
                                       p["mass"], p["omega"], hbar=HBAR)
        ratio = cat_decoherence_ratio(alpha, -alpha)
        return ({"decoherence_ratio": [ratio]},
                [f"gamma_deco/gamma = {ratio:.6g}"])
    alpha0 = complex(*p["alpha0"])
    beta0 = complex(*p["beta0"])
    ts = np.linspace(0.0, p["t_max"], p["n_points"])
    factors = [cat_coherence_factor(alpha0, beta0, p["gamma"], t) for t in ts]
    columns = {"t": [float(t) for t in ts],
               "coherence": [complex(c) for c in factors],
               "coherence_abs": [abs(c) for c in factors]}
    ratio = cat_decoherence_ratio(alpha0, beta0)
    return columns, [f"gamma_deco/gamma = {ratio:.6g}"]


def _run_qbm(cfg):
    p = cfg.params
    initial = PhaseSpaceMoments(p["x0"], p["p0"], p["var_x0"], p["var_p0"],
                                p["cov0"])
    ts = np.linspace(0.0, p["t_max"], p["n_points"])
    cols = {"t": [], "x_mean": [], "p_mean": [], "var_x": [], "var_p": [],
            "cov_xp": [], "kinetic": []}
    for t in ts:
        mom = qbm_moments(p["mass"], p["gamma"], p["temperature"], initial, t)
        cols["t"].append(float(t))
        cols["x_mean"].append(mom.x)
        cols["p_mean"].append(mom.p)
        cols["var_x"].append(mom.sigma_xx)
        cols["var_p"].append(mom.sigma_pp)
        cols["cov_xp"].append(mom.cross)
        cols["kinetic"].append(kinetic_energy(mom, p["mass"]))
    return cols, [f"asymptotic kinetic energy T/2 = {p['temperature'] / 2:.6g}"]


def _run_traject(cfg):
    p = cfg.params
    h = p["omega"] * _SX if p["omega"] else np.zeros((2, 2), dtype=complex)
    gen = LindbladGenerator(hamiltonian=h, channels=((p["gamma"], _LOWER),))
    psi0 = np.array([1.0, 0.0], dtype=complex)

    def one(index):
        record, _ = run_trajectory(psi0, gen, p["horizon"], cfg.seed + index)
        return record

    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        records = list(pool.map(one, range(p["n_traj"])))

    cols = {"traj": [], "n_events": [], "first_event": [], "last_event": []}
    for index, record in enumerate(records):
        times = [t for t, _ in record.events]
        cols["traj"].append(index)
        cols["n_events"].append(len(times))
        cols["first_event"].append(times[0] if times else None)
        cols["last_event"].append(times[-1] if times else None)
    fraction = sum(1 for n in cols["n_events"] if n) / p["n_traj"]
    summary = [f"fraction of trajectories with a jump: {fraction:.4f}"]
    if not p["omega"]:
        summary.append("exact jump probability: "
                       f"{1.0 - math.exp(-p['gamma'] * p['horizon']):.4f}")
    return cols, summary


def _run_weakcoupling(cfg):
    p = cfg.params
    h = 0.5 * p["omega0"] * _SZ
    decomp = decompose_eigenoperators(h, [_SX])
    temp = p["temperature"]

    def gamma(w):
        scale = 1.0 if w >= 0 else math.exp(w / temp)
        return np.array([[p["gamma0"] * scale]], dtype=complex)

    def shift(w):
        return np.zeros((1, 1), dtype=complex)

    build_secular_generator(decomp, BathSpectrum(gamma=gamma, shift=shift))
    cols = {"bohr_frequency": [], "rate": []}
    for omega in decomp.bohr_frequencies:
        cols["bohr_frequency"].append(float(omega))
        cols["rate"].append(float(gamma(omega)[0, 0].real))
    ground = 1.0 / (1.0 + math.exp(-p["omega0"] / temp))
    return cols, [f"stationary ground-state population: {ground:.6g}"]


def _run_collide(cfg):
    p = cfg.params
    gas = GasModel(n_gas=p["n_gas"], m=p["mass"], temperature=p["temperature"])
    if p["radius"] is not None:
        amp = hard_sphere_amplitude(p["radius"], p["mass"])
    else:
        amp = constant_amplitude(complex(p["amp_re"], p["amp_im"]))
    xs = np.geomspace(p["x_min"], p["x_max"], p["n_points"])
    rates = [localization_rate(amp, gas, x) for x in xs]
    sat = saturation_rate(amp, gas)
    columns = {"x": [float(x) for x in xs], "rate": rates}
    return columns, [f"saturation rate n<sigma v> = {sat:.6g}",
                     f"rate at x_max reaches {rates[-1] / sat:.4%} of saturation"]


def _run_dot(cfg):
    p = cfg.params
    gas = GasModel(n_gas=p["n_gas"], m=p["mass"], temperature=p["temperature"])
    amps = {}
    for key, pair in p["amplitudes"].items():
        a, b = (int(part) for part in key.split(","))
        amps[(a, b)] = constant_amplitude(complex(*pair))
    spec = ChannelSpec(energies=tuple(p["energies"]), amplitudes=amps)
    tensor = dot_rate_tensor(spec, gas)
    n = spec.n_channels
    cols = {"alpha": [], "beta": [], "alpha0": [], "beta0": [], "rate": []}
    for alpha in range(n):
        for beta in range(n):
            for alpha0 in range(n):
                for beta0 in range(n):
                    cols["alpha"].append(alpha)
                    cols["beta"].append(beta)
                    cols["alpha0"].append(alpha0)
                    cols["beta0"].append(beta0)
                    cols["rate"].append(complex(tensor.m[alpha, beta, alpha0, beta0]))
    shifts = ", ".join(f"{s:.6g}" for s in tensor.eps)
    nonzero = int(np.count_nonzero(tensor.m))
    return cols, [f"nonzero rate cells: {nonzero} of {n ** 4}",
                  f"channel energy shifts: {shifts}"]


def _run_pointer(cfg):
    p = cfg.params
    if cfg.units == "si":
        width = qbm_soliton_width(p["mass"], p["gamma"], p["temperature"], si=True)
        return ({"sigma0": [width]},
                [f"stationary pointer width: {width:.6g} m"])
    sigma0 = qbm_soliton_width(p["mass"], p["gamma"], p["temperature"])
    span = p["span"] if p["span"] is not None else 20.0 * sigma0
    width0 = p["width0"] if p["width0"] is not None else 2.0 * sigma0
    grid = np.linspace(-0.5 * span, 0.5 * span, p["grid_points"])
    gen = qbm_pointer_generator(p["mass"], p["gamma"], p["temperature"], grid)
    xi0 = np.exp(-grid**2 / (4.0 * width0**2)).astype(complex)
    xi0 /= np.linalg.norm(xi0)
    snaps = evolve_robust(xi0, gen, p["t_max"])
    picks = sorted(set(np.linspace(0, len(snaps) - 1, p["n_points"]).astype(int)))
    cols = {"t": [snaps[i].t for i in picks],
            "width": [state_width(grid, snaps[i].xi) for i in picks]}
    return cols, [f"stationary width sigma0 = {sigma0:.6g}",
                  f"final fitted width: {cols['width'][-1]:.6g}"]


_RUNNERS = {
    "cat": _run_cat,
    "collide": _run_collide,
    "dephase": _run_dephase,
    "dot": _run_dot,
    "lindblad": _run_lindblad,
    "nqubit": _run_nqubit,
    "pointer": _run_pointer,
    "qbm": _run_qbm,
    "traject": _run_traject,
    "weakcoupling": _run_weakcoupling,
}


# ---------------------------------------------------------------------------
# serialization

def _write_csv(series: ResultSeries, path: str):
    headers, getters = [], []
    for name, values in series.columns.items():
        if any(isinstance(v, complex) for v in values):
            headers.extend([f"{name}_re", f"{name}_im"])
            getters.append((values, "complex"))
        else:
            headers.append(name)
            getters.append((values, "plain"))
    length = len(next(iter(series.columns.values()))) if series.columns else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for i in range(length):
            row = []
            for values, mode in getters:
                v = values[i]
                if mode == "complex":
                    c = complex(v)
                    row.extend([repr(c.real), repr(c.imag)])
                elif v is None:
                    row.append("")
                elif isinstance(v, str):
                    row.append(v)
                elif isinstance(v, (int, np.integer)):
                    row.append(str(int(v)))
                else:
                    row.append(repr(float(v)))
            writer.writerow(row)


def _json_value(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (int, np.integer)):
        return int(v)
    if v is None or isinstance(v, str):
        return v
    return float(v)


def _write_json(series: ResultSeries, path: str):
    payload = {
        "columns": {name: [_json_value(v) for v in values]
                    for name, values in series.columns.items()},
        "metadata": series.metadata,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands

def _load_config(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}")


def _cmd_validate(args) -> int:
    try:
        raw = _load_config(args.config)
    except SchemaError as exc:
        print(f"config: {exc}")
        return 2
    violations = validate_config(raw)
    for line in violations:
        print(line)
    return 2 if violations else 0


def _cmd_run(args) -> int:
    raw = _load_config(args.config)
    violations = validate_config(raw)
    if violations:
        raise SchemaError("; ".join(violations))
    cfg = resolve_config(raw, seed_override=args.seed,
                         output_override=args.output,
                         format_override=args.format)
    started = time.perf_counter()
    columns, summary = _RUNNERS[cfg.scenario](cfg)
    elapsed = time.perf_counter() - started
    series = ResultSeries(columns=columns, metadata={
        "config": cfg.echo(),
        "version": __version__,
        "seed": cfg.seed,
    })
    if cfg.output_format == "csv":
        _write_csv(series, cfg.output_path)
    else:
        _write_json(series, cfg.output_path)
    for line in summary:
        print(line)
    print(f"wrote {cfg.output_path} ({elapsed:.3f} s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decolab",
        description="Decoherence-model scenario runner (natural units inside; "
                    "config schema in docs/config_schema.json).")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario config")
    run_p.add_argument("config", help="path to a JSON config")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    run_p.add_argument("--output", default=None, help="override the output path")
    run_p.add_argument("--format", choices=_FORMATS, default=None,
                       help="override the output format")
    val_p = sub.add_parser("validate", help="report config schema violations")
    val_p.add_argument("config", help="path to a JSON config")
    sub.add_parser("list-scenarios", help="print the known scenario names")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-scenarios":
            for name in SCENARIOS:
                print(name)
            return 0
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_run(args)
    except SchemaError as exc:
        print(f"error: schema: {exc}", file=sys.stderr)
        return 2
    except PhysicsError as exc:
        print(f"error: physics: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
