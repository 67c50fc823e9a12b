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
import functools
import json
import math
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

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
    qbm_flow_spectral_radius,
    qbm_pointer_particle,
    qbm_soliton_width,
    state_width,
)
from .trajectories import run_trajectory
from .units import HBAR
from .weak_coupling import BathSpectrum, build_secular_generator, decompose_eigenoperators

# config_schema.json beside this file is the one statement of the config
# schema: names, kinds, bounds, defaults and enum values all come from it
with open(Path(__file__).with_name("config_schema.json"), encoding="utf-8") as _fh:
    _SCHEMA = json.load(_fh)
_DEFINITIONS = _SCHEMA["definitions"]
_OUTPUT = _SCHEMA["properties"]["output"]
SCENARIOS = tuple(_SCHEMA["properties"]["scenario"]["enum"])
_FORMATS = tuple(_OUTPUT["properties"]["format"]["enum"])
# "final,initial" keys of `dot` amplitudes, ASCII digits only
(_AMP_PATTERN,) = _DEFINITIONS["dot"]["properties"]["amplitudes"]["patternProperties"]
_AMP_KEY = re.compile(_AMP_PATTERN)


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
# `_check` covers the keywords config_schema.json uses. A null object member
# counts as absent, `enum` matches type as well as value, patterns match
# whole keys, and a value failing a `$ref`'d definition is reported by that
# definition's description. `params` is checked against
# definitions[scenario], or definitions[scenario + "_si"] for SI input,
# instead of following the file's allOf.

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_num(value) -> bool:
    """A finite float, or an integer that converts to one."""
    if _is_int(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float) and math.isfinite(value)


# JSON Schema type: (test, how a message names it)
_TYPES = {
    "number": (_is_num, "a finite number"),
    "integer": (_is_int, "an integer"),
    "string": (lambda value: isinstance(value, str), "a string"),
    "array": (lambda value: isinstance(value, list), "a list"),
    "object": (lambda value: isinstance(value, dict), "a JSON object"),
}
# numeric bound keyword: (fails, how a message names it)
_BOUNDS = {
    "minimum": (lambda value, bound: value < bound, "at least"),
    "exclusiveMinimum": (lambda value, bound: value <= bound, "above"),
    "maximum": (lambda value, bound: value > bound, "at most"),
}


def _child(path: str, key: str) -> str:
    if not key.isidentifier():
        return f"{path}[{key!r}]"
    return f"{path}.{key}" if path else key


def _check(value, node: dict, path: str, bad: list):
    """Append to `bad` the violation of schema `node` by `value` at `path`
    (at most one), then those of its items and object members."""
    where = path or "config"
    if "$ref" in node:
        target = _DEFINITIONS[node["$ref"].rsplit("/", 1)[1]]
        before = len(bad)
        _check(value, target, path, bad)
        if len(bad) > before:
            del bad[before:]
            bad.append(f"{where}: must be a {target['description']}")
            return
    kind = node.get("type")
    if kind is not None and not _TYPES[kind][0](value):
        bad.append(f"{where}: must be {_TYPES[kind][1]}")
        return
    if "enum" in node and not any(type(value) is type(option) and value == option
                                  for option in node["enum"]):
        bad.append(f"{where}: must be one of {', '.join(map(str, node['enum']))}")
        return
    if _is_int(value) or isinstance(value, float):
        for keyword, (fails, says) in _BOUNDS.items():
            if keyword in node and fails(value, node[keyword]):
                bad.append(f"{where}: must be {says} {node[keyword]}")
                return
    elif isinstance(value, list):
        if len(value) < node.get("minItems", 0):
            bad.append(f"{where}: must have at least {node['minItems']} item(s)")
        elif len(value) > node.get("maxItems", len(value)):
            bad.append(f"{where}: must have at most {node['maxItems']} item(s)")
        elif "items" in node:
            for i, item in enumerate(value):
                _check(item, node["items"], f"{path}[{i}]", bad)
    elif isinstance(value, dict):
        if len(value) < node.get("minProperties", 0):
            bad.append(f"{where}: must have at least {node['minProperties']} key(s)")
        for name in node.get("required", ()):
            if value.get(name) is None:
                bad.append(f"{_child(path, name)}: required")
        properties = node.get("properties", {})
        patterns = node.get("patternProperties", {})
        unknown = "key must match " + " or ".join(patterns) if patterns else "unknown key"
        for key, member in value.items():
            if key in properties:
                if member is not None:
                    _check(member, properties[key], _child(path, key), bad)
                continue
            matched = [p for p in patterns if re.fullmatch(p, key)]
            for pattern in matched:
                _check(member, patterns[pattern], _child(path, key), bad)
            if not matched and node.get("additionalProperties") is False:
                bad.append(f"{_child(path, key)}: {unknown}")


def _with_defaults(node: dict, given: dict) -> dict:
    """Every property of schema `node`, with its schema default (or None)
    where `given` leaves it null or out."""
    out = {}
    for name, member in node["properties"].items():
        value = given.get(name)
        out[name] = member.get("default") if value is None else value
    return out


def _params_schema(scenario: str, units: str):
    return _DEFINITIONS.get(f"{scenario}_si" if units == "si" else scenario)


def _amp_pair(key):
    """The (final, initial) index pair a `dot` amplitude key names, or None."""
    match = _AMP_KEY.fullmatch(key) if isinstance(key, str) else None
    return None if match is None else (int(match[1]), int(match[2]))


def _extra_violations(scenario: str, p: dict) -> list:
    """Cross-field rules that a single-key check cannot express; `p` holds
    every parameter, with its schema default where the config has none."""
    bad = []
    if scenario in ("dephase", "collide"):
        lo, hi = ("t_min", "t_max") if scenario == "dephase" else ("x_min", "x_max")
        if _is_num(p[lo]) and _is_num(p[hi]) and p[hi] <= p[lo]:
            bad.append(f"params.{hi}: must exceed {lo}")
    if scenario == "dephase" and _is_int(p["d"]) and p["d"] == 1 \
            and _is_num(p["omega_c"]) and p["omega_c"] > 0 \
            and _is_num(p["temperature"]) and p["temperature"] > 0 \
            and p["omega_c"] <= 2.0 * math.pi * p["temperature"]:
        bad.append("params.omega_c: must exceed 2 pi temperature so decay "
                   "regimes are separated (d = 1)")
    if scenario == "nqubit" and _is_int(p["n_qubits"]) and p["n_qubits"] > 0 \
            and isinstance(p["pairs"], list):
        for pair in p["pairs"]:
            # i >> n > 0 is i >= 2^n without forming 2^n
            if isinstance(pair, list) and len(pair) == 2 \
                    and any(_is_int(i) and i >> p["n_qubits"] > 0 for i in pair):
                bad.append(f"params.pairs: indices in {pair} exceed 2^n - 1")
    if scenario == "collide":
        has_amp = p["amp_re"] is not None or p["amp_im"] is not None
        if p["radius"] is not None and has_amp:
            bad.append("params: give either radius or amp_re/amp_im, not both")
        if p["radius"] is None and p["amp_re"] is None:
            bad.append("params: give a constant amplitude (amp_re) or a "
                       "hard-sphere radius")
        if _is_num(p["amp_re"]) and p["amp_re"] == 0 \
                and (p["amp_im"] is None or (_is_num(p["amp_im"]) and p["amp_im"] == 0)):
            bad.append("params.amp_re: the constant amplitude must be nonzero; "
                       "amp_re = amp_im = 0 scatters nothing")
    if scenario == "dot" and isinstance(p["amplitudes"], dict):
        named = {}
        for key in p["amplitudes"]:
            indices = _amp_pair(key)
            if indices is None:
                continue
            if indices in named:
                bad.append(f"params.amplitudes: keys {named[indices]!r} and {key!r} "
                           f"name the same (final, initial) pair {indices}")
            named.setdefault(indices, key)
            if isinstance(p["energies"], list) and max(indices) >= len(p["energies"]):
                bad.append(f"params.amplitudes: key {key!r} outside the "
                           f"{len(p['energies'])}-channel range")
    return bad


def validate_config(raw) -> list:
    """All schema violations in a parsed config, without running physics."""
    bad = []
    _check(raw, _SCHEMA, "", bad)
    if not isinstance(raw, dict) or raw.get("scenario") not in SCENARIOS:
        return bad
    scenario, units = raw["scenario"], _with_defaults(_SCHEMA, raw)["units"]
    schema = _params_schema(scenario, units)
    if schema is None:
        bad.append(f"units: scenario {scenario!r} supports natural units only")
        return bad
    params = raw.get("params")
    if isinstance(params, dict):
        _check(params, schema, "params", bad)
        bad.extend(_extra_violations(scenario, _with_defaults(schema, params)))
    return bad


def resolve_config(raw, output_override=None,
                   format_override=None) -> ScenarioConfig:
    """Apply defaults and command-line overrides to a validated config."""
    top = _with_defaults(_SCHEMA, raw)
    scenario, units = top["scenario"], top["units"]
    params = _with_defaults(_params_schema(scenario, units), top["params"])
    if scenario == "nqubit" and params["pairs"] is None:
        params["pairs"] = [[0, 2 ** params["n_qubits"] - 1]]
    if scenario == "collide" and params["radius"] is None \
            and params["amp_im"] is None:
        params["amp_im"] = 0.0

    seed = top["seed"]
    if seed is None and scenario == "traject":
        seed = 0

    output = _with_defaults(_OUTPUT, top["output"] or {})
    fmt = format_override or output["format"]
    path = output_override or output["path"] or f"decolab-{scenario}.{fmt}"
    return ScenarioConfig(scenario=scenario, params=params, units=units,
                          seed=seed, output_path=path, output_format=fmt)


# ---------------------------------------------------------------------------
# scenario runners: ScenarioConfig -> (columns dict, summary lines)

_SZ = np.diag([1.0, -1.0]).astype(complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
# the click rate gamma |<0|psi>|^2 never exceeds gamma, so n_traj * gamma *
# horizon bounds the expected clicks of a traject run; above this it is refused
_MAX_CLICKS = 1e7
# accepted RK45 steps of the pointer flow grow as t_max * rho, rho its
# spectral radius, and each keeps a snapshot of grid_points values; above
# this t_max * rho * grid_points a pointer run is refused
_MAX_FLOW_WORK = 5e7


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
    summary = [f"visibility at t = {ts[-1]:g}: {visibility[-1]:.6g}"]
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
    clicks = p["n_traj"] * p["gamma"] * p["horizon"]
    if clicks > _MAX_CLICKS:
        raise PhysicsError(
            f"expected clicks up to n_traj * gamma * horizon = {clicks:.3g}, "
            f"above the cost bound {_MAX_CLICKS:.0e}")
    h = p["omega"] * _SX if p["omega"] else np.zeros((2, 2), dtype=complex)
    gen = LindbladGenerator(hamiltonian=h, channels=((p["gamma"], _LOWER),))
    psi0 = np.array([1.0, 0.0], dtype=complex)

    cols = {"traj": [], "n_events": [], "first_event": [], "last_event": []}
    for index in range(p["n_traj"]):
        record, _ = run_trajectory(psi0, gen, p["horizon"], cfg.seed, index)
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
    if sat == 0.0:
        f = abs(complex(amp(1.0, p["temperature"])))
        raise PhysicsError(f"saturation rate n<sigma v> = {sat!r} underflowed: "
                           f"forward |f| = {f:.3g}, |f|^2 = {f * f:.3g} at "
                           f"E = T, n_gas = {p['n_gas']:.3g}")
    columns = {"x": [float(x) for x in xs], "rate": rates}
    return columns, [f"saturation rate n<sigma v> = {sat:.6g}",
                     f"rate at x_max reaches {rates[-1] / sat:.4%} of saturation"]


def _run_dot(cfg):
    p = cfg.params
    gas = GasModel(n_gas=p["n_gas"], m=p["mass"], temperature=p["temperature"])
    amps = {_amp_pair(key): constant_amplitude(complex(*pair))
            for key, pair in p["amplitudes"].items()}
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
    # the grid rules, then the cost bound, from the config alone, before any
    # grid-sized allocation
    rho = qbm_flow_spectral_radius(p["mass"], p["gamma"], p["temperature"], span,
                                   p["grid_points"])
    work = p["t_max"] * rho * p["grid_points"]
    if work > _MAX_FLOW_WORK:
        raise PhysicsError(
            f"flow work t_max * spectral radius * grid_points = {work:.3g}, "
            f"above the cost bound {_MAX_FLOW_WORK:.0e}")
    grid = np.linspace(-0.5 * span, 0.5 * span, p["grid_points"])
    particle = qbm_pointer_particle(p["mass"], p["gamma"], p["temperature"], grid)
    xi0 = np.exp(-grid**2 / (4.0 * width0**2)).astype(complex)
    xi0 /= np.linalg.norm(xi0)
    snaps = evolve_robust(xi0, particle, p["t_max"])
    last = len(snaps) - 1
    # a single row is the final state, not the initial one
    picks = sorted(set(np.linspace(0, last, p["n_points"]).astype(int))) \
        if p["n_points"] > 1 else [last]
    cols = {"t": [snaps[i].t for i in picks],
            "width": [state_width(grid, snaps[i].xi) for i in picks]}
    return cols, [f"stationary width sigma0 = {sigma0:.6g}",
                  f"final fitted width: {cols['width'][-1]:.6g}"]


# one runner per scenario the schema names
_RUNNERS = {name: globals()[f"_run_{name}"] for name in SCENARIOS}


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
    if args.seed is not None and isinstance(raw, dict):
        # the override goes through the same schema check as a config seed
        raw = dict(raw, seed=args.seed)
    violations = validate_config(raw)
    if violations:
        raise SchemaError("; ".join(violations))
    cfg = resolve_config(raw, output_override=args.output,
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
                    "config schema in src/decolab/config_schema.json).")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves no state on the parser, so one parser per process
    # serves every main() call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
