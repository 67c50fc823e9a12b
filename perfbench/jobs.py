"""Seeded job lists for the three benchmark workloads.

A job is one `decolab run` config plus the output format to request. Every
workload has a fixed composition per round (so the cost of a round hardly
depends on the seed); the seed draws the continuous parameters of the jobs
that have an independent closed-form or statistical check, assigns the output
formats (half CSV, half JSON per kind), draws trajectory seeds and fixes the
order. Jobs without such a check
come from the small parameter pools below, whose outputs are frozen in
``reference.json``: a round runs every pool entry of its kind, repeated to
the round's count where the count exceeds the pool.

Only the generated config files reach the program.
"""

from __future__ import annotations

import json
import math
import random

# --- pools with frozen reference outputs -----------------------------------

# Hard sphere only below the swapped-order split (x <= 3 at r = 0.1): above
# it a single x costs about 12 s here, too long for a run. The swapped-order
# route still runs through the constant-amplitude jobs.
HARD_SPHERE_POOL = (
    {"n_gas": 1.0, "mass": 1.0, "temperature": 1.0, "radius": 0.1,
     "x_min": 0.6, "x_max": 3.0, "n_points": 1},
    {"n_gas": 0.5, "mass": 1.0, "temperature": 1.0, "radius": 0.1,
     "x_min": 2.5, "x_max": 3.0, "n_points": 1},
)

# 256-point grids plus one 512-point grid, where one dense complex matrix is
# 4 MiB (past a 4 MiB per-core L2), with a very short t_max.
POINTER_POOL = (
    {"mass": 1.0, "gamma": 1.0, "temperature": 1.0, "t_max": 0.3},
    {"mass": 2.0, "gamma": 0.5, "temperature": 1.5, "t_max": 0.3},
    {"mass": 0.5, "gamma": 2.0, "temperature": 0.5, "t_max": 0.25},
    {"mass": 1.5, "gamma": 0.8, "temperature": 2.0, "t_max": 0.2},
    {"mass": 1.0, "gamma": 1.0, "temperature": 1.0, "t_max": 0.03,
     "grid_points": 512},
)

SMALL_POOLS = {
    "cat": ("natural", (
        {"alpha0": [1.0, 0.5], "beta0": [-1.0, 0.0], "gamma": 0.5},
        {"alpha0": [2.0, 0.0], "beta0": [-2.0, 0.0], "gamma": 0.1,
         "t_max": 3.0, "n_points": 30},
        {"alpha0": [0.3, -0.4], "beta0": [0.1, 0.9], "gamma": 1.5,
         "t_max": 0.5, "n_points": 20},
        {"alpha0": [3.0, 1.0], "beta0": [0.0, -2.0], "gamma": 0.05,
         "t_max": 10.0, "n_points": 40},
    )),
    "cat-si": ("si", (
        {"mass": 1e-20, "omega": 1e3, "displacement": 1e-9},
        {"mass": 1e-26, "omega": 1e6, "displacement": 1e-8, "momentum": 1e-27},
        {"mass": 1e-3, "omega": 10.0, "displacement": 1e-6},
        {"mass": 1e-15, "omega": 1.0, "displacement": 1e-12,
         "momentum": -1e-20},
    )),
    "qbm": ("natural", (
        {"mass": 1.0, "gamma": 0.1, "temperature": 1.0},
        {"mass": 3.0, "gamma": 0.5, "temperature": 0.2, "t_max": 4.0,
         "n_points": 30, "x0": 1.0, "p0": -0.5},
        {"mass": 0.2, "gamma": 2.0, "temperature": 5.0, "t_max": 2.0,
         "n_points": 20, "var_x0": 0.5, "var_p0": 2.0, "cov0": 0.1},
        {"mass": 1.0, "gamma": 0.01, "temperature": 0.5, "t_max": 50.0,
         "n_points": 40, "p0": 2.0},
    )),
    "lindblad": ("natural", (
        {"energies": [0.0, 1.0], "gamma": 0.3},
        {"energies": [0.0, 1.0, 2.5], "gamma": 0.1, "t_max": 8.0,
         "n_points": 30},
        {"energies": [-1.0, 0.0, 0.5, 2.0], "gamma": 1.0, "t_max": 2.0,
         "n_points": 20},
        {"energies": [0.0, 0.3, 0.7, 1.1, 1.6], "gamma": 0.5, "t_max": 4.0,
         "n_points": 40},
    )),
    "nqubit": ("natural", (
        {"n_qubits": 2},
        {"n_qubits": 4, "pairs": [[0, 15], [3, 5], [1, 2], [7, 8]]},
        {"n_qubits": 8, "decay": 0.2,
         "pairs": [[0, 255], [15, 240], [1, 128], [3, 12]]},
        {"n_qubits": 12, "decay": 0.05, "pairs": [[0, 4095], [63, 4032]]},
    )),
    "weakcoupling": ("natural", (
        {"omega0": 1.0, "gamma0": 0.1, "temperature": 0.5},
        {"omega0": 2.0, "gamma0": 0.02, "temperature": 0.1},
        {"omega0": 0.5, "gamma0": 1.0, "temperature": 3.0},
        {"omega0": 5.0, "gamma0": 0.3, "temperature": 1.0},
    )),
    "dot": ("natural", (
        {"n_gas": 1.0, "mass": 1.0, "temperature": 1.0, "energies": [0.0, 0.5],
         "amplitudes": {"0,0": [1.0, 0.0], "1,0": [0.3, 0.1], "1,1": [0.5, 0.0]}},
        {"n_gas": 0.5, "mass": 2.0, "temperature": 0.5, "energies": [0.0, 0.2],
         "amplitudes": {"0,0": [0.8, 0.2], "1,1": [0.6, -0.1]}},
        {"n_gas": 2.0, "mass": 0.5, "temperature": 2.0,
         "energies": [0.0, 0.0, 1.0],
         "amplitudes": {"0,0": [1.0, 0.0], "1,1": [0.9, 0.0],
                        "0,1": [0.2, 0.0], "1,0": [0.2, 0.0]}},
    )),
    "pointer-si": ("si", (
        {"mass": 1e-20, "gamma": 1e3, "temperature": 300.0},
        {"mass": 1e-3, "gamma": 1e-2, "temperature": 4.0},
        {"mass": 1e-26, "gamma": 1e6, "temperature": 0.01},
        {"mass": 1e-15, "gamma": 1.0, "temperature": 77.0},
    )),
}

# --- round composition per workload -----------------------------------------

# Counts per round. Dephase jobs are the majority on `quadrature` so the
# per-job median falls inside one job kind instead of on a boundary between
# kinds; trajectory jobs play that role on `statevector`.
COMPOSITION = {
    "quadrature": {"dephase": 15, "collide-const": 7, "collide-hs": 2},
    "statevector": {"traject-decay": 6, "traject-driven": 6, "pointer": 5},
    "small-jobs": {"cat": 20, "cat-si": 15, "qbm": 20, "lindblad": 20,
                   "nqubit": 20, "weakcoupling": 20, "dot": 10,
                   "pointer-si": 15, "dephase": 20, "collide-const": 20,
                   "traject-decay": 10, "traject-driven": 10},
}
WORKLOADS = tuple(COMPOSITION)


def config_key(scenario: str, units: str, params: dict) -> str:
    """Canonical identity of a pool entry in ``reference.json``."""
    return json.dumps({"scenario": scenario, "units": units, "params": params},
                      sort_keys=True)


def pool_entries():
    """Every (scenario, units, params) whose output is frozen."""
    for params in HARD_SPHERE_POOL:
        yield "collide", "natural", params
    for params in POINTER_POOL:
        yield "pointer", "natural", params
    for kind, (units, entries) in SMALL_POOLS.items():
        for params in entries:
            yield kind.split("-")[0], units, params


def _strata(rng, count):
    """`count` uniforms on [0, 1), one in the central half of each of
    `count` equal strata, in seeded order: every round covers each parameter
    range evenly, so the cost of a round hardly depends on the seed (Latin
    hypercube sampling with narrowed jitter)."""
    u = [(k + 0.25 + 0.5 * rng.random()) / count for k in range(count)]
    rng.shuffle(u)
    return u


def _draw(rng, count, **ranges):
    """`count` parameter dicts, each range stratified independently."""
    columns = {name: [lo + (hi - lo) * u for u in _strata(rng, count)]
               for name, (lo, hi) in ranges.items()}
    return [{name: values[k] for name, values in columns.items()}
            for k in range(count)]


def _dephase(rng, count, n_points):
    ds = _pool_cycle(rng, (1, 2, 3), count)
    jobs = []
    for d, u in zip(ds, _draw(rng, count, a=(0.05, 1.0), omega_c=(5.0, 20.0),
                               temperature=(0.05, 0.5), t_min=(0.1, 0.9),
                               t_max=(20.0, 60.0))):
        # t_min below 4 pi/(50 omega_c) and below 1/omega_c, t_max past the
        # thermal crossover 1/(2 pi T): the grid crosses the short-time,
        # vacuum and thermal regimes and both sides of the QAWO split
        u["t_min"] *= 4.0 * math.pi / (50.0 * u["omega_c"])
        jobs.append(dict(u, d=d, n_points=n_points))
    return jobs


def _collide_const(rng, count, small):
    # the collide routes switch at phase m v_th x = 40 (`_OSC_PHASE_SPLIT`):
    # quadrature puts one x on each side of it, small-jobs one or two below
    n_points = _pool_cycle(rng, (1, 2), count) if small else [2] * count
    jobs = []
    for n, u in zip(n_points, _draw(
            rng, count, n_gas=(0.5, 2.0), mass=(0.5, 2.0),
            temperature=(0.5, 2.0), amp_re=(0.2, 1.5), amp_im=(-0.5, 0.5),
            phase_lo=(0.5, 30.0), phase_hi=(45.0, 150.0) if not small
            else (0.5, 30.0))):
        x_unit = 1.0 / math.sqrt(2.0 * u["mass"] * u["temperature"])
        lo, hi = sorted((u.pop("phase_lo"), u.pop("phase_hi")))
        if n == 1:
            hi = 1.5 * lo
        jobs.append(dict(u, x_min=lo * x_unit, x_max=hi * x_unit, n_points=n))
    return jobs


def _traject(rng, count, driven, n_traj):
    jobs = _draw(rng, count, gamma=(0.5, 2.0), horizon=(1.0, 3.0),
                 n_traj=n_traj, omega=(1.0, 3.0) if driven else (0.0, 0.0))
    for u in jobs:
        u["n_traj"] = int(u["n_traj"])
    return jobs


def _pool_cycle(rng, entries, count):
    """`count` entries covering the pool evenly, in seeded order."""
    picks = [entries[i % len(entries)] for i in range(count)]
    rng.shuffle(picks)
    return picks


def build_round(workload: str, seed: int, tiny: bool = False) -> list:
    """The seeded job list one round of `workload` runs.

    Each job is a dict with `kind`, `config` (the decolab config written to
    disk) and `format`. With ``tiny`` every kind appears once, which the
    benchmark's own tests use.
    """
    if workload not in COMPOSITION:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    small = workload == "small-jobs"
    jobs = []
    for kind, count in COMPOSITION[workload].items():
        count = 1 if tiny else count
        units = "natural"
        if kind == "dephase":
            params = _dephase(rng, count, 3 if small else 12)
            scenario = "dephase"
        elif kind == "collide-const":
            params = _collide_const(rng, count, small)
            scenario = "collide"
        elif kind == "collide-hs":
            params = _pool_cycle(rng, HARD_SPHERE_POOL, count)
            scenario = "collide"
        elif kind.startswith("traject"):
            params = _traject(rng, count, kind == "traject-driven",
                              (4, 13) if small else (150, 251))
            scenario = "traject"
        elif kind == "pointer":
            params = _pool_cycle(rng, POINTER_POOL, count)
            scenario = "pointer"
        else:
            units, entries = SMALL_POOLS[kind]
            params = _pool_cycle(rng, entries, count)
            scenario = kind.split("-")[0]
        formats = _pool_cycle(rng, ("csv", "json"), count)
        for p, fmt in zip(params, formats):
            config = {"scenario": scenario, "params": dict(p), "units": units}
            if scenario == "traject":
                # job seeds come straight from the workload stream, with no
                # spacing around trajectory-key overlaps between jobs
                config["seed"] = rng.randrange(2**31)
            jobs.append({"kind": kind, "config": config, "format": fmt})
    rng.shuffle(jobs)
    return jobs
