"""Smoke tests of the benchmark itself, on tiny job lists.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys

import pytest

import run as bench
from checks import check_job, load_output
from jobs import WORKLOADS, build_round

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ISSUE_METRICS = {"wall_s", "job_s.p50", "job_s.tail", "setup_s", "peak_rss_mb",
                 "fail_ratio"}


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Each workload's tiny list: two untraced rounds, then two traced."""
    bench._import_program()
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            run = bench.Run(workload, seed=7, trace=trace, tiny=True)
            workdir = tmp_path_factory.mktemp(f"{workload}{trace}")
            run.execute(0.0, workdir, min_rounds=2)
            run.workdir = workdir
            runs[workload, trace] = run
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tiny_runs, workload):
    result, metrics = bench.summarize(tiny_runs[workload, 0], [0.5], seed=7)
    assert result["correct"], result["failures"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {name: v["unit"] for name, v in metrics.items()}
    # fail_ratio is 0 at this commit, so it stays out of the driver's metric
    # list (which must never read 0) but is reported with its base
    assert set(result["end_to_end"]) == ISSUE_METRICS
    assert result["samples"]["fail_ratio"] == result["attempted"] > 0
    assert all(v["value"] > 0 for v in metrics.values())

    result, metrics = bench.summarize(tiny_runs[workload, 1], [0.5], seed=7)
    assert result["correct"], result["failures"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {name: v["unit"] for name, v in metrics.items()}
    accounting = result["accounting"]
    assert abs(accounting["unaccounted_s_per_round"]) < \
        0.05 * accounting["job_s_per_round"]
    assert {"channels", "units"} <= set(accounting["unmeasured_layers"])
    # a layer is busy at most while a job runs, and at least for its self time
    layers = result["layers"]
    jobs_s = layers["cli.main"]["s"]
    for key, fields in layers.items():
        if "." not in key:
            assert fields["self_s"] <= fields["busy_s"] + 1e-9 <= jobs_s + 2e-9, key


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counters_repeat_across_rounds_and_runs(tiny_runs, tmp_path,
                                                      workload):
    first = tiny_runs[workload, 1].per_layer([])[1]
    again = bench.Run(workload, seed=7, trace=1, tiny=True)
    again.execute(0.0, tmp_path, min_rounds=1)
    second = again.per_layer([])[1]
    assert first[0] == first[1] == second[0]
    assert any(first[0].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_calls_match_the_job_list(tiny_runs, workload):
    """Calls the CLI makes through names it imported are traced too."""
    run = tiny_runs[workload, 1]
    names = ["cli.main.calls", "dephasing.F_vac.calls", "dephasing.F_th.calls",
             "collisional.localization_rate.calls",
             "trajectories.run_trajectory.calls"]
    values = run.per_layer(names)[0]
    params = [(job["config"]["scenario"], job["config"]["params"])
              for job in run.jobs]
    assert values == {
        "cli.main.calls": len(run.jobs),
        "dephasing.F_vac.calls": sum(p["n_points"] for s, p in params
                                     if s == "dephase"),
        "dephasing.F_th.calls": sum(p["n_points"] for s, p in params
                                    if s == "dephase"),
        "collisional.localization_rate.calls": sum(
            p["n_points"] for s, p in params if s == "collide"),
        "trajectories.run_trajectory.calls": sum(
            p["n_traj"] for s, p in params if s == "traject"),
    }


def test_job_lists_follow_the_seed():
    for workload in WORKLOADS:
        assert build_round(workload, 3) == build_round(workload, 3)
        assert build_round(workload, 3) != build_round(workload, 4)


# --- every check can fail ------------------------------------------------------

def _gross(v):
    if v is None:
        return 1.0
    if isinstance(v, str):
        return "corrupt"
    if isinstance(v, int):
        return v + 3
    if isinstance(v, complex):
        return -v - (1 + 1j)
    return -abs(v) - 1.0


def _subtle(values):
    """1e-4 relative: above every deterministic bar, below any visible change."""
    scale = max((abs(v) for v in values if isinstance(v, (float, complex))),
                default=0.0) or 1.0
    return [v * (1 + 1e-4) + 1e-4 * scale if isinstance(v, (float, complex))
            else v for v in values]


def _write(path, fmt, columns, metadata):
    if fmt == "json":
        payload = {"columns": {k: [[v.real, v.imag] if isinstance(v, complex)
                                   else v for v in vs]
                               for k, vs in columns.items()},
                   "metadata": metadata}
        path.write_text(json.dumps(payload), encoding="utf-8")
        return
    headers, cells = [], []
    for name, values in columns.items():
        if any(isinstance(v, complex) for v in values):
            headers += [f"{name}_re", f"{name}_im"]
            cells += [[repr(complex(v).real) for v in values],
                      [repr(complex(v).imag) for v in values]]
        else:
            headers.append(name)
            cells.append(["" if v is None else repr(v) if isinstance(v, float)
                          else str(v) for v in values])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(zip(*cells))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_fail_on_corrupted_outputs(tiny_runs, workload):
    run = tiny_runs[workload, 0]
    for i, job in enumerate(run.jobs):
        path = run.workdir / f"out{i:03d}.{job['format']}"
        columns, metadata = load_output(path, job["format"])
        original = path.read_bytes()
        # the untouched output passes after a rewrite in the same format
        _write(path, job["format"], columns, metadata)
        assert check_job(job, path, run.summaries[i], run.references) == []
        deterministic = not job["kind"].startswith("traject")
        for name, values in columns.items():
            corruptions = [[_gross(v) for v in values]]
            if deterministic and any(isinstance(v, (float, complex)) for v in values):
                corruptions.append(_subtle(values))
            for bad in corruptions:
                _write(path, job["format"], dict(columns, **{name: bad}), metadata)
                problems = check_job(job, path, run.summaries[i], run.references)
                assert problems, f"{job['kind']}: corrupted {name} passed"
        path.write_bytes(original)
        if job["config"]["scenario"] == "collide":
            bad = run.summaries[i].replace("saturation rate n<sigma v> = ",
                                           "saturation rate n<sigma v> = 1")
            assert check_job(job, path, bad, run.references)


def test_trajectory_statistics_can_fail(tiny_runs):
    """Records that stay well-formed but click too rarely (decay) or too
    often (driven) fail the statistical check alone."""
    run = tiny_runs["statevector", 0]
    for i, job in enumerate(run.jobs):
        if not job["kind"].startswith("traject"):
            continue
        path = run.workdir / f"out{i:03d}.{job['format']}"
        columns, metadata = load_output(path, job["format"])
        original = path.read_bytes()
        if job["kind"] == "traject-decay":
            # no trajectory decays
            for name in ("n_events", "first_event", "last_event"):
                columns[name] = [0 if name == "n_events" else None] * len(columns[name])
        else:
            columns["n_events"] = [k + 2 if k else 0 for k in columns["n_events"]]
        _write(path, job["format"], columns, metadata)
        problems = check_job(job, path, run.summaries[i], run.references)
        path.write_bytes(original)
        assert len(problems) == 1 and "master equation" in problems[0], problems


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-jobs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
