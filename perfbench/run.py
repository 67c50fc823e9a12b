#!/usr/bin/env python3
"""decolab benchmark: seeded lists of `decolab run` jobs, run in-process.

One workload run:

    python3 perfbench/run.py --workload quadrature --seed 1 --seconds 30 --trace 0

Every workload, untraced and traced, with tracing overhead and exact-counter
checks (writes perfbench/out/suite.json):

    python3 perfbench/run.py --all

A run is a closed loop with one client: the seeded job list of the workload
(one round) runs job after job through `decolab.cli.main`, each job being a
config file written beforehand, then load, validate, resolve, compute and
serialize. Rounds repeat the same list until the time is used up, at least
MIN_ROUNDS times. Every job's output is checked after its round. The last
stdout line is one JSON object: with --trace 0 the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics, per round.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from jobs import COMPOSITION, WORKLOADS, build_round

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_ROUNDS = 3
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
# Counts the traced run must repeat exactly, round after round and run after
# run at a fixed seed.
EXACT_COUNTERS = ("dephasing.F_vac.calls", "dephasing.F_th.calls",
                  "collisional.amp.calls", "pointer_states.nonlinear_rhs.calls",
                  "operator_core.dag.calls", "trajectories.apply_jump.calls")
JUMPS = "trajectories.jumps_per_traj"
_IMPORT_TIMER = ("import time; t = time.perf_counter(); import decolab.cli; "
                 "print(repr(time.perf_counter() - t))")


def _thread_env() -> dict:
    """BLAS threads capped at the usable cores; the trajectory pool unset."""
    cap = str(len(os.sched_getaffinity(0)))
    env = {name: cap for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _import_program() -> float:
    """Import decolab.cli from this checkout and return the seconds taken."""
    if not (SRC / "decolab" / "cli.py").is_file():
        print(f"error: decolab sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    started = perf_counter()
    import decolab.cli  # noqa: F401  (timed: numpy plus the scipy parts)
    return perf_counter() - started


def _setup_samples(first: float) -> list:
    """The in-process import time plus fresh processes timing the same."""
    env = dict(os.environ, **_thread_env())
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _provenance(workload, seed, n_jobs) -> dict:
    import numpy as np
    import scipy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30)
        commit = commit.stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "decolab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload": workload,
        "seed": seed,
        "jobs_per_round": n_jobs,
        "composition": COMPOSITION[workload],
    }


def tail_percentile(n_jobs: int) -> int:
    """Highest whole percentile leaving TAIL_BEYOND of the MIN_ROUNDS
    rounds' job samples beyond it (fixed per workload, so runs that finish
    more rounds still report the same percentile)."""
    return max(50, math.floor(100.0 * (1.0 - TAIL_BEYOND / (n_jobs * MIN_ROUNDS))))


def _percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Run:
    """One workload at one seed: job files, rounds, checks and spans."""

    def __init__(self, workload, seed, trace, tiny=False):
        from checks import load_references

        self.workload = workload
        self.jobs = build_round(workload, seed, tiny=tiny)
        self.references = load_references(BENCH / "reference.json")
        self.tracer = None
        if trace:
            from tracing import Tracer

            self.tracer = Tracer()
        self.round_times = []   # seconds per round, sum of job latencies
        self.latencies = []     # every job execution
        self.failures = []      # (round, job index, problems)
        self.summaries = []     # printed summary of each job, last round

    def execute(self, seconds: float, workdir: Path, min_rounds=MIN_ROUNDS):
        import decolab.cli as cli
        from checks import check_job

        argvs, outputs = [], []
        for i, job in enumerate(self.jobs):
            cfg_path = workdir / f"job{i:03d}.json"
            cfg_path.write_text(json.dumps(job["config"]), encoding="utf-8")
            outputs.append(workdir / f"out{i:03d}.{job['format']}")
            argvs.append(["run", str(cfg_path), "--output", str(outputs[-1]),
                          "--format", job["format"]])
        if self.tracer:
            self.tracer.install()
        try:
            started = perf_counter()
            while True:
                r = len(self.round_times)
                printed = []
                for i, argv in enumerate(argvs):
                    if self.tracer:
                        self.tracer.current = (r, i)
                    outputs[i].unlink(missing_ok=True)
                    out, err = io.StringIO(), io.StringIO()
                    t0 = perf_counter()
                    try:
                        with contextlib.redirect_stdout(out), \
                                contextlib.redirect_stderr(err):
                            code = cli.main(argv)
                    except Exception:  # a crash fails this job, not the run
                        code = traceback.format_exc(limit=3)
                    self.latencies.append(perf_counter() - t0)
                    printed.append((code, out.getvalue(), err.getvalue()))
                self.round_times.append(sum(self.latencies[-len(argvs):]))
                self.summaries = [summary for _, summary, _ in printed]
                for i, (code, summary, err) in enumerate(printed):
                    problems = ([f"exit {code!r}: {err.strip()}"] if code != 0
                                else check_job(self.jobs[i], outputs[i], summary,
                                               self.references))
                    if problems:
                        self.failures.append((r, i, problems))
                elapsed = perf_counter() - started
                if len(self.round_times) >= min_rounds and \
                        elapsed + self.round_times[-1] > seconds:
                    break
        finally:
            if self.tracer:
                self.tracer.uninstall()

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def end_to_end(self, setup: list) -> dict:
        q = tail_percentile(len(self.jobs))
        # the list's time is the sum of each job's median over the rounds,
        # so a burst of machine noise in one round does not move it
        per_job = zip(*(self.latencies[k:k + len(self.jobs)]
                        for k in range(0, self.attempted, len(self.jobs))))
        return {
            "wall_s": sum(statistics.median(times) for times in per_job),
            "job_s.p50": statistics.median(self.latencies),
            "job_s.tail": _percentile(self.latencies, q),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fail_ratio": len(self.failures) / self.attempted,
        }

    def median_by_kind(self) -> dict:
        by_kind = {}
        for k, latency in enumerate(self.latencies):
            by_kind.setdefault(self.jobs[k % len(self.jobs)]["kind"], []).append(latency)
        return {kind: statistics.median(v) for kind, v in sorted(by_kind.items())}

    def per_layer(self, names) -> tuple:
        """(per-round value of each named metric, exact counters of each
        round, detail for the result record)."""
        from tracing import LAYERS

        rounds = len(self.round_times)
        totals = self.tracer.totals()
        values = {name: _layer_value(totals, name) / (1 if name == JUMPS else rounds)
                  for name in names}
        counters = []
        for r in range(rounds):
            tot = self.tracer.totals(round_index=r)
            counters.append({name: _layer_value(tot, name) for name in EXACT_COUNTERS})
        self_total = sum(fields["self_s"] for key, fields in totals.items()
                         if "." not in key)
        detail = {
            "layers": {key: {f: v / rounds for f, v in fields.items()}
                       for key, fields in sorted(totals.items())},
            "accounting": {
                "job_s_per_round": sum(self.latencies) / rounds,
                "self_s_per_round": self_total / rounds,
                "unaccounted_s_per_round":
                    (sum(self.latencies) - self_total) / rounds,
                "unmeasured_layers": [layer for layer in LAYERS
                                      if layer not in totals],
            },
        }
        return values, counters, detail


def _layer_value(totals, name):
    """A per-layer metric from span totals: `<key>.<field>`, or the ratio
    of jumps to trajectories."""
    if name == JUMPS:
        runs = totals.get("trajectories.run_trajectory", {}).get("calls", 0)
        jumps = totals.get("trajectories.apply_jump", {}).get("calls", 0)
        return jumps / runs if runs else 0.0
    key, field = name.rsplit(".", 1)
    return totals.get(key, {}).get(field, 0)


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def summarize(run: Run, setup: list, seed: int) -> tuple:
    """(result record, metrics for the last stdout line)."""
    spec = _spec()
    e2e = run.end_to_end(setup)
    traced = run.tracer is not None
    result = {
        "provenance": _provenance(run.workload, seed, len(run.jobs)),
        "traced": traced,
        "rounds": len(run.round_times),
        "round_s": run.round_times,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": [{"round": r, "job": i, "kind": run.jobs[i]["kind"],
                      "config": run.jobs[i]["config"], "problems": p}
                     for r, i, p in run.failures[:20]],
        "tail_percentile": tail_percentile(len(run.jobs)),
        "setup_samples_s": setup,
        "end_to_end": e2e,
        "job_s_p50_by_kind": run.median_by_kind(),
        "samples": {"wall_s": len(run.round_times), "job_s.p50": run.attempted,
                    "job_s.tail": run.attempted, "setup_s": len(setup),
                    "peak_rss_mb": 1, "fail_ratio": run.attempted},
        "correct": not run.failures,
    }
    if not traced:
        return result, {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                        for m in spec["end_to_end"]}
    values, counters, detail = run.per_layer([m["name"] for m in spec["per_layer"]])
    result.update(detail)
    result["exact_counters"] = counters
    if any(c != counters[0] for c in counters):
        result["correct"] = False
        result["exact_counter_mismatch"] = True
    return result, {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer"]}


def run_one(args) -> int:
    setup = _setup_samples(_import_program())
    OUT.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, args.trace)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        run.execute(args.seconds, Path(tmp))
    result, metrics = summarize(run, setup, args.seed)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    if run.tracer:
        run.tracer.write(OUT / f"spans-{args.workload}.npz")

    units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    units["fail_ratio"] = "failed/attempted"
    print(f"# {args.workload} seed {args.seed}: {run.attempted} jobs in "
          f"{result['rounds']} rounds of {len(run.jobs)}; tail = "
          f"p{result['tail_percentile']}; result file {path.relative_to(ROOT)}")
    for name, v in result["end_to_end"].items():
        print(f"{name} = {v:.6g} {units[name]} "
              f"(samples: {result['samples'][name]})")
    print(f"output checks: {'PASS' if not run.failures else 'FAIL'} "
          f"({len(run.failures)} of {run.attempted} jobs failed)")
    for r, i, problems in run.failures[:5]:
        print(f"  round {r} job {i} ({run.jobs[i]['kind']}): {problems[0]}")
    print(json.dumps({"correct": result["correct"], "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload untraced and twice traced, each in a fresh process."""
    OUT.mkdir(exist_ok=True)
    suite, ok = {}, True
    for workload in WORKLOADS:
        entry = {}
        for label, trace in (("untraced", 0), ("traced", 1), ("traced_again", 1)):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            sys.stdout.write(done.stdout if label == "untraced" else "")
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            path = OUT / f"{workload}-seed{args.seed}-trace{trace}.json"
            entry[label] = json.loads(path.read_text(encoding="utf-8"))
        untraced, traced = entry["untraced"], entry["traced"]
        overhead = traced["end_to_end"]["wall_s"] - untraced["end_to_end"]["wall_s"]
        unaccounted = traced["accounting"]["unaccounted_s_per_round"]
        repeat = traced["exact_counters"][0] == entry["traced_again"]["exact_counters"][0]
        verdicts = {
            "output_checks": untraced["correct"] and traced["correct"],
            "self_time_accounts_for_job_time": abs(unaccounted) <= abs(overhead),
            "exact_counters_repeat": repeat,
        }
        ok = ok and all(verdicts.values())
        print(f"# {workload}: tracing overhead {overhead:.4g} s per round "
              f"(traced wall_s {traced['end_to_end']['wall_s']:.4g} s); "
              f"job time not covered by layer self time {unaccounted:.3g} s "
              f"per round; exact counters {traced['exact_counters'][0]}")
        print(f"# {workload}: " + ", ".join(
            f"{k} {'PASS' if v else 'FAIL'}" for k, v in verdicts.items()))
        suite[workload] = {
            "provenance": untraced["provenance"],
            "rounds": untraced["rounds"],
            "attempted": untraced["attempted"],
            "tail_percentile": untraced["tail_percentile"],
            "end_to_end": untraced["end_to_end"],
            "tracing_overhead_s": overhead,
            "traced_end_to_end": traced["end_to_end"],
            "accounting": traced["accounting"],
            "exact_counters": traced["exact_counters"][0],
            "layers": traced["layers"],
            "verdicts": verdicts,
        }
    (OUT / "suite.json").write_text(json.dumps(suite, indent=2) + "\n",
                                    encoding="utf-8")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    os.environ.pop("DECOLAB_THREADS", None)
    os.environ.update(_thread_env())
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
