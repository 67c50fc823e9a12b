"""CLI contract: validation reports, serialization formats, determinism, exits."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import decolab
from decolab import cli
from decolab.cli import ResultSeries, main, resolve_config, validate_config
from decolab.dephasing import SpectralDensity, classify_regime
from decolab.errors import SchemaError
from decolab.lindblad import LindbladGenerator, cat_coherence_factor
from decolab.trajectories import ensemble_average, run_trajectory
from decolab.units import HBAR

DEPHASE = {
    "scenario": "dephase",
    "params": {"a": 1.0, "omega_c": 10.0, "temperature": 0.1,
               "t_min": 0.01, "t_max": 100.0, "n_points": 5},
}
TRAJECT = {
    "scenario": "traject",
    "params": {"gamma": 1.0, "horizon": 2.0, "n_traj": 50},
    "seed": 7,
}


ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestImports:
    """The package runs on numpy alone: scipy is a test oracle only."""

    @staticmethod
    def fresh_env():
        src = str(Path(decolab.__file__).resolve().parents[1])
        return dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))

    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, decolab.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        done = subprocess.run([sys.executable, "-c", code], env=self.fresh_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.strip() == "[]"

    def test_validate_process_loads_no_scipy(self, tmp_path):
        cfg = write_config(tmp_path, DEPHASE)
        code = ("import sys\nfrom decolab.cli import main\ncode = main(['validate', sys.argv[1]])\n"
                "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))")
        done = subprocess.run([sys.executable, "-c", code, cfg], env=self.fresh_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.strip() == "0 []"


class TestValidate:
    def test_valid_config_prints_nothing(self, tmp_path, capsys):
        code = main(["validate", write_config(tmp_path, DEPHASE)])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_negative_temperature_is_named(self, tmp_path, capsys):
        bad = {"scenario": "dephase",
               "params": {"a": 1.0, "omega_c": 10.0, "temperature": -0.5}}
        code = main(["validate", write_config(tmp_path, bad)])
        assert code == 2
        out = capsys.readouterr().out
        assert "params.temperature" in out
        assert "positive" in out

    def test_unknown_scenario_lists_allowed_names(self, tmp_path, capsys):
        bad = {"scenario": "quench", "params": {}}
        code = main(["validate", write_config(tmp_path, bad)])
        assert code == 2
        out = capsys.readouterr().out
        for name in ("cat", "collide", "dephase", "dot", "lindblad", "nqubit",
                     "pointer", "qbm", "traject", "weakcoupling"):
            assert name in out

    def test_every_violation_reported_in_one_pass(self, tmp_path, capsys):
        bad = {"scenario": "traject",
               "params": {"gamma": -1.0, "horizon": 0.0, "bogus": 3},
               "seed": 1.5}
        code = main(["validate", write_config(tmp_path, bad)])
        assert code == 2
        lines = capsys.readouterr().out.strip().splitlines()
        tagged = {line.split(":")[0] for line in lines}
        assert {"params.gamma", "params.horizon", "params.bogus",
                "params.n_traj", "seed"} <= tagged

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert "JSON" in capsys.readouterr().out

    def test_missing_file_exits_4(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.json")]) == 4
        assert "error: io" in capsys.readouterr().err

    def test_si_units_rejected_outside_cat_and_pointer(self, tmp_path, capsys):
        bad = {"scenario": "qbm", "units": "si",
               "params": {"mass": 1.0, "gamma": 1.0, "temperature": 1.0}}
        assert main(["validate", write_config(tmp_path, bad)]) == 2
        assert "natural units only" in capsys.readouterr().out

    def test_collide_rejects_amplitude_and_radius_together(self, tmp_path, capsys):
        bad = {"scenario": "collide",
               "params": {"n_gas": 1.0, "mass": 1.0, "temperature": 1.0,
                          "amp_re": 0.7, "radius": 0.5}}
        assert main(["validate", write_config(tmp_path, bad)]) == 2
        assert "not both" in capsys.readouterr().out

    @pytest.mark.parametrize("amp_im", [None, 0, 0.0])
    def test_collide_rejects_zero_constant_amplitude(self, tmp_path, capsys, amp_im):
        params = {"n_gas": 1.0, "mass": 1.0, "temperature": 1.0, "amp_re": 0,
                  "n_points": 2}
        if amp_im is not None:
            params["amp_im"] = amp_im
        cfg = write_config(tmp_path, {"scenario": "collide", "params": params})
        assert main(["validate", cfg]) == 2
        assert "params.amp_re:" in capsys.readouterr().out
        assert main(["run", cfg, "--output", str(tmp_path / "zero.csv")]) == 2
        assert "params.amp_re:" in "".join(capsys.readouterr())
        params["amp_im"] = 0.3
        assert validate_config({"scenario": "collide", "params": params}) == []

    def test_nqubit_pair_index_range(self, tmp_path, capsys):
        bad = {"scenario": "nqubit",
               "params": {"n_qubits": 2, "pairs": [[0, 4]]}}
        assert main(["validate", write_config(tmp_path, bad)]) == 2
        assert "params.pairs" in capsys.readouterr().out

    @pytest.mark.parametrize("amplitudes, named", [
        ({"\u00b2,0": [1.0, 0.0]}, ["\u00b2,0"]),
        ({"0 ,1": [1.0, 0.0]}, ["0 ,1"]),
        ({"0,0": [1.0, 0.0], "00,0": [0.2, 0.0]}, ["0,0", "00,0"]),
    ])
    def test_dot_amplitude_keys(self, tmp_path, capsys, amplitudes, named):
        """Keys are ASCII "a,b" pairs as in the schema, and two keys may not
        name the same (final, initial) pair: both exit 2, naming the keys."""
        cfg = write_config(tmp_path, {"scenario": "dot", "params": {
            "n_gas": 1.0, "mass": 1.0, "temperature": 1.0, "energies": [0.0, 0.5],
            "amplitudes": amplitudes}})
        assert main(["validate", cfg]) == 2
        out = capsys.readouterr().out
        assert "params.amplitudes" in out
        assert all(repr(key) in out for key in named), out
        assert main(["run", cfg, "--output", str(tmp_path / "dot.csv")]) == 2
        assert "params.amplitudes" in capsys.readouterr().err
        assert not (tmp_path / "dot.csv").exists()

    def test_booleans_are_not_numbers(self, tmp_path, capsys):
        bad = {"scenario": "dephase",
               "params": {"a": True, "omega_c": 10.0, "temperature": 0.1}}
        assert main(["validate", write_config(tmp_path, bad)]) == 2
        assert "params.a" in capsys.readouterr().out

    def test_validate_runs_no_physics(self, tmp_path, capsys):
        # a config that would take minutes to run must still validate instantly;
        # pointer with a pathologically long horizon is the canary
        slow = {"scenario": "pointer",
                "params": {"mass": 1.0, "gamma": 0.125, "temperature": 1.0,
                           "t_max": 1e9}}
        assert main(["validate", write_config(tmp_path, slow)]) == 0
        assert capsys.readouterr().out == ""


class TestSchemaChecker:
    """`validate_config` checks against config_schema.json, one failing case
    per construct; each message names its `params.` or top-level path."""

    NQUBIT = {"scenario": "nqubit", "params": {"n_qubits": 3}}
    POINTER = {"scenario": "pointer",
               "params": {"mass": 1.0, "gamma": 1.0, "temperature": 1.0}}
    LINDBLAD = {"scenario": "lindblad", "params": {"energies": [0.0, 1.0], "gamma": 0.2}}
    DOT = {"scenario": "dot", "params": {
        "n_gas": 1.0, "mass": 1.0, "temperature": 1.0, "energies": [0.0, 0.5],
        "amplitudes": {"0,1": [1.0, 0.0]}}}

    @staticmethod
    def changed(config, **params):
        return dict(config, params=dict(config["params"], **params))

    @pytest.mark.parametrize("case, path", [
        (changed(DEPHASE, d="2"), "params.d"),          # enum matches type too
        (changed(DEPHASE, d=True), "params.d"),
        (changed(DEPHASE, d=2.0), "params.d"),
        (changed(NQUBIT, n_qubits=17), "params.n_qubits"),  # maximum
        (changed(POINTER, grid_points=100), "params.grid_points"),  # minimum
        (changed(LINDBLAD, energies=[0.0]), "params.energies"),     # minItems
        (changed(NQUBIT, pairs=[]), "params.pairs"),
        (changed(NQUBIT, pairs=[[0, -1]]), "params.pairs[0][1]"),   # nested items
        (changed(NQUBIT, pairs=[[0]]), "params.pairs[0]"),
        (changed(DOT, amplitudes={"0 ,1": [1.0, 0.0]}), "params.amplitudes['0 ,1']"),
        (changed(DOT, amplitudes={}), "params.amplitudes"),         # minProperties
        (changed(DOT, amplitudes={"0,1": None}), "params.amplitudes['0,1']"),
        (dict(TRAJECT, seed=2**64), "seed"),
        (dict(TRAJECT, seed=10**400), "seed"),
        (changed(DEPHASE, a=10**400), "params.a"),                  # beyond float range
        (dict(DEPHASE, units="metric"), "units"),
        (dict(DEPHASE, output={"format": "xml"}), "output.format"),
        (dict(DEPHASE, extra=1), "extra"),                           # additionalProperties
        (changed(NQUBIT, n_qubits=0), "params.n_qubits"),           # minimum
    ])
    def test_one_violation_per_construct(self, case, path):
        assert [line.split(": ", 1)[0] for line in validate_config(case)] == [path]

    def test_standard_validator_agrees_on_n_qubits(self):
        """A draft-07 validator reading the shipped schema accepts exactly
        the n_qubits that `decolab validate` accepts: no bound sits beside a
        `$ref`, where such validators ignore it."""
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(Path(cli.__file__).with_name("config_schema.json").read_text())
        validator = jsonschema.Draft7Validator(schema)
        for n, valid in ((0, False), (1, True), (16, True), (17, False)):
            config = self.changed(self.NQUBIT, n_qubits=n)
            assert validator.is_valid(config) is valid
            assert (validate_config(config) == []) is valid

    def test_ref_failures_read_the_definition_description(self):
        bad = validate_config(self.changed(TRAJECT, gamma=0, omega=-1, n_traj=0.5))
        assert sorted(bad) == ["params.gamma: must be a positive number",
                               "params.n_traj: must be a positive integer",
                               "params.omega: must be a nonnegative number"]
        cat = {"scenario": "cat", "params": {"alpha0": [1.0], "beta0": [0.0, 0.0],
                                             "gamma": 1.0}}
        assert validate_config(cat) == ["params.alpha0: must be a [re, im] pair"]

    def test_null_members_count_as_absent(self):
        config = dict(DEPHASE, units=None, output=None, seed=None,
                      params=dict(DEPHASE["params"], d=None))
        assert validate_config(config) == []
        resolved = resolve_config(config)
        assert (resolved.units, resolved.output_format, resolved.params["d"]) \
            == ("natural", "csv", 1)
        assert validate_config(dict(DEPHASE, params=dict(DEPHASE["params"], a=None))) \
            == ["params.a: required"]

    def test_null_d_keeps_the_d1_regime_rule(self, tmp_path, capsys):
        """`"d": null` is d = 1, so omega_c <= 2 pi T is refused before any
        physics runs, by validate and run alike."""
        params = {"a": 1.0, "omega_c": 0.5, "temperature": 0.1, "n_points": 3}
        for d in ({}, {"d": None}):
            cfg = write_config(tmp_path, {"scenario": "dephase",
                                          "params": dict(params, **d)})
            assert main(["validate", cfg]) == 2
            assert capsys.readouterr().out.startswith("params.omega_c:")
            assert main(["run", cfg, "--output", str(tmp_path / "d.csv")]) == 2
            assert "params.omega_c:" in capsys.readouterr().err
            assert not (tmp_path / "d.csv").exists()

    # keywords `_check` implements, and those it knowingly leaves alone
    CHECKED = {"$ref", "type", "enum", "minimum", "exclusiveMinimum", "maximum",
               "items", "minItems", "maxItems", "properties", "required",
               "additionalProperties", "patternProperties", "minProperties"}
    IGNORED = {"$schema", "title", "description", "default", "definitions",
               "allOf", "if", "then", "else", "const"}

    def test_every_schema_keyword_is_checked_or_knowingly_ignored(self):
        seen = set()

        def walk(node):
            seen.update(node)
            assert node.get("$ref", "#/definitions/").startswith("#/definitions/")
            assert node.get("type", "object") in cli._TYPES
            assert node.get("additionalProperties", False) is False
            assert all(p.startswith("^") and p.endswith("$")
                       for p in node.get("patternProperties", {}))
            for key in ("properties", "patternProperties", "definitions"):
                for member in node.get(key, {}).values():
                    walk(member)
            if "items" in node:
                walk(node["items"])

        walk(cli._SCHEMA)
        assert seen - self.CHECKED - self.IGNORED == set()
        assert self.CHECKED <= seen

    def test_allof_names_the_definitions_the_checker_uses(self):
        """The file's allOf, for standard validators, maps each scenario to
        definitions[scenario], and SI input to definitions[scenario_si]."""
        mapped = {}
        for rule in cli._SCHEMA["allOf"]:
            scenario = rule["if"]["properties"]["scenario"]["const"]
            then = rule["then"]
            branches = [("natural", then)] if "if" not in then else \
                [("si", then["then"]), ("natural", then["else"])]
            for units, branch in branches:
                ref = branch["properties"]["params"]["$ref"]
                mapped[scenario, units] = ref.rsplit("/", 1)[1]
        want = {(name.removesuffix("_si"), "si" if name.endswith("_si") else "natural"): name
                for name, node in cli._DEFINITIONS.items() if "properties" in node}
        assert mapped == want
        assert sorted({scenario for scenario, _ in mapped}) == list(cli.SCENARIOS)


class TestDocumentation:
    def test_readme_json_examples_validate_and_run(self, tmp_path, capsys,
                                                   monkeypatch):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert blocks
        monkeypatch.chdir(tmp_path)
        for i, block in enumerate(blocks):
            config = json.loads(block)
            assert validate_config(config) == []
            assert main(["run", write_config(tmp_path, config, f"readme{i}.json")]) == 0

    def test_schema_ships_beside_cli(self, capsys):
        tomllib = pytest.importorskip("tomllib")
        schema = Path(cli.__file__).with_name("config_schema.json")
        assert schema.is_file()
        pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        assert schema.name in pyproject["tool"]["setuptools"]["package-data"]["decolab"]
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        assert "src/decolab/config_schema.json" in readme
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "src/decolab/config_schema.json" in capsys.readouterr().out


class TestRunOutputs:
    def test_dephase_csv_values(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        code = main(["run", write_config(tmp_path, DEPHASE),
                     "--output", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "f_vac", "f_th", "visibility", "regime"]
        by_t = {float(r[0]): r for r in rows}
        # geomspace(0.01, 100, 5) passes through t = 1 exactly
        row = by_t[1.0]
        assert float(row[1]) == pytest.approx(0.5 * math.log(101.0), rel=1e-12)
        assert float(row[3]) == pytest.approx(
            math.exp(-float(row[1]) - float(row[2])), rel=1e-12)
        j = SpectralDensity(a=1.0, omega_c=10.0)
        for t, row in by_t.items():
            assert row[4] == classify_regime(j, 0.1, t)[0]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_dephase_far_beyond_the_cutoff_time(self, tmp_path, capsys, d):
        """t_max = 1e160 puts (omega_c t)^2 past the float range; every row
        still carries finite decay functions and visibility."""
        cfg = {"scenario": "dephase",
               "params": dict(DEPHASE["params"], d=d, t_min=1.0, t_max=1e160)}
        out = tmp_path / "series.csv"
        assert main(["run", write_config(tmp_path, cfg), "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 5
        for row in rows:
            assert all(math.isfinite(float(v)) for v in row[1:4]), row
        # a = 1, omega_c = 10: a log(omega_c t) for d = 1, a for d = 2, 3
        want = math.log(10.0 * 1e160) if d == 1 else 1.0
        assert float(rows[-1][1]) == pytest.approx(want, rel=1e-15)

    def test_csv_uses_crlf_line_endings(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        main(["run", write_config(tmp_path, DEPHASE), "--output", str(out)])
        data = out.read_bytes()
        assert data.count(b"\r\n") == 6
        assert data.count(b"\n") == data.count(b"\r\n")

    def test_complex_column_splits_into_re_im(self, tmp_path, capsys):
        cfg = {"scenario": "cat",
               "params": {"alpha0": [1.0, 0.5], "beta0": [-1.0, 0.0],
                          "gamma": 0.4, "t_max": 1.0, "n_points": 3}}
        out = tmp_path / "cat.csv"
        main(["run", write_config(tmp_path, cfg), "--output", str(out)])
        header, rows = read_csv(out)
        assert header == ["t", "coherence_re", "coherence_im", "coherence_abs"]
        want = cat_coherence_factor(1.0 + 0.5j, -1.0, 0.4, 0.5)
        got = complex(float(rows[1][1]), float(rows[1][2]))
        assert got == want

    def test_rows_without_events_leave_blank_cells(self, tmp_path, capsys):
        cfg = {"scenario": "traject",
               "params": {"gamma": 0.01, "horizon": 0.01, "n_traj": 5},
               "seed": 0}
        out = tmp_path / "quiet.csv"
        main(["run", write_config(tmp_path, cfg), "--output", str(out)])
        header, rows = read_csv(out)
        assert header == ["traj", "n_events", "first_event", "last_event"]
        quiet = [r for r in rows if r[1] == "0"]
        assert quiet
        assert all(r[2] == "" and r[3] == "" for r in quiet)

    def test_json_layout_and_sorted_keys(self, tmp_path, capsys):
        cfg = {"scenario": "lindblad",
               "params": {"energies": [0.0, 1.0], "gamma": 0.2, "n_points": 4}}
        out = tmp_path / "series.json"
        code = main(["run", write_config(tmp_path, cfg),
                     "--output", str(out), "--format", "json"])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        payload = json.loads(text)
        assert set(payload) == {"columns", "metadata"}
        assert set(payload["metadata"]) == {"config", "version", "seed"}
        assert payload["metadata"]["version"] == decolab.__version__
        # complex values serialize as [re, im]; the uniform two-level
        # superposition starts at rho_01 = 1/2
        first = payload["columns"]["coherence_01"][0]
        assert first[0] == pytest.approx(0.5, rel=1e-15)
        assert first[1] == 0.0
        rebuilt = json.dumps(payload, sort_keys=True, indent=2,
                             ensure_ascii=False) + "\n"
        assert text == rebuilt

    def test_default_output_path_is_scenario_named(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", write_config(tmp_path, DEPHASE)]) == 0
        assert (tmp_path / "decolab-dephase.csv").exists()

    def test_summary_goes_to_stdout_not_file(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        main(["run", write_config(tmp_path, DEPHASE), "--output", str(out)])
        printed = capsys.readouterr().out
        assert "visibility" in printed
        assert f"wrote {out}" in printed
        assert "wrote" not in out.read_text(encoding="utf-8")


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRAJECT)
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        main(["run", cfg, "--output", str(a)])
        main(["run", cfg, "--output", str(b)])
        main(["run", cfg, "--seed", "8", "--output", str(c)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_seed_flag_overrides_config_and_lands_in_metadata(self, tmp_path,
                                                              capsys):
        cfg = write_config(tmp_path, TRAJECT)
        out = tmp_path / "a.json"
        main(["run", cfg, "--seed", "11", "--output", str(out),
              "--format", "json"])
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["metadata"]["seed"] == 11
        assert payload["metadata"]["config"]["seed"] == 11

    def test_metadata_config_reproduces_the_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRAJECT)
        out = tmp_path / "first.json"
        main(["run", cfg, "--output", str(out), "--format", "json"])
        original = out.read_bytes()
        echoed = json.loads(original)["metadata"]["config"]
        # the echo names its own output, so the rerun overwrites `out`
        assert echoed["output"]["path"] == str(out)
        rerun_cfg = write_config(tmp_path, echoed, name="echo.json")
        assert main(["validate", rerun_cfg]) == 0
        assert main(["run", rerun_cfg]) == 0
        assert out.read_bytes() == original

    def test_seeds_share_no_trajectory(self, tmp_path, capsys):
        """Trajectory i of seed s is Philox key (s, i), so neighbouring
        seeds draw disjoint streams instead of overlapping shifted ones."""
        cfg = write_config(tmp_path, dict(TRAJECT, params=dict(
            TRAJECT["params"], n_traj=200)))
        firsts = []
        for seed in ("0", "1"):
            out = tmp_path / f"seed{seed}.csv"
            assert main(["run", cfg, "--seed", seed, "--output", str(out)]) == 0
            header, rows = read_csv(out)
            col = header.index("first_event")
            firsts.append({row[col] for row in rows if row[col]})
        assert min(map(len, firsts)) > 100
        assert len(firsts[0] & firsts[1]) <= 2

    def test_one_seeding_rule_across_entry_points(self, tmp_path, capsys):
        """CLI row i is run_trajectory(..., seed, i), and ensemble_average
        averages exactly those trajectories."""
        omega, gamma, horizon, n_traj, seed = 1.5, 0.8, 3.0, 40, 12
        cfg = write_config(tmp_path, {
            "scenario": "traject", "seed": seed,
            "params": {"gamma": gamma, "horizon": horizon, "n_traj": n_traj,
                       "omega": omega}})
        out = tmp_path / "rows.csv"
        assert main(["run", cfg, "--output", str(out)]) == 0
        header, rows = read_csv(out)

        gen = LindbladGenerator(omega * np.array([[0, 1], [1, 0]]),
                                ((gamma, np.array([[0, 0], [1, 0]])),))
        psi0 = np.array([1.0, 0.0], dtype=complex)
        acc = np.zeros((2, 2), dtype=complex)
        for i, row in enumerate(rows):
            record, psi = run_trajectory(psi0, gen, horizon, seed, i)
            times = [t for t, _ in record.events]
            got = dict(zip(header, row))
            assert int(got["traj"]) == i
            assert int(got["n_events"]) == len(times)
            assert got["first_event"] == (repr(float(times[0])) if times else "")
            assert got["last_event"] == (repr(float(times[-1])) if times else "")
            acc += np.outer(psi, psi.conj())
        assert sum(int(dict(zip(header, r))["n_events"]) > 1 for r in rows) > 5
        mean = ensemble_average(psi0, gen, horizon, n_traj, seed)
        assert np.max(np.abs(mean - acc / n_traj)) <= 1e-14


class TestExitCodes:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_exits_2(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path, dict(TRAJECT, seed=seed))
        assert main(["validate", cfg]) == 2
        assert capsys.readouterr().out.startswith("seed:")
        assert main(["run", cfg, "--output", str(tmp_path / "a.csv")]) == 2
        assert "seed:" in capsys.readouterr().err
        # the command-line override passes the same check
        ok = write_config(tmp_path, TRAJECT, name="ok.json")
        assert main(["run", ok, "--seed", str(seed),
                     "--output", str(tmp_path / "b.csv")]) == 2
        assert "seed:" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()
        assert not (tmp_path / "b.csv").exists()

    def test_largest_seed_runs(self, tmp_path, capsys):
        top = 2**64 - 1
        cfg = write_config(tmp_path, dict(TRAJECT, seed=top))
        assert main(["validate", cfg]) == 0
        out = tmp_path / "a.json"
        assert main(["run", cfg, "--output", str(out), "--format", "json"]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["metadata"]["seed"] == top
        assert main(["run", write_config(tmp_path, TRAJECT, name="b.json"),
                     "--seed", str(top), "--output", str(tmp_path / "b.csv")]) == 0

    def test_run_refuses_invalid_config(self, tmp_path, capsys):
        bad = {"scenario": "dephase", "params": {"a": 1.0}}
        assert main(["run", write_config(tmp_path, bad)]) == 2
        assert "error: schema" in capsys.readouterr().err

    def test_collide_saturation_underflow_exits_3(self, tmp_path, capsys):
        # |f|^2 = 1e-400 is 0 in double precision, so n<sigma v> is exactly 0
        params = {"n_gas": 1.0, "mass": 1.0, "temperature": 1.0,
                  "amp_re": 1e-200, "n_points": 2}
        cfg = write_config(tmp_path, {"scenario": "collide", "params": params})
        assert main(["validate", cfg]) == 0
        out = tmp_path / "tiny.csv"
        assert main(["run", cfg, "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "saturation rate" in err and "|f|^2 = 0" in err
        assert "|f| = 1e-200" in err
        assert not out.exists()

    def test_collide_huge_hard_sphere_exits_3(self, tmp_path, capsys):
        # l_max grows with k r; at r = 1.7e157 it cannot even be allocated
        params = {"n_gas": 1.0, "mass": 1.0, "temperature": 1.0,
                  "radius": 1.7e157, "n_points": 2}
        cfg = write_config(tmp_path, {"scenario": "collide", "params": params})
        assert main(["validate", cfg]) == 0
        out = tmp_path / "huge.csv"
        assert main(["run", cfg, "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "k r = " in err and "l_max = " in err
        assert not out.exists()

    def test_hot_bath_dephase_is_finite(self, tmp_path, capsys):
        # y = T t up to 1e11, below (1 + T/omega_c)/4
        params = {"a": 1.0, "omega_c": 1.0, "temperature": 1e12, "d": 2,
                  "t_min": 0.01, "t_max": 0.1, "n_points": 4}
        cfg = write_config(tmp_path, {"scenario": "dephase", "params": params})
        assert main(["validate", cfg]) == 0
        out = tmp_path / "hot.csv"
        assert main(["run", cfg, "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 4
        cols = [header.index(k) for k in ("f_vac", "f_th", "visibility")]
        assert all(math.isfinite(float(row[i])) for row in rows for i in cols)

    @pytest.mark.parametrize("params", [
        # (T/omega_c)^2 = 1e400 is beyond the float range
        {"a": 1.0, "omega_c": 1.0, "temperature": 1e200, "d": 3},
        # 2a (T/omega_c)^2 is beyond the float range and the sum underflows
        {"d": 3, "a": 10.228925681404194, "omega_c": 6.015337525697142e-129,
         "temperature": 3.617154774257854e25, "t_min": 4.708103317027069e-81,
         "t_max": 1e-80, "n_points": 2},
    ], ids=["hot", "nan"])
    def test_extreme_bath_dephase_is_finite(self, tmp_path, capsys, params):
        cfg = write_config(tmp_path, {"scenario": "dephase", "params": params})
        assert main(["validate", cfg]) == 0
        out = tmp_path / "extreme.csv"
        assert main(["run", cfg, "--output", str(out)]) == 0
        header, rows = read_csv(out)
        cols = [header.index(k) for k in ("f_vac", "f_th", "visibility")]
        assert all(math.isfinite(float(row[i])) for row in rows for i in cols)

    @pytest.mark.parametrize("config, message", [
        ({"scenario": "cat", "params": {"alpha0": [1e200, 0.0], "beta0": [0.0, 0.0],
                                        "gamma": 1.0}},
         "amplitudes (1e+200+0j), 0j"),
        ({"scenario": "cat", "units": "si",
          "params": {"mass": 1e-200, "omega": 1e-200, "displacement": 1.0}},
         "m = 1e-200, omega = 1e-200"),
        ({"scenario": "qbm", "params": {"mass": 1e-200, "gamma": 1e-200,
                                        "temperature": 1.0}},
         "gamma m = 0.0"),
        ({"scenario": "lindblad", "params": {"energies": [0.0, 1e200], "gamma": 1.0}},
         "energy spread 1e+200"),
        ({"scenario": "dephase", "params": {"a": 1.0, "omega_c": 1.0, "d": 2,
                                            "temperature": 1e300, "t_max": 1e10}},
         "a = 1.0, T/omega_c = 1e+300, T t = inf"),
    ], ids=["cat", "cat-si", "qbm", "lindblad", "dephase"])
    def test_closed_form_overflow_exits_3(self, tmp_path, capsys, config, message):
        cfg = write_config(tmp_path, config)
        assert main(["validate", cfg]) == 0
        out = tmp_path / "huge.csv"
        assert main(["run", cfg, "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and message in err
        assert not out.exists()

    def test_qbm_fast_damping_is_finite(self, tmp_path, capsys):
        # (gamma m)^2 overflows to inf, so its term of var_x is exactly 0
        params = {"mass": 1.0, "gamma": 1e200, "temperature": 1.0, "n_points": 5}
        cfg = write_config(tmp_path, {"scenario": "qbm", "params": params})
        assert main(["validate", cfg]) == 0
        out = tmp_path / "fast.csv"
        assert main(["run", cfg, "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 5
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    def test_qbm_slow_damping_is_finite(self, tmp_path, capsys):
        # var_x is a sum of terms of order 1/gamma = 1e10 that cancel
        params = {"mass": 1, "gamma": 1e-10, "temperature": 1}
        cfg = write_config(tmp_path, {"scenario": "qbm", "params": params})
        assert main(["validate", cfg]) == 0
        out = tmp_path / "slow.csv"
        assert main(["run", cfg, "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 50
        assert all(math.isfinite(float(v)) for row in rows for v in row)
        assert all(float(row[header.index("var_x")]) >= 1.0 for row in rows)

    def test_qbm_free_particle_limit(self, tmp_path, capsys):
        # gamma m = 1e-200: (gamma m)^2 underflows, and var_x is the free
        # spreading var_x0 + var_p0 t^2/m^2 of the default initial state
        params = {"mass": 1, "gamma": 1e-200, "temperature": 1}
        cfg = write_config(tmp_path, {"scenario": "qbm", "params": params})
        out = tmp_path / "free.csv"
        assert main(["run", cfg, "--output", str(out)]) == 0
        header, rows = read_csv(out)
        t, var_x = header.index("t"), header.index("var_x")
        for row in rows:
            assert float(row[var_x]) == pytest.approx(1.0 + float(row[t]) ** 2, rel=1e-12)

    def test_qbm_huge_momentum_kinetic_is_finite(self, tmp_path, capsys):
        # p0^2 = 1e320 overflows, the kinetic energy p0^2/2m = 5e219 does not
        params = {"mass": 1e100, "gamma": 1, "temperature": 1, "p0": 1e160}
        cfg = write_config(tmp_path, {"scenario": "qbm", "params": params})
        assert main(["validate", cfg]) == 0
        out = tmp_path / "fast.csv"
        assert main(["run", cfg, "--output", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        header, rows = read_csv(out)
        assert all(math.isfinite(float(v)) for row in rows for v in row)
        assert float(rows[0][header.index("kinetic")]) == pytest.approx(5e219, rel=1e-15)

    def test_qbm_kinetic_overflow_exits_3(self, tmp_path, capsys):
        params = {"mass": 1, "gamma": 1, "temperature": 1, "p0": -1.1e228}
        cfg = write_config(tmp_path, {"scenario": "qbm", "params": params})
        assert main(["validate", cfg]) == 0
        out = tmp_path / "huge.csv"
        assert main(["run", cfg, "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "kinetic energy overflows: p = -1.1e+228, m = 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("params, width", [
        ({"mass": 3.6e-224, "gamma": 1, "temperature": 1}, 5.35010804689e+91),
        ({"mass": 1e300, "gamma": 1e300, "temperature": 1e300}, 1.01511162937e-320),
    ], ids=["m-squared-underflows", "subnormal-width"])
    def test_pointer_si_width_without_m_squared(self, tmp_path, capsys, params, width):
        # 40-digit mpmath widths; the parent formed m^2 and exited 1 or wrote 0
        cfg = write_config(tmp_path, {"scenario": "pointer", "units": "si",
                                      "params": params})
        out = tmp_path / "width.csv"
        assert main(["run", cfg, "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["sigma0"]
        assert float(rows[0][0]) == pytest.approx(width, rel=1e-11, abs=5e-324)

    def test_physics_failure_exits_3(self, tmp_path, capsys):
        # span far below the 10 sigma0 floor trips the grid validation
        bad = {"scenario": "pointer",
               "params": {"mass": 1.0, "gamma": 0.125, "temperature": 1.0,
                          "span": 0.5}}
        assert main(["run", write_config(tmp_path, bad)]) == 3
        assert "error: physics" in capsys.readouterr().err

    def test_unwritable_output_exits_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DEPHASE)
        target = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["run", cfg, "--output", str(target)]) == 4
        assert "error: io" in capsys.readouterr().err

    def test_list_scenarios_prints_sorted_names(self, capsys):
        assert main(["list-scenarios"]) == 0
        names = capsys.readouterr().out.split()
        assert names == sorted(names)
        assert len(names) == 10


class TestPendulumScenario:
    def test_si_ratio_matches_closed_form(self, tmp_path, capsys):
        cfg = {"scenario": "cat", "units": "si",
               "params": {"mass": 0.1, "omega": 2.0 * math.pi,
                          "displacement": 0.01}}
        out = tmp_path / "pendulum.json"
        main(["run", write_config(tmp_path, cfg),
              "--output", str(out), "--format", "json"])
        ratio = json.loads(out.read_text())["columns"]["decoherence_ratio"][0]
        # 2|alpha|^2 = m omega x^2 / hbar for the +/- x superposition
        assert ratio == pytest.approx(
            0.1 * 2.0 * math.pi * 0.01**2 / HBAR, rel=1e-10)
        assert 1e29 < ratio < 1e31
        assert "gamma_deco/gamma" in capsys.readouterr().out


class TestResultSeries:
    def test_unequal_columns_rejected(self):
        with pytest.raises(SchemaError):
            ResultSeries(columns={"a": [1, 2], "b": [1]}, metadata={})

    def test_validate_config_requires_object(self):
        assert validate_config([1, 2]) == ["config: must be a JSON object"]
