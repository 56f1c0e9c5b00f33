"""Self-tests of the benchmark (not part of the repo's test suite):

    python3 -m pytest -q perfbench

Toy-size runs go through the same code path as real runs and must print every
metric BENCHMARK.json names, with its unit; the output check must reject
perturbed payloads; and the benchmark must fail without the program's
sources.
"""

import copy
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _check_result(result, workload, section):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(run.WORKLOADS[workload].toy)
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name
        if section == "end_to_end":
            assert value > 0, name


def test_one_command_prints_every_end_to_end_metric():
    out = _run(["--workload", "all", "--toy", "--seed", "7", "--seconds", "1",
                "--trace", "0"])
    assert out.returncode == 0, out.stderr
    results = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(results) == set(run.WORKLOADS)
    for workload, result in results.items():
        _check_result(result, workload, "end_to_end")
        for m in SPEC["end_to_end"]:
            assert re.search(rf"^{workload} {m['name']} \S+ {m['unit']}$",
                             out.stdout, re.M), (workload, m["name"])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_toy_traced_run_prints_every_layer_metric(workload):
    out = _run(["--workload", workload, "--toy", "--seed", "7", "--seconds", "1",
                "--trace", "1"])
    assert out.returncode == 0, out.stderr
    _check_result(json.loads(out.stdout.strip().splitlines()[-1]), workload, "per_layer")
    assert "coverage: cli.run self time" in out.stdout


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    out = _run(["--workload", "counting", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def _references():
    for path in sorted(run.REFERENCE_DIR.glob("full-*.json")):
        for name, payload in json.loads(path.read_text()).items():
            yield f"{path.stem}:{name}", payload


def _leaves(node, path=()):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _leaves(v, path + (i,))
    else:
        yield path, node


def _get(node, path):
    for key in path:
        node = node[key]
    return node


def _set(node, path, value):
    _get(node, path[:-1])[path[-1]] = value


@pytest.mark.parametrize("name,ref", list(_references()))
def test_check_accepts_reference_and_rejects_perturbations(name, ref):
    assert check.compare(copy.deepcopy(ref), ref) == []
    for path, value in _leaves(ref):
        key = path[-1]
        if key in check.IGNORED_FIELDS or key == "constant":
            continue
        siblings = _get(ref, path[:-1])
        got = copy.deepcopy(ref)
        if isinstance(value, bool) or isinstance(value, str):
            _set(got, path, not value if isinstance(value, bool) else value + "?")
        elif isinstance(value, int):
            _set(got, path, value + 1)
        elif isinstance(value, float) and check.MC_FIELDS.get(key) in siblings:
            se = siblings[check.MC_FIELDS[key]]
            _set(got, path, value + 10 * se + 1e-6 * abs(value))
            ok = copy.deepcopy(ref)
            _set(ok, path, value + se)
            assert check.compare(ok, ref) == [], (name, path)
        elif isinstance(value, float) and check.STDERR_FIELDS.get(key) in siblings:
            _set(got, path, 3 * value + 1e-6 * abs(siblings[check.STDERR_FIELDS[key]]))
        elif isinstance(value, float):
            _set(got, path, value * (1 + 1e-3) + 1e-300)
        else:
            continue
        assert check.compare(got, ref), (name, path)


def test_check_bounds_fitted_constant():
    ref = json.loads((run.REFERENCE_DIR / "full-sampling.json").read_text())["expansion"]
    got = copy.deepcopy(ref)
    se = max(row["residual_stderr"] for row in ref["rows"])
    got["fitted"]["constant"] += 10 * se / ref["fitted"]["envelope"]
    assert check.compare(got, ref)


def test_failed_op_is_counted():
    op = run.WORKLOADS["trig"].toy[0]
    refs = {op.name: {"rows": [], "fitted": {}, "verdicts": {}}}
    assert len(run.check_pass([op], ["Traceback: boom"], refs)) == 1


def test_benchmark_json_within_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    names = [m["name"] for sec in ("end_to_end", "per_layer") for m in SPEC[sec]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
