import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qflab
from qflab import cli
from qflab.cli import (EXIT_BUDGET, EXIT_OK, EXIT_VALIDATION,
                       ExperimentConfig, emit_plotdata, main, run)

FORM_I2 = "kind: exact\n1\n0\n0\n1\n"
FORM_HYP = "kind: exact\n1\n0\n0\n-1\n"
FORM_Q3 = "kind: exact\n1\n0\n0\n0\n-1\n0\n0\n0\n-1\n"


@pytest.fixture
def i2_file(tmp_path):
    p = tmp_path / "i2.form"
    p.write_text(FORM_I2)
    return str(p)


def test_delta_curve_contains_oracle_counts(i2_file, capsys):
    rc = main(["delta-curve", "--form", i2_file, "-p", "s_grid=25,100",
               "--format", "json"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    counts = [row["count"] for row in out["rows"]]
    assert counts == [81, 317]


def test_invalid_form_file_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.form"
    p.write_text("kind: exact\n1\nwhat\n0\n1\n")
    rc = main(["delta-curve", "--form", str(p), "-p", "s_grid=25"])
    assert rc == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert "line 3" in err["reason"]


def test_missing_form_exits_1(capsys):
    assert main(["delta-curve", "-p", "s_grid=25"]) == EXIT_VALIDATION


def test_budget_exit_code(i2_file, capsys):
    rc = main(["raw-op", "--form", i2_file, "-p", "op=enumerate-values",
               "-p", "r=100", "-p", "window=0,1", "--budget", "100"])
    assert rc == EXIT_BUDGET
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "budget-exceeded"
    assert err["required"] == 201 ** 2


def test_bad_radius_exits_1(i2_file, capsys):
    rc = main(["raw-op", "--form", i2_file, "-p", "op=count-H", "-p", "t=0.5",
               "-p", "r=0"])
    assert rc == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "validation", "reason": "r must be > 0"}


@pytest.mark.parametrize("a_res", ["0", "-3"])
def test_bad_a_res_exits_1(i2_file, capsys, a_res):
    rc = main(["gamma-curve", "--form", i2_file, "-p", "s_grid=16", "-p", "T=1",
               "-p", f"a_res={a_res}"])
    assert rc == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "validation", "reason": "a_res must be >= 1"}


def test_csv_determinism(tmp_path, i2_file):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"""
[experiment]
kind = gamma-curve
form = {i2_file}

[params]
s_grid = 25 100
T = 4.0
a_res = 32

[run]
seed = 7
workers = 2
format = csv
""")
    outs = []
    for i in range(2):
        out = tmp_path / f"run{i}.csv"
        rc = main(["--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].decode().splitlines()[0] == "s,T,gamma,t_star"


def test_json_payload_reproducible(i2_file):
    cfg = ExperimentConfig(kind="delta-curve", form_path=i2_file,
                           params={"s_grid": "25 100"}, seed=3)
    r1 = run(cfg)
    cfg2 = ExperimentConfig(**{**cfg.__dict__})
    r2 = run(cfg2)
    assert r1.payload() == r2.payload()
    assert r1.config["version"]


def test_rerun_from_embedded_config(i2_file):
    cfg = ExperimentConfig(kind="delta-curve", form_path=i2_file,
                           params={"s_grid": "25 100"}, seed=9, workers=2)
    rep = run(cfg)
    echo = rep.config
    rebuilt = ExperimentConfig(kind=echo["kind"], form_path=echo["form_path"],
                               params=dict(echo["params"]), seed=echo["seed"],
                               workers=echo["workers"], budget=echo["budget"],
                               format=echo["format"])
    assert run(rebuilt).payload() == rep.payload()


def test_emit_plotdata_columns(i2_file):
    rep = run(ExperimentConfig(kind="delta-curve", form_path=i2_file,
                               params={"s_grid": "25 100"}))
    csv_text = emit_plotdata(rep, ["s", "delta"])
    lines = csv_text.splitlines()
    assert lines[0] == "s,delta"
    assert len(lines) == 3
    assert len(lines[1].split(",")[1]) >= 10  # 17 significant digits
    with pytest.raises(ValueError, match="unknown column"):
        emit_plotdata(rep, ["nope"])
    # column order preserved as requested
    assert emit_plotdata(rep, ["delta", "s"]).splitlines()[0] == "delta,s"


def test_raw_ops_suite(tmp_path, capsys):
    p = tmp_path / "q3.form"
    p.write_text(FORM_Q3)
    cases = [
        (["raw-op", "--form", str(p), "-p", "op=theta", "-p", "s=3"], "theta", 2),
        (["raw-op", "-p", "op=mm", "-p", "t=2", "-p", "s=100"], "mm", 2.0),
        (["raw-op", "-p", "op=rho-of-s", "-p", "s=100", "-p", "T=10",
          "-p", "gamma=0", "-p", "d=9", "-p", "eps=0.05"], "rho", 0.11),
        (["raw-op", "-p", "op=dirichlet-approx", "-p", "v=1.41421356237309",
          "-p", "N=10"], "q", 5),
    ]
    for argv, key, want in cases:
        rc = main(argv)
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        got = out["rows"][0][key]
        assert got == pytest.approx(want)


def test_gap_curve_indefinite(tmp_path, capsys):
    p = tmp_path / "hyp.form"
    p.write_text(FORM_HYP)
    rc = main(["gap-curve", "--form", str(p), "-p", "r_grid=10",
               "-p", "window=-20,20"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["rows"][0]["d_r"] == pytest.approx(2.0)


def test_rationality_experiment(i2_file, capsys):
    rc = main(["rationality", "--form", i2_file, "-p", "r_schedule=6,10,16",
               "-p", "delta0=0.5", "-p", "delta=4.0"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"]["verdict"] == "rational-consistent"
    assert "rational" in out["verdicts"]["exact_classification"]


@pytest.mark.parametrize("param,reason", [("k=0", "k must be >= 1"),
                                          ("r_schedule=0.2,0.5,0.9",
                                           "r must be >= 1")])
def test_rationality_bad_k_or_r_exits_1(tmp_path, capsys, param, reason):
    p = tmp_path / "d2.form"
    p.write_text("kind: exact\n1\n0\n0\nsqrt(2)\n")
    rc = main(["rationality", "--form", str(p), "-p", param])
    assert rc == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "validation", "reason": reason}


def test_console_script_entrypoint(i2_file):
    proc = subprocess.run(
        [sys.executable, "-m", "qflab.cli", "raw-op", "--form", i2_file,
         "-p", "op=count-ellipsoid", "-p", "s=25"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"][0]["count"] == 81


FORM_SURD9 = "kind: exact\n" + "\n".join(
    (f"1+{k}/4*sqrt(2)" if i == j else "0")
    for i in range(9) for j in range(9) for k in [i])


@pytest.mark.parametrize("k_p", [["-p", "k=6", "-p", "p=2"], []],
                         ids=["k6-p2", "default-k-p"])
def test_expansion_experiment(tmp_path, capsys, k_p):
    p = tmp_path / "surd9.form"
    p.write_text(FORM_SURD9)
    rc = main(["expansion", "--form", str(p), "-p", "s_grid=400,800",
               "-p", "R=6", "-p", "r=1", *k_p,
               "-p", "samples=20000", "-p", "T=2"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert len(out["rows"]) == 2
    assert out["fitted"]["envelope"] > 0


def test_expansion_zero_samples_exits_1(tmp_path, capsys):
    p = tmp_path / "surd9.form"
    p.write_text(FORM_SURD9)
    rc = main(["expansion", "--form", str(p), "-p", "samples=0", "-p", "s_grid=150",
               "-p", "R=4", "-p", "r=1", "-p", "T=1"])
    assert rc == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "validation", "reason": "n_samples must be >= 1"}


def test_thm51_experiment(tmp_path, capsys):
    p = tmp_path / "all2.form"
    p.write_text("kind: exact\n" + "\n".join(
        ("2" if i == j else "0") for i in range(9) for j in range(9)))
    rc = main(["thm51", "--form", str(p), "-p", "s=100", "-p", "T_grid=2,4",
               "-p", "alpha=0", "-p", "a=" + ",".join(["0.5"] * 9),
               "-p", "Lambda=1.0"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"]["dichotomy_violations"] == 0
    assert all(row["J"] <= row["bound"] for row in out["rows"])


def test_volume8_experiment(tmp_path, capsys):
    p = tmp_path / "q3.form"
    p.write_text(FORM_Q3)
    rc = main(["volume-8", "--form", str(p), "-p", "R_grid=16,32",
               "-p", "samples=20000", "--seed", "3"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert len(out["rows"]) == 2
    assert out["fitted"]["limit"] == pytest.approx(2 * 3.14159265 * 0.2, rel=0.02)


# ---------------------------------------------------------------------------
# parameter tables
# ---------------------------------------------------------------------------

FORM_I9 = "kind: exact\n" + "\n".join(
    ("1" if i == j else "0") for i in range(9) for j in range(9))
README = Path(__file__).resolve().parents[1] / "README.md"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _tables():
    """Every parameter table under its row label in README's key table."""
    out = {}
    for kind, table in cli._KINDS.items():
        if isinstance(table, cli.Table):
            out[kind] = table
        else:
            out[f"{kind}, other forms"], out[f"{kind}, positive form"] = table
    out.update({f"raw-op {op}": table for op, table in cli._RAW_OPS.items()})
    return out


# label -> (form text or None, a value for each key without a default)
DEFAULT_RUNS = {
    "delta-curve": (FORM_I2, {"s_grid": "9"}),
    "gamma-curve": (FORM_I2, {"s_grid": "9"}),
    "gap-curve, positive form": (FORM_I2, {"tau_grid": "9"}),
    "gap-curve, other forms": (FORM_HYP, {"r_grid": "5", "window": "-4,4"}),
    "expansion": (FORM_I9, {"s_grid": "9"}),
    "thm51": (FORM_I9, {}),
    "rationality": (FORM_I2, {}),
    "volume-8": (FORM_Q3, {}),
    "raw-op count-ellipsoid": (FORM_I2, {"s": "9"}),
    "raw-op count-shell": (FORM_I2, {"tau": "9", "delta": "1"}),
    "raw-op enumerate-values": (FORM_I2, {"r": "3", "window": "0,5"}),
    "raw-op ellipsoid-volume": (FORM_I2, {"s": "9"}),
    "raw-op delta-error": (FORM_I2, {"s": "9"}),
    "raw-op phi": (FORM_I2, {"t": "0.5", "s": "9"}),
    "raw-op phi-symmetrized": (FORM_I2, {"t": "0.5", "r": "3"}),
    "raw-op theta": (None, {"s": "3"}),
    "raw-op mm": (None, {"t": "2", "s": "100"}),
    "raw-op rho-of-s": (None, {"s": "100", "T": "10", "gamma": "0", "d": "9",
                               "eps": "0.05"}),
    "raw-op dirichlet-approx": (None, {"v": "1.41421356", "N": "10"}),
    "raw-op count-H": (FORM_I2, {"t": "0.5", "r": "3"}),
    "raw-op successive-minima": (FORM_I2, {"t": "0.5", "r": "3"}),
    "raw-op moments-pi": (None, {"k": "2", "eta": "2,4"}),
}


def test_default_runs_cover_every_table():
    assert sorted(DEFAULT_RUNS) == sorted(_tables())


@pytest.mark.parametrize("label", sorted(DEFAULT_RUNS))
def test_every_table_runs_on_its_defaults(tmp_path, capsys, label):
    form_text, params = DEFAULT_RUNS[label]
    table = _tables()[label]
    # only the keys that have no default are given
    assert set(params) == {k for k, (_, d) in table.keys.items()
                           if d is cli.REQUIRED}
    kind, _, op = label.partition(" ")
    argv = [kind.rstrip(",")]
    if kind == "raw-op":
        argv += ["-p", f"op={op}"]
    if form_text is not None:
        p = tmp_path / "q.form"
        p.write_text(form_text)
        argv += ["--form", str(p)]
    for key, value in params.items():
        argv += ["-p", f"{key}={value}"]
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["rows"]


def _readme_key_rows():
    text = README.read_text()
    block = text[text.index("| kind "):].split("\n\n")[0]
    rows = {}
    for line in block.splitlines()[2:]:
        label, keys = [cell.strip() for cell in line.strip("|").split("|")]
        rows[label] = re.findall(r"`([^`]*)`", keys)
    return rows


def test_readme_key_table_matches_the_tables():
    rows = _readme_key_rows()
    assert rows.pop("raw-op") == ["op"]
    tables = _tables()
    assert sorted(rows) == sorted(tables)
    for label, tokens in rows.items():
        keys = tables[label].keys
        documented = dict(t.partition("=")[::2] for t in tokens)
        assert sorted(documented) == sorted(keys), label
        for key, default_text in documented.items():
            parse, default = keys[key]
            if default_text:
                assert parse(default_text) == default, (label, key)
            else:
                assert default is cli.REQUIRED or default is None, (label, key)


def _fails(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == EXIT_VALIDATION
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "validation"
    return err["reason"]


def test_misspelt_key_exits_1(i2_file, capsys):
    reason = _fails(["gamma-curve", "--form", i2_file, "-p", "s_grid=16",
                     "-p", "a-res=0"], capsys)
    assert reason.startswith("unknown parameter 'a-res'; known: ")


@pytest.mark.parametrize("argv", [
    ["delta-curve", "-p", "s_grid=25"],
    ["gap-curve", "-p", "r_grid=10", "-p", "window=-20,20"],
], ids=["delta-curve", "gap-curve-indefinite"])
def test_short_shift_exits_1(tmp_path, capsys, argv):
    p = tmp_path / "q.form"
    p.write_text(FORM_HYP if argv[0] == "gap-curve" else FORM_I2)
    reason = _fails([*argv, "--form", str(p), "-p", "a=0.5"], capsys)
    assert reason == ("parameter 'a': needs 2 entries (the form's dimension), "
                      "got 1")


@pytest.mark.parametrize("param,reason", [
    ("s_grid=", "parameter 's_grid': empty list"),
    ("s_grid=0,25", "s must be > 0"),
    ("s_grid=1,x", "parameter 's_grid': could not convert string to float: 'x'"),
])
def test_bad_s_grid_exits_1(i2_file, capsys, param, reason):
    assert _fails(["delta-curve", "--form", i2_file, "-p", param], capsys) == reason


def test_missing_raw_op_key_is_named(i2_file, capsys):
    reason = _fails(["raw-op", "--form", i2_file, "-p", "op=count-ellipsoid"],
                    capsys)
    assert reason == "missing parameter 's'"


def test_unknown_csv_column_exits_1(i2_file, capsys):
    reason = _fails(["delta-curve", "--form", i2_file, "-p", "s_grid=25",
                     "--format", "csv", "--columns", "s,nope"], capsys)
    assert reason == "unknown column 'nope'"


def test_config_file_keys_keep_their_case(tmp_path, i2_file, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[experiment]\nkind = gamma-curve\nform = {i2_file}\n\n"
                   "[params]\ns_grid = 16\nT = 2.0\na_res = 8\n")
    assert main(["--config", str(cfg)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert [row["T"] for row in out["rows"]] == [2.0]
    assert out["config"]["params"] == {"T": "2.0", "a_res": "8", "s_grid": "16"}


_EXP = "[experiment]\nkind = gamma-curve\nform = {form}\n"
_PARAMS = "[params]\ns_grid = 16\nT = 2.0\na_res = 8\n"


@pytest.mark.parametrize("text,reason", [
    (_EXP + _PARAMS + "[run]\nsead = 7\n", "unknown key 'sead' in [run]"),
    (_EXP + _PARAMS + "[run]\nformt = csv\n", "unknown key 'formt' in [run]"),
    (_EXP + _PARAMS + "[extra]\nseed = 7\n", "unknown config section [extra]"),
    (_EXP + "seed = 7\n" + _PARAMS, "unknown key 'seed' in [experiment]"),
    (_EXP + _PARAMS + _PARAMS, "While reading"),
])
def test_config_file_refuses_unknown_sections_and_keys(tmp_path, i2_file, capsys,
                                                       text, reason):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text.format(form=i2_file))
    assert _fails(["--config", str(cfg)], capsys).startswith(reason)


def test_benchmark_configs_parse_and_echo_unchanged(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        for op in workload.full + workload.toy:
            cfg = ExperimentConfig(
                kind=op.kind, form_path=str(workloads.FORMS_DIR / f"{op.form}.form"),
                params=dict(op.params), budget=workloads.BUDGET)
            cli._resolve(cfg)
            assert json.dumps(cfg.resolved(), sort_keys=True) == json.dumps({
                "budget": workloads.BUDGET, "form_path": cfg.form_path,
                "format": "json", "kind": op.kind,
                "params": dict(sorted(op.params.items())), "seed": 0,
                "version": qflab.__version__, "workers": 1}, sort_keys=True)
