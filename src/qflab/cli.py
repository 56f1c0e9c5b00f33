"""Reproducible experiment runner.

One subcommand per experiment kind plus a raw-op escape hatch.  Every run
resolves to an ExperimentConfig, executes deterministically for a fixed
(seed, workers) pair, and writes a self-describing report as JSON or CSV.
Config files are INI-style key-value text; command-line flags override them.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import BudgetExceededError, QflabError
from .forms import QuadraticForm, parse_form_file
from . import bounds as bounds_mod
from . import gaps as gaps_mod
from . import lattice as lattice_mod
from . import rationality as rat_mod
from . import smoothing as smooth_mod
from . import trig as trig_mod
from . import volume as vol_mod

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BUDGET = 2


@dataclass
class ExperimentConfig:
    kind: str
    form_path: Optional[str] = None
    params: dict = field(default_factory=dict)
    seed: int = 0
    workers: int = 1
    budget: int = 10 ** 9
    out: Optional[str] = None
    format: str = "json"

    def validate(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")

    def resolved(self) -> dict:
        return {
            "kind": self.kind,
            "form_path": self.form_path,
            "params": dict(sorted(self.params.items())),
            "seed": self.seed,
            "workers": self.workers,
            "budget": self.budget,
            "format": self.format,
            "version": __version__,
        }


@dataclass
class ExperimentReport:
    config: dict
    rows: list
    fitted: dict
    verdicts: dict
    wall_time: float

    def payload(self) -> dict:
        """Everything that must reproduce bit-identically under rerun."""
        return {"config": self.config, "rows": self.rows,
                "fitted": self.fitted, "verdicts": self.verdicts}

    def to_json(self) -> str:
        out = dict(self.payload())
        out["wall_time"] = self.wall_time
        return json.dumps(out, indent=2, sort_keys=True, default=_jsonify)


def _jsonify(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "__dict__"):
        return obj.__dict__
    return str(obj)


def _fmt17(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def emit_plotdata(report: ExperimentReport, columns: Optional[list[str]] = None) -> str:
    """Selected row columns as CSV with a header; floats at 17 significant digits."""
    rows = report.rows
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
    for c in columns:
        if rows and c not in rows[0]:
            raise ValueError(f"unknown column {c!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt17(row[c]) for c in columns])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# parameter tables and experiment implementations
# ---------------------------------------------------------------------------

REQUIRED = object()     # default of a key that must be given


def _list(item, n=None):
    """Parser of a non-empty tuple of `item`s, comma- or space-separated, with
    exactly n entries when n is given."""
    def parse(text) -> tuple:
        values = tuple(item(x) for x in str(text).replace(",", " ").split())
        if not values:
            raise ValueError("empty list")
        if n and len(values) != n:
            raise ValueError(f"needs {n} entries, got {len(values)}")
        return values
    return parse


_floats, _pair = _list(float), _list(float, 2)
NUM = (float, REQUIRED)
GRID = (_floats, REQUIRED)
SHIFT = (_floats, None)     # zeros by default; must have form.dim entries

# A runner and its parameters, key -> (parser, default).  The runner is called
# as run(cfg, form, **values); form is None when `form` is false.
Table = namedtuple("Table", "run keys form", defaults=(True,))


def _parse(keys: dict, params: dict, form: Optional[QuadraticForm]) -> dict:
    """Typed values of `params` under one table: unknown, missing and
    malformed keys and a shift of the wrong length raise ValueError."""
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise ValueError(f"unknown parameter {', '.join(map(repr, unknown))}; "
                         f"known: {sorted(keys)}")
    values = {}
    for key, (parse, default) in keys.items():
        if key in params:
            try:
                values[key] = parse(params[key])
            except ValueError as exc:
                raise ValueError(f"parameter {key!r}: {exc}") from None
        elif default is REQUIRED:
            raise ValueError(f"missing parameter {key!r}")
        else:
            values[key] = default
    if "a" in keys:
        if values["a"] is None:
            values["a"] = (0.0,) * form.dim
        elif len(values["a"]) != form.dim:
            raise ValueError(f"parameter 'a': needs {form.dim} entries (the "
                             f"form's dimension), got {len(values['a'])}")
    return values


def _load_form(cfg: ExperimentConfig) -> QuadraticForm:
    if not cfg.form_path:
        raise ValueError("experiment requires a form file (--form)")
    text = Path(cfg.form_path).read_text()
    return parse_form_file(text)


# experiment kinds: run(cfg, form, **values) -> (rows, fitted, verdicts)


def _run_delta_curve(cfg, form, s_grid, a):
    return vol_mod.delta_curve(form, a, s_grid, budget=cfg.budget), {}, {}


def _run_gamma_curve(cfg, form, s_grid, T, a_res):
    rows = []
    for s in s_grid:
        g = trig_mod.gamma_estimate(form, s, T, a_res=a_res)
        rows.append({"s": s, "T": T, "gamma": g.gamma, "t_star": g.t_star})
    return rows, {}, {}


def _run_gap_positive(cfg, form, tau_grid, horizon, a):
    rows = []
    for tau in tau_grid:
        rep = gaps_mod.max_gap_positive(form, a, tau, horizon, budget=cfg.budget)
        rows.append({"tau": tau, "horizon": horizon,
                     "max_gap": rep.max_gap, "n_values": rep.n_values,
                     "gap_lo": rep.achieving_pair[0],
                     "gap_hi": rep.achieving_pair[1]})
    return rows, {}, {}


def _run_gap_indefinite(cfg, form, r_grid, window, a):
    rows = []
    for r in r_grid:
        rep = gaps_mod.max_gap_indefinite(form, a, r, window, budget=cfg.budget)
        rows.append({"r": r, "d_r": rep["d_r"],
                     "spectrum_size": rep["spectrum_size"],
                     "gap_lo": rep["achieving_pair"][0],
                     "gap_hi": rep["achieving_pair"][1]})
    return rows, {}, {}


def _run_expansion(cfg, form, s_grid, R, r, k, p, samples, T, a):
    scheme = smooth_mod.build_scheme(R, r, k)
    rep = smooth_mod.expansion_residual(
        form, a, s_grid, scheme, p, samples=samples, seed=cfg.seed,
        workers=cfg.workers, T=T, budget=cfg.budget)
    rows = []
    for row in rep["rows"]:
        rows.append({"s": row["s"], "F": float(row["F"]),
                     "F0": row["F0"].mean, "F0_stderr": row["F0"].stderr,
                     "residual": row["residual"],
                     "residual_stderr": row["residual_stderr"]})
    fitted = {"envelope": rep["envelope"], "gamma": rep["gamma"],
              "constant": rep["fitted_constant"]}
    return rows, fitted, {}


def _run_thm51(cfg, form, s, T_grid, kappa, alpha, Lambda, a):
    if kappa is None:
        kappa = form.dim / 2.0
    if Lambda is None:
        chk = trig_mod.check_basic_inequality(form, a, s, seed=cfg.seed)
        Lambda = chk["lambda_fitted"]
    lam = float(Lambda)
    rows = []
    viols = 0
    for T in T_grid:
        prof = trig_mod.phi_profile(form, a, s, T)
        J = bounds_mod.integrate_J(prof, s, T, alpha)
        gamma = float(np.max(prof.values))
        b = bounds_mod.thm51_bound(gamma, lam, kappa, s, T, alpha)
        reports = bounds_mod.cluster_structure(prof, s, kappa, lam, alpha=alpha)
        nv = sum(len(r.violations) for r in reports)
        viols += nv
        rows.append({"T": T, "J": J, "gamma": gamma, "branch": b["branch"],
                     "bound": b["value"], "C": J / b["value"],
                     "levels": len(reports), "violations": nv})
    cs = [r["C"] for r in rows]
    fitted = {"Lambda": lam, "C_max": max(cs),
              "C_variation": max(cs) / min(cs) if min(cs) > 0 else math.inf}
    return rows, fitted, {"dichotomy_violations": viols}


def _run_rationality(cfg, form, delta0, delta, r_schedule, k):
    probe = rat_mod.rationality_probe(form, delta0, delta, r_schedule, k=k)
    rows = [{"r": r, "sup_phi": v} for r, v in probe.curve]
    return rows, {}, {"verdict": probe.verdict,
                      "exact_classification": str(form.rationality)}


def _run_volume8(cfg, form, R_grid, I0, I, samples, a):
    M = vol_mod.sup_norm_functional()
    lim = vol_mod.indefinite_limit_formula(form, M, I0, I,
                                           samples=max(samples // 10, 1000),
                                           seed=cfg.seed, workers=cfg.workers)
    rows = []
    d = form.dim
    for R in R_grid:
        mc = vol_mod.indefinite_volume_mc(form, a, M, R, I0, I,
                                          samples=samples, seed=cfg.seed,
                                          workers=cfg.workers)
        rows.append({"R": R, "volume": mc.mean, "volume_stderr": mc.stderr,
                     "scaled": mc.mean / R ** (d - 2),
                     "scaled_stderr": mc.stderr / R ** (d - 2)})
    fitted = {"limit": lim.mean, "limit_stderr": lim.stderr}
    return rows, fitted, {}


_KINDS = {
    "delta-curve": Table(_run_delta_curve, {"s_grid": GRID, "a": SHIFT}),
    "gamma-curve": Table(_run_gamma_curve, {"s_grid": GRID, "T": (float, 4.0),
                                            "a_res": (int, 96)}),
    # indexed by form.is_positive
    "gap-curve": (Table(_run_gap_indefinite, {"r_grid": GRID,
                                              "window": (_pair, REQUIRED),
                                              "a": SHIFT}),
                  Table(_run_gap_positive, {"tau_grid": GRID,
                                            "horizon": (float, 50.0),
                                            "a": SHIFT})),
    "expansion": Table(_run_expansion, {
        "s_grid": GRID, "R": (float, 12.0), "r": (float, 3.0), "k": (int, 8),
        "p": (int, 3), "samples": (int, 10 ** 6), "T": (float, 4.0),
        "a": SHIFT}),
    "thm51": Table(_run_thm51, {
        "s": (float, 100.0), "T_grid": (_floats, (2.0, 4.0, 8.0)),
        "kappa": (float, None), "alpha": (float, 0.0),
        "Lambda": (float, None), "a": SHIFT}),
    "rationality": Table(_run_rationality, {
        "delta0": (float, 0.5), "delta": (float, 4.0),
        "r_schedule": (_floats, (10.0, 20.0, 40.0)), "k": (int, 1)}),
    "volume-8": Table(_run_volume8, {
        "R_grid": (_floats, (8.0, 16.0, 32.0, 64.0)),
        "I0": (_pair, (0.0, 1.0)), "I": (_pair, (-0.1, 0.1)),
        "samples": (int, 10 ** 6), "a": SHIFT}),
}
EXPERIMENT_KINDS = (*_KINDS, "raw-op")


# raw ops: run(cfg, form, **values) -> rows


def _op_count_ellipsoid(cfg, form, s, a):
    res = lattice_mod.count_ellipsoid(form, a, s, budget=cfg.budget)
    return [{"s": res.s, "count": res.count, "method": res.method,
             "visited": res.visited}]


def _op_count_shell(cfg, form, tau, delta, a):
    res = lattice_mod.count_shell(form, a, tau, delta, budget=cfg.budget)
    return [{"count": res.count, "method": res.method}]


def _op_enumerate_values(cfg, form, r, window, a):
    spectrum = lattice_mod.enumerate_values(form, a, r, window, budget=cfg.budget)
    return [{"value": float(v), "multiplicity": int(m)}
            for v, m in zip(spectrum.values, spectrum.multiplicities)]


def _op_phi(cfg, form, t, s, mode, a):
    val = trig_mod.phi(form, a, t, s, mode=mode, budget=cfg.budget, seed=cfg.seed)
    if isinstance(val, tuple):
        return [{"phi": val[0], "stderr": val[1]}]
    return [{"phi": val}]


def _op_dirichlet_approx(cfg, form, v, N):
    out = rat_mod.dirichlet_approx(v, N)
    return [{"q": out["q"], "u": " ".join(str(int(x)) for x in out["u"]),
             "error": out["error"]}]


def _op_successive_minima(cfg, form, t, r, mode):
    res = rat_mod.successive_minima(form, t, r, mode=mode)
    return [{"index": i + 1, "minimum": m, "quality": res.quality,
             "mode": res.mode} for i, m in enumerate(res.minima)]


def _op_moments_pi(cfg, form, k, eta):
    val = smooth_mod.moments_pi(k, eta)
    return [{"moment": float(val), "exact": str(val)}]


_RAW_OPS = {
    "count-ellipsoid": Table(_op_count_ellipsoid, {"s": NUM, "a": SHIFT}),
    "count-shell": Table(_op_count_shell, {"tau": NUM, "delta": NUM,
                                           "a": SHIFT}),
    "enumerate-values": Table(_op_enumerate_values, {
        "r": NUM, "window": (_pair, REQUIRED), "a": SHIFT}),
    "ellipsoid-volume": Table(
        lambda cfg, form, s: [{"volume": vol_mod.ellipsoid_volume(form, s)}],
        {"s": NUM}),
    "delta-error": Table(
        lambda cfg, form, s, a: [{"delta": vol_mod.delta_error(
            form, a, s, budget=cfg.budget)}],
        {"s": NUM, "a": SHIFT}),
    "phi": Table(_op_phi, {"t": NUM, "s": NUM, "mode": (str, "auto"),
                           "a": SHIFT}),
    "phi-symmetrized": Table(
        lambda cfg, form, t, r, k: [{"phi_sym": trig_mod.phi_symmetrized(
            form, t, r, k, budget=cfg.budget)}],
        {"t": NUM, "r": NUM, "k": (int, 1)}),
    "theta": Table(lambda cfg, form, s: [{"theta": bounds_mod.theta(s)}],
                   {"s": (int, REQUIRED)}, form=False),
    "mm": Table(lambda cfg, form, t, s: [{"mm": trig_mod.mm(t, s)}],
                {"t": NUM, "s": NUM}, form=False),
    "rho-of-s": Table(
        lambda cfg, form, s, T, gamma, d, eps: [{"rho": trig_mod.rho_of_s(
            s, T, gamma, d, eps)}],
        {"s": NUM, "T": NUM, "gamma": NUM, "d": (int, REQUIRED), "eps": NUM},
        form=False),
    "dirichlet-approx": Table(_op_dirichlet_approx, {
        "v": GRID, "N": (int, REQUIRED)}, form=False),
    "count-H": Table(
        lambda cfg, form, t, r: [{"count_H": rat_mod.count_H(
            form, t, r, budget=cfg.budget)}],
        {"t": NUM, "r": NUM}),
    "successive-minima": Table(_op_successive_minima, {
        "t": NUM, "r": NUM, "mode": (str, "reduction")}),
    "moments-pi": Table(_op_moments_pi, {"k": (int, REQUIRED),
                                         "eta": (_list(int), REQUIRED)},
                        form=False),
}


def _resolve(cfg: ExperimentConfig) -> tuple[Table, Optional[QuadraticForm], dict]:
    """cfg's table, its form (None when the table takes none) and the typed
    values of cfg.params, parsed once.  raw-op's `op` picks the op's table,
    and gap-curve's table follows the form's signature."""
    params = dict(cfg.params)
    if cfg.kind == "raw-op":
        op = params.pop("op", None)
        if op not in _RAW_OPS:
            raise ValueError(f"unknown raw op {op!r}; known: {sorted(_RAW_OPS)}")
        table = _RAW_OPS[op]
        form = _load_form(cfg) if table.form else None
    else:
        form = _load_form(cfg)
        table = _KINDS[cfg.kind]
        if not isinstance(table, Table):
            table = table[form.is_positive]
    return table, form, _parse(table.keys, params, form)


def run(cfg: ExperimentConfig) -> ExperimentReport:
    """Dispatch one experiment; deterministic for fixed (seed, workers)."""
    cfg.validate()
    t0 = time.perf_counter()
    table, form, values = _resolve(cfg)
    out = table.run(cfg, form, **values)
    rows, fitted, verdicts = (out, {}, {}) if cfg.kind == "raw-op" else out
    return ExperimentReport(config=cfg.resolved(), rows=rows, fitted=fitted,
                            verdicts=verdicts, wall_time=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


# config-file sections and their keys; [params] keys are checked per kind
_CONFIG_SECTIONS = {"experiment": ("kind", "form"), "params": None,
                    "run": ("seed", "workers", "budget", "out", "format")}


def _config_from_file(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    parser.optionxform = str    # keys are case-sensitive: T, R, I0, Lambda, N
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValueError(str(exc)) from None
    if not read:
        raise ValueError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in _CONFIG_SECTIONS:
            raise ValueError(f"unknown config section [{section}]; "
                             f"known: {sorted(_CONFIG_SECTIONS)}")
        keys = _CONFIG_SECTIONS[section]
        unknown = sorted(set(parser[section]) - set(keys)) if keys else []
        if unknown:
            raise ValueError(f"unknown key {', '.join(map(repr, unknown))} in "
                             f"[{section}]; known: {sorted(keys)}")
    exp = parser["experiment"] if "experiment" in parser else {}
    run_sec = parser["run"] if "run" in parser else {}
    params = dict(parser["params"]) if "params" in parser else {}
    return ExperimentConfig(
        kind=exp.get("kind", "raw-op"),
        form_path=exp.get("form") or None,
        params=params,
        seed=int(run_sec.get("seed", 0)),
        workers=int(run_sec.get("workers", 1)),
        budget=int(float(run_sec.get("budget", 10 ** 9))),
        out=run_sec.get("out") or None,
        format=run_sec.get("format", "json"),
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qflab",
        description="experiments on lattice points and values of quadratic forms")
    ap.add_argument("kind", nargs="?", choices=EXPERIMENT_KINDS,
                    help="experiment kind (or give --config)")
    ap.add_argument("--config", help="INI config file with sections "
                                     "[experiment], [params], [run]")
    ap.add_argument("--form", dest="form_path",
                    help="form file (kind: exact|float header)")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--workers", type=int, default=None)
    ap.add_argument("--budget", type=int, default=None)
    ap.add_argument("--out", help="output path (default: stdout)")
    ap.add_argument("--format", choices=("csv", "json"), default=None)
    ap.add_argument("--columns", help="comma-separated CSV column selection")
    ap.add_argument("-p", "--param", action="append", default=[],
                    metavar="KEY=VALUE", help="experiment parameter")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = _config_from_file(args.config) if args.config else ExperimentConfig(kind="raw-op")
        for name in ("kind", "form_path", "seed", "workers", "budget", "out",
                     "format"):
            if getattr(args, name) is not None:
                setattr(cfg, name, getattr(args, name))
        for kv in args.param:
            if "=" not in kv:
                raise ValueError(f"parameter {kv!r} is not KEY=VALUE")
            key, val = kv.split("=", 1)
            cfg.params[key.strip()] = val.strip()
        report = run(cfg)
        if cfg.format == "csv":
            cols = args.columns.split(",") if args.columns else None
            text = emit_plotdata(report, cols)
        else:
            text = report.to_json() + "\n"
        if cfg.out:
            Path(cfg.out).write_text(text)
        else:
            sys.stdout.write(text)
    except BudgetExceededError as exc:
        print(json.dumps({"error": "budget-exceeded", "reason": str(exc),
                          "visited": exc.visited, "required": exc.required}),
              file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, OSError, QflabError) as exc:
        print(json.dumps({"error": "validation", "reason": str(exc)}),
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
