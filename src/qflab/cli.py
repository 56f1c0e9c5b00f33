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

EXPERIMENT_KINDS = ("delta-curve", "gamma-curve", "gap-curve", "expansion",
                    "thm51", "rationality", "volume-8", "raw-op")


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

    def to_csv(self, columns: Optional[list[str]] = None) -> str:
        return emit_plotdata(self, columns)


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
# experiment implementations
# ---------------------------------------------------------------------------


def _floats(params, key, default=None):
    if key not in params:
        if default is None:
            raise ValueError(f"missing parameter {key!r}")
        return default
    return [float(x) for x in str(params[key]).replace(",", " ").split()]


def _load_form(cfg: ExperimentConfig) -> QuadraticForm:
    if not cfg.form_path:
        raise ValueError("experiment requires a form file (--form)")
    text = Path(cfg.form_path).read_text()
    return parse_form_file(text)


def _run_delta_curve(cfg: ExperimentConfig) -> tuple[list, dict, dict]:
    form = _load_form(cfg)
    s_list = _floats(cfg.params, "s_grid")
    a = _floats(cfg.params, "a", [0.0] * form.dim)
    rows = vol_mod.delta_curve(form, a, s_list, budget=cfg.budget)
    return rows, {}, {}


def _run_gamma_curve(cfg: ExperimentConfig) -> tuple[list, dict, dict]:
    form = _load_form(cfg)
    s_list = _floats(cfg.params, "s_grid")
    T = float(cfg.params.get("T", 4.0))
    a_res = int(cfg.params.get("a_res", 96))
    rows = []
    for s in s_list:
        g = trig_mod.gamma_estimate(form, s, T, a_res=a_res)
        rows.append({"s": s, "T": T, "gamma": g.gamma, "t_star": g.t_star})
    return rows, {}, {}


def _run_gap_curve(cfg: ExperimentConfig) -> tuple[list, dict, dict]:
    form = _load_form(cfg)
    a = _floats(cfg.params, "a", [0.0] * form.dim)
    rows = []
    if form.is_positive:
        horizon = float(cfg.params.get("horizon", 50.0))
        for tau in _floats(cfg.params, "tau_grid"):
            rep = gaps_mod.max_gap_positive(form, a, tau, horizon,
                                            budget=cfg.budget)
            rows.append({"tau": tau, "horizon": horizon,
                         "max_gap": rep.max_gap, "n_values": rep.n_values,
                         "gap_lo": rep.achieving_pair[0],
                         "gap_hi": rep.achieving_pair[1]})
    else:
        window = _floats(cfg.params, "window")
        for r in _floats(cfg.params, "r_grid"):
            rep = gaps_mod.max_gap_indefinite(form, a, r, tuple(window),
                                              budget=cfg.budget)
            rows.append({"r": r, "d_r": rep["d_r"],
                         "spectrum_size": rep["spectrum_size"],
                         "gap_lo": rep["achieving_pair"][0],
                         "gap_hi": rep["achieving_pair"][1]})
    return rows, {}, {}


def _run_expansion(cfg: ExperimentConfig) -> tuple[list, dict, dict]:
    form = _load_form(cfg)
    a = _floats(cfg.params, "a", [0.0] * form.dim)
    scheme = smooth_mod.build_scheme(float(cfg.params.get("R", 12)),
                                     float(cfg.params.get("r", 3)),
                                     int(cfg.params.get("k", 8)))
    p = int(cfg.params.get("p", 3))
    samples = int(cfg.params.get("samples", 10 ** 6))
    rep = smooth_mod.expansion_residual(
        form, a, _floats(cfg.params, "s_grid"), scheme, p,
        samples=samples, seed=cfg.seed, workers=cfg.workers,
        T=float(cfg.params.get("T", 4.0)), budget=cfg.budget)
    rows = []
    for row in rep["rows"]:
        rows.append({"s": row["s"], "F": float(row["F"]),
                     "F0": row["F0"].mean, "F0_stderr": row["F0"].stderr,
                     "residual": row["residual"],
                     "residual_stderr": row["residual_stderr"]})
    fitted = {"envelope": rep["envelope"], "gamma": rep["gamma"],
              "constant": rep["fitted_constant"]}
    return rows, fitted, {}


def _run_thm51(cfg: ExperimentConfig) -> tuple[list, dict, dict]:
    form = _load_form(cfg)
    a = _floats(cfg.params, "a", [0.0] * form.dim)
    s = float(cfg.params.get("s", 100.0))
    kappa = float(cfg.params.get("kappa", form.dim / 2.0))
    alpha = float(cfg.params.get("alpha", 0.0))
    lam = cfg.params.get("Lambda")
    if lam is None:
        chk = trig_mod.check_basic_inequality(form, a, s, seed=cfg.seed)
        lam = chk["lambda_fitted"]
    lam = float(lam)
    rows = []
    viols = 0
    for T in _floats(cfg.params, "T_grid", [2.0, 4.0, 8.0]):
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


def _run_rationality(cfg: ExperimentConfig) -> tuple[list, dict, dict]:
    form = _load_form(cfg)
    probe = rat_mod.rationality_probe(
        form,
        float(cfg.params.get("delta0", 0.5)),
        float(cfg.params.get("delta", 4.0)),
        _floats(cfg.params, "r_schedule", [10.0, 20.0, 40.0]),
        k=int(cfg.params.get("k", 1)))
    rows = [{"r": r, "sup_phi": v} for r, v in probe.curve]
    return rows, {}, {"verdict": probe.verdict,
                      "exact_classification": str(form.rationality)}


def _run_volume8(cfg: ExperimentConfig) -> tuple[list, dict, dict]:
    form = _load_form(cfg)
    a = _floats(cfg.params, "a", [0.0] * form.dim)
    I0 = tuple(_floats(cfg.params, "I0", [0.0, 1.0]))
    I = tuple(_floats(cfg.params, "I", [-0.1, 0.1]))
    samples = int(cfg.params.get("samples", 10 ** 6))
    M = vol_mod.sup_norm_functional()
    lim = vol_mod.indefinite_limit_formula(form, M, I0, I,
                                           samples=max(samples // 10, 1000),
                                           seed=cfg.seed, workers=cfg.workers)
    rows = []
    d = form.dim
    for R in _floats(cfg.params, "R_grid", [8.0, 16.0, 32.0, 64.0]):
        mc = vol_mod.indefinite_volume_mc(form, a, M, R, I0, I,
                                          samples=samples, seed=cfg.seed,
                                          workers=cfg.workers)
        rows.append({"R": R, "volume": mc.mean, "volume_stderr": mc.stderr,
                     "scaled": mc.mean / R ** (d - 2),
                     "scaled_stderr": mc.stderr / R ** (d - 2)})
    fitted = {"limit": lim.mean, "limit_stderr": lim.stderr}
    return rows, fitted, {}


_RAW_OPS = {}


def _raw_op(name):
    def deco(fn):
        _RAW_OPS[name] = fn
        return fn
    return deco


@_raw_op("count-ellipsoid")
def _rawop_count(cfg, form, params):
    a = _floats(params, "a", [0.0] * form.dim)
    res = lattice_mod.count_ellipsoid(form, a, float(params["s"]),
                                      budget=cfg.budget)
    return [{"s": res.s, "count": res.count, "method": res.method,
             "visited": res.visited}]


@_raw_op("count-shell")
def _rawop_shell(cfg, form, params):
    a = _floats(params, "a", [0.0] * form.dim)
    res = lattice_mod.count_shell(form, a, float(params["tau"]),
                                  float(params["delta"]), budget=cfg.budget)
    return [{"count": res.count, "method": res.method}]


@_raw_op("enumerate-values")
def _rawop_values(cfg, form, params):
    a = _floats(params, "a", [0.0] * form.dim)
    window = tuple(_floats(params, "window"))
    spectrum = lattice_mod.enumerate_values(form, a, float(params["r"]),
                                            window, budget=cfg.budget)
    return [{"value": float(v), "multiplicity": int(m)}
            for v, m in zip(spectrum.values, spectrum.multiplicities)]


@_raw_op("ellipsoid-volume")
def _rawop_vol(cfg, form, params):
    return [{"volume": vol_mod.ellipsoid_volume(form, float(params["s"]))}]


@_raw_op("delta-error")
def _rawop_delta(cfg, form, params):
    a = _floats(params, "a", [0.0] * form.dim)
    return [{"delta": vol_mod.delta_error(form, a, float(params["s"]),
                                          budget=cfg.budget)}]


@_raw_op("phi")
def _rawop_phi(cfg, form, params):
    a = _floats(params, "a", [0.0] * form.dim)
    val = trig_mod.phi(form, a, float(params["t"]), float(params["s"]),
                       mode=params.get("mode", "auto"), budget=cfg.budget,
                       seed=cfg.seed)
    if isinstance(val, tuple):
        return [{"phi": val[0], "stderr": val[1]}]
    return [{"phi": val}]


@_raw_op("phi-symmetrized")
def _rawop_phisym(cfg, form, params):
    return [{"phi_sym": trig_mod.phi_symmetrized(
        form, float(params["t"]), float(params["r"]),
        int(params.get("k", 1)), budget=cfg.budget)}]


@_raw_op("theta")
def _rawop_theta(cfg, form, params):
    return [{"theta": bounds_mod.theta(int(params["s"]))}]


@_raw_op("mm")
def _rawop_mm(cfg, form, params):
    return [{"mm": trig_mod.mm(float(params["t"]), float(params["s"]))}]


@_raw_op("rho-of-s")
def _rawop_rho(cfg, form, params):
    return [{"rho": trig_mod.rho_of_s(float(params["s"]), float(params["T"]),
                                      float(params["gamma"]),
                                      int(params["d"]), float(params["eps"]))}]


@_raw_op("dirichlet-approx")
def _rawop_dirichlet(cfg, form, params):
    v = _floats(params, "v")
    out = rat_mod.dirichlet_approx(v, int(params["N"]))
    return [{"q": out["q"], "u": " ".join(str(int(x)) for x in out["u"]),
             "error": out["error"]}]


@_raw_op("count-H")
def _rawop_counth(cfg, form, params):
    return [{"count_H": rat_mod.count_H(form, float(params["t"]),
                                        float(params["r"]),
                                        budget=cfg.budget)}]


@_raw_op("successive-minima")
def _rawop_minima(cfg, form, params):
    res = rat_mod.successive_minima(form, float(params["t"]),
                                    float(params["r"]),
                                    mode=params.get("mode", "reduction"))
    return [{"index": i + 1, "minimum": m, "quality": res.quality,
             "mode": res.mode} for i, m in enumerate(res.minima)]


@_raw_op("moments-pi")
def _rawop_moments(cfg, form, params):
    orders = [int(x) for x in str(params["eta"]).replace(",", " ").split()]
    val = smooth_mod.moments_pi(int(params["k"]), tuple(orders))
    return [{"moment": float(val), "exact": str(val)}]


def _run_raw_op(cfg: ExperimentConfig) -> tuple[list, dict, dict]:
    op = cfg.params.get("op")
    if op not in _RAW_OPS:
        raise ValueError(f"unknown raw op {op!r}; known: {sorted(_RAW_OPS)}")
    needs_form = op not in ("theta", "mm", "rho-of-s", "dirichlet-approx",
                            "moments-pi")
    form = _load_form(cfg) if needs_form else None
    rows = _RAW_OPS[op](cfg, form, cfg.params)
    return rows, {}, {}


_RUNNERS = {
    "delta-curve": _run_delta_curve,
    "gamma-curve": _run_gamma_curve,
    "gap-curve": _run_gap_curve,
    "expansion": _run_expansion,
    "thm51": _run_thm51,
    "rationality": _run_rationality,
    "volume-8": _run_volume8,
    "raw-op": _run_raw_op,
}


def run(cfg: ExperimentConfig) -> ExperimentReport:
    """Dispatch one experiment; deterministic for fixed (seed, workers)."""
    cfg.validate()
    t0 = time.perf_counter()
    rows, fitted, verdicts = _RUNNERS[cfg.kind](cfg)
    return ExperimentReport(config=cfg.resolved(), rows=rows, fitted=fitted,
                            verdicts=verdicts, wall_time=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _config_from_file(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path}")
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
    ap.add_argument("--form", help="form file (kind: exact|float header)")
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
        if args.kind:
            cfg.kind = args.kind
        if args.form:
            cfg.form_path = args.form
        if args.seed is not None:
            cfg.seed = args.seed
        if args.workers is not None:
            cfg.workers = args.workers
        if args.budget is not None:
            cfg.budget = args.budget
        if args.out:
            cfg.out = args.out
        if args.format:
            cfg.format = args.format
        for kv in args.param:
            if "=" not in kv:
                raise ValueError(f"parameter {kv!r} is not KEY=VALUE")
            key, val = kv.split("=", 1)
            cfg.params[key.strip()] = val.strip()
        report = run(cfg)
    except BudgetExceededError as exc:
        print(json.dumps({"error": "budget-exceeded", "reason": str(exc),
                          "visited": exc.visited, "required": exc.required}),
              file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, OSError, QflabError) as exc:
        print(json.dumps({"error": "validation", "reason": str(exc)}),
              file=sys.stderr)
        return EXIT_VALIDATION

    if cfg.format == "csv":
        cols = args.columns.split(",") if args.columns else None
        text = report.to_csv(cols)
    else:
        text = report.to_json() + "\n"
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
