"""qflab benchmark: time each experiment kind end to end and each module from outside.

    python3 perfbench/run.py --workload trig --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all             # every workload in turn

Each workload (trig, sampling, counting; see workloads.py and NOTES.md) is a
closed loop of experiment configs run one after another in this process, one
client, through the public entry `qflab.cli.run(ExperimentConfig)`.  Every
op's output is checked against the reference payload in reference/.

--trace 0 repeats passes over the op list for --seconds (at least
MIN_PASSES) with tracing off and prints the end-to-end metrics of
BENCHMARK.json as medians over the passes.  --trace 1 runs one untraced pass
and one pass with timing shims on every public qflab function (spans.py) and
prints the per-layer metrics.  The last line of stdout is the JSON result;
the run's details (environment, per-pass times, spans) go to out/.

qflab is imported from src/ of the checkout this file sits in, never from an
installed copy, so the benchmark fails without the program's sources.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import check
import spans
from workloads import BUDGET, FORMS_DIR, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"

MIN_PASSES = 2
# set-up is timed in fresh processes, SETUP_PER_GAP before every pass and the
# rest after the last one, so the samples span the run and not just one
# moment of a machine whose speed drifts
SETUP_PER_GAP = 2
SETUP_REPEATS = 7
COVERAGE_MAX_SELF_FRAC = 0.10   # cli.run's own share of the traced pass


def import_cli():
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import qflab.cli as cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import qflab from {src}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: qflab imported from {cli.__file__}, not {src}")
    return cli


def setup(workload, toy: bool, seed: int):
    """Imports, form parsing and configs: everything before the first op."""
    cli = import_cli()
    ops = workload.ops(toy)
    for form in sorted({op.form for op in ops}):
        cli.parse_form_file((FORMS_DIR / f"{form}.form").read_text())
    configs = [cli.ExperimentConfig(kind=op.kind,
                                    form_path=str(FORMS_DIR / f"{op.form}.form"),
                                    params=dict(op.params),
                                    seed=seed if op.mc else 0, budget=BUDGET)
               for op in ops]
    return cli, ops, configs


def measure_setup(args, repeats: int) -> list[float]:
    """Wall time of fresh processes that start and set up, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.toy:
        cmd.append("--toy")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_pass(cli, configs) -> tuple[float, list[float], list]:
    """One pass over the op list; (wall, per-op seconds, reports or tracebacks)."""
    gc.collect()
    times, reports = [], []
    t_pass = time.perf_counter()
    for cfg in configs:
        t0 = time.perf_counter()
        try:
            reports.append(cli.run(cfg))
        except Exception:  # a failing op is counted, and the pass goes on
            reports.append(traceback.format_exc())
        times.append(time.perf_counter() - t0)
    return time.perf_counter() - t_pass, times, reports


def payload(report) -> dict:
    out = json.loads(report.to_json())
    return {k: out[k] for k in ("rows", "fitted", "verdicts")}


def check_pass(ops, reports, refs) -> list[str]:
    """One line per failed op: it raised or its output left the reference."""
    failures = []
    for op, rep in zip(ops, reports):
        if isinstance(rep, str):
            failures.append(f"{op.name}: raised\n{rep}")
            continue
        bad = check.compare(payload(rep), refs[op.name])
        if bad:
            failures.append(f"{op.name}: " + "; ".join(bad[:5]))
    return failures


def reference_path(workload: str, toy: bool) -> Path:
    return REFERENCE_DIR / f"{'toy' if toy else 'full'}-{workload}.json"


def write_reference(args) -> int:
    """Store one pass's payloads as the reference (seed 0 only)."""
    if args.seed != 0:
        raise SystemExit("perfbench: references are written at seed 0")
    cli, ops, configs = setup(WORKLOADS[args.workload], args.toy, 0)
    _, _, reports = run_pass(cli, configs)
    for op, rep in zip(ops, reports):
        if isinstance(rep, str):
            raise SystemExit(f"perfbench: {op.name} raised\n{rep}")
    refs = {op.name: payload(rep) for op, rep in zip(ops, reports)}
    REFERENCE_DIR.mkdir(exist_ok=True)
    reference_path(args.workload, args.toy).write_text(
        json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def kind_times(ops, times) -> dict[str, float]:
    out: dict[str, float] = {}
    for op, t in zip(ops, times):
        out[op.kind_metric] = out.get(op.kind_metric, 0.0) + t
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> dict:
    import numpy as np
    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(seed: int) -> dict:
    import numpy as np
    return {"commit": _commit(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": _blas(),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed}


def _declared(spec: dict, section: str, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[section]}


def measure(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    cli, ops, configs = setup(workload, args.toy, args.seed)
    refs = json.loads(reference_path(args.workload, args.toy).read_text())
    setup_samples: list[float] = []
    record = {"workload": args.workload, "toy": args.toy, "trace": args.trace,
              "seconds": args.seconds, "env": environment(args.seed),
              "setup_samples_s": setup_samples, "passes": []}
    failures: list[str] = []

    def one_pass(traced: bool):
        wall, times, reports = run_pass(cli, configs)
        failures.extend(check_pass(ops, reports, refs))
        record["passes"].append({"traced": traced, "wall_s": wall,
                                 "op_s": dict(zip((op.name for op in ops), times))})
        return wall, times, reports

    if args.trace:
        wall_off, _, _ = one_pass(False)
        tracer = spans.Tracer()
        try:
            tracer.install()
            wall_on, _, reports = one_pass(True)
        finally:
            tracer.uninstall()
        values = tracer.layer_values()
        values["trace_overhead_s"] = wall_on - wall_off
        values["mc_rel_stderr"] = max(
            [check.mc_rel_stderr(payload(r)) for r in reports if not isinstance(r, str)],
            default=0.0)
        self_frac = values["cli.run.self_s"] / wall_on
        record.update(layer_values=values, spans=tracer.span_records(),
                      unfired=tracer.unfired(), cli_run_self_frac=self_frac)
        print(f"coverage: cli.run self time is {self_frac:.2%} of the traced pass "
              f"({'ok' if self_frac <= COVERAGE_MAX_SELF_FRAC else 'FAILED'}, limit "
              f"{COVERAGE_MAX_SELF_FRAC:.0%}); never fired: "
              f"{', '.join(tracer.unfired()) or 'none'}")
        metrics = _declared(spec, "per_layer", values)
    else:
        deadline = time.perf_counter() + args.seconds
        walls, kinds = [], []
        while len(walls) < MIN_PASSES or (
                time.perf_counter() + statistics.median(walls) <= deadline):
            t0 = time.perf_counter()
            setup_samples += measure_setup(args, SETUP_PER_GAP)
            deadline += time.perf_counter() - t0
            wall, times, _ = one_pass(False)
            walls.append(wall)
            kinds.append(kind_times(ops, times))
        setup_samples += measure_setup(
            args, max(SETUP_REPEATS - len(setup_samples), SETUP_PER_GAP))
        lead = [k[workload.lead] for k in kinds]
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setup_samples),
                  "peak_rss_mb": peak_rss_mb(),
                  "lead_kind_s": statistics.median(lead),
                  "other_kinds_s": statistics.median(
                      [w - l for w, l in zip(walls, lead)])}
        per_kind = {name: statistics.median(k[name] for k in kinds) for name in kinds[0]}
        record["per_kind_s"] = per_kind
        print("per-kind medians over", len(walls), "passes:",
              ", ".join(f"{k}={v:.4f}" for k, v in per_kind.items()))
        metrics = _declared(spec, "end_to_end", values)

    for line in failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    attempted = len(ops) * len(record["passes"])
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    record.update(failures=failures, result=result)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{'toy-' if args.toy else ''}{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("env:", json.dumps(record["env"], sort_keys=True))
    return result


def run_all(args) -> dict:
    """Each workload in its own process, so each has its own peak RSS."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd + (["--toy"] if args.toy else []), cwd=ROOT,
                             check=True, capture_output=True, text=True)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        print(f"== {name}", *lines[:-1], sep="\n")
        result = results[name] = json.loads(lines[-1])
        print(f"{name} failed_frac {result['failed'] / result['attempted']:.6g} 1")
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    return results


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="tiny inputs of the same kinds, for the self-tests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", action="store_true",
                    help="store one seed-0 pass as the reference payloads")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup(WORKLOADS[args.workload], args.toy, args.seed)
        return 0
    import_cli()
    if args.workload == "all" and args.write_reference:
        raise SystemExit("perfbench: --write-reference takes one workload")
    if args.workload == "all":
        print(json.dumps(run_all(args)))
    elif args.write_reference:
        return write_reference(args)
    else:
        print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
