"""Timing shims installed from outside around qflab's public functions.

Each wrapped call records a span (name, start, end, parent span).  Spans stay
in memory until the run ends.  A function is wrapped in every qflab module
namespace that binds it (smoothing, gaps and rationality import lattice, trig
and util functions by name); methods are wrapped on their class.  Work units
are computed from each call's arguments and result, never from inside qflab.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np


def _profile_units(a, res):
    t_nodes = len(res.t)
    n = math.isqrt(int(a["s"]))
    return {"t_nodes": t_nodes,
            "kernel_terms": t_nodes * a["a_res"] * (6 * n + 1) * a["form"].dim}


def _dp_units(a, res):
    cells = int(res.table.size)
    rows = sum(hi - lo + 1 for lo, hi in a["m_ranges"])
    return {"cells": cells, "cell_updates": cells * rows,
            "nonzero": int(np.count_nonzero(res.table))}


def _box(r, d):
    return (2 * math.floor(r) + 1) ** d


# (metric prefix, module, attribute path, work-unit names, work units from
# (arguments, result)); units sum over calls, and a function that never fires
# reports 0 for each
TARGETS = (
    ("cli.run", "qflab.cli", "run", (), None),
    ("forms.parse_form_file", "qflab.forms", "parse_form_file", (), None),
    ("scalars.ExactScalar.sign", "qflab.scalars", "ExactScalar.sign", (), None),
    # evals are counted by wrapping the objective; see Tracer._counting_golden
    ("util.golden_max", "qflab.util", "golden_max", ("evals",), None),
    ("trig.sup_phi_profile", "qflab.trig", "sup_phi_profile",
     ("t_nodes", "kernel_terms"), _profile_units),
    ("trig.gamma_estimate", "qflab.trig", "gamma_estimate", ("refine_gain",),
     lambda a, res: {"refine_gain": res.gamma - float(np.max(res.profile.values))}),
    ("trig.phi_profile", "qflab.trig", "phi_profile", (), None),
    ("trig.phi_factorized_batch", "qflab.trig", "phi_factorized_batch", ("t_nodes",),
     lambda a, res: {"t_nodes": len(a["ts"])}),
    ("trig.check_basic_inequality", "qflab.trig", "check_basic_inequality", (), None),
    ("trig.phi_symmetrized_batch", "qflab.trig", "phi_symmetrized_batch", ("t_nodes",),
     lambda a, res: {"t_nodes": len(a["ts"])}),
    ("trig.phi_symmetrized", "qflab.trig", "phi_symmetrized", (), None),
    ("bounds.integrate_J", "qflab.bounds", "integrate_J", (), None),
    ("bounds.cluster_structure", "qflab.bounds", "cluster_structure", ("levels",),
     lambda a, res: {"levels": len(res)}),
    ("rationality.sup_phi_symmetrized", "qflab.rationality", "sup_phi_symmetrized",
     (), None),
    ("rationality.successive_minima", "qflab.rationality", "successive_minima",
     (), None),
    ("rationality.lll_reduce", "qflab.rationality", "lll_reduce", (), None),
    ("rationality.count_H", "qflab.rationality", "count_H", ("box_points",),
     lambda a, res: {"box_points": _box(4 * a["r"], a["form"].dim)}),
    ("lattice.diagonal_value_dp", "qflab.lattice", "diagonal_value_dp",
     ("cells", "cell_updates", "nonzero"), _dp_units),
    ("lattice.dp_count_le", "qflab.lattice", "dp_count_le", (), None),
    ("lattice.dp_window_values", "qflab.lattice", "dp_window_values", ("pairs",),
     lambda a, res: {"pairs": len(res)}),
    ("lattice.enumerate_values", "qflab.lattice", "enumerate_values", ("box_points",),
     lambda a, res: {"box_points": _box(a["r"], a["form"].dim)}),
    ("lattice.ellipsoid_candidates", "qflab.lattice", "ellipsoid_candidates",
     ("visited", "kept"), lambda a, res: {"visited": res[1], "kept": len(res[0])}),
    ("lattice.count_ellipsoid", "qflab.lattice", "count_ellipsoid", (), None),
    ("gaps.max_gap_positive", "qflab.gaps", "max_gap_positive", ("n_values",),
     lambda a, res: {"n_values": res.n_values}),
    ("gaps.max_gap_indefinite", "qflab.gaps", "max_gap_indefinite", ("spectrum_size",),
     lambda a, res: {"spectrum_size": res["spectrum_size"]}),
    ("volume.delta_curve", "qflab.volume", "delta_curve", (), None),
    ("volume.indefinite_volume_mc", "qflab.volume", "indefinite_volume_mc",
     ("samples",), lambda a, res: {"samples": res.samples}),
    ("volume.indefinite_limit_formula", "qflab.volume", "indefinite_limit_formula",
     ("samples",), lambda a, res: {"samples": res.samples}),
    ("smoothing.build_scheme", "qflab.smoothing", "build_scheme", (), None),
    ("smoothing.SmoothingScheme.d1", "qflab.smoothing", "SmoothingScheme.d1",
     ("points",), lambda a, res: {"points": int(np.size(a["x"]))}),
    ("smoothing.SmoothingScheme.sample", "qflab.smoothing", "SmoothingScheme.sample",
     ("points",), lambda a, res: {"points": a["n"]}),
    ("smoothing.CorrectionDensity.ratio", "qflab.smoothing", "CorrectionDensity.ratio",
     ("rows",), lambda a, res: {"rows": a["X"].shape[0]}),
    ("smoothing.f_mu", "qflab.smoothing", "f_mu", (), None),
    ("smoothing.f_nu", "qflab.smoothing", "f_nu", ("samples",),
     lambda a, res: {"samples": res.samples}),
    ("smoothing.f_j", "qflab.smoothing", "f_j", ("samples",),
     lambda a, res: {"samples": res.samples}),
    ("smoothing.expansion_residual", "qflab.smoothing", "expansion_residual", (), None),
)


class Tracer:
    """Spans and work units of every wrapped call while installed."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.units: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name, module, attr, _, units in TARGETS:
            owner = importlib.import_module(module)
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            fn = self._counting_golden(original) if name == "util.golden_max" else original
            wrapper = self._wrap(name, fn, units)
            if outer:
                self._patch(owner, leaf, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "qflab" and not mod_name.startswith("qflab."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn, units):
        spans, stack = self.spans, self._stack
        totals = self.units
        sig = inspect.signature(fn) if units else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if units is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in units(bound.arguments, result).items():
                    totals[f"{name}.{key}"] += value
            return result

        return wrapper

    def _counting_golden(self, golden_max):
        totals = self.units

        def counted(f, lo, hi, iters=60):
            def objective(x):
                totals["util.golden_max.evals"] += 1
                return f(x)
            return golden_max(objective, lo, hi, iters)

        return counted

    # -- aggregation ----------------------------------------------------------

    def layer_values(self) -> dict[str, float]:
        """calls, total_s and self_s per wrapped function plus its work units
        (summed over calls), with kept_frac and nonzero_frac as ratios of sums."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for name, _, _, unit_names, _ in TARGETS:
            out[f"{name}.calls"] = 0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
            for unit in unit_names:
                out[f"{name}.{unit}"] = self.units.get(f"{name}.{unit}", 0)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += end - start - covered
        dp, enum = "lattice.diagonal_value_dp", "lattice.ellipsoid_candidates"
        out[f"{dp}.nonzero_frac"] = _ratio(out[f"{dp}.nonzero"], out[f"{dp}.cells"])
        out[f"{enum}.kept_frac"] = _ratio(out[f"{enum}.kept"], out[f"{enum}.visited"])
        return out

    def unfired(self) -> list[str]:
        fired = {span[0] for span in self.spans}
        return [name for name, *_ in TARGETS if name not in fired]

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
