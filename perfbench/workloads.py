"""The benchmark's three workloads: fixed op lists of experiment configs.

Every input is fixed.  The workload seed reaches only the ops marked `mc`
(the Monte Carlo ones); every other op runs at seed 0, so its output is the
same on every seed.  Each workload has a full op list, which the benchmark
times, and a toy op list of the same kinds on tiny inputs, which the
self-tests run through the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

FORMS_DIR = Path(__file__).resolve().parent / "forms"

# criteria 09 and 10 run their DPs at 10^10; see NOTES.md for the defaults
# that refuse these inputs
BUDGET = 10 ** 10


@dataclass(frozen=True)
class Op:
    name: str            # unique within the workload
    kind: str            # experiment kind passed to qflab
    form: str            # stem of a file in forms/
    params: dict
    kind_metric: str     # per-kind time this op counts towards
    mc: bool = False     # receives the workload seed


@dataclass(frozen=True)
class Workload:
    name: str
    lead: str            # kind_metric of the workload's lead kind
    full: tuple[Op, ...]
    toy: tuple[Op, ...]

    def ops(self, toy: bool) -> tuple[Op, ...]:
        return self.toy if toy else self.full


def _grid(values) -> str:
    return ",".join(str(v) for v in values)


def _raw(name, form, kind_metric="raw_op_s", **params) -> Op:
    return Op(name, "raw-op", form, params, kind_metric)


TRIG = Workload(
    name="trig",
    lead="gamma_curve_s",
    full=(
        Op("gamma-curve", "gamma-curve", "surd9", {"s_grid": "400", "T": "4"},
           "gamma_curve_s"),
        Op("thm51", "thm51", "mix9", {"s": "100", "T_grid": "4"}, "thm51_s"),
        Op("rationality", "rationality", "surd9", {}, "rationality_s"),
    ),
    toy=(
        Op("gamma-curve", "gamma-curve", "surd9", {"s_grid": "16", "T": "1"},
           "gamma_curve_s"),
        Op("thm51", "thm51", "mix9", {"s": "16", "T_grid": "1"}, "thm51_s"),
        Op("rationality", "rationality", "surd9", {"r_schedule": "2,3,4"},
           "rationality_s"),
    ),
)

SAMPLING = Workload(
    name="sampling",
    lead="expansion_s",
    full=(
        Op("expansion", "expansion", "surd9",
           {"s_grid": "300,500,700", "R": "12", "r": "3", "k": "8", "p": "3",
            "samples": "500000"}, "expansion_s", mc=True),
        Op("volume-8", "volume-8", "q3", {}, "volume8_s", mc=True),
    ),
    toy=(
        Op("expansion", "expansion", "surd9",
           {"s_grid": "150", "R": "4", "r": "1", "k": "8", "p": "3",
            "samples": "20000", "T": "1"}, "expansion_s", mc=True),
        Op("volume-8", "volume-8", "q3", {"R_grid": "4,8", "samples": "20000"},
           "volume8_s", mc=True),
    ),
)

COUNTING = Workload(
    name="counting",
    lead="delta_curve_s",
    full=(
        Op("delta-curve:surd9", "delta-curve", "surd9",
           {"s_grid": _grid(range(200, 1601, 140))}, "delta_curve_s"),
        Op("delta-curve:i9", "delta-curve", "i9",
           {"s_grid": _grid(range(20, 121, 10))}, "delta_curve_s"),
        Op("gap-curve:surd9", "gap-curve", "surd9",
           {"tau_grid": "400,900", "horizon": "50"}, "gap_curve_s"),
        Op("gap-curve:ind3", "gap-curve", "ind3",
           {"r_grid": "25,50,100", "window": "-10,10"}, "gap_curve_s"),
        _raw("count-ellipsoid", "nd6", op="count-ellipsoid", s="400"),
        _raw("successive-minima", "nd3", op="successive-minima", mode="exact",
             t="0.7", r="2"),
        _raw("count-H", "nd3", op="count-H", t="0.7", r="16"),
    ),
    toy=(
        Op("delta-curve:surd9", "delta-curve", "surd9", {"s_grid": "20,40"},
           "delta_curve_s"),
        Op("delta-curve:i9", "delta-curve", "i9", {"s_grid": "10,20"},
           "delta_curve_s"),
        Op("gap-curve:surd9", "gap-curve", "surd9",
           {"tau_grid": "20,40", "horizon": "5"}, "gap_curve_s"),
        Op("gap-curve:ind3", "gap-curve", "ind3",
           {"r_grid": "5,10", "window": "-10,10"}, "gap_curve_s"),
        _raw("count-ellipsoid", "nd6", op="count-ellipsoid", s="20"),
        _raw("successive-minima", "nd3", op="successive-minima", mode="exact",
             t="0.7", r="1"),
        _raw("count-H", "nd3", op="count-H", t="0.7", r="2"),
    ),
)

WORKLOADS = {w.name: w for w in (TRIG, SAMPLING, COUNTING)}
