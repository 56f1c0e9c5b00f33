"""Gap statistics for values of quadratic forms.

Positive forms: successor gaps over a window [tau, tau + horizon], read from
the value distribution of the whole ellipsoid Q[x - a] <= tau + horizon, so
that no value inside the window can be missed.
Indefinite forms: the maximal nearest-successor gap d(r) of the windowed value
set over the box B(r), plus Oppenheim-style density scans toward m(Q) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .forms import QuadraticForm, ShiftVector
from .lattice import MERGE_RTOL, enumerate_values, quad_values, value_distribution
from .util import box_blocks


@dataclass(frozen=True)
class GapReport:
    window: tuple[float, float]
    max_gap: float
    achieving_pair: tuple[float, float]
    n_values: int
    box_radius: float
    successor_sample: list    # [(value, successor, gap)] for the largest gaps


def max_gap_positive(form: QuadraticForm, a, tau: float, horizon: float,
                     budget: int = 10 ** 9, sample_size: int = 5) -> GapReport:
    """Windowed maximal gap between consecutive values of a positive form in
    [tau, tau + horizon]; an approximation of the ray supremum, reported as
    such."""
    if not form.is_positive:
        raise ValueError("not elliptic")
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    if isinstance(a, ShiftVector):
        a = a.a
    a = np.asarray(a, dtype=float)
    hi = tau + horizon
    dist = value_distribution(form, a, hi, budget)
    vals, _ = dist.spectrum(tau - 1.0, hi)
    inside = vals[(vals >= tau) & (vals <= hi)]
    if len(inside) < 2:
        raise ValueError("insufficient values in the window")
    gaps = np.diff(inside)
    order = np.argsort(gaps)[::-1]
    top = [(float(inside[i]), float(inside[i + 1]), float(gaps[i]))
           for i in order[:sample_size]]
    imax = int(order[0])
    return GapReport(window=(tau, hi), max_gap=float(gaps[imax]),
                     achieving_pair=(float(inside[imax]), float(inside[imax + 1])),
                     n_values=len(inside), box_radius=dist.radius,
                     successor_sample=top)


def max_gap_indefinite(form: QuadraticForm, a, r: float,
                       window: tuple[float, float],
                       budget: int = 10 ** 8) -> dict:
    """d(r): maximal nearest-successor gap of the windowed value set over B(r).

    Values without a successor inside the window do not start a gap.
    """
    if not form.is_indefinite:
        raise ValueError("not indefinite")
    spectrum = enumerate_values(form, a, r, window, budget=budget)
    vals = spectrum.values
    if len(vals) < 2:
        raise ValueError("insufficient values")
    gaps = np.diff(vals)
    imax = int(np.argmax(gaps))
    return {
        "d_r": float(gaps[imax]),
        "achieving_pair": (float(vals[imax]), float(vals[imax + 1])),
        "spectrum_size": len(vals),
        "spectrum": spectrum,
    }


def oppenheim_scan(form: QuadraticForm, a, target: tuple[float, float],
                   r_schedule: Sequence[float], budget: int = 10 ** 8,
                   exclude_zero: bool = True) -> dict:
    """Scan growing boxes for a value of Q[x-a] in the target interval.

    With `exclude_zero`, the trivial value at x = 0 (and exact zeros) is
    ignored, which makes targets like (-eps, eps) probe m(Q) = 0.  Exhaustion
    of the schedule is reported, never treated as a falsification.
    """
    alpha, beta = target
    if not alpha < beta:
        raise ValueError("target must be a nonempty interval")
    if isinstance(a, ShiftVector):
        a = a.a
    a = np.asarray(a, dtype=float)
    d = form.dim
    tried = []
    for r in r_schedule:
        witness, value = None, math.inf
        for X in box_blocks(math.floor(r), d, budget):
            vals = quad_values(form.matrix, a, X)
            mask = (vals > alpha) & (vals <= beta)
            if exclude_zero:
                mask &= np.abs(vals) > MERGE_RTOL
            hits = np.flatnonzero(mask)
            if len(hits):
                best = hits[np.argmin(np.abs(vals[hits]))]
                # strict: the first minimum over the whole box wins, as in argmin
                if abs(vals[best]) < abs(value):
                    witness, value = X[best].tolist(), float(vals[best])
        if witness is not None:
            return {
                "found": True,
                "r": float(r),
                "witness": witness,
                "value": value,
                "schedule_tried": tried + [float(r)],
            }
        tried.append(float(r))
    return {"found": False, "r": None, "witness": None, "value": None,
            "schedule_tried": tried}
