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

from .forms import QuadraticForm, shift_array
from .lattice import (MERGE_RTOL, enumerate_values, quad_values, value_distribution,
                      window_blocks)


@dataclass(frozen=True)
class GapReport:
    window: tuple[float, float]
    max_gap: float
    achieving_pair: tuple[float, float]
    n_values: int
    box_radius: float
    successor_sample: list    # [(value, successor, gap)] for the largest gaps


def max_gap_positive(form: QuadraticForm, a, tau: float, horizon: float,
                     budget: int = 10 ** 9) -> GapReport:
    """Windowed maximal gap between consecutive values of a positive form in
    [tau, tau + horizon]; an approximation of the ray supremum, reported as
    such, with the five largest gaps as a sample."""
    if not form.is_positive:
        raise ValueError("not elliptic")
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    a = shift_array(form, a)
    hi = tau + horizon
    dist = value_distribution(form, a, hi, budget)
    vals, _ = dist.spectrum(tau - 1.0, hi)
    inside = vals[(vals >= tau) & (vals <= hi)]
    if len(inside) < 2:
        raise ValueError("insufficient values in the window")
    gaps = np.diff(inside)
    order = np.argsort(gaps)[::-1]
    top = [(float(inside[i]), float(inside[i + 1]), float(gaps[i]))
           for i in order[:5]]
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
                   r_schedule: Sequence[float], budget: int = 10 ** 8) -> dict:
    """Scan growing boxes for a nonzero value of Q[x-a] in the target interval.

    The trivial value at x = 0 (and exact zeros) is ignored, which makes
    targets like (-eps, eps) probe m(Q) = 0.  Exhaustion of the schedule is
    reported, never treated as a falsification.  Each radius rescans its box
    through `window_blocks`, which touches (2r + 1)^(d-1) prefixes and only
    the candidates of the target, while the budget counts box points.
    """
    alpha, beta = target
    if not alpha < beta:
        raise ValueError("target must be a nonempty interval")
    a = shift_array(form, a)
    tried = []
    for r in r_schedule:
        if not (math.isfinite(r) and r >= 0):
            raise ValueError("r must be finite and >= 0")
        witness, value = None, math.inf
        for X in window_blocks(form.matrix, a, math.floor(r), alpha, beta, budget):
            vals = quad_values(form.matrix, a, X)
            hits = np.flatnonzero((vals > alpha) & (vals <= beta)
                                  & (np.abs(vals) > MERGE_RTOL))
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
