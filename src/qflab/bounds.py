"""Explicit bound formulas and the large-|t| integration procedure.

All <<-constants are evaluated at 1; experiments report observed/envelope
ratios and fit constants downstream, never asserting them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .trig import TrigProfile


def theta(s: int) -> int:
    """s/2 for even s, (s+1)/2 for odd s."""
    if s < 0:
        raise ValueError("s must be >= 0")
    return s // 2 if s % 2 == 0 else (s + 1) // 2


def thm51_condition(gamma: float, kappa: float, s: float, alpha: float) -> bool:
    """The lower-bound hypothesis on gamma that activates the main branch."""
    thr = 4.0 ** (kappa / (kappa - 4.0)) * s ** (-kappa / 4.0)
    if alpha > -1:
        return gamma > thr
    lhs = gamma * (1.0 + math.log(1.0 / gamma)) ** (kappa / (kappa - 4.0))
    rhs = thr * (1.0 + math.log(s)) ** (kappa / (kappa - 4.0))
    return lhs > rhs


def thm51_bound(gamma: float, Lambda: float, kappa: float, s: float,
                T: float, alpha: float) -> dict:
    """Value of the integration-procedure bound for J = int phi(t) t^alpha dt.

    Main branch (gamma above the threshold):
        (gamma/Lambda)^(1-4/kappa) T^(alpha+1) Lambda / s        for -1 < alpha <= 0
        (gamma/Lambda)^(1-4/kappa) (1+ln(Lambda/gamma)) (1+ln T) Lambda / s
                                                                 for alpha = -1
    Trivial branch otherwise:
        gamma T^(alpha+1)                 for alpha > -1
        gamma (1+ln s)(1+ln T)            for alpha = -1

    Equality in the threshold counts as the trivial branch.
    """
    if not (kappa > 4):
        raise ValueError("need kappa > 4")
    if Lambda < 1:
        raise ValueError("need Lambda >= 1")
    if T < 1:
        raise ValueError("need T >= 1")
    if not (-1 <= alpha <= 0):
        raise ValueError("need -1 <= alpha <= 0")
    if not (0 < gamma <= 1):
        raise ValueError("need gamma in (0, 1]")
    if thm51_condition(gamma, kappa, s, alpha):
        core = (gamma / Lambda) ** (1.0 - 4.0 / kappa) * Lambda / s
        if alpha == -1:
            value = core * (1.0 + math.log(Lambda / gamma)) * (1.0 + math.log(T))
        else:
            value = core * T ** (alpha + 1.0)
        return {"branch": "main", "value": value}
    if alpha == -1:
        value = gamma * (1.0 + math.log(s)) * (1.0 + math.log(T))
    else:
        value = gamma * T ** (alpha + 1.0)
    return {"branch": "trivial", "value": value}


def integrate_J(profile: TrigProfile, s: float, T: float, alpha: float) -> float:
    """Trapezoid integral of phi(t) t^alpha over [s^{-1/2}, T] on the profile grid."""
    t0 = 1.0 / math.sqrt(s)
    ts, vals = profile.t, profile.values
    if ts[0] > t0 + 1e-12 or ts[-1] < T - 1e-12:
        raise ValueError(
            f"profile grid [{ts[0]}, {ts[-1]}] does not cover [{t0}, {T}]")
    mask = (ts >= t0 - 1e-15) & (ts <= T + 1e-15)
    tt, vv = ts[mask], vals[mask]
    return float(np.trapezoid(vv * tt ** alpha, tt))


@dataclass(frozen=True)
class ClusterReport:
    level: int
    delta: float
    rho: float
    clusters: list          # [(t_min, t_max, n_points)]
    violations: list        # [(t, t_prime)] pairs with delta < t'-t < rho
    n_points: int


def cluster_levels_m(s: float, T: float, gamma_hat: float, kappa: float,
                     alpha: float = -1.0) -> int:
    """Deepest level m of the level-set analysis: smallest integer with
    2^-m G_alpha <= gamma^(1-4/kappa) F_alpha / s."""
    if alpha == -1:
        G = math.log(T) + math.log(s)
        F = (1.0 + math.log(T)) * (1.0 + math.log(1.0 / gamma_hat))
    else:
        G = F = T ** (alpha + 1.0)
    arg = s * G / (gamma_hat ** (1.0 - 4.0 / kappa) * F)
    return max(int(math.ceil(math.log(max(arg, 1.0)) / math.log(2.0))), 0)


def cluster_structure(profile: TrigProfile, s: float, kappa: float,
                      Lambda: float, alpha: float = -1.0) -> list[ClusterReport]:
    """Level sets B_l of phi/Lambda and their small-cluster / large-gap dichotomy.

    For each level l the sampled points with phi/Lambda in [2^-l-1, 2^-l] are
    grouped into maximal clusters of pairwise spacing <= delta; any sampled
    pair with spacing strictly between delta = 4^{(l+1)/kappa}/s and
    rho = 4^{-(l+1)/kappa} is recorded as a violation.  The verdict is about
    the sample only.
    """
    ts = profile.t
    phin = profile.values / Lambda
    gamma_hat = float(np.max(phin))
    if gamma_hat <= 0:
        return []
    l_gamma = 0
    while 2.0 ** (-(l_gamma + 1)) >= gamma_hat:
        l_gamma += 1
    m = cluster_levels_m(s, float(ts[-1]), gamma_hat, kappa, alpha)
    reports = []
    for l in range(l_gamma, m + 1):
        lo, hi = 2.0 ** (-l - 1), 2.0 ** (-l)
        pts = ts[(phin >= lo) & (phin <= hi)]
        delta = 4.0 ** ((l + 1) / kappa) / s
        rho = 4.0 ** (-(l + 1) / kappa)
        if delta >= rho:
            # the dichotomy is vacuous once the cluster scale reaches the gap
            # scale; for large s this cannot happen below level m
            break
        violations = []
        clusters = []
        if len(pts):
            start = prev = pts[0]
            count = 1
            for t in pts[1:]:
                if t - prev <= delta:
                    prev = t
                    count += 1
                else:
                    clusters.append((float(start), float(prev), count))
                    start = prev = t
                    count = 1
            clusters.append((float(start), float(prev), count))
            # pairwise dichotomy check: from each point, scan forward past
            # the gaps <= delta and stop at the first gap >= rho
            for i, t in enumerate(pts):
                for jj in range(i + 1, len(pts)):
                    gap = pts[jj] - t
                    if gap <= delta:
                        continue
                    if gap < rho:
                        violations.append((float(t), float(pts[jj])))
                    else:
                        break
        reports.append(ClusterReport(level=l, delta=delta, rho=rho,
                                     clusters=clusters, violations=violations,
                                     n_points=len(pts)))
    return reports


def rho0_from_grid(rhos: Sequence[float]) -> list[float]:
    """Suffix suprema: rho_0(s_i) = sup_{tau >= s_i} rho(tau) on a grid."""
    out = list(rhos)
    for i in range(len(out) - 2, -1, -1):
        out[i] = max(out[i], out[i + 1])
    return out


def error_envelopes(kind: str, **inputs) -> float:
    """Right-hand sides of the headline error bounds, at constant 1.

    kinds and required inputs:
      thm13: s, d, q, rho          -> (s+1)^{d/2} q^d rho / s
      cor14: d, q, rho0            -> q^{3d/2} rho0
      thm15: d, q, rho             -> q^{3d/2} rho       (rho evaluated at r^2)
      thm21: d, q, r, T, R, p, a_norm, eps, gamma ->
             q^{d/2}/(r^2 T) + (R^p/r^{2p})(1+|a|/r)^p q^{p+d/2}
             + gamma^{1-8/d-eps} T^eps q^{d/2}/r^2
    """
    def need(*names):
        missing = [n for n in names if n not in inputs]
        if missing:
            raise ValueError(f"{kind} needs inputs {missing}")
        return [inputs[n] for n in names]

    if kind == "thm13":
        s, d, q, rho = need("s", "d", "q", "rho")
        return (s + 1.0) ** (d / 2.0) * q ** d * rho / s
    if kind == "cor14":
        d, q, rho0 = need("d", "q", "rho0")
        return q ** (1.5 * d) * rho0
    if kind == "thm15":
        d, q, rho = need("d", "q", "rho")
        return q ** (1.5 * d) * rho
    if kind == "thm21":
        d, q, r, T, R, p, a_norm, eps, gamma = need(
            "d", "q", "r", "T", "R", "p", "a_norm", "eps", "gamma")
        return (q ** (d / 2.0) / (r * r * T)
                + (R ** p / r ** (2 * p)) * (1 + a_norm / r) ** p * q ** (p + d / 2.0)
                + gamma ** (1 - 8.0 / d - eps) * T ** eps * q ** (d / 2.0) / (r * r))
    raise ValueError(f"unknown envelope kind {kind!r}")
