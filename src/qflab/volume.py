"""Ellipsoid volumes, the normalized count error, and indefinite-form volumes.

The indefinite side follows the eigenbasis representation of the set
A = {x : M(x) in R*I0, Q[x-a] in I}: finite-R volumes by Monte Carlo box
sampling, and the R -> infinity limit by sphere-pair sampling against the
rescaled Minkowski functional M0, whose u-integral is done by trapezoid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .forms import QuadraticForm, shift_array
from .lattice import count_ellipsoid, count_ellipsoid_grid, quad_values
from .util import spawn_rngs, worker_chunks

U_GRID_NODES = 2048
U_MAX_SLACK = 1.1


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int

    def within(self, target: float, n_sigma: float = 3.0) -> bool:
        return abs(self.mean - target) <= n_sigma * self.stderr


@dataclass(frozen=True)
class MinkowskiFunctional:
    """Positively homogeneous gauge M with |x|_inf <= M(x) <= m |x|_inf."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]   # rows of x -> M(x) per row
    sandwich_m: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.fn(x)


def sup_norm_functional() -> MinkowskiFunctional:
    return MinkowskiFunctional("sup", lambda x: np.max(np.abs(x), axis=1), 1.0)


def euclidean_functional(dim: int) -> MinkowskiFunctional:
    return MinkowskiFunctional("euclidean",
                               lambda x: np.linalg.norm(x, axis=1),
                               math.sqrt(dim))


def weighted_sup_functional(wts: Sequence[float]) -> MinkowskiFunctional:
    w = np.asarray(wts, dtype=float)
    if np.any(w < 1.0):
        raise ValueError("weights must be >= 1 so that M >= |x|_inf")
    return MinkowskiFunctional("weighted-sup",
                               lambda x: np.max(w * np.abs(x), axis=1),
                               float(np.max(w)))


def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def sphere_area(d: int) -> float:
    """Surface measure of S^{d-1}; equals 2 for d = 1 (two points)."""
    return 2 * math.pi ** (d / 2) / math.gamma(d / 2)


def ellipsoid_volume(form: QuadraticForm, s: float) -> float:
    """vol{x : Q[x] <= s} = s^{d/2} * omega_d / sqrt(det Q) for positive Q."""
    if not form.is_positive:
        raise ValueError("not elliptic")
    if s < 0:
        return 0.0
    det = float(np.prod(form.eigenvalues))
    return s ** (form.dim / 2) * unit_ball_volume(form.dim) / math.sqrt(det)


def _delta_volume(form: QuadraticForm, s: float) -> float:
    """vol E_s as the denominator of Delta(s); refuses s <= 0 and a volume
    that underflows to 0."""
    if s <= 0:
        raise ValueError("s must be > 0")
    vol = ellipsoid_volume(form, s)
    if vol == 0:
        raise ValueError(f"vol E_s underflows to 0 at s = {s}")
    return vol


def delta_error(form: QuadraticForm, a, s: float, budget: int = 10 ** 8,
                method: str = "auto") -> float:
    """Delta(s, Q, a) = |vol_Z(E_s + a) - vol E_s| / vol E_s for a single shift."""
    vol = _delta_volume(form, s)
    cnt = count_ellipsoid(form, a, s, budget=budget, method=method).count
    return abs(cnt - vol) / vol


def delta_curve(form: QuadraticForm, a, s_list: Sequence[float],
                budget: int = 10 ** 9) -> list[dict]:
    """Delta(s) on an s-grid; one count pass, sized for the largest s, serves
    every grid point."""
    s_list = [float(s) for s in s_list]
    vols = [_delta_volume(form, s) for s in s_list]
    counts, _, _ = count_ellipsoid_grid(form, a, s_list, budget=budget)
    rows = []
    for s, cnt, vol in zip(s_list, counts, vols):
        delta = abs(cnt - vol) / vol
        rows.append({"s": s, "count": cnt, "volume": vol,
                     "delta": delta, "s_delta": s * delta})
    return rows


# ---------------------------------------------------------------------------
# indefinite volumes
# ---------------------------------------------------------------------------


def mc_mean(sampler, n_samples: int, seed: int, workers: int) -> McEstimate:
    """Mean/stderr of a sampler(rng, n) -> 1d array (real or complex), split
    over worker substreams whose (count, mean, M2 = sum |x - mean|^2) merge by
    Chan, Golub and LeVeque (1979): no E[x^2] - mean^2 cancellation."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")

    def chunk(rng, n):
        vals = sampler(rng, n)
        mean = np.sum(vals) / len(vals)
        dev = vals - mean
        return len(vals), mean, np.vdot(dev, dev).real

    def merge(x, y):
        (na, ma, m2a), (nb, mb, m2b) = x, y
        n, delta = na + nb, mb - ma
        return n, ma + delta * (nb / n), m2a + m2b + abs(delta) ** 2 * (na * nb / n)

    n, mean, m2 = functools.reduce(merge, map(chunk, spawn_rngs(seed, workers),
                                              worker_chunks(n_samples, workers)))
    return McEstimate(mean=mean.item(), stderr=math.sqrt(m2 / n / n),
                      samples=n, seed=seed)


def _box_volume_mc(half: float, d: int, indicator, samples: int, seed: int,
                   workers: int) -> McEstimate:
    """Monte Carlo volume of {x : indicator(x)} inside [-half, half]^d: box
    volume times the indicator mean under uniform sampling of the box."""
    box_vol = (2 * half) ** d

    def sampler(rng, n):
        x = rng.uniform(-half, half, size=(n, d))
        return indicator(x).astype(float) * box_vol

    return mc_mean(sampler, samples, seed, workers)


def indefinite_volume_mc(form: QuadraticForm, a, M: MinkowskiFunctional,
                         R: float, I0: tuple[float, float],
                         I: tuple[float, float], samples: int = 10 ** 6,
                         seed: int = 0, workers: int = 1) -> McEstimate:
    """Monte Carlo volume of A = {x : M(x) in R*I0, Q[x-a] in I}.

    Uniform sampling over the box [-R*sup(I0), R*sup(I0)]^d is valid because
    M(x) >= |x|_inf.
    """
    if not form.is_indefinite:
        raise ValueError("not indefinite")
    if samples < 10 ** 3:
        raise ValueError("need at least 1e3 samples")
    if not R > 0:
        raise ValueError("R must be > 0")
    a = shift_array(form, a)
    lo0, hi0 = I0
    alpha, beta = I
    if hi0 <= lo0 or beta <= alpha:
        return McEstimate(0.0, 0.0, samples, seed)
    mat = form.matrix

    def indicator(x):
        mvals = M(x)
        q = quad_values(mat, a, x)
        return ((mvals >= R * lo0) & (mvals <= R * hi0)
                & (q > alpha) & (q <= beta))

    return _box_volume_mc(R * hi0, form.dim, indicator, samples, seed, workers)


def _arranged_eigen(form: QuadraticForm, I: tuple[float, float]):
    """Eigen data with n_pos <= d/2, flipping Q and I when needed."""
    w = form.eigenvalues
    v = form.eigenvectors
    n_pos = int(np.sum(w > 0))
    d = form.dim
    alpha, beta = I
    if n_pos * 2 > d:
        w = -w
        alpha, beta = -beta, -alpha
    order = np.argsort(-np.sign(w), kind="stable")  # positives first
    return w[order], v[:, order], (alpha, beta)


def m0_functional(form: QuadraticForm, M: MinkowskiFunctional):
    """M0(x) = M evaluated at the eigenbasis point with coordinates
    xbar_j / sqrt(|q_j|); returns (M0 on eigen-coordinates, eigs, vecs)."""
    if not form.is_indefinite:
        raise ValueError("not indefinite")
    w, v, _ = _arranged_eigen(form, (0.0, 0.0))
    scale = 1.0 / np.sqrt(np.abs(w))

    def m0(coords: np.ndarray) -> np.ndarray:
        coords = np.atleast_2d(coords)
        return M((coords * scale) @ v.T)

    return m0, w, v


def _first_node(us: np.ndarray, c: np.ndarray, pred) -> np.ndarray:
    """Per c, the first index i with pred(us[i] * c), or len(us) if none; pred
    must hold on a suffix of the grid (us increasing, c > 0)."""
    lo = np.zeros(len(c), dtype=np.intp)
    hi = np.full(len(c), len(us), dtype=np.intp)
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        hit = pred(us[np.minimum(mid, len(us) - 1)] * c)
        hi = np.where(hit, mid, hi)
        lo = np.where(hit | (lo >= hi), lo, mid + 1)
    return lo


def indefinite_limit_formula(form: QuadraticForm, M: MinkowskiFunctional,
                             I0: tuple[float, float], I: tuple[float, float],
                             samples: int = 10 ** 5, seed: int = 0,
                             workers: int = 1) -> McEstimate:
    """The R -> infinity limit of R^{-d+2} vol A:

    |det Q|^{-1/2} (beta-alpha)/2 * int_0^inf u^{d-3} int_S I{M0(u eta) in I0} deta du

    with S the product of unit spheres in the positive and negative eigenblocks,
    sampled by normalized Gaussians.  By homogeneity M0(u eta) = u c with
    c = M0(eta) > 0, so the u-integral of a sample is the trapezoid sum of
    u^{d-3} over the grid nodes with lo0 <= u c <= hi0.  Those nodes form one
    run [i0, i1) of the grid, found per sample by a vectorized binary search on
    the predicates u_i c >= lo0 and u_i c > hi0, and the sum is read off one
    cumulative table as cum[i1] - cum[i0].
    """
    d = form.dim
    m0, w, _ = m0_functional(form, M)        # checks that Q is indefinite
    if d < 3:
        raise ValueError("the R^(d-2) limit needs d >= 3")
    _, _, (alpha, beta) = _arranged_eigen(form, I)
    n = int(np.sum(w > 0))
    lo0, hi0 = I0
    if hi0 <= lo0 or beta <= alpha:
        return McEstimate(0.0, 0.0, samples, seed)

    q = form.q
    u_max = M.sandwich_m * math.sqrt(d * q) * hi0 * U_MAX_SLACK
    us = np.linspace(0.0, u_max, U_GRID_NODES)
    du = us[1] - us[0]
    trap_w = np.full(U_GRID_NODES, du)
    trap_w[0] = trap_w[-1] = du / 2
    upow = us ** (d - 3) if d != 3 else np.ones_like(us)
    cum = np.concatenate(([0.0], np.cumsum(trap_w * upow)))
    area = sphere_area(n) * sphere_area(d - n)
    prefactor = (beta - alpha) / 2.0 / math.sqrt(abs(float(np.prod(form.eigenvalues)))
                                                 )

    def sampler(rng, n_samp):
        g1 = rng.standard_normal((n_samp, n))
        g2 = rng.standard_normal((n_samp, d - n))
        g1 /= np.linalg.norm(g1, axis=1, keepdims=True)
        g2 /= np.linalg.norm(g2, axis=1, keepdims=True)
        eta = np.concatenate([g1, g2], axis=1)
        c = m0(eta)
        i0 = _first_node(us, c, lambda uc: uc >= lo0)
        i1 = _first_node(us, c, lambda uc: uc > hi0)
        return (cum[i1] - cum[i0]) * area * prefactor

    return mc_mean(sampler, samples, seed, workers)


def check_lemma82(form: QuadraticForm, a, R: float, lam: float,
                  I: tuple[float, float], samples: int = 10 ** 6,
                  seed: int = 0, workers: int = 1,
                  M: Optional[MinkowskiFunctional] = None) -> dict:
    """Volume of A for I0 = [0, lambda] against its two power-law envelopes.

    Envelopes carry constant 1; the returned ratios are the material for
    fitting the implied constants.  The lower envelope needs sigma > 0 and
    |alpha| + |beta| <= sigma^2 R^2 / 5 and is omitted otherwise.
    """
    if M is None:
        M = sup_norm_functional()
    a = shift_array(form, a)
    d = form.dim
    alpha, beta = I
    w, v, _ = _arranged_eigen(form, (0.0, 0.0))
    a0 = np.sqrt(np.abs(w)) * (v.T @ a)
    a0_norm = float(np.linalg.norm(a0))
    q = form.q
    tau = lam + a0_norm / R
    sigma = lam / M.sandwich_m - a0_norm / R

    vol = indefinite_volume_mc(form, a, M, R, (0.0, lam), I,
                               samples=samples, seed=seed, workers=workers)
    upper = (beta - alpha) * q ** ((d - 2) / 2) * tau ** (d - 2) * R ** (d - 2)
    report = {
        "volume": vol,
        "upper_envelope": upper,
        "ratio_upper": vol.mean / upper if upper > 0 else math.inf if vol.mean > 0 else 0.0,
        "sigma": sigma,
        "tau": tau,
    }
    if sigma > 0 and abs(alpha) + abs(beta) <= sigma ** 2 * R ** 2 / 5:
        lower = (beta - alpha) * q ** (-d / 2) * sigma ** (d - 2) * R ** (d - 2)
        report["lower_envelope"] = lower
        report["ratio_lower"] = vol.mean / lower if lower > 0 else math.inf
    else:
        report["lower_envelope"] = None
        report["ratio_lower"] = None
    return report


def mc_ellipsoid_volume(form: QuadraticForm, s: float, samples: int = 10 ** 5,
                        seed: int = 0, workers: int = 1) -> McEstimate:
    """Box-sampling MC estimate of vol E_s; cross-check for the closed form."""
    if not form.is_positive:
        raise ValueError("not elliptic")
    half = math.sqrt(s / form.q0) * (1 + 1e-12)
    mat = form.matrix
    return _box_volume_mc(half, form.dim, lambda x: quad_values(mat, 0.0, x) <= s,
                          samples, seed, workers)
