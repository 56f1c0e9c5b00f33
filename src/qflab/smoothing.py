"""Smoothing measures, correction densities, and the expansion F = F0 + sum F_j.

Per coordinate, the lattice measure mu is the uniform weight on [-[R],[R]]
convolved k times with the uniform weight on [-[r],[r]]; the continuous
measure nu equals mu convolved with the (k+1)-fold unit-cell density, so its
density D is a product of per-coordinate factors

    D1(x) = sum_m W(m) b_{k+1}(x - m),

with b_n the centered Irwin-Hall density.  D1 is a degree-k spline on the
unit cells with knots m - (k+1)/2 + i, so it is evaluated from a table of
per-cell polynomial coefficients in the local coordinate u in [0, 1): the
table is the convolution of the integer weight numerators with the k+1
polynomial pieces of b_{k+1}, built in exact integers, differentiated exactly
for every order and rounded to float once (de Boor, "A Practical Guide to
Splines", ch. VII).  An evaluation finds each point's cell and u once and
runs Horner's rule on that cell's coefficients.  Correction densities D_j contract
derivatives of D against moments of the (k+1)-fold cell measure; for the
product density they reduce to sums of products of 1-d factor derivatives,
enumerated over even multi-indices.  F-values against mu are exact weighted
lattice sums, queries on one `lattice.value_distribution`; F-values against
nu and nu_j are importance-sampled Monte Carlo with D as the proposal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .forms import QuadraticForm, ShiftVector
from .bounds import error_envelopes
from .lattice import quad_values, value_distribution
from .trig import factorized_transform, gamma_estimate
from .volume import McEstimate, mc_mean

DEFAULT_MC_SAMPLES = 10 ** 6


# ---------------------------------------------------------------------------
# Irwin-Hall density (centered) and cell-measure moments
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _ih_coeffs(n: int):
    return [(-1) ** i * math.comb(n, i) for i in range(n + 1)]


def _check_deriv(deriv: int, n: int) -> None:
    if deriv < 0:
        raise ValueError(f"derivative order {deriv} must be >= 0")
    if deriv > n - 2:
        raise ValueError(f"derivative order {deriv} needs n >= {deriv + 2}")


def irwin_hall(x: np.ndarray, n: int, deriv: int = 0) -> np.ndarray:
    """deriv-th derivative of the density of a sum of n uniforms on (-1/2, 1/2).

    Valid for 0 <= deriv <= n - 2 (where the density is still continuous).
    """
    _check_deriv(deriv, n)
    y = np.asarray(x, dtype=float) + n / 2.0
    p = n - 1 - deriv
    out = np.zeros_like(y)
    for i, c in enumerate(_ih_coeffs(n)):
        t = np.maximum(y - i, 0.0)
        out += c * t ** p
    return out / math.factorial(p)


@lru_cache(maxsize=None)
def _uniform_cell_moments(fold: int, max_order: int) -> tuple[Fraction, ...]:
    """Moments E[S^t] of a sum of `fold` iid uniforms on (-1/2, 1/2), exact."""
    base = [Fraction(0)] * (max_order + 1)
    for t in range(0, max_order + 1, 2):
        base[t] = Fraction(1, (t + 1) * 2 ** t)
    mom = [Fraction(1)] + [Fraction(0)] * max_order
    for _ in range(fold):
        new = [Fraction(0)] * (max_order + 1)
        for t in range(max_order + 1):
            new[t] = sum(math.comb(t, i) * mom[i] * base[t - i]
                         for i in range(t + 1))
        mom = new
    return tuple(mom)


def moments_pi(k: int, eta: Sequence[int]) -> Fraction:
    """Moment of the (k+1)-fold cell measure for the multi-order eta; exact.

    Cross-coordinate moments factor; any odd order gives 0 by symmetry.
    """
    if any(o < 0 for o in eta):
        raise ValueError("orders must be >= 0")
    if any(o % 2 for o in eta):
        return Fraction(0)
    max_o = max(eta, default=0)
    mom = _uniform_cell_moments(k + 1, max_o)
    out = Fraction(1)
    for o in eta:
        out *= mom[o]
    return out


# ---------------------------------------------------------------------------
# scheme
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothingScheme:
    R: float
    r: float
    k: int
    numerators: np.ndarray      # object ints over offsets [-Hw, Hw]
    normalizer: int
    weights: np.ndarray         # floats, sum 1 per coordinate

    @property
    def HR(self) -> int:
        return int(self.R)

    @property
    def hr(self) -> int:
        return int(self.r)

    @property
    def half_support(self) -> int:
        return self.HR + self.k * self.hr

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(-self.half_support, self.half_support + 1)

    @property
    def r_bar(self) -> float:
        return self.hr + 0.5

    @property
    def R_bar(self) -> float:
        return self.HR + 0.5

    @property
    def continuous_core(self) -> float:
        """D1 is exactly (2 Rbar)^-1 on |x| <= Rbar - k rbar."""
        return self.R_bar - self.k * self.r_bar

    @property
    def continuous_support(self) -> float:
        return self.R_bar + self.k * self.r_bar

    @cached_property
    def _spline_tables(self) -> tuple[np.ndarray, ...]:
        """Per derivative order o < k, the float coefficients of D1^(o) on
        every unit cell: row t holds the u^t coefficients, column c the cell
        [c - half_support - (k+1)/2, +1)."""
        n = self.k + 1
        ih = _ih_coeffs(n)
        # (n-1)! b_n on the p-th cell of its support, as integer u^t coefficients
        pieces = [[sum(c * math.comb(n - 1, t) * (p - i) ** (n - 1 - t)
                       for i, c in enumerate(ih[:p + 1]))
                   for t in range(n)]
                  for p in range(n)]
        cells = [np.convolve(self.numerators,
                             np.array([piece[t] for piece in pieces], dtype=object))
                 for t in range(n)]
        den = math.factorial(n - 1) * self.normalizer
        return tuple(
            np.array([[int(v) * math.perm(t, o) / den for v in cells[t]]
                      for t in range(o, n)])
            for o in range(n - 1))

    def d1(self, x: np.ndarray, deriv: int = 0) -> np.ndarray:
        """Per-coordinate density factor of nu (or its derivative)."""
        _check_deriv(deriv, self.k + 1)
        table = self._spline_tables[deriv]
        x = np.asarray(x, dtype=float)
        left = -self.half_support - (self.k + 1) / 2
        cell = np.floor(x - left)
        inside = (cell >= 0) & (cell < table.shape[1])
        idx = np.where(inside, cell, 0).astype(np.intp)
        u = x - (left + cell)
        out = table[-1].take(idx)
        for row in table[-2::-1]:
            out *= u
            out += row.take(idx)
        return np.where(inside, out, 0.0)

    def d1_integral(self) -> float:
        """Integral of D1 from its spline table, sum over cells of
        sum_t a_t / (t + 1) (should be 1)."""
        table = self._spline_tables[0]
        return float(np.sum(table.sum(axis=1) / np.arange(1, len(table) + 1)))

    def sample(self, rng: np.random.Generator, n: int, d: int) -> np.ndarray:
        """Draw n points of R^d from nu (product measure)."""
        x = rng.uniform(-self.R_bar, self.R_bar, size=(n, d))
        # Generator.uniform(lo, hi) is lo + (hi - lo) * random(): the same
        # stream and arithmetic, without a fresh array per draw
        buf = np.empty((n, d))
        for _ in range(self.k):
            rng.random(out=buf)
            buf *= 2 * self.r_bar
            buf += -self.r_bar
            x += buf
        return x


def build_scheme(R: float, r: float, k: int) -> SmoothingScheme:
    """Weight tables by discrete convolution: uniform[-[R],[R]] * uniform[-[r],[r]]^{*k}."""
    if not (R >= r >= 0):
        raise ValueError("need R >= r >= 0")
    if k < 1:
        raise ValueError("need k >= 1")
    HR, hr = int(R), int(r)
    outer = np.ones(2 * HR + 1, dtype=object)
    inner = np.ones(2 * hr + 1, dtype=object)
    acc = outer
    for _ in range(k):
        acc = np.convolve(acc, inner)
    normalizer = (2 * HR + 1) * (2 * hr + 1) ** k
    weights = (acc / normalizer).astype(float)
    return SmoothingScheme(R=float(R), r=float(r), k=k,
                           numerators=acc, normalizer=normalizer,
                           weights=weights)


# ---------------------------------------------------------------------------
# correction densities D_j
# ---------------------------------------------------------------------------


def _even_compositions(j: int):
    """Ordered compositions of even j into even parts >= 2."""
    if j == 0:
        yield ()
        return
    for first in range(2, j + 1, 2):
        for rest in _even_compositions(j - first):
            yield (first,) + rest


def _even_multiindices(total: int, d: int):
    """Sparse even multi-indices {coord: order} with orders >= 2 summing to total."""
    def rec(remaining: int, start: int):
        if remaining == 0:
            yield {}
            return
        for c in range(start, d):
            for o in range(2, remaining + 1, 2):
                for rest in rec(remaining - o, c + 1):
                    yield {c: o, **rest}
    yield from rec(total, 0)


@lru_cache(maxsize=None)
def dj_terms(j: int, d: int, k: int) -> tuple[tuple[tuple[tuple[int, int], ...], float], ...]:
    """D_j contraction terms for a d-dim product density: pairs (alpha, coeff)
    with alpha a sparse multi-index of even derivative orders, so that
    D_j(x) = sum_terms coeff * prod_{(c,o) in alpha} D1^{(o)}(x_c) * prod_{others} D1(x_c)."""
    if j % 2 or j < 2:
        raise ValueError("j must be an even integer >= 2")
    acc: dict[tuple[tuple[int, int], ...], Fraction] = {}
    for eta in _even_compositions(j):
        m = len(eta)
        sign = Fraction((-1) ** m)
        for betas in _product_of_multiindices(eta, d):
            coeff = sign
            alpha: dict[int, int] = {}
            for beta in betas:
                for c, o in beta.items():
                    coeff *= moments_pi(k, (o,)) / math.factorial(o)
                    alpha[c] = alpha.get(c, 0) + o
            key = tuple(sorted(alpha.items()))
            acc[key] = acc.get(key, Fraction(0)) + coeff
    return tuple((key, float(v)) for key, v in sorted(acc.items()) if v != 0)


def _product_of_multiindices(eta, d):
    if not eta:
        yield ()
        return
    for head in _even_multiindices(eta[0], d):
        for tail in _product_of_multiindices(eta[1:], d):
            yield (head,) + tail


class CorrectionDensity:
    """Evaluator of D_j and of the importance ratio D_j / D for a scheme."""

    def __init__(self, scheme: SmoothingScheme, j: int, d: int):
        if j % 2 or j < 2:
            raise ValueError("correction order j must be even and >= 2")
        if j > scheme.k - 2:
            raise ValueError(f"j = {j} needs k >= {j + 2}")
        self.scheme = scheme
        self.j = j
        self.d = d
        self.terms = dj_terms(j, d, scheme.k)

    def _factor_cache(self, X: np.ndarray) -> dict[int, np.ndarray]:
        orders = sorted({o for alpha, _ in self.terms for _, o in alpha})
        cache = {0: self.scheme.d1(X, 0)}
        for o in orders:
            cache[o] = self.scheme.d1(X, o)
        return cache

    def _ratio(self, cache: dict[int, np.ndarray]) -> np.ndarray:
        base = cache[0]
        out = np.zeros(base.shape[0])
        for alpha, coeff in self.terms:
            term = np.full(base.shape[0], coeff)
            for c, o in alpha:
                term = term * cache[o][:, c] / base[:, c]
            out += term
        return out

    def ratio(self, X: np.ndarray) -> np.ndarray:
        """(D_j / D)(x) per row of X; rows must lie inside the support of D."""
        return self._ratio(self._factor_cache(X))

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """D_j(x) per row of X; 0 outside the support of D."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        cache = self._factor_cache(X)
        dens = np.prod(cache[0], axis=1)
        inside = dens > 0
        out = np.zeros(X.shape[0])
        out[inside] = self._ratio({o: v[inside] for o, v in cache.items()}) * dens[inside]
        return out


def density(scheme: SmoothingScheme, X: np.ndarray) -> np.ndarray:
    """D(x) = prod_c D1(x_c) per row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.prod(scheme.d1(X, 0), axis=1)


# ---------------------------------------------------------------------------
# distribution functions
# ---------------------------------------------------------------------------


def _f_mu_grid(form: QuadraticForm, a, s_list: Sequence[float],
               scheme: SmoothingScheme, budget: int, exact: bool) -> list:
    """F(s) for every s in s_list from one weighted value distribution sized
    for the largest s."""
    if isinstance(a, ShiftVector):
        a = a.a
    a = np.asarray(a, dtype=float)
    if exact:
        # integer numerators keep the DP in (fast) bigint arithmetic;
        # one division by the normalizer at the end restores the Fraction
        wcol = np.array([int(nu) for nu in scheme.numerators], dtype=object)
    else:
        wcol = scheme.weights
    try:
        dist = value_distribution(form, a, max(s_list), budget,
                                  weights=[wcol] * form.dim,
                                  method="diagonal-dp" if exact else "auto")
    except ValueError as exc:
        if not exact:
            raise
        raise ValueError(f"exact=True needs the diagonal DP: {exc}") from None
    totals = [dist.mass_le(float(s)) for s in s_list]
    if exact:
        return [Fraction(int(t), scheme.normalizer ** form.dim) for t in totals]
    return [float(t) for t in totals]


def f_mu(form: QuadraticForm, a, s: float, scheme: SmoothingScheme,
         budget: int = 10 ** 9, exact: bool = False):
    """F(s) = mu{x : Q[x - a] <= s}: exact weighted lattice sum.

    Diagonal exact forms with rational shift run on the value-lattice DP
    (`exact=True` keeps Fraction weights and returns a Fraction); other forms
    use pruned enumeration with per-point float product weights, and reject
    `exact=True`.
    """
    return _f_mu_grid(form, a, [s], scheme, budget, exact)[0]


def f_mu_window(form, a, window: tuple[float, float], scheme,
                budget: int = 10 ** 9) -> float:
    """F(I) = F(beta) - F(alpha) for I = (alpha, beta], from one weighted
    value distribution."""
    F_alpha, F_beta = _f_mu_grid(form, a, window, scheme, budget, exact=False)
    return F_beta - F_alpha


def f_mu_curve(form: QuadraticForm, a, s_list: Sequence[float],
               scheme: SmoothingScheme, budget: int = 10 ** 10) -> list[float]:
    """F(s) on an s-grid from one weighted value distribution."""
    return _f_mu_grid(form, a, s_list, scheme, budget, exact=False)


def _nu_sampler(form: QuadraticForm, a: np.ndarray, s: float,
                scheme: SmoothingScheme, weight_fn):
    """Sampler for `mc_mean`: I{Q[X - a] <= s} weight_fn(X) with X ~ nu."""
    d = form.dim
    mat = form.matrix

    def sampler(rng, n):
        X = scheme.sample(rng, n, d)
        ind = quad_values(mat, a, X) <= s
        vals = np.zeros(n)
        if np.any(ind):
            vals[ind] = weight_fn(X[ind])
        return vals

    return sampler


def f_nu(form: QuadraticForm, a, s: float, scheme: SmoothingScheme,
         samples: int = DEFAULT_MC_SAMPLES, seed: int = 0,
         workers: int = 1) -> McEstimate:
    """F0(s) = nu{x : Q[x - a] <= s}, Monte Carlo with nu itself as sampler."""
    if isinstance(a, ShiftVector):
        a = a.a
    a = np.asarray(a, dtype=float)
    return mc_mean(_nu_sampler(form, a, s, scheme, lambda X: np.ones(X.shape[0])),
                   samples, seed, workers)


def f_j(form: QuadraticForm, a, s: float, scheme: SmoothingScheme, j: int,
        samples: int = DEFAULT_MC_SAMPLES, seed: int = 0,
        workers: int = 1) -> McEstimate:
    """F_j(s) = integral of the indicator against the signed density D_j,
    importance-sampled from nu: E_nu[ I{Q[X-a] <= s} (D_j/D)(X) ]."""
    if j % 2 or j < 2:
        raise ValueError("j must be even and >= 2")
    if j > scheme.k - 2:
        raise ValueError(f"j = {j} needs k >= {j + 2}")
    if isinstance(a, ShiftVector):
        a = a.a
    a = np.asarray(a, dtype=float)
    corr = CorrectionDensity(scheme, j, form.dim)
    return mc_mean(_nu_sampler(form, a, s, scheme, corr.ratio),
                   samples, seed, workers)


def expansion_residual(form: QuadraticForm, a, s_grid: Sequence[float],
                       scheme: SmoothingScheme, p: int,
                       samples: int = DEFAULT_MC_SAMPLES, seed: int = 0,
                       workers: int = 1, T: float = 4.0,
                       eps: float = 0.05, budget: int = 10 ** 9) -> dict:
    """Residual R = F - F0 - sum_{j even < p} F_j on an s-grid, with the
    theoretical envelope evaluated at constant 1 and a fitted constant."""
    d = form.dim
    if d < 9:
        raise ValueError("need d >= 9")
    if not 2 <= p < d / 2:
        raise ValueError("need 2 <= p < d/2")
    if scheme.k < 2 * p + 2:
        raise ValueError("need k >= 2p + 2")
    if not scheme.r <= scheme.R:
        raise ValueError("need r <= R")
    if isinstance(a, ShiftVector):
        a = a.a
    a = np.asarray(a, dtype=float)
    r = scheme.r
    q = form.q
    gam = gamma_estimate(form, max(r * r, 1.0 + 1e-9), T).gamma
    envelope = error_envelopes("thm21", d=d, q=q, r=r, T=T, R=scheme.R, p=p,
                               a_norm=float(np.linalg.norm(a)), eps=eps, gamma=gam)
    js = [j for j in range(2, p, 2)]
    rows = []
    F_col = f_mu_curve(form, a, s_grid, scheme, budget=budget)
    for i, (s, F) in enumerate(zip(s_grid, F_col)):
        F0 = f_nu(form, a, s, scheme, samples=samples, seed=seed + 1000 + i,
                  workers=workers)
        fjs = [f_j(form, a, s, scheme, j, samples=samples,
                   seed=seed + 2000 + 100 * j + i, workers=workers) for j in js]
        resid = F - F0.mean - sum(e.mean for e in fjs)
        stderr = math.sqrt(F0.stderr ** 2 + sum(e.stderr ** 2 for e in fjs))
        rows.append({"s": s, "F": F, "F0": F0, "F_j": fjs,
                     "residual": resid, "residual_stderr": stderr})
    max_resid = max(abs(row["residual"]) for row in rows)
    return {"rows": rows, "envelope": envelope, "gamma": gam,
            "fitted_constant": max_resid / envelope if envelope > 0 else math.inf}


# ---------------------------------------------------------------------------
# Fourier inversion
# ---------------------------------------------------------------------------


def fhat_mu(form: QuadraticForm, a, ts: np.ndarray,
            scheme: SmoothingScheme) -> np.ndarray:
    """Fourier-Stieltjes transform of F: product of per-coordinate weighted sums
    (diagonal forms)."""
    if not form.is_diagonal:
        raise ValueError("factorized transform needs a diagonal form")
    return factorized_transform(np.diagonal(form.matrix), a, ts, scheme.offsets,
                                scheme.weights)


def _mu_mean_value(form: QuadraticForm, a: np.ndarray,
                   scheme: SmoothingScheme) -> float:
    """E_mu[Q[X - a]] for diagonal forms; the t -> 0 limit of the inversion
    integrand is this minus s."""
    qdiag = np.diagonal(form.matrix)
    m = scheme.offsets.astype(float)
    w = scheme.weights
    return float(sum(qj * np.dot(w, (m - aj) ** 2)
                     for qj, aj in zip(qdiag, a)))


def fourier_inversion_check(form: QuadraticForm, a, s: float,
                            scheme: SmoothingScheme, T: float,
                            t_nodes: int = 2 ** 14,
                            budget: int = 10 ** 9) -> dict:
    """Reconstruct F(s) from the principal-value inversion integral on [-T, T]
    and compare against the exact weighted sum; the remainder is bounded by
    (1/T) int |Fhat|."""
    a = np.asarray(a, dtype=float)
    ts = np.linspace(0.0, T, t_nodes + 1)
    fh = fhat_mu(form, a, ts, scheme)

    integrand = np.empty_like(ts)
    z = np.exp(-1j * s * ts[1:]) * fh[1:]
    integrand[1:] = z.imag / ts[1:]
    integrand[0] = _mu_mean_value(form, a, scheme) - s  # limit at t -> 0

    dt = ts[1] - ts[0]
    trap = np.full(t_nodes + 1, dt)
    trap[0] = trap[-1] = dt / 2
    reconstructed = 0.5 - float(np.dot(trap, integrand)) / math.pi
    remainder_bound = 2.0 / T * float(np.dot(trap, np.abs(fh)))

    # quadrature tolerance: compare against the half-resolution grid
    coarse = integrand[::2]
    trap_c = np.full(len(coarse), 2 * dt)
    trap_c[0] = trap_c[-1] = dt
    rec_coarse = 0.5 - float(np.dot(trap_c, coarse)) / math.pi
    quad_tol = abs(reconstructed - rec_coarse) + 1e-12

    exact = f_mu(form, a, s, scheme, budget=budget)
    err = abs(reconstructed - exact)
    return {
        "reconstructed": reconstructed,
        "exact": float(exact),
        "error": err,
        "remainder_bound": remainder_bound,
        "quadrature_tolerance": quad_tol,
        "within_bound": err <= remainder_bound + quad_tol,
        "fhat0": complex(fh[0]),
    }
