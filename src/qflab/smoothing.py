"""Smoothing measures, correction densities, and the expansion F = F0 + sum F_j.

Per coordinate, the lattice measure mu (a `trig.WeightTable`) is the uniform
weight on [-[R],[R]] convolved k times with the uniform weight on [-[r],[r]];
the continuous measure nu equals mu convolved with the (k+1)-fold unit-cell
density, so its density D is a product of per-coordinate factors

    D1(x) = sum_m W(m) b_{k+1}(x - m),

with b_n the centered Irwin-Hall density.  D1 is a degree-k spline on the
unit cells with knots m - (k+1)/2 + i, so it is evaluated from a table of
per-cell polynomial coefficients in the local coordinate u in [0, 1): the
table is the convolution of the integer weight numerators with the k+1
polynomial pieces of b_{k+1}, built in exact integers, differentiated exactly
for every order and rounded to float once (de Boor, "A Practical Guide to
Splines", ch. VII).  An evaluation finds each point's cell and u once and
runs Horner's rule on that cell's coefficients.

Correction densities D_j contract derivatives of D against moments of the
(k+1)-fold cell measure.  That measure is a product measure, so
sum_j D_j = prod_c b(d/dx_c) D with the 1-d generating function
b(z) = 1 / (1 + sum_{even o >= 2} m_o z^o / o!), and D_j / D is the z^j
coefficient of a truncated product of per-coordinate factor polynomials.
F-values against mu are exact weighted lattice sums, queries on one
`lattice.value_distribution` with mu's weight column; F-values against nu
and nu_j are importance-sampled Monte Carlo with D as the proposal, and one
nu-draw at `seed` gives an expansion's F0, F_j and residual at every s (the
residual's stderr is that of the column I{Q <= s} (1 + sum_j D_j / D)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .forms import QuadraticForm, shift_array
from .bounds import error_envelopes
from .lattice import quad_values, value_distribution
from .trig import WeightTable, convolve_weights, factorized_transform, gamma_estimate
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
    mu: WeightTable             # per-coordinate lattice measure

    @property
    def r_bar(self) -> float:
        return int(self.r) + 0.5

    @property
    def R_bar(self) -> float:
        return int(self.R) + 0.5

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
        [c - mu.half_support - (k+1)/2, +1)."""
        n = self.k + 1
        ih = _ih_coeffs(n)
        # (n-1)! b_n on the p-th cell of its support, as integer u^t coefficients
        pieces = [[sum(c * math.comb(n - 1, t) * (p - i) ** (n - 1 - t)
                       for i, c in enumerate(ih[:p + 1]))
                   for t in range(n)]
                  for p in range(n)]
        cells = [np.convolve(self.mu.numerators,
                             np.array([piece[t] for piece in pieces], dtype=object))
                 for t in range(n)]
        den = math.factorial(n - 1) * self.mu.denominator
        return tuple(
            np.array([[int(v) * math.perm(t, o) / den for v in cells[t]]
                      for t in range(o, n)])
            for o in range(n - 1))

    def d1(self, x: np.ndarray, deriv: int = 0) -> np.ndarray:
        """Per-coordinate density factor of nu (or its derivative)."""
        _check_deriv(deriv, self.k + 1)
        table = self._spline_tables[deriv]
        x = np.asarray(x, dtype=float)
        left = -self.mu.half_support - (self.k + 1) / 2
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
    """The scheme with mu = uniform[-[R],[R]] * uniform[-[r],[r]]^{*k}."""
    if not (R >= r >= 0):
        raise ValueError("need R >= r >= 0")
    if k < 1:
        raise ValueError("need k >= 1")
    return SmoothingScheme(R=float(R), r=float(r), k=k,
                           mu=convolve_weights((int(R),) + (int(r),) * k))


# ---------------------------------------------------------------------------
# correction densities D_j
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _inverse_moment_series(j: int, k: int) -> tuple[float, ...]:
    """b_0..b_j of b(z) = 1 / (1 + a(z)), a(z) = sum_{even o >= 2} m_o z^o / o!
    with m_o the 1-d moments of the (k+1)-fold cell measure; exact, rounded once.

    The cell measure is a product measure, so its moment operator factors as
    prod_c (1 + a(d/dx_c)) and the sum of the D_j is prod_c b(d/dx_c) D."""
    a = [Fraction(0)] * (j + 1)
    for o in range(2, j + 1, 2):
        a[o] = moments_pi(k, (o,)) / math.factorial(o)
    b = [Fraction(1)] + [Fraction(0)] * j
    for n in range(2, j + 1, 2):
        b[n] = -sum(a[o] * b[n - o] for o in range(2, n + 1, 2))
    return tuple(float(v) for v in b)


class CorrectionDensity:
    """Evaluator of D_j and of the importance ratio D_j / D for a scheme."""

    def __init__(self, scheme: SmoothingScheme, j: int):
        if j % 2 or j < 2:
            raise ValueError("j must be an even integer >= 2")
        if j > scheme.k - 2:
            raise ValueError(f"j = {j} needs k >= {j + 2}")
        self.scheme = scheme
        self.j = j

    def ratio(self, X: np.ndarray) -> np.ndarray:
        """(D_j / D)(x) per row of X; rows must lie inside the support of D.

        The z^j coefficient of prod_c sum_{even o <= j} b_o z^o r_o(x_c) with
        r_o = D1^(o) / D1, from one truncated product over the coordinates:
        cols[i] holds the z^(2i+2) coefficient, the z^0 coefficient is 1
        throughout.  The columns grow from 0 in coordinate order (not by a
        pairwise np.sum), so j = 2 adds its d terms as a plain running sum."""
        b = _inverse_moment_series(self.j, self.scheme.k)
        base = self.scheme.d1(X, 0)
        factors = [(b[o] * self.scheme.d1(X, o)) / base
                   for o in range(2, self.j + 1, 2)]
        cols = [np.zeros(base.shape[0]) for _ in factors]
        for c in range(base.shape[1]):
            f = [r[:, c] for r in factors]
            for i in reversed(range(len(cols))):
                acc = cols[i] + f[i]
                for m in range(i):
                    acc += cols[m] * f[i - 1 - m]
                cols[i] = acc
        return cols[-1]

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """D_j(x) per row of X; 0 outside the support of D."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        dens = density(self.scheme, X)
        inside = dens > 0
        out = np.zeros(X.shape[0])
        out[inside] = self.ratio(X[inside]) * dens[inside]
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
    a = shift_array(form, a)
    # integer numerators keep the exact DP in (fast) bigint arithmetic; one
    # division by the denominator at the end restores the Fraction
    try:
        dist = value_distribution(form, a, max(s_list), budget,
                                  weights=scheme.mu.numerators if exact
                                  else scheme.mu.weights,
                                  method="diagonal-dp" if exact else "auto")
    except ValueError as exc:
        if not exact:
            raise
        raise ValueError(f"exact=True needs the diagonal DP: {exc}") from None
    totals = [dist.mass_le(float(s)) for s in s_list]
    if exact:
        return [Fraction(int(t), scheme.mu.denominator ** form.dim) for t in totals]
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


def _f_nu_grid(form: QuadraticForm, a, s_list: Sequence[float],
               scheme: SmoothingScheme, js, samples, seed, workers) -> list:
    """Per s: [F0(s), F_j(s) for j in js, F0(s) + sum_j F_j(s)] from one nu-draw:
    each substream takes X ~ nu, Q[X - a] and, where Q <= max(s_list), each D_j / D
    once, then yields the column I{Q <= s} w for w = 1, each D_j / D and their sum."""
    corrs = [CorrectionDensity(scheme, j) for j in js]  # checks each j against k
    a = shift_array(form, a)

    def sampler(rng, n):
        X = scheme.sample(rng, n, form.dim)
        Q = quad_values(form.matrix, a, X)
        inside = Q <= max(s_list)
        X, Q_in = X[inside], Q[inside]
        ones = np.ones(len(X))
        ratios = [corr.ratio(X) for corr in corrs]
        del X
        weights = [ones, *ratios, sum(ratios, ones)]
        for s in s_list:
            ind, sub = Q <= s, Q_in <= s
            for w in weights:
                col = np.zeros(n)
                col[ind] = w[sub]
                yield col

    ests, width = mc_mean(sampler, samples, seed, workers), len(js) + 2
    return [ests[i:i + width] for i in range(0, len(ests), width)]


def f_nu(form: QuadraticForm, a, s: float, scheme: SmoothingScheme,
         samples: int = DEFAULT_MC_SAMPLES, seed: int = 0,
         workers: int = 1) -> McEstimate:
    """F0(s) = nu{x : Q[x - a] <= s}, Monte Carlo with nu itself as sampler."""
    return _f_nu_grid(form, a, [s], scheme, [], samples, seed, workers)[0][0]


def f_j(form: QuadraticForm, a, s: float, scheme: SmoothingScheme, j: int,
        samples: int = DEFAULT_MC_SAMPLES, seed: int = 0,
        workers: int = 1) -> McEstimate:
    """F_j(s) = integral of the indicator against the signed density D_j,
    importance-sampled from nu: E_nu[ I{Q[X-a] <= s} (D_j/D)(X) ]."""
    return _f_nu_grid(form, a, [s], scheme, [j], samples, seed, workers)[0][1]


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
    a = shift_array(form, a)
    r = scheme.r
    q = form.q
    gam = gamma_estimate(form, max(r * r, 1.0 + 1e-9), T).gamma
    envelope = error_envelopes("thm21", d=d, q=q, r=r, T=T, R=scheme.R, p=p,
                               a_norm=float(np.linalg.norm(a)), eps=eps, gamma=gam)
    js = [j for j in range(2, p, 2)]
    F_col = f_mu_curve(form, a, s_grid, scheme, budget=budget)
    nu_rows = _f_nu_grid(form, a, s_grid, scheme, js, samples, seed, workers)
    rows = [{"s": s, "F": F, "F0": F0, "F_j": fjs,
             "residual": F - total.mean, "residual_stderr": total.stderr}
            for s, F, (F0, *fjs, total) in zip(s_grid, F_col, nu_rows)]
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
    return factorized_transform(np.diagonal(form.matrix), shift_array(form, a), ts,
                                scheme.mu)


def _mu_mean_value(form: QuadraticForm, a: np.ndarray,
                   scheme: SmoothingScheme) -> float:
    """E_mu[Q[X - a]] for diagonal forms; the t -> 0 limit of the inversion
    integrand is this minus s."""
    qdiag = np.diagonal(form.matrix)
    m = scheme.mu.offsets.astype(float)
    w = scheme.mu.weights
    return float(sum(qj * np.dot(w, (m - aj) ** 2)
                     for qj, aj in zip(qdiag, a)))


def fourier_inversion_check(form: QuadraticForm, a, s: float,
                            scheme: SmoothingScheme, T: float,
                            t_nodes: int = 2 ** 14,
                            budget: int = 10 ** 9) -> dict:
    """Reconstruct F(s) from the principal-value inversion integral on [-T, T]
    and compare against the exact weighted sum; the remainder is bounded by
    (1/T) int |Fhat|."""
    a = shift_array(form, a)
    ts = np.linspace(0.0, T, t_nodes + 1)
    fh = fhat_mu(form, a, ts, scheme)

    integrand = np.empty_like(ts)
    z = np.exp(-1j * s * ts[1:]) * fh[1:]
    integrand[1:] = z.imag / ts[1:]
    integrand[0] = _mu_mean_value(form, a, scheme) - s  # limit at t -> 0

    reconstructed = 0.5 - float(np.trapezoid(integrand, ts)) / math.pi
    remainder_bound = 2.0 / T * float(np.trapezoid(np.abs(fh), ts))

    # quadrature tolerance: compare against the half-resolution grid
    rec_coarse = 0.5 - float(np.trapezoid(integrand[::2], ts[::2])) / math.pi
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
