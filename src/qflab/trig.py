"""Normalized trigonometric sums of quadratic forms and their diagnostics.

Every lattice measure is uniform{-h..h} convolved over a tuple of half-widths
h, held by one `WeightTable`: phi's three-fold weights (`phi_weights`),
phi_sym's two-fold, f_sum's (2k+1)-fold and the smoothing measure mu.
`convolve_weights` builds them all and `WeightTable.folded` folds them over +-m.

The triple sum over a box collapses to a single weighted sum by per-coordinate
self-convolution of the uniform box weight; for diagonal forms the phase then
splits per coordinate, the modulus of the product is the product of moduli,
and the shift supremum reduces to one period per coordinate.  Those two
identities carry all the heavy evaluations here.  At arbitrary t:

* `factorized_transform`, the product over distinct (q_j, a_j), serves phi,
  its batches, f_sum, F-hat, check_basic_inequality's random pairs and
  probes, and a profile's tail node T.
* `_ShiftSup` serves the shift supremum (sup_phi_profile, gamma_estimate)
  over c_m cos(2 pi alpha m) e^{i t q m^2}, m >= 0; its refinement scans
  each lane's alpha-bracket by seeded phasors, then polishes the peaks by
  Newton steps.
* `symmetrized_transform`, the direct Dirichlet kernel, serves phi_sym.

On a uniform t-grid t0 + j step, two paths:

* `_seeded_phasors`: seed phasors e^{i f t_b}, exact at each block start
  t_b, times fixed step phasors (`_ShiftSup.grid`; `phi_factorized_grid`
  for phi_profile and check_basic_inequality's peak grid, any shift).
* `phi_symmetrized_grid`: each phi_sym factor as sum_v X_v cos(2 q t v),
  exact integer X_v, by a blocked Bluestein chirp-z transform (Rabiner,
  Schafer and Rader 1969).  The transform locates, the direct kernel
  reports: sup_phi_symmetrized's value comes from `symmetrized_transform`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .forms import QuadraticForm, shift_array
from .lattice import quad_values
from .util import golden_max, row_products, weighted_box_sum
from .volume import mc_mean

DEFAULT_T_NODES = 2 ** 16
TOP_CANDIDATES = 8
REFINE_ROUNDS = 3           # golden rounds of gamma_estimate's t-refinement
TRANSFORM_CHUNK = 2 ** 20   # (t, m) phase entries per chunk of the transform
SYM_CHUNK = 2 ** 22         # (t, u) kernel entries per chunk of phi_sym
SUP_BLOCK = 2 ** 15         # (row, t) or (alpha, m) cells per block of phasors
CHIRP_PHASE = 2.0 ** 16     # radians; a phase p rounds by ~1e-16 p
POLISH_TERMS = 14           # Taylor terms over one scan step: (pi/8)^14/14! < 3e-17


@dataclass(frozen=True)
class WeightTable:
    """Weights of uniform{-h..h} convolved over every half-width h in `halves`."""

    halves: tuple[int, ...]
    numerators: np.ndarray   # object dtype ints, index m + half_support
    weights: np.ndarray      # floats summing to 1

    @property
    def half_support(self) -> int:
        return sum(self.halves)

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(-self.half_support, self.half_support + 1)

    @property
    def denominator(self) -> int:
        return math.prod(2 * h + 1 for h in self.halves)

    def folded(self) -> np.ndarray:
        """c_0 = w_0, c_m = 2 w_m for m = 0..half_support, rounded once from
        the exact numerators: the even weights folded over +-m."""
        c = self.numerators[self.half_support:].astype(float)
        c[1:] *= 2
        return c / float(self.denominator)


def convolve_weights(halves) -> WeightTable:
    """uniform{-h..h} convolved over `halves` in exact integers, then floats."""
    halves = tuple(halves)
    if not halves or min(halves) < 0:
        raise ValueError("need at least one half-width, each >= 0")
    acc = np.ones(1, dtype=object)
    for h in halves:
        acc = np.convolve(acc, np.ones(2 * h + 1, dtype=object))
    den = math.prod(2 * h + 1 for h in halves)
    return WeightTable(halves, acc, (acc / den).astype(float))


def phi_weights(s: float) -> WeightTable:
    """phi_a(t; s)'s weights: uniform{-n..n} three-fold, n = [sqrt(s)]."""
    if s < 0:
        raise ValueError("s must be >= 0")
    return convolve_weights((math.isqrt(int(s)),) * 3)


def _diag_entries(form: QuadraticForm) -> np.ndarray:
    if not form.is_diagonal:
        raise ValueError("needs a diagonal form: the sum splits per coordinate "
                         "only then")
    return np.diagonal(form.matrix).copy()


def _pair_terms(qdiag: np.ndarray, a: np.ndarray,
                table: WeightTable) -> list[tuple[float, np.ndarray, np.ndarray, int]]:
    """(q_j, (m - a_j)^2, weights, multiplicity) per distinct (q_j, a_j).

    The weights are even about 0 only, so at a_j = 0 they fold over +-m
    (`WeightTable.folded`, m = 0..half_support); other shifts keep every m.
    """
    pairs, mult = np.unique(np.column_stack([qdiag, np.asarray(a, dtype=float)]),
                            axis=0, return_counts=True)
    m = table.offsets.astype(float)
    half, folded = m[table.half_support:], table.folded()
    return [(qj, half * half, folded, k) if aj == 0 else
            (qj, (m - aj) ** 2, table.weights, k) for (qj, aj), k in zip(pairs, mult)]


def factorized_transform(qdiag: np.ndarray, a: np.ndarray, ts: np.ndarray,
                         table: WeightTable) -> np.ndarray:
    """prod_j sum_m w_m e^{i t q_j (m - a_j)^2}, w from `table`, for an array of t.

    Each distinct (q_j, a_j) pair is summed once (`_pair_terms`) and raised to
    its multiplicity; t is processed in chunks of TRANSFORM_CHUNK phase entries.
    """
    terms = _pair_terms(qdiag, a, table)
    ts = np.asarray(ts, dtype=float)
    out = np.ones(len(ts), dtype=complex)
    chunk = max(1, TRANSFORM_CHUNK // len(table.weights))
    for start in range(0, len(ts), chunk):
        tt = ts[start:start + chunk]
        for qj, sq, w, k in terms:
            out[start:start + chunk] *= (np.exp(1j * np.outer(tt * qj, sq)) @ w) ** k
    return out


def phi_factorized_batch(qdiag: np.ndarray, a: np.ndarray, ts: np.ndarray,
                         table: WeightTable) -> np.ndarray:
    """phi_a(t; s) on an array of t values, diagonal forms only."""
    return np.abs(factorized_transform(qdiag, a, ts, table))


def _seeded_phasors(freqs: np.ndarray, coef: np.ndarray, t0: float, step: float,
                    n: int, block: int):
    """Blocks (start, seed, steps) of t = t0 + j step, j < n, with coef_f
    e^{i f t_{start + i}} = seed_f steps[f, i]: an exact exp at each block
    start, so rounding does not accumulate across blocks."""
    block = max(1, min(n, block))
    steps = np.exp(1j * np.outer(freqs, step * np.arange(block)))
    for start in range(0, n, block):
        seed = coef * np.exp(1j * freqs * (t0 + step * start))
        yield start, seed, steps[:, :min(block, n - start)]


def phi_factorized_grid(qdiag: np.ndarray, a: np.ndarray, t0: float, step: float,
                        n: int, table: WeightTable) -> np.ndarray:
    """phi_factorized_batch at t = t0 + j step, j < n: seeded phasors, one
    matrix product per block and distinct (q_j, a_j)."""
    out, z = np.ones(n), np.empty(n, dtype=complex)
    for qj, sq, w, k in _pair_terms(qdiag, a, table):
        for start, seed, steps in _seeded_phasors(qj * sq, w, t0, step, n,
                                                  SUP_BLOCK // len(sq)):
            z[start:start + steps.shape[1]] = seed @ steps
        out *= np.abs(z) ** k
    return out


def phi(form: QuadraticForm, a, t: float, s: float, mode: str = "auto",
        budget: int = 10 ** 7, samples: int = 10 ** 5, seed: int = 0,
        workers: int = 1):
    """phi_a(t; s): normalized modulus of the smoothed trigonometric sum.

    Modes: "factorized" (diagonal forms, exact), "direct" (any form, box
    budgeted by (6n+1)^d), "mc" (any form, returns (value, stderr)).
    "auto" picks factorized for diagonal forms, else direct if affordable,
    else mc.
    """
    a = shift_array(form, a)
    table = phi_weights(s)
    d = form.dim
    if mode == "auto":
        if form.is_diagonal:
            mode = "factorized"
        elif len(table.weights) ** d <= budget:
            mode = "direct"
        else:
            mode = "mc"
    if mode == "factorized":
        return float(phi_factorized_batch(_diag_entries(form), a, [t], table)[0])
    if mode == "direct":
        return abs(weighted_box_sum(
            table.weights, d,
            lambda X: np.exp(1j * t * quad_values(form.matrix, a, X)), budget))
    if mode == "mc":
        n = table.halves[0]

        def sampler(rng, cnt):
            X = rng.integers(-n, n + 1, size=(cnt, d, len(table.halves))).sum(axis=2)
            return np.exp(1j * t * quad_values(form.matrix, a, X))

        est = mc_mean(sampler, samples, seed, workers)
        return abs(est.mean), est.stderr   # modulus bias is O(stderr^2)
    raise ValueError(f"unknown mode {mode!r}")


def f_sum(form: QuadraticForm, a, t: float, r: float, k: int,
          mode: str = "auto", budget: int = 10 ** 7) -> float:
    """|sum_x w(x) e{t (Q[x] + <a, x>)}| with (2k+1)-fold convolution weights.

    Here `a` is the linear coefficient of the polynomial phase, not a center
    shift.
    """
    a = shift_array(form, a)
    table = convolve_weights((int(r),) * (2 * k + 1))
    if mode == "auto":
        mode = "factorized" if form.is_diagonal else "direct"
    if mode == "factorized":
        # t (q m^2 + a m) = t q (m + a / 2q)^2 - t a^2 / 4q: a shift whose
        # constant phase drops out of the modulus
        qdiag = _diag_entries(form)
        return float(abs(factorized_transform(qdiag, -a / (2.0 * qdiag), [t],
                                              table)[0]))
    if mode == "direct":
        return abs(weighted_box_sum(
            table.weights, form.dim,
            lambda X: np.exp(1j * t * (quad_values(form.matrix, 0.0, X) + X @ a)),
            budget))
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# symmetrized sum (bilinear phase)
# ---------------------------------------------------------------------------


def _dirichlet_ratio(z: np.ndarray, n: int) -> np.ndarray:
    """D_n(z) / (2n+1) with the removable singularities at z = 2 pi k filled.

    z / 2 is reduced mod pi, the ratio's period, so near a resonance both
    sines see a small argument (rounding (2n+1) z / 2 at full size made
    phi_sym dip by 2.5e-11 at 3e-10 from t = pi).  Clipped to [-1, 1], exact
    for the true ratio; near-singular arguments otherwise amplify sine
    roundoff above 1.
    """
    half = np.asarray(z, dtype=float) / 2
    half -= np.round(half / math.pi) * math.pi
    s = np.sin(half)
    small = np.abs(s) < 1e-9
    out = np.sin((2 * n + 1) * half) / np.where(small, 1, s) / (2 * n + 1)
    if np.any(small):
        out[small] = np.cos((2 * n + 1) * half[small]) / np.cos(half[small])
    return np.clip(out, -1.0, 1.0)


def symmetrized_transform(qdiag: np.ndarray, ts: np.ndarray, n: int,
                          k: int) -> np.ndarray:
    """prod_j sum_u w_u (D_n(2 q_j t u) / (2n+1))^{2k} on an array of t values,
    w = convolve_weights((n, n)).

    Folded over +-u (`WeightTable.folded`) and summed from u = 2n down, so the
    smallest weights come first.  Each distinct q_j is summed once and raised
    to its multiplicity; t runs in chunks of SYM_CHUNK.
    """
    c = convolve_weights((n, n)).folded()[::-1]
    u = np.arange(len(c) - 1, -1, -1, dtype=float)
    q, mult = np.unique(qdiag, return_counts=True)
    ts = np.asarray(ts, dtype=float)
    out = np.ones(len(ts))
    chunk = max(1, SYM_CHUNK // len(u))
    for start in range(0, len(ts), chunk):
        tt = ts[start:start + chunk]
        for qj, m in zip(q, mult):
            g = _dirichlet_ratio(np.outer(2 * qj * tt, u), n) ** (2 * k)
            out[start:start + chunk] *= (g @ c) ** m
    return out


def _sym_coefficients(n: int, k: int) -> np.ndarray:
    """X_v, v <= 4kn^2, of sum_u w_u (D_n(z u) / (2n+1))^{2k} = sum_v X_v cos(z v):
    (D_n(z) / (2n+1))^{2k} = sum_l d_l e^{i z l}, d = convolve_weights((n,) * 2k),
    so X_v sums w_u d_l over |u l| = v, in exact integers rounded once."""
    w, d = convolve_weights((n, n)), convolve_weights((n,) * (2 * k))
    X = np.zeros(4 * k * n * n + 1, dtype=object)
    # u = 0 or l = 0 sends a whole row to v = 0: repeated indices must add up
    np.add.at(X, np.abs(np.outer(w.offsets, d.offsets)).ravel(),
              np.outer(w.numerators, d.numerators).ravel())
    return (X / (w.denominator * d.denominator)).astype(float)


def _sym_factor_grid(q: float, X: np.ndarray, t0: float, step: float, nodes: int,
                     n: int, k: int) -> np.ndarray:
    """sum_v X_v cos(2 q t v), X = _sym_coefficients(n, k), at t = t0 + j step.

    With w = 2 q step and x_v = X_v e^{2 i q t_b v} (block start t_b),
    sum_v x_v e^{i w v j} = e^{i w j^2 / 2} sum_v x_v e^{i w v^2 / 2}
    e^{-i w (j - v)^2 / 2}: one FFT convolution per block of M outputs, the
    most with |w| (L + M)^2 / 2 <= CHIRP_PHASE (none: the direct kernel).
    """
    L, w = len(X), 2 * q * step
    M = nodes if abs(w) * (L + nodes) ** 2 <= 2 * CHIRP_PHASE else (
        math.isqrt(int(2 * CHIRP_PHASE / abs(w))) - L)
    if M < 1:
        return symmetrized_transform(np.array([q]), t0 + step * np.arange(nodes), n, k)
    N = 1 << (L + M - 2).bit_length()            # power of two >= L + M - 1
    lag = np.arange(N, dtype=float)
    lag[N - L + 1:] -= N                         # j - v runs over 1 - L..M - 1
    kernel = np.fft.fft(np.exp(-0.5j * w * lag * lag))
    v, j = np.arange(L, dtype=float), np.arange(M, dtype=float)
    pre, post = X * np.exp(0.5j * w * v * v), np.exp(0.5j * w * j * j)
    out = np.empty(nodes)
    for start in range(0, nodes, M):
        x = pre * np.exp(2j * q * (t0 + step * start) * v)
        y = np.fft.ifft(np.fft.fft(x, N) * kernel)[:min(M, nodes - start)]
        out[start:start + len(y)] = (post[:len(y)] * y).real
    return out


def _sym_order(r: float, k: int) -> int:
    if r < 1:
        raise ValueError("r must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    return int(r)


def phi_symmetrized_batch(form: QuadraticForm, ts: np.ndarray, r: float,
                          k: int = 1) -> np.ndarray:
    """phi_sym on an array of t values (diagonal forms)."""
    return symmetrized_transform(_diag_entries(form), ts, _sym_order(r, k), k)


def phi_symmetrized_grid(form: QuadraticForm, t0: float, step: float, nodes: int,
                         r: float, k: int = 1) -> np.ndarray:
    """phi_sym at t = t0 + j step, j < nodes (diagonal forms), by the chirp-z
    of the exact cosine expansion per distinct q_j."""
    q, mult = np.unique(_diag_entries(form), return_counts=True)
    n = _sym_order(r, k)
    X = _sym_coefficients(n, k)
    return np.prod([_sym_factor_grid(qj, X, t0, step, nodes, n, k) ** m
                    for qj, m in zip(q, mult)], axis=0)


def phi_symmetrized(form: QuadraticForm, t: float, r: float, k: int = 1,
                    budget: int = 10 ** 7) -> float:
    """The symmetrized bilinear sum phi(t; r) over e{2t <Qx, y>}.

    The inner y-sum is a product of squared Dirichlet-kernel powers for any
    form; for diagonal forms the outer x-sum also splits per coordinate.
    Real, in [0, 1] and 1 at t = 0.  Needs r >= 1 and k >= 1.
    """
    n = _sym_order(r, k)
    if form.is_diagonal:
        return float(symmetrized_transform(_diag_entries(form), [t], n, k)[0])

    def term(X):
        Z = row_products(X, form.matrix)
        g = np.ones(X.shape[0])
        for j in range(form.dim):
            g *= _dirichlet_ratio(2.0 * t * Z[:, j], n) ** (2 * k)
        return g

    return float(weighted_box_sum(convolve_weights((n, n)).weights, form.dim, term,
                                  budget))


# ---------------------------------------------------------------------------
# profiles, gamma, rho
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrigProfile:
    s: float
    t: np.ndarray
    values: np.ndarray
    mode: str                 # "factorized"
    a_mode: str               # "sup" | "fixed"
    a_desc: str
    form_desc: str = ""


def _grid_spec(s: float, T: float,
               t_res: Optional[float]) -> tuple[float, float, int, bool]:
    """(t0, step, uniform nodes, whether T is appended) of the default t-grid."""
    if not s > 0:
        raise ValueError("s must be > 0")
    t0 = 1.0 / math.sqrt(s)
    if not t0 <= T < math.inf:
        raise ValueError("need s^(-1/2) <= T < inf")
    if t_res is None:     # any t_res > 0 leaves the one node t0 when T = t0
        t_res = min(1.0 / (4.0 * s), (T - t0) / DEFAULT_T_NODES) if T > t0 else 1.0
    elif not (math.isfinite(t_res) and t_res > 0):
        raise ValueError("t_res must be finite and > 0")
    npts = int(math.floor((T - t0) / t_res)) + 1
    return t0, t_res, npts, t0 + t_res * (npts - 1) < T - 1e-15


def default_t_grid(s: float, T: float, t_res: Optional[float] = None) -> np.ndarray:
    t0, step, npts, tail = _grid_spec(s, T, t_res)
    grid = t0 + step * np.arange(npts)
    return np.append(grid, T) if tail else grid


def phi_profile(form: QuadraticForm, a, s: float, T: float,
                t_res: Optional[float] = None) -> TrigProfile:
    """Fixed-shift profile of phi_a(t; s) on [s^{-1/2}, T] (diagonal forms):
    seeded phasors on the uniform nodes, the tail node T taken directly."""
    qdiag = _diag_entries(form)
    a = shift_array(form, a)
    table = phi_weights(s)
    t0, step, npts, tail = _grid_spec(s, T, t_res)
    ts = t0 + step * np.arange(npts)
    vals = phi_factorized_grid(qdiag, a, t0, step, npts, table)
    if tail:
        ts = np.append(ts, T)
        vals = np.append(vals, phi_factorized_batch(qdiag, a, [T], table))
    return TrigProfile(s=s, t=ts, values=vals, mode="factorized",
                       a_mode="fixed", a_desc=f"a={a.tolist()}",
                       form_desc=repr(form))


def _rows_sq(rows: np.ndarray, V: np.ndarray) -> np.ndarray:
    """|real row k applied to column j of V|^2; V is complex and C-ordered."""
    G = rows @ V.view(float)          # real and imaginary parts interleave
    return G[:, 0::2] ** 2 + G[:, 1::2] ** 2


def _cos_rows(V: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Rows (V_m Re P_m, -V_m Im P_m), m = 0..H, of (H + 1, n) arrays: a real
    row (Re e_m, Im e_m) applied to column j gives sum_m V_mj Re(P_mj e_m)."""
    Z = np.empty((len(V), 2, V.shape[1]), dtype=complex)
    Z[:, 0], Z[:, 1] = P.real, -P.imag
    Z *= V[:, None, :]
    return Z.reshape(-1, V.shape[1])


def _newton_sq(B: np.ndarray, lo: np.ndarray,
               hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """4 Newton steps on |p(u)|^2, p(u) = sum_k B_k u^k per column, from u = 0,
    clipped to [lo, hi]: (u, |p(u)|) of the best iterate."""
    k = np.arange(len(B))[:, None]
    B1, B2 = (k * B)[1:], (k * (k - 1) * B)[2:]
    u = best_u = np.zeros(B.shape[1])
    best = np.full(B.shape[1], -np.inf)
    for it in range(5):
        U = np.vander(u, len(B), increasing=True).T          # U[k] = u^k
        p = np.sum(B * U, axis=0)
        gain = np.abs(p) > best
        best, best_u = np.where(gain, np.abs(p), best), np.where(gain, u, best_u)
        if it == 4:
            return best_u, best
        p1, p2 = np.sum(B1 * U[:-1], axis=0), np.sum(B2 * U[:-2], axis=0)
        g1 = (p.conj() * p1).real
        g2 = np.abs(p1) ** 2 + (p.conj() * p2).real
        # a step only where |p|^2 is concave: elsewhere Newton heads for a minimum
        u = np.clip(u - np.divide(g1, g2, out=np.zeros_like(g1), where=g2 < 0), lo, hi)


def _check_sup_args(a_res: int, top_k: int = 1) -> None:
    if a_res < 1:
        raise ValueError("a_res must be >= 1")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")


@dataclass(frozen=True)
class _ShiftSup:
    """sup_a phi_a(t; s) of a diagonal form, folded over +-m.

    Per coordinate, with the shift a = alpha * pi / (t q),
    |sum_m w_m e^{i t q (m - a)^2}| = |sum_{m >= 0} c_m cos(2 pi alpha m) e^{i t q m^2}|
    where c_0 = w_0 and c_m = 2 w_m: the a^2 phase cancels in the modulus and
    the weights are even.  The grid rows alpha = k / a_res and 1 - k / a_res
    coincide, so only k <= a_res / 2 are kept.  Equal diagonal entries are
    evaluated once and raised to their multiplicity.  `_refine` takes the sup
    over alpha between grid rows for many lanes q t at once.
    """

    q: np.ndarray         # distinct diagonal entries
    mult: np.ndarray      # their multiplicities
    coord: np.ndarray     # index into q of each coordinate
    a_res: int
    m: np.ndarray         # 0..H
    c: np.ndarray         # folded weights
    cos: np.ndarray       # (a_res // 2 + 1, H + 1) grid rows cos(2 pi alpha_k m)

    @classmethod
    def build(cls, form: QuadraticForm, s: float, a_res: int) -> "_ShiftSup":
        q, coord, mult = np.unique(_diag_entries(form), return_inverse=True,
                                   return_counts=True)
        c = phi_weights(s).folded()
        m = np.arange(len(c), dtype=float)
        alphas = np.arange(a_res // 2 + 1) / a_res
        return cls(q, mult, coord, a_res, m, c,
                   np.cos(2 * math.pi * np.outer(alphas, m)))

    def grid(self, t0: float, step: float, n: int) -> np.ndarray:
        """Grid sup over alpha at t = t0 + j step, j < n, by seeded phasors."""
        out, row = np.ones(n), np.empty(n)
        for qj, k in zip(self.q, self.mult):
            for start, seed, steps in _seeded_phasors(
                    qj * self.m * self.m, self.c, t0, step, n,
                    SUP_BLOCK // max(len(self.cos), len(self.m))):
                rows = _rows_sq(self.cos, seed[:, None] * steps)
                row[start:start + steps.shape[1]] = np.max(rows, axis=0)
            out *= np.sqrt(row) ** k
        return out

    def _refine(self, qt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Refined sup over alpha for each lane q t: (alpha*, value).

        A(alpha) = sum_m V_m cos(2 pi alpha m) is even and 1-periodic, so the
        two grid cells around a lane's grid maximum reduce to their part
        [lo, hi] of [0, 1/2].  Then three steps:

        * scan: |A| at alpha = lo + j delta, delta <= 1/(16 H), by seeded
          phasors (`_cos_rows`) in blocks of SUP_BLOCK cells;
        * candidates: every sample that is a local maximum within slack =
          delta^2 / 8 sum_m (2 pi m)^2 c_m of its lane's best sample, since
          the sample nearest a peak is within sup |A''| (delta / 2)^2 / 2 of it;
        * polish: 4 Newton steps on |A|^2 from each candidate, clipped to its
          neighbours and the bracket, on A's Taylor series there: POLISH_TERMS
          terms, exact to rounding within one step.  Each lane reports the
          direct cos sum at its best candidate.
        """
        x = 2 * math.pi * self.m
        V = self.c[:, None] * np.exp(1j * np.outer(self.m * self.m, qt))
        best = np.argmax(_rows_sq(self.cos, V), axis=0)
        lo = np.maximum(best - 1, 0) / self.a_res
        hi = np.minimum((best + 1) / self.a_res, 0.5)
        # delta divides 1 / (2 a_res), so both ends of every bracket are samples
        delta = 1.0 / (2 * self.a_res * max(1, math.ceil(8 * (len(x) - 1) / self.a_res)))
        count = np.rint((hi - lo) / delta).astype(int) + 1
        n, per_block = int(count.max()), max(1, SUP_BLOCK // len(x))
        block = min(n, per_block)
        seed = np.exp(1j * np.outer(x, lo))                     # per lane
        starts = np.exp(1j * np.outer(x, delta * np.arange(0, n, block)))
        steps = np.exp(1j * np.outer(delta * np.arange(block), x))
        amp = np.empty((len(qt), n))
        for b, start in enumerate(range(0, n, block)):
            sq = _rows_sq(steps[:n - start].view(float),
                          _cos_rows(V, seed * starts[:, b:b + 1]))
            amp[:, start:start + block] = np.sqrt(sq).T
        amp[np.arange(n) >= count[:, None]] = -np.inf
        slack = delta ** 2 / 8 * np.sum(x * x * self.c)
        side = np.pad(amp, ((0, 0), (1, 1)), constant_values=-np.inf)
        lane, j = np.nonzero((amp >= side[:, :-2]) & (amp >= side[:, 2:])
                             & (amp >= amp.max(axis=1, keepdims=True) - slack))
        # Taylor rows (i x_m delta)^k / k!, in the layout of a step row
        k = np.arange(POLISH_TERMS)
        taylor = (1j * delta * x) ** k[:, None] / np.array(
            [math.factorial(i) for i in k], dtype=float)[:, None]
        B = np.empty((POLISH_TERMS, len(j)), dtype=complex)
        for c in range(0, len(j), per_block):
            cut = slice(c, c + per_block)
            P = seed[:, lane[cut]] * starts[:, j[cut] // block] * steps[j[cut] % block].T
            B[:, cut] = (taylor.view(float) @ _cos_rows(V[:, lane[cut]], P).view(float)
                         ).view(complex)
        u, value = _newton_sq(B, np.where(j > 0, -1.0, 0.0),
                              np.where(j < count[lane] - 1, 1.0, 0.0))
        order = np.lexsort((-value, lane))         # each lane's best first
        first = order[np.searchsorted(lane[order], np.arange(len(qt)))]
        alpha = lo + (j[first] + u[first]) * delta
        return alpha, np.abs(np.sum(V * np.cos(np.outer(x, alpha)), axis=0))

    def refined(self, t: np.ndarray) -> np.ndarray:
        """Refined sup_a phi_a(t; s) for each lane t; the per-coordinate
        refinements of all lanes run as the lanes of one `_refine`."""
        factors = self._refine(np.outer(self.q, t).ravel())[1].reshape(len(self.q), -1)
        return np.prod(factors ** self.mult[:, None], axis=0)

    def shift(self, t: float) -> np.ndarray:
        """A maximizing shift a* at t, one entry per coordinate."""
        alpha, _ = self._refine(self.q * t)
        return (alpha * math.pi / (t * self.q))[self.coord]


def sup_phi_profile(form: QuadraticForm, s: float, T: float,
                    t_res: Optional[float] = None,
                    a_res: int = 96) -> TrigProfile:
    """Grid profile of sup_a phi_a(t; s) for diagonal forms (exact per-coordinate
    reduction of the shift supremum to one period)."""
    _check_sup_args(a_res)
    engine = _ShiftSup.build(form, s, a_res)
    t0, step, npts, tail = _grid_spec(s, T, t_res)
    ts = t0 + step * np.arange(npts)
    vals = engine.grid(t0, step, npts)
    if tail:
        ts, vals = np.append(ts, T), np.append(vals, engine.grid(T, 0.0, 1))
    return TrigProfile(s=s, t=ts, values=vals, mode="factorized",
                       a_mode="sup",
                       a_desc=f"per-coordinate grid {a_res} + period reduction",
                       form_desc=repr(form))


@dataclass(frozen=True)
class GammaResult:
    gamma: float
    t_star: float
    a_star: np.ndarray
    profile: TrigProfile


def gamma_estimate(form: QuadraticForm, s: float, T: float,
                   t_res: Optional[float] = None, a_res: int = 96,
                   top_k: int = TOP_CANDIDATES) -> GammaResult:
    """gamma(s, T) = sup_a sup_{s^{-1/2} <= t <= T} phi_a(t; s).

    Diagonal forms only: grid maximum with golden refinement of t around the
    top grid candidates.  The shift supremum factorizes per coordinate; at
    each t, `_ShiftSup._refine` takes it over alpha by a phasor scan of the
    bracket and Newton steps, exact up to that 1-d search.
    """
    _check_sup_args(a_res, top_k)
    engine = _ShiftSup.build(form, s, a_res)
    profile = sup_phi_profile(form, s, T, t_res=t_res, a_res=a_res)
    ts, vals = profile.t, profile.values
    order = np.argsort(vals)[::-1][:top_k]
    best_t = float(ts[order[0]])
    best_v = float(vals[order[0]])
    dt = ts[1] - ts[0] if len(ts) > 1 else 1e-3
    # the candidates are the lanes of one golden search per round
    lo = np.maximum(ts[order] - dt, ts[0])
    hi = np.minimum(ts[order] + dt, ts[-1])
    for _ in range(REFINE_ROUNDS - 1):
        tc, vc = golden_max(engine.refined, lo, hi, iters=40)
        lo, hi = tc - (hi - lo) * 0.05, tc + (hi - lo) * 0.05
    tc, vc = golden_max(engine.refined, lo, hi, iters=40)
    for t, v in zip(tc, vc):
        if v > best_v:
            best_t, best_v = float(t), float(v)
    a_star = engine.shift(best_t)
    # lexicographic tie-break on t keeps the reduction deterministic
    return GammaResult(gamma=min(best_v, 1.0), t_star=best_t, a_star=a_star,
                       profile=profile)


def mm(t: float, s: float) -> float:
    """M(t; s) = (|t| s)^{-1} for |t| <= s^{-1/2}, |t| for |t| > s^{-1/2}."""
    if s <= 0:
        raise ValueError("s must be > 0")
    if t == 0:
        raise ValueError("M(0; s) is infinite")
    at = abs(t)
    return 1.0 / (at * s) if at <= 1.0 / math.sqrt(s) else at


def rho_of_s(s: float, Ts: float, gamma: float, d: int, eps: float) -> float:
    """rho(s) = s^{1-zeta} + 1/T + gamma^{1-8/d-eps} T^eps, zeta = [ (d-1)/2 ] / 2,
    after capping T at gamma^{-(1-8/d-eps)/(2 eps)}."""
    if d < 9:
        raise ValueError("need d >= 9")
    if not 0 < eps < 1 - 8 / d:
        raise ValueError("need 0 < eps < 1 - 8/d")
    if not 0 <= gamma <= 1:
        raise ValueError("gamma must lie in [0, 1]")
    if Ts < 1:
        raise ValueError("need T >= 1")
    zeta = ((d - 1) // 2) / 2.0
    expo = (1 - 8.0 / d - eps)
    if gamma > 0:
        cap = gamma ** (-expo / (2 * eps))
        T = min(Ts, cap)
    else:
        T = Ts
    tail = (gamma ** expo) * T ** eps if gamma > 0 else 0.0
    return s ** (1 - zeta) + 1.0 / T + tail


def _pair_ratios(qdiag, a, ts, taus, table, q, d, s):
    p_t = phi_factorized_batch(qdiag, a, ts, table)
    p_tt = phi_factorized_batch(qdiag, a, ts + taus, table)
    mvals = np.array([mm(tau, s) for tau in taus])
    env = q ** (d / 2) * mvals ** (d / 2)
    return (p_t * p_tt) / env


def check_basic_inequality(form: QuadraticForm, a, s: float,
                           n_samples: int = 10 ** 4, seed: int = 0,
                           t_range: tuple[float, float] = (0.0, 8.0),
                           tau_range: tuple[float, float] = (-8.0, 8.0),
                           probe_points: int = 512) -> dict:
    """Empirical constants in the two basic inequalities
    phi phi <= C q^{d/2} M^{d/2} and phi <= C q^{d/2} M^{d/2}.

    Random (t, tau) samples are complemented by deterministic probes: a
    log-spaced tau scan for the single ratio and shoulder pairs
    (t* - x, t* + x) around the top profile peaks, where the pair supremum
    actually lives; without them the sampled maximum is noise-driven and
    unstable between sample sets.
    """
    qdiag = _diag_entries(form)
    a = shift_array(form, a)
    d = form.dim
    q = form.q
    table = phi_weights(s)
    rng = np.random.default_rng(seed)
    ts = rng.uniform(*t_range, size=n_samples)
    taus = rng.uniform(*tau_range, size=n_samples)
    taus[np.abs(taus) < 1e-6] = 1e-6

    r_pairs = _pair_ratios(qdiag, a, ts, taus, table, q, d, s)
    i_pairs = int(np.argmax(r_pairs))
    argmax_pair = (float(ts[i_pairs]), float(taus[i_pairs]))
    max_pairs = float(np.max(r_pairs))

    tau_hi = max(abs(tau_range[0]), abs(tau_range[1]))
    tau_scan = np.geomspace(1.0 / (8.0 * s), tau_hi, probe_points)
    p_scan = phi_factorized_batch(qdiag, a, tau_scan, table)
    env_scan = q ** (d / 2) * np.array([mm(t, s) for t in tau_scan]) ** (d / 2)
    max_single = float(np.max(p_scan / env_scan))
    # single probes double as pairs at t = 0 (phi(0) = 1)
    max_pairs = max(max_pairs, max_single)

    peaks = phi_profile(form, a, s, max(t_range[1], 1.5 / math.sqrt(s)),
                        t_res=1.0 / (4.0 * s))
    peak_idx = np.argsort(peaks.values)[::-1][:4]
    xs = np.geomspace(1.0 / (16.0 * s), 1.0, probe_points)
    for idx in peak_idx:
        t_star = float(peaks.t[idx])
        shoulders = _pair_ratios(qdiag, a, t_star - xs, 2 * xs, table, q, d, s)
        max_pairs = max(max_pairs, float(np.max(shoulders)))
        onesided = _pair_ratios(qdiag, a, np.full_like(xs, t_star), xs,
                                table, q, d, s)
        max_pairs = max(max_pairs, float(np.max(onesided)))

    fitted = max(max_pairs, max_single)
    return {
        "max_ratio_pairs": max_pairs,
        "max_ratio_single": max_single,
        "fitted_constant": fitted,
        "argmax_pair": argmax_pair,
        "lambda_fitted": max(fitted * q ** (d / 2), 1.0),
        "samples": n_samples,
        "seed": seed,
    }


def check_lemma64(n: int, k: int, z) -> dict:
    """Dirichlet-kernel bound: g(z) = prod_j (D_n(z_j)/(2n+1))^{2k} against the
    sum of h(m) = prod_j (1 + r^2 (z_j - 2 pi m_j)^2)^{-k} over |m_j| <= 8."""
    z = np.asarray(z, dtype=float)
    d = len(z)
    lhs = float(np.prod(_dirichlet_ratio(z, n) ** (2 * k)))
    r = float(n)
    ms = np.arange(-8, 9)
    rhs = 1.0
    for zj in z:
        terms = (1.0 + r ** 2 * (zj - 2 * math.pi * ms) ** 2) ** (-k)
        rhs *= float(np.sum(terms))
    return {"lhs": lhs, "rhs": rhs,
            "ratio": lhs / rhs if rhs > 0 else math.inf}
