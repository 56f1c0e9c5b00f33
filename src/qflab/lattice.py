"""Exact lattice-point counting in ellipsoids/shells and value enumeration in boxes.

Two interchangeable engines:

* a vectorized Cholesky-pruned enumeration (Fincke-Pohst style) that walks
  coordinates one level at a time, keeping a frontier of partial prefixes as
  numpy arrays; works for any nondegenerate form, exact for the float
  predicate Q[x-a] <= s;

* a dynamic-programming counter for exact diagonal forms with rational shift:
  per-coordinate value distributions are convolved on an integer lattice of
  scaled value coordinates (one axis per surd radicand), which stays exact for
  arbitrary surd diagonals and scales to d = 9 boxes far beyond enumeration.
  The table starts as a single 1 at the origin (the empty sum), and each
  coordinate shift-adds only the bounding box of the table's nonzero cells,
  found by one `np.any` reduction per axis: early partial sums fill a small
  corner of the table, so most of the copying is skipped.  Work and budget
  are still charged for the full box.

This module alone decides when the DP applies and how large its box is:
`dp_for_form` builds it (or returns None) for every caller, counts, gaps and
the smoothing sums alike.  A built table keeps its cell values, so
`dp_count_le` and `dp_window_values` answer any number of queries without
recomputing them.  `count_ellipsoid_grid` is the one counting dispatch: a
single DP table or enumeration sized for the largest threshold answers every
threshold, and `count_ellipsoid`, `count_shell` and the Delta(s) curve are
built on it.

Value listing over a full box B(r) that the DP does not take scans the box in
`util.box_blocks` blocks, keeping only the windowed values of each block.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceededError
from .forms import QuadraticForm, ShiftVector
from .scalars import ExactScalar
from .util import box_blocks

PRUNE_PAD_RTOL = 1e-9
MERGE_RTOL = 1e-9
_INT64_SAFE = 2 ** 62


@dataclass(frozen=True)
class CountResult:
    count: int
    s: float
    method: str              # "enumeration" | "diagonal-dp"
    visited: int
    wall_time: float


@dataclass(frozen=True)
class ValueSpectrum:
    """Sorted multiset of values Q[x-a] over a lattice box, within a window."""

    values: np.ndarray        # strictly increasing floats
    multiplicities: list      # wide ints, aligned with values
    box_radius: float
    window: tuple[float, float]
    shift: np.ndarray

    def __len__(self):
        return len(self.values)

    def total(self) -> int:
        return sum(self.multiplicities)


# ---------------------------------------------------------------------------
# pruned enumeration
# ---------------------------------------------------------------------------


def _pivot_order(mat: np.ndarray) -> np.ndarray:
    # largest pivot enumerated first = placed at the last recursion level
    return np.argsort(np.diagonal(mat), kind="stable")


def ellipsoid_candidates(mat: np.ndarray, a: np.ndarray, cap: float,
                         budget: int) -> tuple[np.ndarray, int]:
    """All x in Z^d with Q[x-a] <= cap (+ a tiny pruning pad), as an (N, d) array.

    The returned set is a superset of the exact sublevel set; callers apply
    the final float predicate themselves so that it matches their oracle
    expression bit for bit.
    """
    d = mat.shape[0]
    if cap < 0:
        return np.empty((0, d), dtype=np.int64), 0
    perm = _pivot_order(mat)
    pm = mat[np.ix_(perm, perm)]
    pa = a[perm]
    try:
        L = np.linalg.cholesky(pm)
    except np.linalg.LinAlgError as exc:
        raise ValueError("not elliptic") from exc
    R = L.T  # upper triangular, Q[y] = |R y|^2
    pad = PRUNE_PAD_RTOL * max(1.0, abs(cap))
    cap_p = cap + pad

    # frontier: X holds fixed trailing coordinates x_{i+1..d}, T the partial
    # sum of squares of rows > i
    X = np.zeros((1, d), dtype=np.int64)
    T = np.zeros(1)
    visited = 1
    for i in range(d - 1, -1, -1):
        if X.shape[0] == 0:
            break
        yfix = X[:, i + 1:].astype(float) - pa[i + 1:]
        c = yfix @ R[i, i + 1:]
        w = np.sqrt(np.maximum(cap_p - T, 0.0))
        lo = np.ceil(pa[i] + (-w - c) / R[i, i] - 1e-12).astype(np.int64)
        hi = np.floor(pa[i] + (w - c) / R[i, i] + 1e-12).astype(np.int64)
        n = np.maximum(hi - lo + 1, 0)
        total = int(n.sum())
        visited += total
        if visited > budget:
            raise BudgetExceededError(
                f"enumeration budget {budget} exceeded", visited=visited)
        if total == 0:
            X = np.empty((0, d), dtype=np.int64)
            break
        rows = np.repeat(np.arange(X.shape[0]), n)
        starts = np.repeat(lo, n)
        # within-row offsets 0..n_k-1 via cumulative trick
        csum = np.concatenate(([0], np.cumsum(n)))[:-1]
        offs = np.arange(total) - np.repeat(csum, n)
        Xn = X[rows]
        Xn[:, i] = starts + offs
        yi = Xn[:, i].astype(float) - pa[i]
        term = R[i, i] * yi + c[rows]
        Tn = T[rows] + term * term
        keep = Tn <= cap_p
        X, T = Xn[keep], Tn[keep]

    out = np.empty_like(X)
    out[:, perm] = X
    return out, visited


def quad_values(mat: np.ndarray, a: np.ndarray, X: np.ndarray) -> np.ndarray:
    Y = np.asarray(X, dtype=float) - a
    return np.einsum("ij,jk,ik->i", Y, mat, Y)


# ---------------------------------------------------------------------------
# diagonal dynamic programming on the scaled value lattice
# ---------------------------------------------------------------------------


@dataclass
class DiagonalDP:
    basis: tuple[int, ...]      # squarefree radicands, 1 first when present
    scales: tuple[int, ...]     # value coordinate b is (index + offset)/scale_b
    offsets: tuple[int, ...]
    m_ranges: tuple[tuple[int, int], ...]   # lattice box, per coordinate
    table: np.ndarray           # ndim == len(basis); counts or weights
    values: np.ndarray          # float value at every cell

    @property
    def work(self) -> int:
        """Cell-updates of the build, the unit its budget is charged in."""
        return self.table.size * sum(hi - lo + 1 for lo, hi in self.m_ranges)

    def cell_exact(self, idx: tuple[int, ...]) -> ExactScalar:
        terms = {b: Fraction(int(i) + off, sc)
                 for b, sc, off, i in zip(self.basis, self.scales, self.offsets, idx)}
        return ExactScalar(terms=terms)


def _cell_values(shape, basis, scales, offsets) -> np.ndarray:
    """Float value at every cell, via broadcast outer sums."""
    val = np.zeros(shape)
    for axis, (b, sc, off) in enumerate(zip(basis, scales, offsets)):
        coords = (np.arange(shape[axis]) + off) * (math.sqrt(b) / sc)
        sh = [1] * len(shape)
        sh[axis] = -1
        val = val + coords.reshape(sh)
    return val


def _nonzero_box(table: np.ndarray) -> Optional[tuple[slice, ...]]:
    """Bounding box of the nonzero cells (None if there are none), from one
    np.any reduction per axis: no index array the size of the table."""
    box = []
    for axis in range(table.ndim):
        others = tuple(ax for ax in range(table.ndim) if ax != axis)
        hit = np.any(table, axis=others)
        if not hit.any():
            return None
        box.append(slice(int(np.argmax(hit)), len(hit) - int(np.argmax(hit[::-1]))))
    return tuple(box)


def _shift_add(dst: np.ndarray, src: np.ndarray, origin: Sequence[int],
               weight) -> None:
    """dst[origin + idx] += weight * src[idx], for every idx landing in dst."""
    src_slc, dst_slc = [], []
    for size, n, o in zip(dst.shape, src.shape, map(int, origin)):
        lo, hi = max(o, 0), min(o + n, size)
        if lo >= hi:
            return
        src_slc.append(slice(lo - o, hi - o))
        dst_slc.append(slice(lo, hi))
    if weight == 1:
        dst[tuple(dst_slc)] += src[tuple(src_slc)]
    else:
        dst[tuple(dst_slc)] += weight * src[tuple(src_slc)]


def _add_coordinate(table: np.ndarray, rows: np.ndarray,
                    w: Optional[np.ndarray]) -> np.ndarray:
    """The table convolved with one coordinate's contribution rows (weighted
    by w): one shift-add per row, of the nonzero box only."""
    box = _nonzero_box(table)
    new = np.zeros_like(table)
    if box is not None:
        src = table[box]
        start = np.array([b.start for b in box])
        for mi in range(rows.shape[0]):
            _shift_add(new, src, start + rows[mi], 1 if w is None else w[mi])
    return new


def diagonal_value_dp(diag: Sequence[ExactScalar],
                      shift: Sequence[Fraction],
                      m_ranges: Sequence[tuple[int, int]],
                      cap: Optional[float] = None,
                      weights: Optional[Sequence[np.ndarray]] = None,
                      budget: int = 10 ** 9,
                      dtype=None) -> DiagonalDP:
    """Convolve per-coordinate value distributions of sum_j q_j (m_j - a_j)^2.

    `cap` enables pruning and is only valid when every per-coordinate scaled
    contribution is componentwise nonnegative (the common positive-diagonal
    case); it is ignored otherwise.  `weights[j]` optionally weights the
    lattice points of coordinate j (floats, ints or Fractions); without
    weights the table holds exact counts.
    """
    d = len(diag)
    basis_set: set[int] = set()
    for q in diag:
        basis_set |= set(q.terms.keys())
    if not basis_set:
        basis_set = {1}
    basis = tuple(sorted(basis_set))
    if len(basis) > 3:
        raise ValueError(f"too many distinct radicands for DP: {basis}")

    # per-(coordinate, m) scaled integer contribution vectors
    scales = []
    for b in basis:
        sc = 1
        for j, q in enumerate(diag):
            coef = q.terms.get(b, Fraction(0))
            den = coef.denominator * (shift[j].denominator ** 2)
            sc = sc * den // math.gcd(sc, den)
        scales.append(sc)
    scales = tuple(scales)

    contribs: list[np.ndarray] = []   # per coordinate: (n_m, n_basis) int64
    for j, q in enumerate(diag):
        lo, hi = m_ranges[j]
        ms = np.arange(lo, hi + 1)
        rows = np.empty((len(ms), len(basis)), dtype=np.int64)
        for bi, b in enumerate(basis):
            coef = q.terms.get(b, Fraction(0)) * scales[bi]
            for mi, m in enumerate(ms):
                v = coef * (Fraction(m) - shift[j]) ** 2
                assert v.denominator == 1
                rows[mi, bi] = int(v)
        contribs.append(rows)

    nonneg = all((rows >= 0).all() for rows in contribs)
    offsets = tuple(int(sum(rows[:, bi].min() for rows in contribs))
                    for bi in range(len(basis)))
    highs = tuple(int(sum(rows[:, bi].max() for rows in contribs))
                  for bi in range(len(basis)))
    shape = tuple(h - o + 1 for h, o in zip(highs, offsets))
    # shift every coordinate's contributions by its own minimum so partial
    # sums index from 0 at every stage; cell value = index + offset at the end
    for rows in contribs:
        rows -= rows.min(axis=0, keepdims=True)

    pruned = cap is not None and nonneg
    if pruned:
        # axis-trimming: coordinates whose *own* value already exceeds cap are dead
        cap_pad = cap + PRUNE_PAD_RTOL * max(1.0, abs(cap)) + 1e-9
        new_shape = []
        for bi, b in enumerate(basis):
            axis_cap = math.floor(cap_pad * scales[bi] / math.sqrt(b)) + 1
            new_shape.append(min(shape[bi], max(axis_cap - offsets[bi] + 1, 1)))
        shape = tuple(new_shape)

    cells = int(np.prod([float(s) for s in shape]))
    work = cells * sum(r.shape[0] for r in contribs)
    if work > budget:
        raise BudgetExceededError(
            f"diagonal DP work {work} exceeds budget {budget}", required=work)

    if dtype is None:
        if weights is None:
            total_points = 1.0
            for lo, hi in m_ranges:
                total_points *= (hi - lo + 1)
            dtype = np.int64 if total_points < _INT64_SAFE else object
        else:
            wdtypes = [np.asarray(w).dtype for w in weights]
            dtype = object if any(dt == object for dt in wdtypes) else np.float64

    values = _cell_values(shape, basis, scales, offsets)
    cap_mask = values > cap_pad if pruned else None
    table = np.zeros(shape, dtype=dtype)
    table[(0,) * len(shape)] = 1      # the empty sum
    for j in range(d):
        rows = contribs[j]
        w = None if weights is None else np.asarray(weights[j], dtype=dtype)
        table = _add_coordinate(table, rows, w)
        if cap_mask is not None:
            table[cap_mask] = 0
    return DiagonalDP(basis=basis, scales=scales, offsets=offsets,
                      m_ranges=tuple(tuple(rng) for rng in m_ranges),
                      table=table, values=values)


def dp_count_le(dp: DiagonalDP, s: float):
    """Exact (weighted) mass of cells with value <= s; near-ties are settled
    by exact surd comparison against the binary rational Fraction(s).

    Returns an int for count tables and the native weight type (float or
    Fraction) for weighted tables.
    """
    tol = MERGE_RTOL * max(1.0, abs(s))
    sure = dp.values <= s - tol
    border = np.abs(dp.values - s) <= tol
    total = dp.table[sure].sum()
    total = total.item() if isinstance(total, np.generic) else total
    s_frac = Fraction(s)
    for idx in np.argwhere(border):
        idx = tuple(int(i) for i in idx)
        if dp.table[idx] and dp.cell_exact(idx) <= ExactScalar(s_frac):
            total = total + dp.table[idx]
    return total


def dp_window_values(dp: DiagonalDP, window: tuple[float, float]):
    """Sorted (value, multiplicity) pairs with value in (alpha, beta]."""
    alpha, beta = window
    vals = dp.values
    tol = MERGE_RTOL * max(1.0, abs(alpha), abs(beta))
    mask = (dp.table != 0) & (vals > alpha - tol) & (vals <= beta + tol)
    out = []
    a_frac, b_frac = Fraction(alpha), Fraction(beta)
    for idx in np.argwhere(mask):
        idx = tuple(int(i) for i in idx)
        v = float(vals[idx])
        if abs(v - alpha) <= tol or abs(v - beta) <= tol:
            ex = dp.cell_exact(idx)
            if not (ex > ExactScalar(a_frac) and ex <= ExactScalar(b_frac)):
                continue
        elif not (alpha < v <= beta):
            continue
        out.append((v, int(dp.table[idx])))
    out.sort()
    return out


def _rational_shift(a: np.ndarray) -> Optional[list[Fraction]]:
    out = []
    for v in a:
        f = Fraction(float(v)).limit_denominator(10 ** 6)
        if abs(float(f) - float(v)) > 1e-12:
            return None
        out.append(f)
    return out


def dp_for_form(form: QuadraticForm, a: np.ndarray, cap: float, budget: int,
                m_ranges: Optional[Sequence[tuple[int, int]]] = None,
                weights: Optional[Sequence[np.ndarray]] = None
                ) -> Optional[DiagonalDP]:
    """The value-lattice DP of Q[x - a] over a lattice box, or None when Q is
    not exact diagonal or a is not rational.

    Without `m_ranges` the box is the smallest one holding every x with
    Q[x - a] <= cap, which needs a positive form.  `cap` also prunes cells
    above it (see `diagonal_value_dp`); `weights` pass through.
    """
    if not (form.is_exact and form.is_diagonal):
        return None
    shift = _rational_shift(a)
    if shift is None:
        return None
    diag = form.exact_diagonal()
    if m_ranges is None:
        m_ranges = []
        for q, aj in zip(diag, shift):
            rad = math.sqrt(max(cap, 0.0) / float(q)) * (1 + 1e-12) + 1e-9
            lo, hi = math.ceil(float(aj) - rad), math.floor(float(aj) + rad)
            # no integer within reach: keep one point (above cap) so the
            # box is never empty
            m_ranges.append((min(lo, hi), hi))
    return diagonal_value_dp(diag, shift, m_ranges, cap=cap, weights=weights,
                             budget=budget)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

COUNT_METHODS = ("auto", "enumeration", "diagonal-dp")


def count_ellipsoid_grid(form: QuadraticForm, a: ShiftVector | Sequence[float],
                         s_list: Sequence[float], budget: int = 10 ** 8,
                         method: str = "auto") -> tuple[list[int], str, int]:
    """Exact cardinalities of {x in Z^d : Q[x - a] <= s} for every s in s_list.

    One DP table or one enumeration, sized for the largest s, answers every
    threshold.  Shifts are first reduced modulo Z^d, which leaves the counts
    unchanged and shrinks the enumeration box.  `method` is "auto",
    "enumeration" or "diagonal-dp"; auto picks the DP for exact diagonal forms
    with rational shift.  Returns (counts, method used, work), the work in the
    unit the budget is charged in: candidates or DP cell-updates.
    """
    if method not in COUNT_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {COUNT_METHODS}")
    if not form.is_positive:
        raise ValueError("not elliptic")
    if isinstance(a, ShiftVector):
        a = a.a
    a_red, _ = ShiftVector(np.asarray(a, dtype=float)).reduced()
    cap = max(s_list)
    if cap < 0:
        return [0] * len(s_list), "enumeration", 0

    dp = None if method == "enumeration" else dp_for_form(form, a_red, cap, budget)
    if dp is not None:
        return [int(dp_count_le(dp, s)) for s in s_list], "diagonal-dp", dp.work
    if method == "diagonal-dp":
        raise ValueError("diagonal-dp requires an exact diagonal form "
                         "and a rational shift")
    X, visited = ellipsoid_candidates(form.matrix, a_red, cap, budget)
    vals = quad_values(form.matrix, a_red, X)
    return [int(np.count_nonzero(vals <= s)) for s in s_list], "enumeration", visited


def count_ellipsoid(form: QuadraticForm, a: ShiftVector | Sequence[float],
                    s: float, budget: int = 10 ** 8,
                    method: str = "auto") -> CountResult:
    """Exact cardinality of {x in Z^d : Q[x - a] <= s} for positive Q; see
    `count_ellipsoid_grid` for `method`."""
    t0 = time.perf_counter()
    (count,), used, visited = count_ellipsoid_grid(form, a, [s], budget, method)
    return CountResult(count, s, used, visited, time.perf_counter() - t0)


def count_shell(form: QuadraticForm, a, tau: float, delta: float,
                budget: int = 10 ** 8, method: str = "auto") -> CountResult:
    """Count of lattice points in (E_{tau+delta} + a) \\ (E_tau + a), in one pass."""
    if delta <= 0:
        raise ValueError("delta must be > 0")
    t0 = time.perf_counter()
    hi = tau + delta
    (inner, outer), used, visited = count_ellipsoid_grid(form, a, [tau, hi],
                                                         budget, method)
    return CountResult(outer - inner, hi, used, visited, time.perf_counter() - t0)


def enumerate_values(form: QuadraticForm, a, r: float,
                     window: tuple[float, float],
                     budget: int = 10 ** 8) -> ValueSpectrum:
    """All values Q[x-a], x in B(r) cap Z^d, inside the window (alpha, beta].

    Values closer than 1e-9 * max(1, |alpha|, |beta|) coalesce into one
    spectrum entry with summed multiplicity.
    """
    alpha, beta = window
    if not alpha < beta:
        raise ValueError("window must satisfy alpha < beta")
    if r < 0:
        raise ValueError("r must be >= 0")
    if isinstance(a, ShiftVector):
        a = a.a
    a = np.asarray(a, dtype=float)
    d = form.dim
    half = math.floor(r)
    n_box = (2 * half + 1) ** d

    if n_box > 2 * 10 ** 6:
        dp = dp_for_form(form, a, beta, budget, m_ranges=[(-half, half)] * d)
        if dp is not None:
            return _merged_spectrum(dp_window_values(dp, window), r, window, a)

    tol = MERGE_RTOL * max(1.0, abs(alpha), abs(beta))
    blocks = []
    for X in box_blocks(half, d, budget):
        vals = quad_values(form.matrix, a, X)
        blocks.append(vals[(vals > alpha) & (vals <= beta + tol)])
    sel = np.concatenate(blocks)
    sel.sort()
    pairs = [(float(v), 1) for v in sel]
    return _merged_spectrum(pairs, r, window, a)


def _merged_spectrum(pairs, r, window, a) -> ValueSpectrum:
    alpha, beta = window
    tol = MERGE_RTOL * max(1.0, abs(alpha), abs(beta))
    out_v: list[float] = []
    out_m: list[int] = []
    for v, mult in pairs:
        if out_v and v - out_v[-1] <= tol:
            out_m[-1] += mult
        else:
            out_v.append(v)
            out_m.append(mult)
    return ValueSpectrum(values=np.array(out_v), multiplicities=out_m,
                         box_radius=float(r), window=(alpha, beta),
                         shift=np.asarray(a, dtype=float))
