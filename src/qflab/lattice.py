"""Exact lattice-point counts and value listings, as queries on one value
distribution.

A `ValueDistribution` holds the values Q[x - a] of a finite lattice point
set, the mass of each entry (a count or a weight) and, when the DP built it,
each entry's exact value.  A weighted distribution takes one weight column
for every coordinate, the point x weighing prod_j w[x_j + H], as the product
measure mu of `smoothing` does.  `mass_le(s)` and the window (alpha, beta]
share one border rule: an entry within MERGE_RTOL of a bound is settled by
`ExactScalar` when it is exact, and by the float predicate otherwise.
Ellipsoid and shell counts, value spectra, the gap windows of `gaps` and the
weighted F sums of `smoothing` are all queries on it; one distribution sized
for the largest threshold answers every threshold.

`value_distribution` is the only code that picks the engine:

* the value-lattice DP for exact diagonal forms with rational shift
  (`dp_for_form`): per-coordinate value distributions are convolved on an
  integer lattice of scaled value coordinates, one axis per surd radicand,
  exact for arbitrary surd diagonals and far beyond enumeration at d = 9.
  Each coordinate shift-adds only the bounding box of the table's nonzero
  cells (early partial sums fill a small corner), while work and budget are
  charged for the full box;
* else one loop over point blocks of at most `util.BOX_CHUNK` rows, from the
  pruned enumeration of an ellipsoid (`EllipsoidBlocks`) or a box B(r).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceededError
from .forms import QuadraticForm, ShiftVector, shift_array
from .scalars import ExactScalar
from . import util
from .util import box_blocks

PRUNE_PAD_RTOL = 1e-9
MERGE_RTOL = 1e-9
_INT64_SAFE = 2 ** 62
BOX_DP_POINTS = 2 * 10 ** 6   # a full box tries the DP only above this size


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


@dataclass(frozen=True)
class ValueDistribution:
    """Values Q[x - a] with masses: one entry per nonzero DP cell, or per
    enumerated or scanned point; complete up to the cap it was built for (and
    above the floor of a box scan)."""

    values: np.ndarray        # float value of each entry
    masses: np.ndarray        # count or weight of each entry
    method: str               # "diagonal-dp" | "enumeration" | "box-scan"
    work: int                 # in the budget's unit: cell-updates, candidates, points
    radius: float             # sup-norm radius of a box holding every point
    cells: Optional[np.ndarray] = None   # DP: flat table index of each entry
    lattice: tuple = ()       # DP: (table shape, basis, scales, offsets)

    def exact_value(self, i: int) -> ExactScalar:
        shape, basis, scales, offsets = self.lattice
        idx = np.unravel_index(int(self.cells[i]), shape)
        return ExactScalar(terms={b: Fraction(int(k) + off, sc) for b, sc, off, k
                                  in zip(basis, scales, offsets, idx)})

    def _le(self, s: float) -> np.ndarray:
        """Mask of the entries with value <= s, under the border rule."""
        if self.cells is None:
            return self.values <= s
        tol = MERGE_RTOL * max(1.0, abs(s))
        mask = self.values <= s - tol
        border = np.flatnonzero(~mask & (self.values <= s + tol))
        bound = ExactScalar(Fraction(s))
        mask[border] = [self.exact_value(i) <= bound for i in border]
        return mask

    def mass_le(self, s: float):
        """Total mass of the entries with value <= s: an int for counts, the
        weights' own type (float or Fraction) for weighted entries."""
        total = self.masses[self._le(s)].sum()
        return total.item() if isinstance(total, np.generic) else total

    def window(self, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
        """Values and masses of the entries in (alpha, beta], sorted by value."""
        sel = np.flatnonzero(self._le(beta) & ~self._le(alpha))
        sel = sel[np.argsort(self.values[sel], kind="stable")]
        return self.values[sel], self.masses[sel]

    def spectrum(self, alpha: float, beta: float) -> tuple[np.ndarray, list]:
        """The window's distinct values with summed masses: a value within
        MERGE_RTOL * max(1, |alpha|, |beta|) of the first value of the current
        run joins that run."""
        tol = MERGE_RTOL * max(1.0, abs(alpha), abs(beta))
        out_v: list[float] = []
        out_m: list = []
        for v, m in zip(*(x.tolist() for x in self.window(alpha, beta))):
            if out_v and v - out_v[-1] <= tol:
                out_m[-1] += m
            else:
                out_v.append(v)
                out_m.append(m)
        return np.array(out_v), out_m


# ---------------------------------------------------------------------------
# pruned enumeration
# ---------------------------------------------------------------------------


class EllipsoidBlocks:
    """Every x in Z^d with Q[x - a] <= cap (+ a tiny pruning pad), as int64
    blocks of at most util.BOX_CHUNK rows, by depth-first Fincke-Pohst
    enumeration: a frontier whose next level exceeds a block is split in
    halves.  `visited` counts each frontier's candidates, charged to the
    budget before they are made.  The set is a superset of the exact
    sublevel set; callers apply the final float predicate themselves.
    """

    def __init__(self, mat: np.ndarray, a: np.ndarray, cap: float, budget: int):
        # largest pivot enumerated first = placed at the last level
        self.perm = np.argsort(np.diagonal(mat), kind="stable")
        try:
            L = np.linalg.cholesky(mat[np.ix_(self.perm, self.perm)])
        except np.linalg.LinAlgError as exc:
            raise ValueError("not elliptic") from exc
        self.R, self.pa = L.T, a[self.perm]   # upper triangular, Q[y] = |R y|^2
        self.cap_p = cap + PRUNE_PAD_RTOL * max(1.0, abs(cap))
        self.budget, self.visited = budget, 0

    def __iter__(self):
        R, pa, cap_p, chunk = self.R, self.pa, self.cap_p, util.BOX_CHUNK
        # frontiers (i, X, T): X fixes x_{i+1..d}, T is the partial sum of
        # squares of rows > i; at i = -1 X is a block of points
        stack = [(len(pa) - 1, np.zeros((1, len(pa)), dtype=np.int64), np.zeros(1))]
        self.visited = 1
        while stack:
            i, X, T = stack.pop()
            if i < 0:
                yield X[:, np.argsort(self.perm)]
                continue
            c = (X[:, i + 1:].astype(float) - pa[i + 1:]) @ R[i, i + 1:]
            w = np.sqrt(np.maximum(cap_p - T, 0.0))
            lo = np.ceil(pa[i] + (-w - c) / R[i, i] - 1e-12).astype(np.int64)
            hi = np.floor(pa[i] + (w - c) / R[i, i] + 1e-12).astype(np.int64)
            n = np.maximum(hi - lo + 1, 0)
            total = int(n.sum())
            if total > chunk and len(X) > 1:
                h = len(X) // 2
                stack += [(i, X[h:], T[h:]), (i, X[:h], T[:h])]
                continue
            self.visited += total
            if self.visited > self.budget:
                raise BudgetExceededError(
                    f"enumeration budget {self.budget} exceeded", visited=self.visited)
            rows, xi = util.expand_ranges(lo, n)
            children = []
            # one block, unless a single row's own range exceeds one
            for k in range(0, total, chunk):
                r = rows[k:k + chunk]
                Xn = X[r]
                Xn[:, i] = xi[k:k + chunk]
                Tn = T[r] + (R[i, i] * (Xn[:, i] - pa[i]) + c[r]) ** 2
                keep = Tn <= cap_p
                children.append((i - 1, Xn[keep], Tn[keep]))
            stack += children[::-1]


def ellipsoid_candidates(mat: np.ndarray, a: np.ndarray, cap: float,
                         budget: int) -> tuple[np.ndarray, int]:
    """The `EllipsoidBlocks` stream as one (N, d) array, with its `visited`."""
    blocks = EllipsoidBlocks(mat, a, cap, budget)
    X = np.concatenate([np.empty((0, mat.shape[0]), dtype=np.int64), *blocks])
    return X, blocks.visited


def quad_values(mat: np.ndarray, a: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Q[x - a] per row x of X, shifting util.BOX_CHUNK rows at a time."""
    X = np.asarray(X)
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], util.BOX_CHUNK):
        Y = np.asarray(X[start:start + util.BOX_CHUNK], dtype=float) - a
        # einsum sums blocks of 1 or 2 rows in another order (d = 2): pad to 3
        P = Y if len(Y) > 2 else np.concatenate([Y, np.zeros((3 - len(Y), Y.shape[1]))])
        out[start:start + len(Y)] = np.einsum("ij,jk,ik->i", P, mat, P)[:len(Y)]
    return out


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

    @cached_property
    def distribution(self) -> ValueDistribution:
        """The nonzero cells as a value distribution, built on the first query;
        it holds copies, never the DP, so the two are freed together."""
        flat = self.table.reshape(-1)
        cells = np.flatnonzero(flat)
        return ValueDistribution(
            values=self.values.reshape(-1)[cells], masses=flat[cells],
            method="diagonal-dp", work=self.work,
            radius=float(max(abs(b) for rng in self.m_ranges for b in rng)), cells=cells,
            lattice=(self.table.shape, self.basis, self.scales, self.offsets))


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
                      weights: Optional[np.ndarray] = None,
                      budget: int = 10 ** 9,
                      dtype=None) -> DiagonalDP:
    """Convolve per-coordinate value distributions of sum_j q_j (m_j - a_j)^2.

    `cap` enables pruning and is only valid when every per-coordinate scaled
    contribution is componentwise nonnegative (the common positive-diagonal
    case); it is ignored otherwise.  The optional weight column weights the
    i-th point lo + i of every coordinate's range (lo, hi), all of one length
    (floats, ints or Fractions); without it the table holds exact counts.
    """
    basis = tuple(sorted(set().union(*(q.terms for q in diag)) or {1}))
    if len(basis) > 3:
        raise ValueError(f"too many distinct radicands for DP: {basis}")

    # per-(coordinate, m) scaled integer contribution vectors, (n_m, n_basis)
    scales = tuple(math.lcm(*(q.terms.get(b, Fraction(0)).denominator * aj.denominator ** 2
                              for q, aj in zip(diag, shift))) for b in basis)
    contribs = []
    for q, aj, (lo, hi) in zip(diag, shift, m_ranges):
        vals = [[q.terms.get(b, Fraction(0)) * sc * (m - aj) ** 2
                 for b, sc in zip(basis, scales)] for m in range(lo, hi + 1)]
        assert all(v.denominator == 1 for row in vals for v in row)
        contribs.append(np.array([[int(v) for v in row] for row in vals],
                                 dtype=np.int64).reshape(-1, len(basis)))

    nonneg = all((rows >= 0).all() for rows in contribs)
    offsets = tuple(int(v) for v in sum(rows.min(axis=0) for rows in contribs))
    highs = tuple(int(v) for v in sum(rows.max(axis=0) for rows in contribs))
    shape = tuple(h - o + 1 for h, o in zip(highs, offsets))
    # shift every coordinate's contributions by its own minimum so partial
    # sums index from 0 at every stage; cell value = index + offset at the end
    for rows in contribs:
        rows -= rows.min(axis=0, keepdims=True)

    pruned = cap is not None and nonneg
    if pruned:
        # axis-trimming: coordinates whose *own* value already exceeds cap are dead
        cap_pad = cap + PRUNE_PAD_RTOL * max(1.0, abs(cap)) + 1e-9
        shape = tuple(min(n, max(math.floor(cap_pad * sc / math.sqrt(b)) + 2 - off, 1))
                      for n, b, sc, off in zip(shape, basis, scales, offsets))

    work = math.prod(shape) * sum(len(rows) for rows in contribs)
    if work > budget:
        raise BudgetExceededError(
            f"diagonal DP work {work} exceeds budget {budget}", required=work)

    if dtype is None and weights is None:
        n_points = math.prod(hi - lo + 1 for lo, hi in m_ranges)
        dtype = np.int64 if n_points < _INT64_SAFE else object
    elif dtype is None:
        dtype = object if np.asarray(weights).dtype == object else np.float64
    w = None if weights is None else np.asarray(weights, dtype=dtype)

    values = _cell_values(shape, basis, scales, offsets)
    cap_mask = values > cap_pad if pruned else None
    table = np.zeros(shape, dtype=dtype)
    table[(0,) * len(shape)] = 1      # the empty sum
    for rows in contribs:
        table = _add_coordinate(table, rows, w)
        if pruned:
            table[cap_mask] = 0
    return DiagonalDP(basis=basis, scales=scales, offsets=offsets,
                      m_ranges=tuple(tuple(rng) for rng in m_ranges),
                      table=table, values=values)


def dp_count_le(dp: DiagonalDP, s: float):
    """Exact (weighted) mass of cells with value <= s: the table's
    `ValueDistribution.mass_le`, which settles near-ties by exact surd
    comparison against the binary rational Fraction(s)."""
    return dp.distribution.mass_le(s)


def dp_window_values(dp: DiagonalDP, window: tuple[float, float]):
    """Sorted (value, multiplicity) pairs with value in (alpha, beta]."""
    values, masses = dp.distribution.window(*window)
    return [(v, int(m)) for v, m in zip(values.tolist(), masses.tolist())]


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
                weights: Optional[np.ndarray] = None
                ) -> Optional[DiagonalDP]:
    """The value-lattice DP of Q[x - a] over a lattice box, or None when Q is
    not exact diagonal or a is not rational.

    Without `m_ranges` the box is the smallest one holding every x with
    Q[x - a] <= cap, which needs a positive form.  `cap` also prunes cells
    above it (see `diagonal_value_dp`); the weight column passes through.
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
# the one dispatch
# ---------------------------------------------------------------------------

COUNT_METHODS = ("auto", "enumeration", "diagonal-dp")


def value_distribution(form: QuadraticForm, a: np.ndarray, cap: float,
                       budget: int, box: Optional[int] = None,
                       floor: float = -math.inf,
                       weights: Optional[np.ndarray] = None,
                       method: str = "auto") -> ValueDistribution:
    """The distribution of Q[x - a] answering every query up to `cap`.

    The points are the box [-box, box]^d, or else the ellipsoid Q[x - a] <=
    cap, clipped to [-H, H]^d by `weights`, one column of 2H + 1 weights for
    every coordinate (without it every point counts 1).  The DP runs for
    exact diagonal forms with rational shift, on a box only above
    BOX_DP_POINTS points and not when its work exceeds the budget while the
    box fits.  Otherwise the box blocks or the ellipsoid's enumeration
    blocks (positive forms only) stream through one loop that keeps the
    values in (floor, cap] and their masses.  `method` "enumeration" skips
    the DP, "diagonal-dp" demands it.
    """
    if method not in COUNT_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {COUNT_METHODS}")
    d = form.dim
    if box is not None:
        m_ranges, n_box = [(-box, box)] * d, (2 * box + 1) ** d
    elif weights is not None:
        half = len(weights) // 2
        m_ranges = [(-half, half)] * d
    else:
        m_ranges = None
    dp = None
    if method != "enumeration" and (box is None or n_box > BOX_DP_POINTS):
        try:
            dp = dp_for_form(form, a, cap, budget, m_ranges=m_ranges, weights=weights)
        except BudgetExceededError:
            if box is None or n_box > budget:
                raise
    if dp is not None:
        return dp.distribution
    if method == "diagonal-dp":
        raise ValueError("diagonal-dp requires an exact diagonal form "
                         "and a rational shift")
    if box is not None:
        blocks = box_blocks(box, d, budget)
    elif not form.is_positive:
        raise ValueError("enumeration needs a positive form")
    else:
        blocks = EllipsoidBlocks(form.matrix, a, cap, budget)
    values, masses = [np.empty(0)], [np.empty(0)]
    for X in blocks:
        if weights is not None:          # the measure's support [-H, H]^d
            X = X[np.all(np.abs(X) <= half, axis=1)]
        vals = quad_values(form.matrix, a, X)
        keep = (vals > floor) & (vals <= cap)
        values.append(vals[keep])
        if weights is not None:
            masses.append(np.prod(weights[X[keep] + half], axis=1))
    values = np.concatenate(values)
    masses = np.ones(len(values), np.int64) if weights is None else np.concatenate(masses)
    if box is not None:
        return ValueDistribution(values=values, masses=masses, method="box-scan",
                                 work=n_box, radius=float(box))
    radius = math.sqrt(max(cap, 0.0) / form.q0) + float(np.max(np.abs(a), initial=0.0)) + 1.0
    return ValueDistribution(values=values, masses=masses, method="enumeration",
                             work=blocks.visited, radius=radius)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def count_ellipsoid_grid(form: QuadraticForm, a: ShiftVector | Sequence[float],
                         s_list: Sequence[float], budget: int = 10 ** 8,
                         method: str = "auto") -> tuple[list[int], str, int]:
    """Exact cardinalities of {x in Z^d : Q[x - a] <= s} for every s in s_list.

    One value distribution, sized for the largest s, answers every threshold.
    Shifts are first reduced modulo Z^d, which leaves the counts unchanged
    and shrinks the enumeration box.  `method` is "auto", "enumeration" or
    "diagonal-dp" (see `value_distribution`).  Returns (counts, method used,
    work), the work in the unit the budget is charged in: candidates or DP
    cell-updates.
    """
    if not form.is_positive:
        raise ValueError("not elliptic")
    a_red, _ = ShiftVector(shift_array(form, a)).reduced()
    dist = value_distribution(form, a_red, max(s_list), budget, method=method)
    return [int(dist.mass_le(s)) for s in s_list], dist.method, dist.work


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
    a = shift_array(form, a)
    dist = value_distribution(form, a, beta, budget, box=math.floor(r), floor=alpha)
    values, mults = dist.spectrum(alpha, beta)
    return ValueSpectrum(values=values, multiplicities=mults, box_radius=float(r),
                         window=(alpha, beta), shift=a)
