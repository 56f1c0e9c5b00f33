"""Empirical rationality criterion, successive minima, H-set counting, and
simultaneous Diophantine approximation.

The norm under study on R^{2d}, for y = (x, m), is

    F(y) = max{ P |(tQx)_1 - m_1|, ..., P |(tQx)_d - m_d|, P^{-1} |x|_inf }

with P = 4r.  Successive minima of F over Z^{2d} are approximated by LLL
reduction of the realizing linear map (a Euclidean proxy of the sup norm,
with the conversion factor reported), or computed exactly by enumeration in
small dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .forms import QuadraticForm
from .trig import phi_symmetrized_grid, symmetrized_transform
from .util import box_blocks, expand_ranges, golden_max, row_products

LLL_DELTA = 0.99


@dataclass(frozen=True)
class MinimaResult:
    P: float
    minima: list              # approximate successive minima, nondecreasing
    vectors: np.ndarray       # rows (x, m) in Z^{2d} attaining them
    quality: float            # true minima lie within [value/quality, value]
    mode: str                 # "reduction" | "exact"


def lll_reduce(basis: np.ndarray, delta: float = LLL_DELTA):
    """Floating-point LLL; returns (reduced rows, unimodular coefficients U)
    with reduced = U @ basis and U integer."""
    B = np.array(basis, dtype=float)
    n = B.shape[0]
    U = np.eye(n, dtype=np.int64)

    def gso(B):
        Bs = np.zeros_like(B)
        mu = np.zeros((n, n))
        for i in range(n):
            Bs[i] = B[i]
            for j in range(i):
                denom = np.dot(Bs[j], Bs[j])
                mu[i, j] = np.dot(B[i], Bs[j]) / denom if denom > 0 else 0.0
                Bs[i] -= mu[i, j] * Bs[j]
        return Bs, mu

    Bs, mu = gso(B)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q != 0:
                B[k] -= q * B[j]
                U[k] -= q * U[j]
                Bs, mu = gso(B)
        lhs = np.dot(Bs[k], Bs[k])
        rhs = (delta - mu[k, k - 1] ** 2) * np.dot(Bs[k - 1], Bs[k - 1])
        if lhs >= rhs:
            k += 1
        else:
            B[[k - 1, k]] = B[[k, k - 1]]
            U[[k - 1, k]] = U[[k, k - 1]]
            Bs, mu = gso(B)
            k = max(k - 1, 1)
    return B, U


def _norm_map(form: QuadraticForm, t: float, r: float) -> tuple[np.ndarray, float]:
    """Matrix G with F((x, m)) = |G (x, m)|_inf, and P = 4r."""
    d = form.dim
    P = 4.0 * r
    G = np.zeros((2 * d, 2 * d))
    G[:d, :d] = P * t * form.matrix
    G[:d, d:] = -P * np.eye(d)
    G[d:, :d] = (1.0 / P) * np.eye(d)
    return G, P


def _sup_norms(G: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return np.max(np.abs(row_products(Y, G)), axis=1)


def successive_minima(form: QuadraticForm, t: float, r: float,
                      mode: str = "reduction",
                      budget: int = 10 ** 7) -> MinimaResult:
    """Successive minima M_1 <= ... <= M_{2d} of the norm F over Z^{2d}.

    Reduction mode runs LLL on the columns of the realizing map and reads the
    minima off the reduced vectors; the reported quality factor
    2^{(2d-1)/2} sqrt(2d) covers both the LLL approximation and the
    Euclidean-to-sup conversion.  Exact mode enumerates (2d <= 8 only).
    """
    if t == 0:
        raise ValueError("t must be nonzero")
    if r < 1:
        raise ValueError("r must be >= 1")
    d = form.dim
    G, P = _norm_map(form, t, r)
    n = 2 * d
    quality = 2.0 ** ((n - 1) / 2.0) * math.sqrt(n)

    reduced, U = lll_reduce(G.T.copy())
    norms = _sup_norms(G, U)
    order = np.argsort(norms, kind="stable")
    red_minima = [float(norms[i]) for i in order]
    red_vectors = U[order]

    if mode == "reduction":
        return MinimaResult(P=P, minima=red_minima, vectors=red_vectors,
                            quality=quality, mode="reduction")
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    if n > 8:
        raise ValueError("exact mode refused for 2d > 8")

    # exact minima never exceed the reduced ones, and the standard
    # construction (e_j, round(t Q e_j)), (0, e_j) caps M_{2d} at P anyway
    bound = min(red_minima[-1], P) * (1 + 1e-9)
    basis = _MinBasis(n)
    # seeding with the reduced basis makes the running maximum tight early,
    # so later blocks filter almost everything out before the rank tests
    for y, fv in zip(red_vectors, red_minima):
        basis.offer(np.asarray(y, dtype=np.int64), float(fv))
    for j in range(d):
        e = np.zeros(2 * d, dtype=np.int64)
        e[d + j] = 1
        basis.offer(e, float(_sup_norms(G, e[None, :])[0]))

    x_half = int(math.floor(P * bound + 1e-9))
    slack = bound / P + 1e-12
    # the minima are a unique multiset, so the block order does not matter
    for X in box_blocks(x_half, d, budget):
        Z = t * row_products(X, form.matrix)
        lo = np.ceil(Z - slack - 1e-12).astype(np.int64)
        hi = np.floor(Z + slack + 1e-12).astype(np.int64)
        counts = np.maximum(hi - lo + 1, 0)
        # every valid m-combination per x (usually 1, at most 3^d), last m fastest
        idx, M = np.arange(len(X)), np.empty((len(X), 0), dtype=np.int64)
        for j in range(d):
            rows, m = expand_ranges(lo[idx, j], counts[idx, j])
            idx, M = idx[rows], np.column_stack([M[rows], m])
        Y = np.concatenate([X[idx], M], axis=1)
        Y = Y[np.any(Y != 0, axis=1)]
        norms_chunk = _sup_norms(G, Y)
        keep = norms_chunk < basis.current_max()
        order = np.argsort(norms_chunk[keep], kind="stable")
        for y, fv in zip(Y[keep][order], norms_chunk[keep][order]):
            basis.offer(y, float(fv))
    vectors, minima = basis.result()
    if len(minima) < n:
        raise ArithmeticError("exact enumeration failed to span; "
                              "this contradicts the F <= P construction")
    return MinimaResult(P=P, minima=minima, vectors=np.array(vectors),
                        quality=1.0, mode="exact")


class _MinBasis:
    """Streaming minimum-weight basis of the linear matroid on Z^n rows.

    Greedy over ascending weights is exact for matroids, and the greedy basis
    can be maintained under insertion: re-running the greedy on (basis + new
    element) sorted by weight gives the same set as the global greedy.
    """

    def __init__(self, n: int):
        self.n = n
        self.items: list[tuple[float, np.ndarray]] = []

    def current_max(self) -> float:
        return self.items[-1][0] if len(self.items) == self.n else math.inf

    def offer(self, vec: np.ndarray, weight: float) -> None:
        if weight >= self.current_max():
            return  # the kept set is independent; nothing can be displaced
        merged = sorted(self.items + [(weight, vec)], key=lambda p: p[0])
        kept: list[tuple[float, np.ndarray]] = []
        rows: list[np.ndarray] = []
        for w, v in merged:
            trial = np.array(rows + [v.astype(float)])
            if np.linalg.matrix_rank(trial, tol=1e-9) == len(trial):
                kept.append((w, v))
                rows.append(v.astype(float))
                if len(kept) == self.n:
                    break
        self.items = kept

    def result(self):
        vectors = [v for _, v in self.items]
        minima = [w for w, _ in self.items]
        return vectors, minima


def count_H(form: QuadraticForm, t: float, r: float,
            budget: int = 10 ** 8) -> int:
    """Cardinality of {x in B(4r) cap Z^d : ||(tQx)_j|| < 1/(4r) for all j},
    the nearest integer taken per coordinate."""
    if not r > 0:
        raise ValueError("r must be > 0")
    count = 0
    for X in box_blocks(int(4 * r), form.dim, budget):
        Z = t * row_products(X, form.matrix)
        dist = np.abs(Z - np.round(Z))
        count += int(np.count_nonzero(np.all(dist < 1.0 / (4.0 * r), axis=1)))
    return count


def dirichlet_approx(v, N: int) -> dict:
    """Simultaneous Dirichlet approximation: the smallest q <= N with
    |v_s - u_s/q| < 1/(q N^{1/d}) for all s, u_s = round(q v_s)."""
    v = np.asarray(v, dtype=float)
    if N < 1:
        raise ValueError("N must be >= 1")
    d = len(v)
    thr = N ** (-1.0 / d)
    for q in range(1, N + 1):
        qe = q * v
        u = np.round(qe)
        if np.all(np.abs(qe - u) < thr):
            return {"q": q, "u": u.astype(np.int64), "error": float(np.max(np.abs(v - u / q)))}
    raise ArithmeticError("Dirichlet approximation not found up to N; "
                          "this contradicts the pigeonhole guarantee")


@dataclass(frozen=True)
class ProbeResult:
    verdict: str              # irrational-consistent | rational-consistent | inconclusive
    curve: list               # [(r, sup value)]
    delta0: float
    delta: float

    def __str__(self):
        pts = ", ".join(f"({r:g}, {v:.4f})" for r, v in self.curve)
        return f"{self.verdict} [{pts}]"


def sup_phi_symmetrized(form: QuadraticForm, delta0: float, delta: float,
                        r: float, k: int = 1, t_nodes: int = 512) -> float:
    """sup of phi_sym(t; r) over [delta0, delta]: a dense chirp-z grid
    locates the top four candidates; the direct kernel reports, at them and
    along one golden search whose lanes they seed."""
    # peaks of phi_sym have width ~ 1/r^2; scale the grid so none is skipped
    nodes = max(t_nodes, min(2 ** 20, int((delta - delta0) * r * r * 3) + 2))
    ts = np.linspace(delta0, delta, nodes)             # delta0 + j step
    vals = phi_symmetrized_grid(form, delta0, (delta - delta0) / max(nodes - 1, 1),
                                nodes, r, k)           # checks form, r and k
    qdiag = np.diagonal(form.matrix)
    top = np.argsort(vals)[::-1][:4]
    _, v = golden_max(lambda t: symmetrized_transform(qdiag, t, int(r), k),
                      ts[np.maximum(top - 1, 0)],
                      ts[np.minimum(top + 1, len(ts) - 1)], iters=60)
    at_top = symmetrized_transform(qdiag, ts[top], int(r), k)
    return max(float(np.max(at_top)), float(np.max(v)))


def rationality_probe(form: QuadraticForm, delta0: float, delta: float,
                      r_schedule: Sequence[float], k: int = 1,
                      t_nodes: int = 512) -> ProbeResult:
    """Empirical probe of the trigonometric-sum rationality criterion.

    Computes sup_{delta0 <= t <= delta} phi_sym(t; r) along the schedule.
    Verdicts are reporting conventions, not theorems: the curve decaying by
    a factor >= 4 with final value <= 0.1 reads irrational-consistent; a
    plateau >= 0.9 at the tail reads rational-consistent; anything else is
    inconclusive.
    """
    if not 0 < delta0 <= delta:
        raise ValueError("need 0 < delta0 <= delta")
    if len(r_schedule) < 3:
        raise ValueError("schedule too short (need >= 3 entries)")
    if any(b <= a for a, b in zip(r_schedule, r_schedule[1:])):
        raise ValueError("r-schedule must be increasing")
    curve = [(float(r), sup_phi_symmetrized(form, delta0, delta, float(r), k, t_nodes))
             for r in r_schedule]
    tail = max(v for _, v in curve[-2:])
    first, last = curve[0][1], curve[-1][1]
    if tail >= 0.9:
        verdict = "rational-consistent"
    elif last <= 0.1 and first >= 4.0 * last:
        verdict = "irrational-consistent"
    else:
        verdict = "inconclusive"
    return ProbeResult(verdict=verdict, curve=curve, delta0=delta0, delta=delta)
