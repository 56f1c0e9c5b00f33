"""Small shared helpers: seeded substreams, lane-wise golden-section search,
the one lattice-box iterator, the one row-product kernel and the one range
expander.

Every scan of a full box [-H, H]^d goes through `box_blocks`, which yields the
box in fixed-size blocks: memory is O(BOX_CHUNK * d) however large the box,
while the budget still counts box points; `lattice.EllipsoidBlocks` too.
Value listings and Oppenheim scans keep only a window of values: they read
`lattice.window_blocks`, which walks the prefixes x_1..x_{d-1} with
`box_blocks` and solves the last coordinate per prefix; `box_size` charges
them the whole box all the same.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from .errors import BudgetExceededError

GOLDEN = (math.sqrt(5) - 1) / 2
BOX_CHUNK = 1 << 18   # points per lattice-point block


def spawn_rngs(seed: int, workers: int) -> list[np.random.Generator]:
    """Independent generators, one per worker, fully determined by (seed, workers)."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    seqs = np.random.SeedSequence(seed).spawn(workers)
    return [np.random.default_rng(s) for s in seqs]


def worker_chunks(total: int, workers: int) -> list[int]:
    """Split `total` items into per-worker counts (deterministic)."""
    base = total // workers
    out = [base] * workers
    for i in range(total - base * workers):
        out[i] += 1
    return [n for n in out if n > 0]


def golden_max(f, lo, hi, iters: int = 60):
    """Lane-wise golden-section maximization on [lo, hi].

    `lo` and `hi` are arrays of lane bounds (broadcast against each other),
    `f` maps an array of points to an array of values, and each lane takes
    exactly the branch a scalar search would take on it alone.  Returns the
    arrays (argmax, max) of the best point each lane evaluated, the earliest
    on ties, the final bracket's midpoint included: a search that wanders on
    a flat peak still returns the best it saw.  Used only for local
    refinement around grid candidates, where unimodality is benign.
    """
    a, b = np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float))
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    seen = [(c, fc), (d, fd)]
    for _ in range(iters):
        left = fc >= fd          # keep [a, d], else keep [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - GOLDEN * (b - a), a + GOLDEN * (b - a))
        fnew = f(x)
        seen.append((x, fnew))
        c, d, fc, fd = (np.where(left, x, d), np.where(left, c, x),
                        np.where(left, fnew, fd), np.where(left, fc, fnew))
    x = (a + b) / 2
    seen.append((x, f(x)))
    xs, fs = (np.array(v) for v in zip(*seen))
    best = np.argmax(fs, axis=0)[None]     # the first of equal maxima
    return np.take_along_axis(xs, best, 0)[0], np.take_along_axis(fs, best, 0)[0]


def box_size(half: int, d: int, budget: int) -> int:
    """The number of points of [-half, half]^d, refused above the budget."""
    if half < 0:
        raise ValueError("box half-width must be >= 0")
    total = (2 * half + 1) ** d
    if total > budget:
        raise BudgetExceededError(
            f"box of {total} points exceeds budget {budget}", required=total)
    return total


def box_blocks(half: int, d: int, budget: int) -> Iterator[np.ndarray]:
    """The box [-half, half]^d as int64 (k, d) blocks of at most BOX_CHUNK rows.

    Rows come in lexicographic order, the last coordinate varying fastest.
    The size check happens on the call, before any block is made.
    """
    total = box_size(half, d, budget)
    shape, chunk = (2 * half + 1,) * d, BOX_CHUNK
    return (np.stack(np.unravel_index(np.arange(start, min(start + chunk, total)),
                                      shape), axis=1) - half
            for start in range(0, total, chunk))


def row_products(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rows @ mat.T, each row rounded the same however many rows come along:
    numpy hands a single row to BLAS gemv, which rounds unlike gemm."""
    if len(rows) == 1:
        return (np.repeat(rows, 2, axis=0) @ mat.T)[:1]
    return rows @ mat.T


def expand_ranges(lo: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges [lo_k, lo_k + n_k) end to end: (rows, values), rows[i] = k."""
    rows = np.repeat(np.arange(len(n)), n)
    return rows, np.arange(len(rows)) + np.repeat(lo - np.cumsum(n) + n, n)


def weighted_box_sum(weights: np.ndarray, d: int,
                     term: Callable[[np.ndarray], np.ndarray], budget: int):
    """sum over x in [-H, H]^d of prod_j weights[x_j + H] * term(x), where
    2H + 1 = len(weights) and `term` maps a block of points to their terms."""
    half = (len(weights) - 1) // 2
    return sum(np.sum(np.prod(weights[X + half], axis=1) * term(X))
               for X in box_blocks(half, d, budget))
