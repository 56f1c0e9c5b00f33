"""The lattice-point block streams (box and ellipsoid), the scans built on
them, and the golden search."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import brute_points
from qflab import util
from qflab.errors import BudgetExceededError
from qflab.forms import build_form, diagonal_form, parse_form_file
from qflab.gaps import oppenheim_scan
from qflab.lattice import (count_ellipsoid, enumerate_values, quad_values,
                           value_distribution)
from qflab.rationality import count_H, successive_minima
from qflab.scalars import ExactScalar
from qflab.smoothing import build_scheme, f_mu
from qflab.trig import f_sum, phi, phi_symmetrized, symmetrized_transform
from qflab.util import box_blocks, golden_max

SMALL_CHUNK = 13   # prime, so blocks straddle every row of the box
ND6_FORM = Path(__file__).resolve().parents[1] / "perfbench" / "forms" / "nd6.form"

ND3 = build_form([[2.0, 0.3, -0.1], [0.3, 1.5, 0.2], [-0.1, 0.2, 1.1]],
                 normalize=False)
IND3 = build_form([[1.0, 0.4, 0.0], [0.4, -math.sqrt(2), 0.3],
                   [0.0, 0.3, -math.sqrt(3)]], normalize=False)
# integer values, so |Q| ties and the Oppenheim witness is a tie-break
INT3 = build_form([[1, 0, 0], [0, -1, 0], [0, 0, 2]], normalize=False)
ND2 = build_form([[1.4986, -0.9114], [-0.9114, 4.037]], normalize=False)


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("half,d", [(0, 1), (0, 3), (1, 1), (2, 2), (3, 3), (1, 5)])
def test_box_blocks_match_bruteforce_order(half, d, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(util, "BOX_CHUNK", chunk)
    blocks = list(box_blocks(half, d, (2 * half + 1) ** d))
    assert all(b.dtype == np.int64 and 0 < len(b) <= util.BOX_CHUNK
               for b in blocks)
    assert np.array_equal(np.concatenate(blocks), brute_points(half, d))


def test_box_blocks_refuse_bad_boxes():
    with pytest.raises(BudgetExceededError) as exc:
        box_blocks(2, 3, 124)
    assert exc.value.required == 125
    with pytest.raises(ValueError):
        box_blocks(-1, 2, 10 ** 6)


def _spectrum(s):
    return s.values.tolist(), s.multiplicities


def _count(r):
    return r.count, r.visited


BOX_SCANS = {
    "enumerate_values": lambda: _spectrum(
        enumerate_values(IND3, [0.1, -0.2, 0.25], 9, (-5.0, 5.0))),
    # d = 2, also run at blocks of one and two rows below
    "enumerate_values_2d": lambda: _spectrum(
        enumerate_values(ND2, [0.1, -0.2], 12, (-1.0, 2000.0))),
    "oppenheim_scan": lambda: [
        oppenheim_scan(IND3, [0, 0, 0], (-0.05, 0.05), [3, 8]),
        oppenheim_scan(INT3, [0, 0, 0], (0.5, 1.5), [4]),
        oppenheim_scan(INT3, [0, 0, 0], (-1.5, -0.5), [4])],
    "count_H": lambda: count_H(ND3, 0.7, 2.0),
    # the ellipsoid enumeration: ~600 points, so 13-row blocks split its
    # frontiers at every level; f_mu's ellipsoid pokes out of mu's support
    "count_ellipsoid": lambda: _count(count_ellipsoid(ND3, [0.3, -0.45, 0.1], 40.0)),
    "f_mu": lambda: f_mu(ND3, [0.1, -0.2, 0.3], 60.0, build_scheme(4, 1, 2)),
    "successive_minima": lambda: successive_minima(ND2, 1.15, 3.0,
                                                   mode="exact").minima,
    "phi": lambda: phi(ND3, [0.1, -0.2, 0.3], 0.3, 16, mode="direct"),
    "f_sum": lambda: f_sum(ND3, [0.1, -0.2, 0.3], 0.3, 4, 1, mode="direct"),
    "phi_symmetrized": lambda: phi_symmetrized(ND3, 0.3, 6),
}


def _check_block_free(site, chunk, monkeypatch):
    whole = BOX_SCANS[site]()
    monkeypatch.setattr(util, "BOX_CHUNK", chunk)
    blocked = BOX_SCANS[site]()
    if isinstance(whole, float):
        assert blocked == pytest.approx(whole, rel=1e-12)
    else:
        assert blocked == whole


@pytest.mark.parametrize("site", sorted(BOX_SCANS))
def test_box_scans_do_not_depend_on_block_size(site, monkeypatch):
    _check_block_free(site, SMALL_CHUNK, monkeypatch)


@pytest.mark.parametrize("chunk", [1, 2])
def test_two_dim_values_do_not_depend_on_tiny_blocks(chunk, monkeypatch):
    _check_block_free("enumerate_values_2d", chunk, monkeypatch)


@pytest.mark.parametrize("scan", ["enumerate_values", "whole_box_window", "count_H",
                                  "count_ellipsoid"])
def test_box_scan_memory_is_bounded(scan):
    """A 1.77M-point box scan stays far below what the whole box would take.
    The window scan that keeps every point of IND3's B(60) holds 1.77M values
    (14 MB) and never a prefix block times the box side.  The enumeration of
    nd6 at s = 400 keeps 1.35M values and masses (22 MB) and one block per
    level of its search tree."""
    diag = diagonal_form([ExactScalar(1), -ExactScalar.sqrt(2),
                          -ExactScalar.sqrt(3)])
    nd6 = parse_form_file(ND6_FORM.read_text())
    tracemalloc.start()
    try:
        if scan == "enumerate_values":
            enumerate_values(diag, [0, 0, 0], 60, (-10.0, 10.0))
        elif scan == "whole_box_window":
            dist = value_distribution(IND3, np.zeros(3), 1e6, 10 ** 8, box=60,
                                      floor=-1e6)
            assert len(dist.values) == 121 ** 3
        elif scan == "count_H":
            count_H(ND3, 0.7, 15.0)
        else:
            assert count_ellipsoid(nd6, [0] * 6, 400).count == 1347727
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (96 if scan == "count_ellipsoid" else 64) * 2 ** 20


@pytest.mark.parametrize("d", range(2, 10))
def test_row_kernel_does_not_depend_on_block_size(d, monkeypatch):
    """row_products and quad_values round every row as one call on all rows
    does, at every block size from 1 to 40 rows."""
    rng = np.random.default_rng(d)
    A = rng.normal(size=(d, d))
    mat, a = A + A.T, rng.uniform(-1.0, 1.0, d)
    X = rng.integers(-40, 41, size=(60, d))
    Y = X - a
    rows, values = util.row_products(Y, mat), quad_values(mat, a, X)
    for size in range(1, 41):
        blocks = [util.row_products(Y[i:i + size], mat) for i in range(0, 60, size)]
        assert np.concatenate(blocks).tobytes() == rows.tobytes()
        monkeypatch.setattr(util, "BOX_CHUNK", size * d)
        assert quad_values(mat, a, X).tobytes() == values.tobytes()


def _golden_scalar_reference(f, lo, hi, iters=60):
    """The scalar golden-section loop golden_max must reproduce bit for bit:
    it returns the first point of largest value among all it evaluated."""
    g = (math.sqrt(5) - 1) / 2
    seen = []

    def f_seen(x):
        seen.append((x, f(x)))
        return seen[-1][1]

    a, b = lo, hi
    c = b - g * (b - a)
    d = a + g * (b - a)
    fc, fd = f_seen(c), f_seen(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f_seen(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f_seen(d)
    f_seen((a + b) / 2)
    return max(seen, key=lambda pair: pair[1])


def _cubic(x):
    # elementwise arithmetic only, so floats and arrays round alike
    return x * (2.0 - x) * (x + 0.5) - 0.25 * x * x * x * x


def test_golden_lanes_match_scalar_runs():
    lo = np.array([-1.0, 0.0, 0.3, 1.2, 2.0, -3.0, 0.7])
    hi = np.array([3.0, 0.5, 0.3, 1.9, 2.5, 4.0, 0.9])    # one empty interval
    xs, vs = golden_max(_cubic, lo, hi, iters=40)
    for i in range(len(lo)):
        want = _golden_scalar_reference(_cubic, float(lo[i]), float(hi[i]), iters=40)
        assert (xs[i], vs[i]) == want
        x1, v1 = golden_max(_cubic, lo[i:i + 1], hi[i:i + 1], iters=40)
        assert (x1[0], v1[0]) == want
    # scalar bounds broadcast against array bounds
    xb, _ = golden_max(_cubic, 0.0, hi, iters=40)
    assert xb.shape == hi.shape


def test_golden_keeps_the_best_point_on_a_plateau():
    """Ties on a plateau keep steering the bracket left, so the last bracket
    of the second lane ends below the plateau; each lane still returns the
    best point it evaluated."""
    def plateau(x):
        return np.minimum(1.0, 2.0 - 50.0 * np.abs(x - 0.5))

    xs, vs = golden_max(plateau, np.array([0.0, 0.3]), np.array([1.0, 0.9]), iters=40)
    assert vs.tolist() == [1.0, 1.0]
    assert plateau(xs).tolist() == [1.0, 1.0]


def test_golden_scalar_is_the_old_loop(surd9):
    """Lanes over the engine are scalar searches over phi_symmetrized."""
    qdiag = np.diagonal(surd9.matrix)

    def lanes(t):
        return symmetrized_transform(qdiag, t, 6, 1).astype(float)

    lo = np.array([0.5, 1.3, 2.2, 3.0])
    hi = np.array([0.55, 1.31, 2.2, 3.4])
    xs, vs = golden_max(lanes, lo, hi)
    for i in range(len(lo)):
        assert (xs[i], vs[i]) == _golden_scalar_reference(
            lambda t: phi_symmetrized(surd9, t, 6.0, 1), float(lo[i]), float(hi[i]))
