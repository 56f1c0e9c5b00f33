import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import brute_count, brute_points, brute_values
from qflab import lattice, util
from qflab.errors import BudgetExceededError
from qflab.forms import build_form, diagonal_form
from qflab.lattice import (MERGE_RTOL, PRUNE_PAD_RTOL,
                           count_ellipsoid, count_shell, diagonal_value_dp,
                           dp_count_le, dp_for_form, dp_window_values,
                           enumerate_values, value_distribution)
from qflab.scalars import ExactScalar
from qflab.smoothing import build_scheme
from qflab.volume import delta_curve, ellipsoid_volume


def test_count_examples(identity2):
    one = build_form([[1]])
    assert count_ellipsoid(one, [0.0], 1.0).count == 3
    assert count_ellipsoid(identity2, [0, 0], 25.0).count == 81
    assert count_ellipsoid(identity2, [0, 0], 100.0).count == 317


def test_count_shift_invariance(identity2):
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.uniform(-1, 1, size=2)
        m = rng.integers(-5, 5, size=2)
        c1 = count_ellipsoid(identity2, a, 30.0).count
        c2 = count_ellipsoid(identity2, a - m, 30.0).count
        assert c1 == c2


def test_count_matches_bruteforce_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        A = np.round(rng.normal(size=(d, d)) * 8) / 16
        mat = A @ A.T + np.eye(d) * rng.integers(1, 4)
        form = build_form(mat, normalize=False)
        a = rng.integers(-8, 8, size=d) / 16
        s = float(rng.uniform(1, 40))
        assert count_ellipsoid(form, a, s).count == brute_count(form.matrix, a, s)


def test_count_monotone_in_s(identity2):
    counts = [count_ellipsoid(identity2, [0.25, 0.5], s).count
              for s in np.linspace(1, 60, 15)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_count_bracketing_by_volume():
    rng = np.random.default_rng(5)
    for _ in range(5):
        d = int(rng.integers(2, 4))
        A = rng.normal(size=(d, d))
        form = build_form(A @ A.T + np.eye(d) * 2, normalize=True)
        s = float(rng.uniform(20, 80))
        q = form.q
        delta = 2 * math.sqrt(q * s * d) + q * d
        cnt = count_ellipsoid(form, [0.0] * d, s).count
        assert ellipsoid_volume(form, max(s - delta, 0.0)) <= cnt
        assert cnt <= ellipsoid_volume(form, s + delta)


def test_dp_agrees_with_enumeration_random():
    rng = np.random.default_rng(13)
    for _ in range(50):
        d = int(rng.integers(1, 10))
        diag = [ExactScalar(Fraction(int(rng.integers(1, 9)),
                                     int(rng.integers(1, 5)))) for _ in range(d)]
        form = diagonal_form(diag)
        s = float(rng.uniform(2, 200 / d))
        a = [Fraction(int(rng.integers(0, 4)), 4) for _ in range(d)]
        x = [float(v) for v in a]
        c_dp = count_ellipsoid(form, x, s, method="diagonal-dp").count
        c_en = count_ellipsoid(form, x, s, method="enumeration", budget=10 ** 8).count
        assert c_dp == c_en
        assert (count_shell(form, x, s / 3, s / 2, method="diagonal-dp").count
                == count_shell(form, x, s / 3, s / 2, method="enumeration").count)
        grid = [s / 4, s / 2, s]
        curve = delta_curve(form, x, grid)
        assert all(row["s"] == t for row, t in zip(curve, grid))
        assert [row["count"] for row in curve] == [
            count_ellipsoid(form, x, t, method="enumeration").count for t in grid]


def test_dp_exact_boundary_ties():
    # s exactly attained: boundary cells must be included via exact comparison
    I2 = build_form([[1, 0], [0, 1]])
    assert count_ellipsoid(I2, [0, 0], 25.0, method="diagonal-dp").count == 81
    surd = diagonal_form([ExactScalar(1), ExactScalar.sqrt(2)])
    # Q[(+-1, +-1)] = 1 + sqrt(2); straddle that value from both sides
    c_below = count_ellipsoid(surd, [0, 0], float(1 + math.sqrt(2)) * (1 - 1e-12)).count
    c_at = count_ellipsoid(surd, [0, 0], float(1 + math.sqrt(2)) * (1 + 1e-12)).count
    assert c_at - c_below == 4  # (+-1, +-1)


def test_dp_window_values_match_bruteforce():
    sqrt2 = ExactScalar.sqrt(2)
    cases = [
        # integer values: both window ends are attained exactly
        ([ExactScalar(1), ExactScalar(-1)], [0.0, 0.0], 6, (-5.0, 5.0)),
        ([ExactScalar(1), -sqrt2, ExactScalar(Fraction(1, 2))], [0.5, 0.25, 0.0],
         5, (-7.0, 9.0)),
        ([ExactScalar(1), sqrt2, ExactScalar(3)], [0.25, 0.0, 0.5], 4, (2.0, 30.0)),
    ]
    for diag, a, r, window in cases:
        form = diagonal_form(diag)
        dp = dp_for_form(form, np.asarray(a), window[1], 10 ** 8,
                         m_ranges=[(-r, r)] * form.dim)
        pairs = dp_window_values(dp, window)
        vals = np.array([v for v, _ in pairs])
        expect = brute_values(form.matrix, a, r, window)
        assert len(vals) == len(expect)
        assert np.allclose(vals, expect, rtol=0, atol=1e-9)
        Y = brute_points(r, form.dim) - np.asarray(a)
        qv = np.einsum("ij,jk,ik->i", Y, form.matrix, Y)
        in_window = np.count_nonzero((qv > window[0]) & (qv <= window[1]))
        assert sum(m for _, m in pairs) == in_window


def test_dp_for_form_eligibility(identity2):
    assert dp_for_form(identity2, np.array([math.sqrt(2) % 1, 0.0]), 10.0,
                       10 ** 6) is None
    float_form = build_form(np.eye(2), normalize=False)
    assert not float_form.is_exact
    assert dp_for_form(float_form, np.zeros(2), 10.0, 10 ** 6) is None
    # `work` and a DP count's `visited` are what the budget is checked against
    dp = dp_for_form(identity2, np.zeros(2), 10.0, 10 ** 6)
    assert dp_for_form(identity2, np.zeros(2), 10.0, dp.work).work == dp.work
    with pytest.raises(BudgetExceededError):
        dp_for_form(identity2, np.zeros(2), 10.0, dp.work - 1)
    assert count_ellipsoid(identity2, [0, 0], 10.0).visited == dp.work


def test_count_rejects_bad_method_and_ineligible_dp(identity2):
    irrational = [math.sqrt(2) % 1, 0.0]
    with pytest.raises(ValueError, match="unknown method"):
        count_ellipsoid(identity2, [0, 0], 10.0, method="bogus")
    with pytest.raises(ValueError, match="unknown method"):
        count_shell(identity2, [0, 0], 5.0, 5.0, method="bogus")
    with pytest.raises(ValueError, match="rational shift"):
        count_ellipsoid(identity2, irrational, 10.0, method="diagonal-dp")
    with pytest.raises(ValueError, match="rational shift"):
        count_shell(identity2, irrational, 5.0, 5.0, method="diagonal-dp")


def test_shell_examples(identity2):
    one = build_form([[1]])
    assert count_shell(one, [0.0], 1.0, 3.0).count == 2
    assert count_shell(identity2, [0, 0], 25.0, 75.0).count == 317 - 81
    # value-free interval
    assert count_shell(one, [0.0], 1.2, 0.5).count == 0


def test_budget_exceeded_carries_counts(identity2):
    with pytest.raises(BudgetExceededError):
        count_ellipsoid(identity2, [0, 0], 10000.0, budget=100,
                        method="enumeration")


def test_enumerate_values_examples(hyperbolic2):
    spec = enumerate_values(hyperbolic2, [0, 0], 2, (-5.0, 5.0))
    assert spec.values.tolist() == [-4.0, -3.0, -1.0, 0.0, 1.0, 3.0, 4.0]
    one = build_form([[1]])
    sq = enumerate_values(one, [0.0], 3, (-1.0, 10.0))
    assert sq.values.tolist() == [0.0, 1.0, 4.0, 9.0]
    assert sq.multiplicities == [1, 2, 2, 2]
    # empty window above the attainable range
    empty = enumerate_values(one, [0.0], 3, (100.0, 200.0))
    assert len(empty) == 0


def test_enumerate_values_match_bruteforce(hyperbolic2):
    vals = enumerate_values(hyperbolic2, [0.3, 0.1], 6, (-12.0, 12.0)).values
    expect = brute_values(hyperbolic2.matrix, [0.3, 0.1], 6, (-12.0, 12.0))
    assert np.allclose(vals, expect)


def test_enumerate_values_budget_refusal(identity2):
    with pytest.raises(BudgetExceededError) as err:
        enumerate_values(build_form(np.eye(3)), [0.0] * 3, 60, (0.0, 1.0),
                         budget=10 ** 4)
    assert err.value.required == 121 ** 3


@pytest.mark.parametrize("window", [(-math.inf, 3.0), (-100.0, math.inf),
                                    (math.nan, 3.0)])
def test_enumerate_values_refuses_non_finite_windows(hyperbolic2, window):
    """An infinite bound would make the merge tolerance infinite and fold the
    whole spectrum into one value."""
    with pytest.raises(ValueError, match="window bounds must be finite"):
        enumerate_values(hyperbolic2, [0, 0], 5, window)


@pytest.mark.parametrize("r", [math.inf, math.nan, -1])
def test_enumerate_values_refuses_bad_radii(hyperbolic2, r):
    with pytest.raises(ValueError, match=r"r must be finite and >= 0"):
        enumerate_values(hyperbolic2, [0, 0], r, (-5.0, 5.0))


def _box_scan(blocks, mat, a, lo, hi):
    """Kept values and points of a block stream under the final predicate."""
    vals, pts = [np.empty(0)], [np.empty((0, len(a)), dtype=np.int64)]
    for X in blocks:
        v = lattice.quad_values(mat, a, X)
        keep = (v > lo) & (v <= hi)
        vals.append(v[keep])
        pts.append(X[keep])
    return np.concatenate(vals), np.concatenate(pts)


_QUARTERS = st.integers(-8, 8).map(lambda k: k / 4)
_ENTRY = st.one_of(_QUARTERS, st.floats(-2.0, 2.0))


@st.composite
def _window_cases(draw):
    d = draw(st.integers(1, 4))
    half = draw(st.integers(0, (30, 9, 4, 2)[d - 1]))
    A = np.array(draw(st.lists(_ENTRY, min_size=d * d, max_size=d * d))).reshape(d, d)
    mat = (A + A.T) / 2
    last = draw(st.sampled_from(["free", "zero-row", "C=0", "C=1e-16", "C=-1e-19"]))
    if last == "zero-row":
        mat[-1, :] = mat[:, -1] = 0.0
    elif last != "free":
        mat[-1, -1] = float(last[2:])
        if d > 1:
            mat[-1, 0] = mat[0, -1] = 0.3
    rational = st.lists(_QUARTERS, min_size=d, max_size=d)
    irrational = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d).map(
        lambda v: [x + math.sqrt(2) / 7 for x in v])
    a = np.array(draw(st.one_of(rational, irrational)))
    box = np.concatenate(list(util.box_blocks(half, d, 10 ** 6)))
    values = np.sort(lattice.quad_values(mat, a, box))
    lo = draw(st.one_of(st.floats(-30.0, 30.0), st.sampled_from(values.tolist()),
                        st.just(-math.inf)))
    hi = draw(st.one_of(st.floats(-30.0, 30.0), st.sampled_from(values.tolist())))
    if not lo < hi:
        hi = (lo if math.isfinite(lo) else hi) + draw(st.floats(0.1, 20.0))
    chunk = draw(st.sampled_from([util.BOX_CHUNK, 13, 1]))
    return mat, a, half, lo, hi, chunk


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_window_cases())
def test_window_blocks_keep_what_the_full_box_scan_keeps(case):
    """Random symmetric forms (a zero last row and column, C = 0 or |C| tiny
    next to B = 0.3, rational and irrational shifts, bounds at attained
    values, an infinite floor), at three block sizes: the window stream under
    the final predicate keeps the full scan's values and points, byte for
    byte, in lexicographic blocks of at most one block size."""
    mat, a, half, lo, hi, chunk = case
    saved, util.BOX_CHUNK = util.BOX_CHUNK, chunk
    try:
        blocks = list(lattice.window_blocks(mat, a, half, lo, hi, 10 ** 6))
        want = _box_scan(util.box_blocks(half, len(a), 10 ** 6), mat, a, lo, hi)
    finally:
        util.BOX_CHUNK = saved
    assert all(b.dtype == np.int64 and 0 < len(b) <= chunk for b in blocks)
    stream = np.concatenate([np.empty((0, len(a)), dtype=np.int64), *blocks])
    assert np.array_equal(np.unique(stream, axis=0), stream)     # strictly lexicographic
    got = _box_scan(blocks, mat, a, lo, hi)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("C", [1e-16, 1e-19])
def test_window_roots_survive_a_tiny_last_pivot(C):
    """The textbook roots (-B +- sqrt(D)) / C lose most values of this window
    when |C| << B^2; the stable form keeps all of them."""
    mat, a = np.array([[1.0, 0.3], [0.3, C]]), np.zeros(2)
    want = _box_scan(util.box_blocks(40, 2, 10 ** 6), mat, a, -2.0, 2.0)
    got = _box_scan(lattice.window_blocks(mat, a, 40, -2.0, 2.0, 10 ** 6), mat, a, -2.0, 2.0)
    assert len(want[0]) > 30
    assert got[0].tobytes() == want[0].tobytes()


@pytest.mark.parametrize("window", [(-10.0, 10.0), (-0.05, 0.05), (5.0, 200.0)])
def test_window_blocks_touch_little_beyond_the_window(window):
    """Each prefix of an indefinite form's B(30) adds at most its two
    intervals' widened ends to the points it keeps, also when the window
    cuts a hole (Q <= 5) out of the middle of a row."""
    mat = np.array([[1.0, 0.4, 0.0], [0.4, -math.sqrt(2), 0.3],
                    [0.0, 0.3, -math.sqrt(3)]])
    a = np.array([0.1, -0.2, 0.25])
    stream = np.concatenate(list(lattice.window_blocks(mat, a, 30, *window, 10 ** 6)))
    kept = _box_scan([stream], mat, a, *window)[0]
    assert len(stream) - len(kept) <= 4 * 61 ** 2


def test_window_blocks_charge_the_whole_box_on_the_call():
    mat = np.diag([1.0, -2.0, 0.5])
    with pytest.raises(BudgetExceededError) as box:
        util.box_blocks(2, 3, 124)
    with pytest.raises(BudgetExceededError) as window:
        lattice.window_blocks(mat, np.zeros(3), 2, 0.0, 1.0, 124)
    assert window.value.required == box.value.required == 125


# ---------------------------------------------------------------------------
# the box-bounded DP against the full-table build it replaced
# ---------------------------------------------------------------------------


def _full_shift_add(dst, src, offs, weight):
    """dst[idx + offs] += weight * src[idx], for every in-range idx."""
    src_slc, dst_slc = [], []
    for size, o in zip(src.shape, offs):
        o = int(o)
        if abs(o) >= size:
            return
        if o >= 0:
            src_slc.append(slice(0, size - o))
            dst_slc.append(slice(o, size))
        else:
            src_slc.append(slice(-o, size))
            dst_slc.append(slice(0, size + o))
    if weight == 1:
        dst[tuple(dst_slc)] += src[tuple(src_slc)]
    else:
        dst[tuple(dst_slc)] += weight * src[tuple(src_slc)]


def _full_cell_values(shape, basis, scales, offsets):
    """Float value at every cell, via broadcast outer sums."""
    val = np.zeros(shape)
    for axis, (b, sc, off) in enumerate(zip(basis, scales, offsets)):
        coords = (np.arange(shape[axis]) + off) * (math.sqrt(b) / sc)
        sh = [1] * len(shape)
        sh[axis] = -1
        val = val + coords.reshape(sh)
    return val


def _full_table_dp(diag, shift, m_ranges, cap=None, weights=None, dtype=None):
    """The DP table as built by shift-adding the whole table for every
    coordinate after seeding the table from the first one."""
    d = len(diag)
    basis_set = set()
    for q in diag:
        basis_set |= set(q.terms.keys())
    basis = tuple(sorted(basis_set or {1}))
    scales = []
    for b in basis:
        sc = 1
        for j, q in enumerate(diag):
            den = q.terms.get(b, Fraction(0)).denominator * (shift[j].denominator ** 2)
            sc = sc * den // math.gcd(sc, den)
        scales.append(sc)
    contribs = []
    for j, q in enumerate(diag):
        lo, hi = m_ranges[j]
        rows = np.empty((hi - lo + 1, len(basis)), dtype=np.int64)
        for bi, b in enumerate(basis):
            coef = q.terms.get(b, Fraction(0)) * scales[bi]
            for mi, m in enumerate(range(lo, hi + 1)):
                rows[mi, bi] = int(coef * (Fraction(m) - shift[j]) ** 2)
        contribs.append(rows)
    nonneg = all((rows >= 0).all() for rows in contribs)
    offsets = tuple(int(sum(rows[:, bi].min() for rows in contribs))
                    for bi in range(len(basis)))
    highs = tuple(int(sum(rows[:, bi].max() for rows in contribs))
                  for bi in range(len(basis)))
    shape = tuple(h - o + 1 for h, o in zip(highs, offsets))
    for rows in contribs:
        rows -= rows.min(axis=0, keepdims=True)
    pruned = cap is not None and nonneg
    if pruned:
        cap_pad = cap + PRUNE_PAD_RTOL * max(1.0, abs(cap)) + 1e-9
        shape = tuple(min(shape[bi], max(math.floor(cap_pad * scales[bi] / math.sqrt(b))
                                         + 1 - offsets[bi] + 1, 1))
                      for bi, b in enumerate(basis))
    if dtype is None:
        if weights is None:
            dtype = np.int64
        else:
            dtype = object if np.asarray(weights).dtype == object else np.float64
    values = _full_cell_values(shape, basis, scales, offsets)
    cap_mask = values > cap_pad if pruned else None
    table = np.zeros(shape, dtype=dtype)
    for j in range(d):
        rows = contribs[j]
        w = None if weights is None else np.asarray(weights, dtype=dtype)
        if j == 0:
            for mi in range(rows.shape[0]):
                idx = tuple(int(v) for v in rows[mi])
                if all(0 <= i < n for i, n in zip(idx, shape)):
                    table[idx] += (1 if w is None else w[mi])
        else:
            new = np.zeros_like(table)
            for mi in range(rows.shape[0]):
                _full_shift_add(new, table, rows[mi], 1 if w is None else w[mi])
            table = new
        if cap_mask is not None:
            table[cap_mask] = 0
    return table


def _assert_same_table(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    if got.dtype == object:
        assert got.tolist() == ref.tolist()
        assert all(type(x) is type(y) or x == y == 0
                   for x, y in zip(got.ravel(), ref.ravel()))
    else:
        assert got.tobytes() == ref.tobytes()


SQRT2 = ExactScalar.sqrt(2)
_POSITIVE = [ExactScalar(1) + SQRT2 * Fraction(k, 4) for k in range(4)]
_INDEFINITE = [ExactScalar(1), -SQRT2, ExactScalar(Fraction(1, 2))]


@pytest.mark.parametrize("weights", ["counts", "object-ints", "fractions", "floats"])
@pytest.mark.parametrize("case", ["pruned-positive", "unpruned-indefinite",
                                  "rational-shift", "cap-below-all"])
def test_dp_matches_full_table_reference(case, weights, monkeypatch):
    diag, shift, cap = {
        "pruned-positive": (_POSITIVE, [Fraction(0)] * 4, 40.0),
        "unpruned-indefinite": (_INDEFINITE, [Fraction(0)] * 3, 10.0),
        "rational-shift": ([ExactScalar(1), ExactScalar(Fraction(3, 2)), ExactScalar(2)],
                           [Fraction(1, 2), Fraction(1, 3), Fraction(0)], 30.0),
        "cap-below-all": (_POSITIVE, [Fraction(1, 2)] * 4, 0.2),
    }[case]
    half = 4
    m_ranges = [(-half, half)] * len(diag)
    col = np.arange(1, 2 * half + 2) * (2 * half + 2 - np.arange(1, 2 * half + 2))
    w, dtype = {
        "counts": (None, None),
        "object-ints": (None, object),
        "fractions": (np.array([Fraction(int(v), 97) for v in col], dtype=object),
                      None),
        "floats": (col / col.sum(), None),
    }[weights]
    if weights == "object-ints":
        # the counts' dtype for boxes of 2^62 points or more
        monkeypatch.setattr(lattice, "_INT64_SAFE", 1)
    got = diagonal_value_dp(diag, shift, m_ranges, cap=cap, weights=w).table
    ref = _full_table_dp(diag, shift, m_ranges, cap=cap, weights=w, dtype=dtype)
    _assert_same_table(got, ref)
    if case == "cap-below-all":
        assert not np.any(got)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 3), st.integers(0, 3)),
                min_size=1, max_size=4),
       st.floats(0.5, 30.0), st.sampled_from(["counts", "floats", "fractions"]),
       st.booleans())
def test_dp_property_matches_full_table_and_brute(coords, cap, weights, on_cell):
    """Random small exact diagonal forms q_j = a/b with shifts in Z/4, whose
    (m - a_j)^2 come in equal pairs and singletons, counted or weighted by
    an asymmetric float or Fraction column, with a cap anywhere or exactly
    on a cell value: the table equals the full-table build bit for bit."""
    diag = [ExactScalar(Fraction(num, den)) for num, den, _ in coords]
    shift = [Fraction(a4, 4) for _, _, a4 in coords]
    form = diagonal_form(diag)
    x = [float(v) for v in shift]
    if on_cell:
        # the value of a lattice point near the cap's ellipsoid boundary
        m = [round(float(aj) + math.sqrt(cap / (len(diag) * float(q))))
             for q, aj in zip(diag, shift)]
        cap = float(sum((q * (mj - aj) ** 2 for q, mj, aj in zip(diag, m, shift)),
                        ExactScalar(0)))
    if weights == "counts":
        dp = dp_for_form(form, np.array(x), cap, 10 ** 8)
        w = None
    else:
        col = np.arange(1, 8) * (10 - np.arange(1, 8))
        w = (col / col.sum() if weights == "floats"
             else np.array([Fraction(int(v), 89) for v in col], dtype=object))
        dp = dp_for_form(form, np.array(x), cap, 10 ** 8, m_ranges=[(-3, 3)] * len(diag),
                         weights=w)
    _assert_same_table(dp.table, _full_table_dp(diag, shift, dp.m_ranges, cap=cap, weights=w))
    if weights == "counts":
        for s in (cap / 3, cap):
            assert dp_count_le(dp, s) == brute_count(form.matrix, x, s)


def test_count_build_merges_rows_and_charges_the_full_box(surd9, monkeypatch):
    """At a = 0 the rows of m and -m coincide, so a count build makes at most
    ceil(rows / 2) shift-adds per coordinate; its work and its budget refusal
    still charge table.size x the sum of the box widths."""
    adds = []
    add_coordinate, shift_add = lattice._add_coordinate, lattice._shift_add

    def counted_add_coordinate(table, rows, *args):
        adds.append([len(rows), 0])
        return add_coordinate(table, rows, *args)

    def counted_shift_add(*args):
        adds[-1][1] += 1
        shift_add(*args)

    monkeypatch.setattr(lattice, "_add_coordinate", counted_add_coordinate)
    monkeypatch.setattr(lattice, "_shift_add", counted_shift_add)
    dp = dp_for_form(surd9, np.zeros(9), 200.0, 10 ** 10)
    widths = [hi - lo + 1 for lo, hi in dp.m_ranges]
    assert [rows for rows, _ in adds] == widths
    assert all(n <= math.ceil(rows / 2) for rows, n in adds)
    assert dp.work == dp.table.size * sum(widths)
    with pytest.raises(BudgetExceededError) as err:
        dp_for_form(surd9, np.zeros(9), 200.0, dp.work - 1)
    assert err.value.required == dp.work


def test_count_build_keeps_no_float_table(surd9):
    """A count build and its distribution peak below two tables, the cap
    mask and the distribution's three arrays, and the build alone within a
    quarter table of two tables and the mask: no per-cell float table and
    no table-sized temporary such as a pre-doubled source.  The
    distribution's values are the full table's cell values read at its
    cells, bit for bit."""
    tracemalloc.start()
    try:
        dp = dp_for_form(surd9, np.zeros(9), 400.0, 10 ** 10)
        build_peak = tracemalloc.get_traced_memory()[1]
        dist = dp.distribution
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = 2 * dp.table.nbytes + dp.table.size
    assert build_peak < tables + dp.table.nbytes // 4
    assert peak < tables + dist.values.nbytes + dist.masses.nbytes + dist.cells.nbytes
    full = _full_cell_values(dp.table.shape, dp.basis, dp.scales, dp.offsets)
    assert full.reshape(-1)[dist.cells].tobytes() == dist.values.tobytes()


# ---------------------------------------------------------------------------
# the one value distribution and its dispatch
# ---------------------------------------------------------------------------


def _float_clone(form):
    return build_form(form.matrix * 1.0, normalize=False)


def test_box_scan_takes_over_from_an_oversized_dp():
    """A box above the DP threshold whose DP work exceeds the budget is
    scanned instead, as its float clone always was."""
    exact = diagonal_form([ExactScalar(1), -SQRT2, -ExactScalar.sqrt(3)])
    clone = _float_clone(exact)
    r, window = 64, (-10.0, 10.0)       # 129^3 > 2e6 box points
    dist = value_distribution(exact, np.zeros(3), window[1], 10 ** 8, box=r,
                              floor=window[0])
    assert dist.method == "box-scan" and dist.work == 129 ** 3
    got = enumerate_values(exact, [0, 0, 0], r, window)
    want = enumerate_values(clone, [0, 0, 0], r, window)
    assert got.values.tolist() == want.values.tolist()
    assert got.multiplicities == want.multiplicities
    # neither fits: the DP's refusal stands
    with pytest.raises(BudgetExceededError):
        enumerate_values(exact, [0, 0, 0], r, window, budget=10 ** 6)


def test_dp_distribution_is_cached_without_a_cycle(identity2):
    dp = dp_for_form(identity2, np.zeros(2), 30.0, 10 ** 6)
    assert dp.distribution is dp.distribution
    assert dp_count_le(dp, 25.0) == 81
    ref = weakref.ref(dp)
    dist = dp.distribution
    del dp
    assert ref() is None       # freed by reference counting alone
    assert dist.mass_le(25.0) == 81


def test_border_rule_exact_and_float():
    """Q = (7/3) (x - 1/4)^2 attains s = 1701/16 exactly at x = 7, where the
    float value rounds above s: the DP settles the tie exactly, enumeration
    keeps the float predicate."""
    form = diagonal_form([ExactScalar(Fraction(7, 3))])
    s = 1701 / 16
    dp = value_distribution(form, np.array([0.25]), s, 10 ** 6)
    en = value_distribution(_float_clone(form), np.array([0.25]), s, 10 ** 6)
    assert (dp.method, en.method) == ("diagonal-dp", "enumeration")
    assert (dp.mass_le(s), en.mass_le(s)) == (14, 13)
    # a plain count's unit masses: a read-only view that takes no memory
    assert en.masses.strides == (0,) and not en.masses.flags.writeable
    assert dp.window(100.0, s)[1].tolist() == [1]
    assert en.window(100.0, s)[1].tolist() == []


def _random_diagonal(coords, signed):
    diag = [ExactScalar(terms={b: Fraction(num, den) * (-1 if signed and neg else 1)})
            for num, den, b, _, neg in coords]
    shift = [a4 / 4 for *_, a4, _ in coords]
    return diagonal_form(diag), shift


# q_j = (num/den) sqrt(b) with b in {1, 2}, a_j in Z/4, optionally negated;
# small enough that an unpruned indefinite DP stays within 10^8 cell-updates
_COORDS = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 2), st.sampled_from([1, 2]),
                             st.integers(0, 3), st.booleans()),
                   min_size=1, max_size=4)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_COORDS, st.integers(1, 2), st.floats(-15.0, 15.0), st.floats(0.5, 15.0))
def test_dp_window_matches_box_scan_of_float_clone(coords, r, alpha, width):
    """Random exact diagonal forms (either sign, surd entries) with shifts in
    Z/4: the DP window and the float clone's box scan agree on every value
    more than MERGE_RTOL from the window ends."""
    form, shift = _random_diagonal(coords, signed=True)
    window = (alpha, alpha + width)
    dp = dp_for_form(form, np.array(shift), window[1], 10 ** 8,
                     m_ranges=[(-r, r)] * form.dim)
    box = enumerate_values(_float_clone(form), shift, r, window)
    tol = MERGE_RTOL * max(1.0, abs(window[0]), abs(window[1]))

    def inner(values, mults):
        keep = [i for i, v in enumerate(values)
                if min(abs(v - window[0]), abs(v - window[1])) > tol]
        return [values[i] for i in keep], [mults[i] for i in keep]

    got_v, got_m = inner(*dp.distribution.spectrum(*window))
    want_v, want_m = inner(box.values, box.multiplicities)
    assert got_m == want_m
    assert np.allclose(got_v, want_v, rtol=1e-12, atol=1e-12)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_COORDS, st.floats(0.5, 40.0))
def test_weighted_dp_mass_matches_enumeration_of_float_clone(coords, s):
    """The weighted `mass_le` of the DP equals the weighted enumeration sum of
    the float clone, away from values attained within MERGE_RTOL of s."""
    form, shift = _random_diagonal(coords, signed=False)
    weights = build_scheme(3, 1, 2).mu.weights
    dp = value_distribution(form, np.array(shift), s, 10 ** 8, weights=weights)
    en = value_distribution(_float_clone(form), np.array(shift), s, 10 ** 8,
                            weights=weights)
    assert (dp.method, en.method) == ("diagonal-dp", "enumeration")
    assume(not np.any(np.abs(dp.values - s) <= MERGE_RTOL * max(1.0, s)))
    assert dp.mass_le(s) == pytest.approx(en.mass_le(s), rel=0, abs=1e-12)
