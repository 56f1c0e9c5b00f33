import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import brute_count, brute_points, brute_values
from qflab.errors import BudgetExceededError
from qflab.forms import build_form, diagonal_form
from qflab.lattice import (count_ellipsoid, count_shell, dp_for_form,
                           dp_window_values, enumerate_values)
from qflab.scalars import ExactScalar
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
