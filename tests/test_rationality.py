import math
from fractions import Fraction

import numpy as np
import pytest

from qflab.forms import build_form, diagonal_form
from qflab.rationality import (count_H, dirichlet_approx, lll_reduce,
                               rationality_probe, successive_minima,
                               sup_phi_symmetrized)
from qflab.scalars import ExactScalar


def test_lll_reduces_and_tracks_transform():
    rng = np.random.default_rng(1)
    B = rng.integers(-20, 20, size=(4, 4)).astype(float)
    B += np.eye(4) * 40
    red, U = lll_reduce(B)
    assert np.allclose(U @ B, red, atol=1e-8)
    assert abs(abs(np.linalg.det(U.astype(float))) - 1.0) < 1e-6
    assert np.linalg.norm(red[0]) <= np.linalg.norm(B[0])


def test_minima_integer_tq():
    I2 = build_form([[1, 0], [0, 1]])
    res = successive_minima(I2, 1.0, 2.0, mode="exact")
    P = 8.0
    for j in range(2):
        assert res.minima[j] == pytest.approx(1 / P)
    # hard invariant M_1 >= 1/P
    assert res.minima[0] >= (1 / P) * (1 - 1e-9)


def test_minima_reduction_brackets_exact():
    rng = np.random.default_rng(2)
    for _ in range(12):
        d = int(rng.integers(1, 3))   # 2d <= 4 keeps exact mode fast
        A = rng.normal(size=(d, d))
        form = build_form(A @ A.T + np.eye(d), normalize=False)
        t = float(rng.uniform(0.1, 2.0))
        r = float(rng.integers(1, 5))
        ex = successive_minima(form, t, r, mode="exact")
        red = successive_minima(form, t, r, mode="reduction")
        for me, mr in zip(ex.minima, red.minima):
            assert me <= mr * (1 + 1e-9)
            assert mr <= me * red.quality * (1 + 1e-9)
        assert ex.minima[0] >= 1 / ex.P * (1 - 1e-9)
        assert red.minima[0] >= 1 / red.P * (1 - 1e-9)
        # minima nondecreasing, attaining vectors independent
        assert all(b >= a - 1e-12 for a, b in zip(ex.minima, ex.minima[1:]))
        rank = np.linalg.matrix_rank(ex.vectors.astype(float))
        assert rank == 2 * d


def test_minima_exact_refused_above_dim():
    form = build_form(np.eye(5))
    with pytest.raises(ValueError, match="refused"):
        successive_minima(form, 0.5, 2.0, mode="exact")


def test_count_h_examples():
    one = build_form([[1]])
    assert count_H(one, 1e-12, 2.0) == 17
    I2 = build_form([[1, 0], [0, 1]])
    assert count_H(I2, 0.37, 2.0) >= 1
    # even symmetry in t
    for t in (0.2, 0.71, 1.3):
        assert count_H(I2, t, 3.0) == count_H(I2, -t, 3.0)


@pytest.mark.parametrize("r", [0.0, -1.0])
def test_count_h_rejects_nonpositive_radius(r):
    with pytest.raises(ValueError, match="r must be > 0"):
        count_H(build_form([[1, 0], [0, 1]]), 0.5, r)


def test_count_h_vs_minima_bound():
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(50):
        d = int(rng.integers(1, 3))
        A = rng.normal(size=(d, d))
        form = build_form(A @ A.T + np.eye(d), normalize=False)
        t = float(rng.uniform(0.1, 1.5))
        r = float(rng.integers(1, 4))
        cnt = count_H(form, t, r)
        ex = successive_minima(form, t, r, mode="exact")
        prod = math.prod(ex.minima[:d])
        ratios.append(cnt * prod)
    # count_H <= C / (M_1 ... M_d) with a finite fitted C
    assert max(ratios) < 100.0


def test_dirichlet_examples():
    out = dirichlet_approx([0.5], 2)
    assert out["q"] == 2 and out["u"].tolist() == [1] and out["error"] == 0.0
    out2 = dirichlet_approx([math.sqrt(2)], 10)
    assert out2["q"] == 5 and out2["u"].tolist() == [7]
    assert out2["error"] == pytest.approx(abs(math.sqrt(2) - 7 / 5))
    out3 = dirichlet_approx([3.0, -2.0, 5.0], 9)
    assert out3["q"] == 1 and out3["error"] == 0.0


def test_dirichlet_inequality_always_holds():
    rng = np.random.default_rng(4)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        v = rng.uniform(-3, 3, size=d)
        N = int(rng.integers(1, 40))
        out = dirichlet_approx(v, N)
        q, u = out["q"], out["u"]
        assert 1 <= q <= N
        for vs, us in zip(v, u):
            assert abs(vs - us / q) < 1.0 / (q * N ** (1.0 / d))


def test_probe_integer_form(identity2):
    p = rationality_probe(identity2, 0.5, 4.0, [6, 10, 16], t_nodes=128)
    assert p.verdict == "rational-consistent"
    assert p.curve[-1][1] >= 1 - 1e-9


def test_probe_surd_form():
    form = diagonal_form([ExactScalar(1), ExactScalar.sqrt(2)])
    p = rationality_probe(form, 0.5, 4.0, [10, 20, 40], t_nodes=128)
    assert p.verdict == "irrational-consistent"
    vals = [v for _, v in p.curve]
    assert vals[0] > vals[-1]


def test_probe_rational_forms_with_plateau_in_window():
    # denominators <= 2 put the plateau t = pi * M <= 2 pi inside [0.5, 8]
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = int(rng.integers(1, 3))
        diag = [ExactScalar(Fraction(int(rng.integers(1, 5)),
                                     int(rng.integers(1, 3))))
                for _ in range(d)]
        form = diagonal_form(diag)
        p = rationality_probe(form, 0.5, 8.0, [6, 10, 16], t_nodes=128)
        assert p.verdict == "rational-consistent"


def test_probe_surd_forms_batch():
    rng = np.random.default_rng(6)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        diag = [ExactScalar(1)] + [
            ExactScalar(1) + ExactScalar.sqrt(int(rng.choice([2, 3, 5]))) *
            Fraction(int(rng.integers(1, 4)), 4) for _ in range(d - 1)]
        form = diagonal_form(diag)
        p = rationality_probe(form, 0.5, 4.0, [8, 16, 32, 64], t_nodes=128)
        assert p.verdict == "irrational-consistent"


def test_probe_near_integer_rational():
    near = diagonal_form([ExactScalar(1), ExactScalar(1) + Fraction(1, 2 ** 20)])
    p = rationality_probe(near, 0.5, 4.0, [20, 40, 80], t_nodes=256)
    assert p.verdict == "rational-consistent"


def test_probe_validation():
    form = build_form([[1]])
    with pytest.raises(ValueError, match="schedule"):
        rationality_probe(form, 0.5, 4.0, [10, 20])
    with pytest.raises(ValueError, match="increasing"):
        rationality_probe(form, 0.5, 4.0, [10, 10, 20])
    with pytest.raises(ValueError):
        rationality_probe(form, -1.0, 4.0, [10, 20, 40])


# sup_phi_symmetrized of earlier engines in extended precision: a float grid
# over +-u and scalar golden searches (r = 10 and d2), then lane searches
# (r = 20 and 40); values this small carry more relative rounding
SUP_SYM_PINNED = [("surd9", 10.0, 1.1004859371229373e-08, 1e-12),
                  ("surd9", 20.0, 3.334118371848636e-11, 1e-11),
                  ("surd9", 40.0, 1.6530233971032762e-13, 1e-11),
                  ("d2", 20.0, 0.038819674959585326, 1e-12)]


@pytest.mark.parametrize("name,r,value,rel", SUP_SYM_PINNED,
                         ids=[f"{n}-{r}-{v}" for n, r, v, _ in SUP_SYM_PINNED])
def test_sup_phi_symmetrized_matches_pinned_values(surd9, name, r, value, rel):
    form = surd9 if name == "surd9" else diagonal_form(
        [ExactScalar(1), ExactScalar.sqrt(2)])
    assert sup_phi_symmetrized(form, 0.5, 4.0, r) == pytest.approx(
        value, rel=rel, abs=0)


@pytest.mark.parametrize("r", [10.0, 20.0, 40.0])
def test_sup_phi_symmetrized_reaches_the_integer_plateau(r):
    """phi_sym(pi; r) = 1 for the integer form I2.  The kernel must fall
    monotonically away from pi: a dip of 2.5e-11 at 3e-10 from pi (r = 40)
    steers the search to 1 - 3.1e-12, 8e-10 from pi."""
    I2 = build_form([[1, 0], [0, 1]])
    assert sup_phi_symmetrized(I2, 0.5, 4.0, r) == 1.0


def test_probe_rejects_bad_k_and_r(surd9):
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            rationality_probe(surd9, 0.5, 4.0, [10, 20, 40], k=k)
    with pytest.raises(ValueError, match="r must be >= 1"):
        rationality_probe(surd9, 0.5, 4.0, [0.2, 0.5, 0.9])
