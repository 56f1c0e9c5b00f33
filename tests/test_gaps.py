import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import brute_values
from qflab.forms import build_form, diagonal_form
from qflab.gaps import max_gap_indefinite, max_gap_positive, oppenheim_scan
from qflab.scalars import ExactScalar


def test_four_squares_gaps_all_one():
    I4 = build_form([[1 if i == j else 0 for j in range(4)] for i in range(4)])
    rep = max_gap_positive(I4, [0.0] * 4, 10.0, 50.0)
    assert rep.max_gap == pytest.approx(1.0)
    assert rep.n_values == 51


def test_integer_form_gaps_are_positive_integers():
    I2 = build_form([[1, 0], [0, 1]])
    rep = max_gap_positive(I2, [0.0, 0.0], 5.0, 60.0)
    for lo, hi, gap in rep.successor_sample:
        assert gap == pytest.approx(round(gap))
        assert gap >= 1.0


def test_windowed_gap_decreasing_irrational(surd9):
    gaps = [max_gap_positive(surd9, [0.0] * 9, float(tau), 50.0,
                             budget=10 ** 10).max_gap
            for tau in (100, 400, 1600)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_box_completeness_radius_slack():
    rng = np.random.default_rng(7)
    for _ in range(10):
        diag = [ExactScalar(Fraction(int(rng.integers(1, 5)),
                                     int(rng.integers(1, 3))))
                for _ in range(2)]
        form = diagonal_form(diag)
        tau = float(rng.uniform(5, 20))
        rep = max_gap_positive(form, [0.0, 0.0], tau, 30.0)
        # recompute from a 25% larger box: the window spectrum cannot change
        radius = int(rep.box_radius * 1.25) + 1
        vals = brute_values(form.matrix, [0.0, 0.0], radius,
                            (tau * (1 - 1e-12), tau + 30.0))
        assert len(vals) == rep.n_values
        assert max(np.diff(vals)) == pytest.approx(rep.max_gap, rel=1e-9)


def test_indefinite_gap_examples(hyperbolic2):
    rep = max_gap_indefinite(hyperbolic2, [0, 0], 10.0, (-20.0, 20.0))
    assert rep["d_r"] == pytest.approx(2.0)
    # window (4.5, 9.5] over B(3) holds exactly {5, 8, 9}
    tiny = max_gap_indefinite(hyperbolic2, [0, 0], 3.0, (4.5, 9.5))
    assert tiny["d_r"] == pytest.approx(3.0)
    assert tiny["spectrum_size"] == 3


def test_indefinite_gap_decreasing_surd():
    form = diagonal_form([ExactScalar(1), -ExactScalar.sqrt(2)])
    ds = [max_gap_indefinite(form, [0, 0], float(r), (-10.0, 10.0))["d_r"]
          for r in (10, 20, 40)]
    assert ds[0] > ds[1] > ds[2]


def test_indefinite_gap_monotone_in_r(hyperbolic2):
    form = diagonal_form([ExactScalar(1), -ExactScalar.sqrt(3)])
    ds = [max_gap_indefinite(form, [0, 0], float(r), (-8.0, 8.0))["d_r"]
          for r in (6, 9, 14, 21)]
    assert all(b <= a + 1e-12 for a, b in zip(ds, ds[1:]))


def test_insufficient_values(hyperbolic2):
    with pytest.raises(ValueError, match="insufficient"):
        max_gap_indefinite(hyperbolic2, [0, 0], 1.0, (0.4, 0.6))


def test_oppenheim_scan_finds_witness():
    form = diagonal_form([ExactScalar(1), -ExactScalar.sqrt(2)])
    # |44^2 - sqrt(2) 37^2| ~ 0.0584 is the smallest nonzero value up to r=50
    rep = oppenheim_scan(form, [0, 0], (-0.1, 0.1), [10, 30, 50])
    assert rep["found"] and rep["r"] == 50.0
    assert abs(rep["value"]) == pytest.approx(abs(44 ** 2 - math.sqrt(2) * 37 ** 2))
    assert sorted(np.abs(rep["witness"])) == [37, 44]


def test_oppenheim_scan_immediate_hit():
    form = diagonal_form([ExactScalar(1), -ExactScalar.sqrt(2)])
    # target contains Q[e_1] = 1
    rep = oppenheim_scan(form, [0, 0], (0.9, 1.1), [1, 5])
    assert rep["found"] and rep["r"] == 1.0


def test_oppenheim_scan_exhaustion_on_integer_form(hyperbolic2):
    rep = oppenheim_scan(hyperbolic2, [0, 0], (0.1, 0.9), [5, 10, 20])
    assert not rep["found"]
    assert rep["schedule_tried"] == [5.0, 10.0, 20.0]


def test_oppenheim_scan_rejects_negative_radius(hyperbolic2):
    with pytest.raises(ValueError):
        oppenheim_scan(hyperbolic2, [0, 0], (0.5, 1.5), [-3])


@pytest.mark.parametrize("r", [math.inf, math.nan])
def test_oppenheim_scan_rejects_non_finite_radii(hyperbolic2, r):
    with pytest.raises(ValueError, match=r"r must be finite and >= 0"):
        oppenheim_scan(hyperbolic2, [0, 0], (0.5, 1.5), [r])
