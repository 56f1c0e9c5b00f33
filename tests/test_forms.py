import math
from fractions import Fraction

import numpy as np
import pytest

from qflab.forms import (ShiftVector, build_form, classify_rationality,
                         diagonal_form, parse_form_file, shift_array)
from qflab.scalars import ExactScalar


def test_identity_form(identity2):
    assert identity2.q0 == 1.0
    assert identity2.q == 1.0
    assert identity2.signature == (2, 0)
    assert classify_rationality(identity2).kind == "rational"


def test_normalization_example():
    f = build_form([[Fraction(2, 3), 0], [0, Fraction(4, 5)]], normalize=True)
    assert f.exact_diagonal() == [ExactScalar(1), ExactScalar(Fraction(6, 5))]
    assert f.q0 == pytest.approx(1.0)


def test_signature_indefinite(hyperbolic2):
    assert hyperbolic2.signature == (1, 1)
    assert hyperbolic2.is_indefinite and not hyperbolic2.is_positive


def test_degenerate_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        build_form([[1, 1], [1, 1]])


def test_asymmetric_exact_rejected():
    with pytest.raises(ValueError, match="not symmetric"):
        build_form([[1, 2], [3, 1]])


def test_rationality_examples():
    f = build_form([[Fraction(2, 3), 0], [0, Fraction(4, 5)]], normalize=False)
    v = classify_rationality(f)
    assert v.kind == "rational"
    assert v.multiplier == ExactScalar(Fraction(15, 2))

    g = diagonal_form([ExactScalar(1), ExactScalar.sqrt(2)])
    w = classify_rationality(g)
    assert w.kind == "irrational"
    assert w.witness is not None

    h = build_form(np.eye(2) * 1.0)
    assert classify_rationality(h).kind == "unknown"


@pytest.mark.parametrize("entries", [
    [[2, 0], [0, 4]],
    [[Fraction(2, 3), 0], [0, Fraction(4, 5)]],
    [[ExactScalar.sqrt(2) * 3, 0], [0, ExactScalar.sqrt(2) * 5]],
])
def test_normalized_verdict_describes_the_stored_matrix(entries):
    """The multiplier of a normalized exact form makes its own matrix
    integral, and classify_rationality returns the stored verdict."""
    f = build_form(entries, normalize=True)
    assert f.is_exact and f.rationality.kind == "rational"
    M = f.rationality.multiplier
    for i in range(f.dim):
        for j in range(f.dim):
            prod = M * f.exact_entry(i, j)
            assert prod.is_rational and prod.as_fraction().denominator == 1
    assert classify_rationality(f) == f.rationality


def test_rationality_surd_multiple_of_integer_matrix():
    # sqrt(2) * diag(1, 2) is rational in the real-multiple sense: M = 1/sqrt(2)
    g = diagonal_form([ExactScalar.sqrt(2), ExactScalar.sqrt(2) * 2])
    v = classify_rationality(g)
    assert v.kind == "rational"
    assert v.multiplier * ExactScalar.sqrt(2) == ExactScalar(1)


def test_rationality_invariant_under_rational_scaling():
    base = [ExactScalar(1), ExactScalar(Fraction(3, 2)), ExactScalar(2)]
    for c in (Fraction(2), Fraction(-5, 3), Fraction(7, 11)):
        f = diagonal_form(base)
        g = diagonal_form([ExactScalar(c) * e for e in base])
        assert classify_rationality(f).kind == classify_rationality(g).kind


def test_normalization_preserves_ratios_and_verdict(surd9):
    raw = diagonal_form([ExactScalar(2) + ExactScalar.sqrt(2) * Fraction(k, 2)
                         for k in range(9)], normalize=False)
    normed = diagonal_form(raw.exact_diagonal(), normalize=True)
    assert classify_rationality(raw).kind == classify_rationality(normed).kind
    w_raw = np.sort(raw.eigenvalues)
    w_nrm = np.sort(normed.eigenvalues)
    ratios_raw = w_raw / w_raw[0]
    ratios_nrm = w_nrm / w_nrm[0]
    assert np.allclose(ratios_raw, ratios_nrm, rtol=1e-12)
    assert normed.q0 == pytest.approx(1.0, rel=1e-12)


def test_eigen_evaluation_agrees():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(4, 4))
    f = build_form((A + A.T) / 2 + 5 * np.eye(4), normalize=False)
    for _ in range(1000):
        x = rng.normal(size=4)
        v1 = f(x)
        v2 = f.evaluate_eigen(x)
        assert abs(v1 - v2) <= 1e-9 * max(1.0, abs(v1))


def test_shift_reduction():
    sv = ShiftVector.of([0.3, -2.7, 5.0])
    red, m = sv.reduced()
    assert np.all((red >= 0) & (red < 1))
    assert np.allclose(sv.a - m, red)


FORM_FILE = """\
kind: exact
# a 2x2 diagonal form
2/3
0
0
4/5
"""


def test_parse_form_file_exact():
    f = parse_form_file(FORM_FILE)
    assert f.dim == 2
    assert classify_rationality(f).kind == "rational"


def test_parse_form_file_float():
    f = parse_form_file("kind: float\n1.5\n0.0\n0.0\n2.5\n")
    assert f.dim == 2 and not f.is_exact


def test_parse_form_file_errors_carry_location():
    with pytest.raises(ValueError, match="line 1"):
        parse_form_file("1\n0\n0\n1\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_form_file("kind: exact\n1\nnonsense\n0\n1\n")
    with pytest.raises(ValueError, match="square"):
        parse_form_file("kind: exact\n1\n0\n0\n")



_I2 = build_form([[1, 0], [0, 1]])
_IND2 = build_form([[1.0, 0.0], [0.0, -math.sqrt(2)]], normalize=False)
_I9 = build_form([[1 if i == j else 0 for j in range(9)] for i in range(9)])


def _shift_entry_points():
    """Public entry points taking a shift: name -> (form, call of the shift)."""
    from qflab import gaps, lattice, smoothing, trig, volume
    sch = smoothing.build_scheme(2, 1, 6)
    return {
        "count_ellipsoid": (_I2, lambda a: lattice.count_ellipsoid(_I2, a, 4)),
        "count_ellipsoid_grid": (_I2, lambda a: lattice.count_ellipsoid_grid(_I2, a, [4])),
        "count_shell": (_I2, lambda a: lattice.count_shell(_I2, a, 2, 1)),
        "enumerate_values": (_IND2, lambda a: lattice.enumerate_values(
            _IND2, a, 3, (-1, 1))),
        "max_gap_positive": (_I2, lambda a: gaps.max_gap_positive(_I2, a, 4, 3)),
        "max_gap_indefinite": (_IND2, lambda a: gaps.max_gap_indefinite(
            _IND2, a, 3, (-2, 2))),
        "oppenheim_scan": (_IND2, lambda a: gaps.oppenheim_scan(
            _IND2, a, (-0.5, 0.5), [2])),
        "f_mu": (_I2, lambda a: smoothing.f_mu(_I2, a, 4, sch)),
        "f_mu_window": (_I2, lambda a: smoothing.f_mu_window(_I2, a, (1, 4), sch)),
        "f_mu_curve": (_I2, lambda a: smoothing.f_mu_curve(_I2, a, [4], sch)),
        "f_nu": (_I2, lambda a: smoothing.f_nu(_I2, a, 4, sch, samples=100)),
        "f_j": (_I2, lambda a: smoothing.f_j(_I2, a, 4, sch, 2, samples=100)),
        "expansion_residual": (_I9, lambda a: smoothing.expansion_residual(
            _I9, a, [4], sch, 2, samples=100)),
        "fhat_mu": (_I2, lambda a: smoothing.fhat_mu(_I2, a, np.array([0.3]), sch)),
        "fourier_inversion_check": (_I2, lambda a: smoothing.fourier_inversion_check(
            _I2, a, 4, sch, 1.0, t_nodes=8)),
        "phi": (_I2, lambda a: trig.phi(_I2, a, 0.3, 4)),
        "f_sum": (_I2, lambda a: trig.f_sum(_I2, a, 0.3, 2, 1)),
        "phi_profile": (_I2, lambda a: trig.phi_profile(_I2, a, 4, 1)),
        "check_basic_inequality": (_I2, lambda a: trig.check_basic_inequality(
            _I2, a, 4, n_samples=10, probe_points=4)),
        "delta_error": (_I2, lambda a: volume.delta_error(_I2, a, 4)),
        "delta_curve": (_I2, lambda a: volume.delta_curve(_I2, a, [4])),
        "indefinite_volume_mc": (_IND2, lambda a: volume.indefinite_volume_mc(
            _IND2, a, volume.sup_norm_functional(), 2, (0, 1), (-1, 1), samples=1000)),
        "check_lemma82": (_IND2, lambda a: volume.check_lemma82(
            _IND2, a, 2, 1, (-1, 1), samples=1000)),
    }


@pytest.mark.parametrize("bad", ["short", "long", "scalar", "matrix"])
@pytest.mark.parametrize("entry", sorted(_shift_entry_points()))
def test_entry_points_refuse_a_shift_of_the_wrong_shape(entry, bad):
    form, call = _shift_entry_points()[entry]
    d = form.dim
    shift = {"short": [0.5] * (d - 1), "long": [0.5] * (d + 1), "scalar": 0.5,
             "matrix": [[0.5] * d]}[bad]
    with pytest.raises(ValueError, match="shift of shape"):
        call(shift)


def test_shift_array_accepts_the_right_shape():
    assert shift_array(_I2, ShiftVector.of([0.5, 0.25])).tolist() == [0.5, 0.25]
    assert shift_array(_I2, (1, 2)).dtype == float
    # a short shift used to count 4 points here, against 12 for (0.5, 0.5)
    from qflab.lattice import count_ellipsoid
    assert count_ellipsoid(_I2, [0.5, 0.5], 4).count == 12
