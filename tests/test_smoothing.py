import math
from fractions import Fraction

import numpy as np
import pytest

from qflab.forms import build_form, diagonal_form
from qflab.lattice import count_ellipsoid
from qflab.scalars import ExactScalar
from qflab.smoothing import (CorrectionDensity, build_scheme, density,
                             dj_terms, f_j, f_mu, f_mu_curve, f_nu,
                             fourier_inversion_check, irwin_hall,
                             moments_pi)
from qflab.volume import ellipsoid_volume


def test_build_scheme_examples():
    sch = build_scheme(1, 1, 1)
    assert sch.numerators.tolist() == [1, 2, 3, 2, 1]
    assert sch.normalizer == 9
    # r = 0: point-mass smoothing, mu = Phi
    sch0 = build_scheme(3, 0, 4)
    assert sch0.numerators.tolist() == [1] * 7
    assert np.allclose(sch0.weights, 1 / 7)


def test_moments_examples():
    assert moments_pi(0, (2,)) == Fraction(1, 12)
    assert moments_pi(1, (4,)) == Fraction(1, 15)
    assert moments_pi(3, (3,)) == 0
    assert moments_pi(5, (2,)) == Fraction(6, 12)
    # cross-coordinate moments factor
    assert moments_pi(1, (2, 4)) == moments_pi(1, (2,)) * moments_pi(1, (4,))


def test_irwin_hall_density():
    xs = np.linspace(-3, 3, 601)
    for n in (2, 4, 7):
        dens = irwin_hall(xs, n)
        assert np.all(dens >= -1e-12)
        # symmetric
        assert np.allclose(dens, dens[::-1], atol=1e-12)


def test_d1_is_cell_convolved_lattice_weights():
    # the continuous factor equals the unit-cell density convolved with the
    # lattice weights, checked pointwise at random x
    sch = build_scheme(6, 2, 3)
    rng = np.random.default_rng(1)
    xs = rng.uniform(-sch.continuous_support - 1, sch.continuous_support + 1,
                     size=1000)
    direct = sch.d1(xs)
    n = sch.k + 1
    manual = np.zeros_like(xs)
    for off, w in zip(sch.offsets, sch.weights):
        manual += w * irwin_hall(xs - off, n)
    assert np.allclose(direct, manual, atol=1e-10)


def _exact_d1(scheme, x, order):
    """Sum_m W(m) b_{k+1}^(order)(x - m) in exact rationals at the float x."""
    n = scheme.k + 1
    p = n - 1 - order
    X = Fraction(x)
    total = Fraction(0)
    for off, num in zip(scheme.offsets, scheme.numerators):
        y = X - int(off) + Fraction(n, 2)
        if not 0 < y < n:
            continue
        total += num * sum((-1) ** i * math.comb(n, i) * (y - i) ** p
                           for i in range(n) if y > i)
    return total / (scheme.normalizer * math.factorial(p))


@pytest.mark.parametrize("k", [6, 8])
def test_d1_matches_exact_rational_evaluation(k):
    sch = build_scheme(12, 3, k)
    sup = sch.continuous_support
    knots = np.arange(-sup, sup + 0.5, 1.0)
    rng = np.random.default_rng(7)
    xs = np.concatenate([knots, [sup, -sup, np.nextafter(sup, 0), 0.0],
                         rng.uniform(-sup - 1, sup + 1, 300 - len(knots) - 4)])
    for order in range(k):
        exact = np.array([float(_exact_d1(sch, x, order)) for x in xs])
        got = sch.d1(xs, order)
        assert np.max(np.abs(got - exact)) <= 1e-14 * np.max(np.abs(exact))


def test_d1_rejects_bad_derivative_order():
    sch = build_scheme(6, 2, 3)
    with pytest.raises(ValueError, match="must be >= 0"):
        sch.d1([0.0, 1.0], -1)
    with pytest.raises(ValueError, match="needs n >= 5"):
        sch.d1([0.0, 1.0], 3)


def test_sample_matches_uniform_draws():
    sch = build_scheme(12, 3, 4)
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    ref = ref_rng.uniform(-sch.R_bar, sch.R_bar, size=(1000, 5))
    for _ in range(sch.k):
        ref += ref_rng.uniform(-sch.r_bar, sch.r_bar, size=(1000, 5))
    assert sch.sample(rng, 1000, 5).tobytes() == ref.tobytes()


@pytest.mark.parametrize("R,r,k", [(12, 3, 8), (40, 5, 10)])
def test_d1_integral_is_one_for_wide_schemes(R, r, k):
    # the truncated Irwin-Hall CDF sum read 1 + 6.1e-7 and 3.74 here
    assert build_scheme(R, r, k).d1_integral() == pytest.approx(1.0, abs=1e-14)


def test_d1_core_and_mass():
    sch = build_scheme(30, 1, 6)
    assert sch.d1_integral() == pytest.approx(1.0, abs=1e-10)
    xs = np.linspace(-sch.continuous_core, sch.continuous_core, 101)
    assert np.allclose(sch.d1(xs), 1 / (2 * sch.R_bar), atol=1e-14)
    beyond = np.array([sch.continuous_support + 0.01, -sch.continuous_support - 0.01])
    assert np.allclose(sch.d1(beyond), 0.0)
    xs2 = np.linspace(-sch.continuous_support, sch.continuous_support, 4001)
    assert np.all(sch.d1(xs2) >= -1e-15)


def test_dj_terms_match_paper_structure():
    # D_2 = -(m2/2) sum_c d2/dx_c^2; for d = 2, k = 4
    terms = dict(dj_terms(2, 2, 4))
    m2 = float(moments_pi(4, (2,)))
    assert set(terms) == {(((0, 2),)), (((1, 2),))}
    for coeff in terms.values():
        assert coeff == pytest.approx(-m2 / 2)
    # D_4 coefficients: -m4/24 + m2^2/4 on 4th, +m2^2/4 on mixed (2,2)
    terms4 = dict(dj_terms(4, 2, 4))
    m4 = float(moments_pi(4, (4,)))
    assert terms4[((0, 4),)] == pytest.approx(-m4 / 24 + m2 * m2 / 4)
    assert terms4[((0, 2), (1, 2))] == pytest.approx(m2 * m2 / 4)


def test_dj_vanishes_on_core_and_outside():
    sch = build_scheme(20, 1, 6)
    corr = CorrectionDensity(sch, 2, 3)
    rng = np.random.default_rng(2)
    core = sch.continuous_core
    X_core = rng.uniform(-core, core, size=(200, 3))
    assert np.max(np.abs(corr(X_core))) < 1e-12
    X_out = rng.uniform(sch.continuous_support + 0.1,
                        sch.continuous_support + 3, size=(200, 3))
    assert np.max(np.abs(corr(X_out))) == 0.0
    # even in each coordinate
    X = rng.uniform(-sch.continuous_support, sch.continuous_support, size=(200, 3))
    flip = X.copy()
    flip[:, 1] *= -1
    assert np.allclose(corr(X), corr(flip), atol=1e-12)


def test_dj_magnitude_envelope():
    # |D_j| <= C r^{-j-d} on its support, C fitted and finite
    sch = build_scheme(12, 2, 6)
    corr = CorrectionDensity(sch, 2, 2)
    rng = np.random.default_rng(3)
    X = rng.uniform(-sch.continuous_support, sch.continuous_support,
                    size=(20000, 2))
    vals = np.abs(corr(X))
    scale = sch.r_bar ** (-2 - 2)
    assert np.max(vals) / scale < 50.0


def test_fj_rejects_bad_order():
    sch = build_scheme(8, 1, 4)
    form = build_form(np.eye(2))
    with pytest.raises(ValueError):
        f_j(form, [0, 0], 5.0, sch, 3)
    with pytest.raises(ValueError):
        f_j(form, [0, 0], 5.0, sch, 4)  # j > k - 2


def test_f_mu_total_mass_and_monotone(identity2):
    sch = build_scheme(6, 1, 3)
    vals = f_mu_curve(identity2, [0.25, 0.0], list(np.linspace(0, 400, 12)),
                      sch)
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)
    assert f_mu(identity2, [0.1, 0.1], -1.0, sch) == 0.0


def test_f_mu_enumeration_matches_dp(identity2):
    sch = build_scheme(5, 1, 2)
    for s in (3.0, 10.0, 30.0):
        dp_val = f_mu(identity2, [0.25, 0.5], s, sch)
        # force the enumeration path with a float-entry clone
        clone = build_form(identity2.matrix * 1.0)
        en_val = f_mu(clone, [0.25, 0.5], s, sch)
        assert dp_val == pytest.approx(en_val, abs=1e-12)
    # the enumeration path sums float weights and cannot honour exact=True,
    # with or without candidates
    for s in (-1.0, 10.0):
        with pytest.raises(ValueError, match="exact=True"):
            f_mu(clone, [0.25, 0.5], s, sch, exact=True)


def test_core_identities(identity9):
    # inside the constant core the lattice F matches the plain count exactly
    # and the corrections vanish
    sch = build_scheme(30, 1, 6)
    s = 200.0
    F_exact = f_mu(identity9, [0.0] * 9, s, sch, exact=True)
    count = count_ellipsoid(identity9, [0.0] * 9, s).count
    assert F_exact * (2 * sch.HR + 1) ** 9 == count
    f2 = f_j(identity9, [0.0] * 9, s, sch, 2, samples=20000, seed=4)
    assert f2.mean == pytest.approx(0.0, abs=max(3 * f2.stderr, 1e-15))
    f0 = f_nu(identity9, [0.0] * 9, s, sch, samples=20000, seed=5)
    # F0 = vol E_s * (2 Rbar)^{-d} exactly in the core; MC sees a tiny value
    expected = ellipsoid_volume(identity9, s) / (2 * sch.R_bar) ** 9
    assert abs(f0.mean - expected) <= 4 * max(f0.stderr, 1e-7)


def test_f0_tracks_volume_in_transition(surd9):
    sch = build_scheme(12, 3, 6)
    f0 = f_nu(surd9, [0.0] * 9, 1000.0, sch, samples=200000, seed=6)
    assert 0.05 < f0.mean < 0.5
    assert f0.stderr < 0.005


def test_fourier_inversion_monotone(identity2):
    sch = build_scheme(8, 2, 4)
    s = 26.5  # generic point, not an attained value
    errs = []
    for T in (10.0, 40.0, 160.0):
        rep = fourier_inversion_check(identity2, [0.0, 0.0], s, sch, T)
        assert rep["within_bound"]
        assert rep["fhat0"] == pytest.approx(1.0 + 0j, abs=1e-12)
        errs.append(rep["error"])
    assert errs[0] > errs[1] > errs[2]


def test_fhat_conjugate_symmetry(identity2):
    from qflab.smoothing import fhat_mu
    sch = build_scheme(8, 2, 4)
    ts = np.array([0.3, 1.2, 2.9])
    plus = fhat_mu(identity2, [0.3, 0.4], ts, sch)
    minus = fhat_mu(identity2, [0.3, 0.4], -ts, sch)
    assert np.allclose(minus, np.conj(plus), atol=1e-13)


def test_expansion_residual_p2_reduces_to_f_minus_f0(surd9):
    from qflab.smoothing import expansion_residual
    scheme = build_scheme(6, 1, 6)
    rep = expansion_residual(surd9, [0.0] * 9, [100.0, 200.0], scheme, 2,
                             samples=50000, seed=1, T=2.0)
    for row in rep["rows"]:
        assert row["F_j"] == []
        assert row["residual"] == pytest.approx(float(row["F"]) - row["F0"].mean)
    assert rep["envelope"] > 0 and math.isfinite(rep["fitted_constant"])


def test_expansion_residual_f_column_is_per_s_f_mu(surd9):
    from qflab.smoothing import expansion_residual
    scheme = build_scheme(6, 1, 6)
    s_grid = [150.0, 100.0, 250.0]
    rep = expansion_residual(surd9, [0.0] * 9, s_grid, scheme, 2,
                             samples=2000, seed=1, T=2.0)
    assert [row["F"] for row in rep["rows"]] == [
        f_mu(surd9, [0.0] * 9, s, scheme) for s in s_grid]


def test_expansion_residual_envelope_is_thm21(surd9):
    from qflab.bounds import error_envelopes
    from qflab.smoothing import expansion_residual
    scheme = build_scheme(6, 1, 6)
    a = [0.25] + [0.0] * 8
    rep = expansion_residual(surd9, a, [100.0], scheme, 2, samples=1000, seed=1,
                             T=2.0, eps=0.1)
    assert rep["envelope"] == error_envelopes(
        "thm21", d=9, q=surd9.q, r=1.0, T=2.0, R=6.0, p=2, a_norm=0.25,
        eps=0.1, gamma=rep["gamma"])


def test_expansion_residual_hypothesis_checks(surd9, identity2):
    from qflab.smoothing import expansion_residual
    scheme = build_scheme(6, 1, 6)
    with pytest.raises(ValueError, match="d >= 9"):
        expansion_residual(identity2, [0.0] * 2, [10.0], scheme, 2)
    with pytest.raises(ValueError, match="k >= 2p"):
        expansion_residual(surd9, [0.0] * 9, [10.0], scheme, 4)  # k=6 < 10
