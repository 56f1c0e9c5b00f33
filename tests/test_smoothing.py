import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qflab.forms import build_form, diagonal_form
from qflab.lattice import count_ellipsoid, quad_values
from qflab.scalars import ExactScalar
from qflab.smoothing import (CorrectionDensity, SmoothingScheme, build_scheme,
                             density, expansion_residual, f_j, f_mu,
                             f_mu_curve, f_nu, fourier_inversion_check,
                             moments_pi)
from qflab.util import worker_chunks
from qflab.volume import ellipsoid_volume, mc_mean


def test_build_scheme_examples():
    sch = build_scheme(1, 1, 1)
    assert sch.mu.numerators.tolist() == [1, 2, 3, 2, 1]
    assert sch.mu.denominator == 9
    # r = 0: point-mass smoothing, mu = Phi
    sch0 = build_scheme(3, 0, 4)
    assert sch0.mu.numerators.tolist() == [1] * 7
    assert np.allclose(sch0.mu.weights, 1 / 7)


def test_moments_examples():
    assert moments_pi(0, (2,)) == Fraction(1, 12)
    assert moments_pi(1, (4,)) == Fraction(1, 15)
    assert moments_pi(3, (3,)) == 0
    assert moments_pi(5, (2,)) == Fraction(6, 12)
    # cross-coordinate moments factor
    assert moments_pi(1, (2, 4)) == moments_pi(1, (2,)) * moments_pi(1, (4,))


def irwin_hall(x: np.ndarray, n: int) -> np.ndarray:
    """Density of a sum of n uniforms on (-1/2, 1/2), from the truncated-power
    formula: an oracle apart from the spline table behind `d1`."""
    y = np.asarray(x, dtype=float) + n / 2.0
    return sum((-1) ** i * math.comb(n, i) * np.maximum(y - i, 0.0) ** (n - 1)
               for i in range(n + 1)) / math.factorial(n - 1)


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
    for off, w in zip(sch.mu.offsets, sch.mu.weights):
        manual += w * irwin_hall(xs - off, n)
    assert np.allclose(direct, manual, atol=1e-10)


def _exact_d1(scheme, x, order):
    """Sum_m W(m) b_{k+1}^(order)(x - m) in exact rationals at the float x."""
    n = scheme.k + 1
    p = n - 1 - order
    X = Fraction(x)
    total = Fraction(0)
    for off, num in zip(scheme.mu.offsets, scheme.mu.numerators):
        y = X - int(off) + Fraction(n, 2)
        if not 0 < y < n:
            continue
        total += num * sum((-1) ** i * math.comb(n, i) * (y - i) ** p
                           for i in range(n) if y > i)
    return total / (scheme.mu.denominator * math.factorial(p))


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


def _even_compositions(j):
    """Ordered compositions of even j into even parts >= 2."""
    if j == 0:
        yield ()
        return
    for first in range(2, j + 1, 2):
        for rest in _even_compositions(j - first):
            yield (first,) + rest


def _even_multiindices(total, d):
    """Sparse even multi-indices {coord: order} with orders >= 2 summing to total."""
    def rec(remaining, start):
        if remaining == 0:
            yield {}
            return
        for c in range(start, d):
            for o in range(2, remaining + 1, 2):
                for rest in rec(remaining - o, c + 1):
                    yield {c: o, **rest}
    yield from rec(total, 0)


def _product_of_multiindices(eta, d):
    if not eta:
        yield ()
        return
    for head in _even_multiindices(eta[0], d):
        for tail in _product_of_multiindices(eta[1:], d):
            yield (head,) + tail


def _composition_ratio(scheme, j, X):
    """D_j / D by the composition expansion: D_j = sum over compositions eta
    of j into even parts of (-1)^len(eta) prod_i (sum_{|beta| = eta_i}
    m_beta / beta! d^beta) D, with the terms merged per multi-index alpha."""
    d = X.shape[1]
    acc = {}
    for eta in _even_compositions(j):
        for betas in _product_of_multiindices(eta, d):
            coeff = Fraction((-1) ** len(eta))
            alpha = {}
            for beta in betas:
                for c, o in beta.items():
                    coeff *= moments_pi(scheme.k, (o,)) / math.factorial(o)
                    alpha[c] = alpha.get(c, 0) + o
            key = tuple(sorted(alpha.items()))
            acc[key] = acc.get(key, Fraction(0)) + coeff
    base = scheme.d1(X, 0)
    out = np.zeros(X.shape[0])
    for alpha, coeff in sorted(acc.items()):
        if coeff == 0:
            continue
        term = np.full(X.shape[0], float(coeff))
        for c, o in alpha:
            term = term * scheme.d1(X, o)[:, c] / base[:, c]
        out += term
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ratio_matches_composition_expansion(d):
    sch = build_scheme(12, 3, 8)
    X = sch.sample(np.random.default_rng(11), 5000, d)
    got = CorrectionDensity(sch, 2).ratio(X)
    assert np.array_equal(got, _composition_ratio(sch, 2, X))
    for j in (4, 6):
        got = CorrectionDensity(sch, j).ratio(X)
        want = _composition_ratio(sch, j, X)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_ratio_matches_paper_coefficients():
    # D_2/D = -(m2/2) sum_c r_2(x_c) and
    # D_4/D = (-m4/24 + m2^2/4) sum_c r_4(x_c) + (m2^2/4) sum_{c<c'} r_2(x_c) r_2(x_c')
    # with r_o = D1^(o) / D1
    sch = build_scheme(12, 3, 6)
    X = sch.sample(np.random.default_rng(12), 2000, 3)
    m2 = float(moments_pi(sch.k, (2,)))
    m4 = float(moments_pi(sch.k, (4,)))
    base = sch.d1(X, 0)
    r2, r4 = sch.d1(X, 2) / base, sch.d1(X, 4) / base
    want2 = -m2 / 2 * r2.sum(axis=1)
    assert CorrectionDensity(sch, 2).ratio(X) == pytest.approx(want2, rel=1e-12)
    mixed = sum(r2[:, c] * r2[:, e] for c in range(3) for e in range(c + 1, 3))
    want4 = (-m4 / 24 + m2 * m2 / 4) * r4.sum(axis=1) + m2 * m2 / 4 * mixed
    assert CorrectionDensity(sch, 4).ratio(X) == pytest.approx(want4, rel=1e-12)


def test_dj_vanishes_on_core_and_outside():
    sch = build_scheme(20, 1, 6)
    corr = CorrectionDensity(sch, 2)
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
    corr = CorrectionDensity(sch, 2)
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
    assert F_exact * (2 * int(sch.R) + 1) ** 9 == count
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


# (workers, s, f_nu and f_j (j = 2) as (mean, stderr)) on surd9 with
# build_scheme(12, 3, 8), a = 0.1 * 1, 100001 samples and seed 11, compared
# with ==: the draw, the rows it keeps and the sums over them are pinned
NU_PINS = [
    (1, 300.0, (0.0018199818001819982, 0.00013478320740789717),
     (3.9527028381255424e-05, 2.9293953393575415e-06)),
    (1, 700.0, (0.045159548404515956, 0.0006566561687450454),
     (0.000993298344270562, 1.4608172869159124e-05)),
    (3, 300.0, (0.0015899841001589985, 0.00012599365763079032),
     (3.458804070478329e-05, 2.7429061595382763e-06)),
    (3, 700.0, (0.045009549904500956, 0.0006556162024331796),
     (0.0009925893759872133, 1.4605696113467638e-05)),
]


@pytest.mark.parametrize("workers,s,f0,f2", NU_PINS,
                         ids=[f"w{w}-s{s:g}" for w, s, *_ in NU_PINS])
def test_f_nu_and_f_j_are_pinned(surd9, workers, s, f0, f2):
    sch = build_scheme(12, 3, 8)
    a = [0.1] * 9
    e0 = f_nu(surd9, a, s, sch, samples=100001, seed=11, workers=workers)
    e2 = f_j(surd9, a, s, sch, 2, samples=100001, seed=11, workers=workers)
    assert (e0.mean, e0.stderr) == f0
    assert (e2.mean, e2.stderr) == f2


def test_expansion_residual_shares_one_nu_draw(surd9, monkeypatch):
    """F0 and F_2 are f_nu and f_j at the expansion's seed, from one draw per
    substream, and the residual's stderr is that of the column 1 + D_2/D."""
    scheme = build_scheme(4, 1, 8)
    a = [0.25] + [0.0] * 8
    s_grid, n, seed, workers = [150.0, 100.0], 20001, 3, 3
    draws = []
    sample = SmoothingScheme.sample
    monkeypatch.setattr(SmoothingScheme, "sample", lambda self, rng, m, d:
                        draws.append(m) or sample(self, rng, m, d))
    rep = expansion_residual(surd9, a, s_grid, scheme, 3, samples=n, seed=seed,
                             workers=workers, T=1.0)
    assert draws == worker_chunks(n, workers)
    corr = CorrectionDensity(scheme, 2)
    for s, row in zip(s_grid, rep["rows"]):
        assert row["F0"] == f_nu(surd9, a, s, scheme, n, seed, workers)
        assert row["F_j"] == [f_j(surd9, a, s, scheme, 2, n, seed, workers)]

        def total(rng, m):
            X = scheme.sample(rng, m, 9)
            ind = quad_values(surd9.matrix, np.array(a), X) <= s
            col = np.zeros(m)
            col[ind] = 1 + corr.ratio(X[ind])
            return col

        est = mc_mean(total, n, seed, workers)
        assert row["residual_stderr"] == est.stderr
        assert row["residual"] == pytest.approx(float(row["F"]) - est.mean,
                                                rel=1e-12, abs=1e-15)


def test_expansion_residual_memory_does_not_grow_with_the_s_grid(surd9):
    """Columns are reduced one at a time: 12 s-points trace no higher peak than
    one, where a (samples, |s| * terms) matrix would double it."""
    scheme = build_scheme(4, 1, 8)
    peaks = []
    for s_grid in ([150.0], np.linspace(40.0, 150.0, 12).tolist()):
        tracemalloc.start()
        try:
            expansion_residual(surd9, [0.0] * 9, s_grid, scheme, 3,
                               samples=100000, seed=0, T=1.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


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
