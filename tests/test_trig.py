import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qflab import trig
from qflab.errors import BudgetExceededError
from qflab.forms import build_form, diagonal_form
from qflab.scalars import ExactScalar
from qflab.smoothing import build_scheme, fhat_mu
from qflab.util import golden_max
from qflab.trig import (check_basic_inequality, check_lemma64,
                        convolve_weights, default_t_grid, f_sum,
                        gamma_estimate, mm, phi, phi_factorized_batch,
                        phi_profile, phi_symmetrized, phi_symmetrized_batch,
                        phi_symmetrized_grid, phi_weights, rho_of_s,
                        sup_phi_profile)

R2 = ExactScalar.sqrt(2)
D2 = diagonal_form([ExactScalar(1), R2])
# repeated diagonal entries, so the engines' dedupe is exercised
D3_REPEAT = diagonal_form([ExactScalar(1), R2, ExactScalar(1)])


def test_convolve_weights_examples():
    w = convolve_weights((1,) * 3)
    assert w.numerators.tolist() == [1, 3, 6, 7, 6, 3, 1]
    assert w.denominator == 27
    w0 = convolve_weights((0,) * 5)
    assert w0.weights.tolist() == [1.0]
    w1 = convolve_weights((2,))
    assert np.allclose(w1.weights, 0.2)


def test_mixed_half_widths_and_the_fold():
    w = convolve_weights((2, 1))          # the smoothing measure's shape
    assert w.numerators.tolist() == [1, 2, 3, 3, 3, 2, 1]
    assert (w.half_support, w.denominator) == (3, 15)
    assert w.folded().tolist() == [3 / 15, 6 / 15, 4 / 15, 2 / 15]
    for bad in ((), (1, -1)):
        with pytest.raises(ValueError, match="half-width"):
            convolve_weights(bad)


def test_phi_weights_refuse_negative_s():
    assert phi_weights(0.5).numerators.tolist() == [1]
    I2 = build_form([[1, 0], [0, 1]])
    for call in (lambda: phi_weights(-5), lambda: phi(I2, [0, 0], 1, -5)):
        with pytest.raises(ValueError, match="s must be >= 0"):
            call()


def test_weight_invariants():
    for n, fold in [(3, 3), (5, 2), (10, 3), (4, 7)]:
        w = convolve_weights((n,) * fold)
        assert abs(w.weights.sum() - 1.0) < 1e-12
        assert np.allclose(w.weights, w.weights[::-1])          # even
        assert np.argmax(w.weights) == len(w.weights) // 2      # peak at 0
        assert np.all(np.diff(w.weights[:len(w.weights) // 2 + 1]) >= 0)


def test_phi_normalization():
    forms = [build_form([[1]]), diagonal_form([ExactScalar(1), ExactScalar.sqrt(2)])]
    for f in forms:
        assert phi(f, [0.0] * f.dim, 0.0, 50.0) == pytest.approx(1.0, abs=1e-12)


def test_phi_integer_form_2pi(identity9):
    assert phi(identity9, [0.0] * 9, 2 * math.pi, 100.0) == pytest.approx(1.0, abs=1e-9)


def test_phi_factorized_matches_direct():
    r2 = diagonal_form([ExactScalar.sqrt(2)])
    d = phi(r2, [0.0], 1.0, 9.0, mode="direct")
    f = phi(r2, [0.0], 1.0, 9.0, mode="factorized")
    assert abs(d - f) < 1e-12
    rng = np.random.default_rng(4)
    for _ in range(100):
        dd = int(rng.integers(1, 5))
        diag = [ExactScalar(1) + ExactScalar.sqrt(int(rng.integers(2, 6))) *
                Fraction(int(rng.integers(0, 3)), 4) for _ in range(dd)]
        form = diagonal_form(diag)
        a = rng.uniform(-1, 1, size=dd)
        t = float(rng.uniform(0.05, 5))
        s = float(rng.integers(4, 30))
        assert phi(form, a, t, s, mode="direct") == pytest.approx(
            phi(form, a, t, s, mode="factorized"), abs=1e-10)


def test_phi_mc_within_stderr():
    rng = np.random.default_rng(9)
    hits = 0
    for i in range(50):
        d = int(rng.integers(2, 4))
        mat = rng.normal(size=(d, d))
        form = build_form(mat @ mat.T + np.eye(d), normalize=False)
        a = rng.uniform(-1, 1, size=d)
        t = float(rng.uniform(0.1, 3))
        direct = phi(form, a, t, 9.0, mode="direct")
        est, se = phi(form, a, t, 9.0, mode="mc", samples=40000, seed=50 + i)
        # modulus bias of the complex mean is O(stderr), covered by the slack
        hits += abs(est - direct) <= 4 * se + 2e-3
    assert hits >= 48


def test_phi_even_in_t():
    form = diagonal_form([ExactScalar(1), ExactScalar.sqrt(3)])
    for t in (0.3, 1.7, 2.9):
        assert phi(form, [0.2, 0.7], t, 25.0) == pytest.approx(
            phi(form, [0.2, 0.7], -t, 25.0), abs=1e-12)


def test_phi_budget():
    form = build_form(np.eye(3) + 0.1 * np.ones((3, 3)))
    with pytest.raises(BudgetExceededError):
        phi(form, [0.0] * 3, 1.0, 400.0, mode="direct", budget=100)


def test_f_sum_examples():
    r2 = diagonal_form([ExactScalar.sqrt(2)])
    assert f_sum(r2, [0.0], 0.0, 9.0, 1) == pytest.approx(1.0, abs=1e-12)
    # k = 1 and zero linear part reproduces a phi-like weighted sum
    I1 = build_form([[1]])
    assert f_sum(I1, [0.0], 2 * math.pi, 9.0, 2) == pytest.approx(1.0, abs=1e-9)
    # integer Q, integer a: 2 pi periodicity
    I2 = build_form([[1, 0], [0, 1]])
    assert f_sum(I2, [1.0, 2.0], 2 * math.pi, 5.0, 1) == pytest.approx(1.0, abs=1e-9)


def test_f_sum_rejects_unknown_mode():
    nondiag = build_form([[1.0, 0.3], [0.3, 2.0]], normalize=False)
    for form, mode in ((nondiag, "bogus"), (D2, "mc")):
        with pytest.raises(ValueError, match="unknown mode"):
            f_sum(form, [0.1, 0.2], 0.3, 3, 1, mode=mode)


def _factor_loop(qdiag, a, ts, offsets, weights):
    """Per-coordinate product of sum_m w_m e^{i t q (m - a)^2}, one factor
    per coordinate, repeated pairs included."""
    m = np.asarray(offsets, dtype=float)
    out = np.ones(len(ts), dtype=complex)
    for qj, aj in zip(qdiag, a):
        out *= np.array([np.dot(weights, np.exp(1j * t * qj * (m - aj) ** 2))
                         for t in ts])
    return out


def test_factorized_transform_matches_coordinate_loop():
    form = diagonal_form([ExactScalar(1), R2, ExactScalar(1), R2, ExactScalar(3)])
    a = np.array([0.3, -0.2, 0.3, 0.5, 0.3])      # (1, 0.3) appears twice
    qdiag = np.diagonal(form.matrix)
    ts = np.linspace(-2.5, 3.7, 41)
    table = convolve_weights((4,) * 3)
    want = np.abs(_factor_loop(qdiag, a, ts, table.offsets, table.weights))
    got = phi_factorized_batch(qdiag, a, ts, table)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
    assert phi(form, a, float(ts[7]), 16.0, mode="factorized") == pytest.approx(
        want[7], rel=1e-13, abs=1e-13)
    scheme = build_scheme(8, 2, 4)
    want = _factor_loop(qdiag, a, ts, scheme.mu.offsets, scheme.mu.weights)
    assert np.allclose(fhat_mu(form, a, ts, scheme), want, rtol=1e-13, atol=1e-13)
    # f_sum's linear phase becomes a shift of the same transform
    for t in (0.3, 1.7):
        assert f_sum(D3_REPEAT, [0.4, -0.7, 0.4], t, 3, 1) == pytest.approx(
            f_sum(D3_REPEAT, [0.4, -0.7, 0.4], t, 3, 1, mode="direct"),
            rel=1e-12, abs=1e-14)


def test_phi_symmetrized_basics(identity2):
    assert phi_symmetrized(identity2, 0.0, 10.0) == pytest.approx(1.0, abs=1e-12)
    assert phi_symmetrized(identity2, math.pi, 10.0) == pytest.approx(1.0, abs=1e-9)
    # nonnegative real
    for t in np.linspace(0.1, 3.0, 7):
        v = phi_symmetrized(identity2, float(t), 8.0, k=2)
        assert -1e-12 <= v <= 1.0 + 1e-9


def test_symmetrization_inequality():
    rng = np.random.default_rng(21)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        diag = [ExactScalar(1) + ExactScalar.sqrt(2) * Fraction(int(rng.integers(0, 4)), 4)
                for _ in range(d)]
        form = diagonal_form(diag)
        a = rng.uniform(-1, 1, size=d)
        t = float(rng.uniform(0.05, 4))
        r = float(rng.integers(3, 12))
        k = int(rng.integers(1, 3))
        fs = f_sum(form, a, t, r, k)
        ps = phi_symmetrized(form, t, r, k)
        assert fs * fs <= ps + 1e-12


def _phi_sym_bruteforce(mat: np.ndarray, t: float, n: int) -> float:
    """Literal double sum over the symmetrized weights, k = 1."""
    tri = convolve_weights((n,) * 2)
    offs = tri.offsets
    w = tri.weights
    d = mat.shape[0]
    grids = np.meshgrid(*([offs] * d), indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=1)
    wprod = np.ones(X.shape[0])
    for j in range(d):
        wprod *= w[X[:, j] + tri.half_support]
    phases = 2.0 * t * (X @ mat @ X.T)
    return float(wprod @ np.cos(phases) @ wprod)


def test_phi_symmetrized_general_branch_vs_bruteforce():
    mat = np.array([[1.0, 0.3], [0.3, 2.0]])
    form = build_form(mat, normalize=False)
    for t in (0.3, 1.1, 2.7):
        got = phi_symmetrized(form, t, 3.0, k=1)
        want = _phi_sym_bruteforce(form.matrix, t, 3)
        assert got == pytest.approx(want, abs=1e-10)


def _phi_sym_unfolded(qdiag, t: float, n: int, k: int) -> float:
    """Per-coordinate sum over u = -2n..2n of w_u (D_n(2 q t u) / (2n+1))^{2k},
    the kernel written out as its cosine sum."""
    tri = convolve_weights((n,) * 2)
    j = np.arange(-n, n + 1)
    out = 1.0
    for qj in qdiag:
        ratio = np.array([np.sum(np.cos(j * 2.0 * qj * t * u)) / (2 * n + 1)
                          for u in tri.offsets])
        out *= float(np.dot(tri.weights, ratio ** (2 * k)))
    return out


@pytest.mark.parametrize("k", [1, 2])
def test_symmetrized_engine_matches_unfolded_sum(k):
    qdiag = np.diagonal(D3_REPEAT.matrix)         # entry 1 appears twice
    ts = np.array([0.0, 0.3, 0.77, 1.1, 2.05, 2.7, 3.3])
    want = np.array([_phi_sym_unfolded(qdiag, t, 4, k) for t in ts])
    got = phi_symmetrized_batch(D3_REPEAT, ts, 4.5, k)
    assert np.allclose(got, want, rtol=1e-13, atol=0)
    for t, w in zip(ts, want):
        assert phi_symmetrized(D3_REPEAT, float(t), 4.5, k) == pytest.approx(
            w, rel=1e-13, abs=0)


@pytest.mark.parametrize("r,k,match", [(0.9, 1, "r must be >= 1"),
                                       (-2.0, 1, "r must be >= 1"),
                                       (6.0, 0, "k must be >= 1"),
                                       (6.0, -1, "k must be >= 1")])
def test_symmetrized_sums_reject_bad_r_and_k(r, k, match):
    nondiag = build_form([[1.0, 0.3], [0.3, 2.0]], normalize=False)
    with pytest.raises(ValueError, match=match):
        phi_symmetrized_batch(D2, [0.5, 1.0], r, k)
    with pytest.raises(ValueError, match=match):
        phi_symmetrized_grid(D2, 0.5, 0.1, 4, r, k)
    for form in (D2, nondiag):
        with pytest.raises(ValueError, match=match):
            phi_symmetrized(form, 0.5, r, k)


def test_gamma_integer_peak():
    one = build_form([[1]])
    g = gamma_estimate(one, 100.0, 7.0)
    assert g.gamma >= 1 - 1e-6
    assert g.gamma <= 1 + 1e-12


def test_gamma_decay_irrational_d2():
    form = diagonal_form([ExactScalar(1), ExactScalar.sqrt(2)])
    vals = [gamma_estimate(form, float(s), 4.0).gamma for s in (100, 400, 1600)]
    assert vals[0] > vals[1] > vals[2]


def test_gamma_monotone_in_T():
    form = diagonal_form([ExactScalar(1), ExactScalar.sqrt(2)])
    g1 = gamma_estimate(form, 100.0, 2.0, t_res=1e-3)
    g2 = gamma_estimate(form, 100.0, 4.0, t_res=1e-3)
    assert g2.gamma >= g1.gamma - 1e-9


def test_sup_and_gamma_reject_bad_a_res_and_top_k():
    for a_res in (0, -3):
        with pytest.raises(ValueError, match="a_res"):
            sup_phi_profile(D2, 16.0, 1.0, a_res=a_res)
        with pytest.raises(ValueError, match="a_res"):
            gamma_estimate(D2, 16.0, 1.0, a_res=a_res)
    with pytest.raises(ValueError, match="top_k"):
        gamma_estimate(D2, 16.0, 1.0, top_k=0)


def _sup_reference(form, s, ts, a_res):
    """Literal unfolded shift supremum on the alpha grid: per coordinate the
    max over alpha = k / a_res, k < a_res, of
    |sum_{m=-H..H} w_m e^{i t q m^2} e^{-2 pi i alpha m}|, times over coordinates."""
    table = convolve_weights((math.isqrt(int(s)),) * 3)
    m = table.offsets.astype(float)
    shifts = np.exp(-2j * math.pi * np.outer(np.arange(a_res) / a_res, m))
    out = np.ones(len(ts))
    for qj in np.diagonal(form.matrix):
        for i, t in enumerate(ts):
            base = table.weights * np.exp(1j * t * qj * m * m)
            out[i] *= np.max(np.abs(shifts @ base))
    return out


@pytest.mark.parametrize("block", [None, 100])
@pytest.mark.parametrize("a_res", [1, 7, 12])
def test_sup_profile_matches_unfolded_reference(monkeypatch, block, a_res):
    if block is not None:       # several node blocks per coordinate
        monkeypatch.setattr(trig, "SUP_BLOCK", block)
    s, T, t_res = 25.0, 1.5, 7e-3
    ts = default_t_grid(s, T, t_res)
    assert ts[-1] == T and ts[-1] - ts[-2] < t_res     # T is appended
    for form in (D2, D3_REPEAT):
        prof = sup_phi_profile(form, s, T, t_res=t_res, a_res=a_res)
        assert np.array_equal(prof.t, ts)
        want = _sup_reference(form, s, ts, a_res)
        assert np.allclose(prof.values, want, rtol=1e-12, atol=0)


# gamma(s, 4) and t* of the per-coordinate engine this one replaced
# (unfolded shift grid, per-node exp, scalar golden searches)
GAMMA_PINNED = [
    ("surd9", 100.0, 4.272460070337186e-05, 3.6909049396029037),
    ("d2", 100.0, 0.24357612137004223, 3.1453587130020297),
    ("d2", 400.0, 0.1717446114866139, 3.1409797686943963),
]


@pytest.mark.parametrize("name,s,gamma,t_star", GAMMA_PINNED)
def test_gamma_matches_pinned_values(surd9, name, s, gamma, t_star):
    form = surd9 if name == "surd9" else D2
    g = gamma_estimate(form, s, 4.0)
    assert g.gamma == pytest.approx(gamma, rel=1e-9, abs=0)
    assert g.t_star == pytest.approx(t_star, rel=math.sqrt(1e-9), abs=0)
    # the returned shift attains gamma at t*
    assert phi(form, g.a_star, g.t_star, s, mode="factorized") == pytest.approx(
        g.gamma, rel=1e-9, abs=0)


# gamma(s, T) and t* of surd9 on small inputs; the last has one grid node,
# so the golden t-bracket around it has zero width
GAMMA_SURD9 = [
    (16.0, 1.0, 0.0005152038838648337, 0.9090296554565981),
    (9.0, 4.0, 0.004148710266920061, 3.022967180957494),
    (16.0, 0.25, 8.835776541604257e-05, 0.25),
]


@pytest.mark.parametrize("s,T,gamma,t_star", GAMMA_SURD9)
def test_gamma_pinned_on_surd9(surd9, s, T, gamma, t_star):
    g = gamma_estimate(surd9, s, T)
    assert g.gamma == pytest.approx(gamma, rel=1e-9, abs=0)
    assert g.t_star == pytest.approx(t_star, rel=math.sqrt(1e-9), abs=0)


def test_gamma_memory_stays_blocked(surd9):
    """At a_res = 1 and s = 10^4 each refinement call scans 2401 alpha
    samples of 301 terms and polishes up to ~3700 candidates: unblocked, its
    step table would take 12 MB and its candidate rows 35 MB, and one
    32768-node phasor block of the grid 158 MB."""
    tracemalloc.start()
    try:
        gamma_estimate(surd9, 1e4, 4.0, a_res=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_mm_branches():
    s = 100.0
    assert mm(1 / math.sqrt(s), s) == pytest.approx(1 / math.sqrt(s))
    assert mm(2.0, s) == 2.0
    assert mm(0.001, s) == pytest.approx(10.0)
    assert mm(-2.0, s) == 2.0
    with pytest.raises(ValueError):
        mm(0.0, s)


def test_rho_examples():
    assert rho_of_s(100.0, 10.0, 0.0, 9, 0.05) == pytest.approx(0.11)
    assert rho_of_s(100.0, 10.0, 1.0, 9, 0.05) == pytest.approx(100.0 ** -1 + 2.0)
    with pytest.raises(ValueError):
        rho_of_s(100.0, 10.0, 0.5, 8, 0.05)
    with pytest.raises(ValueError):
        rho_of_s(100.0, 10.0, 0.5, 9, 0.2)   # eps >= 1 - 8/d
    with pytest.raises(ValueError):
        rho_of_s(100.0, 0.5, 0.5, 9, 0.05)   # T < 1


def test_basic_inequality_report(surd9):
    rep = check_basic_inequality(surd9, [0.5] * 9, 100.0, n_samples=2000, seed=1)
    assert math.isfinite(rep["max_ratio_pairs"]) and rep["max_ratio_pairs"] > 0
    assert math.isfinite(rep["max_ratio_single"])
    assert rep["lambda_fitted"] >= 1.0
    # ratio automatically <= 1 when envelope >= 1 and q = 1
    one = build_form([[1]])
    r1 = check_basic_inequality(one, [0.0], 100.0, n_samples=500, seed=2,
                                tau_range=(1.0, 8.0), t_range=(0.0, 1.0))
    assert r1["max_ratio_pairs"] <= 1.0 + 1e-9


def test_lemma64_examples():
    rep0 = check_lemma64(5, 2, [0.0, 0.0])
    assert rep0["lhs"] == pytest.approx(1.0)
    assert rep0["rhs"] >= 1.0
    # z = (pi, pi): rhs dominated by the two nearest lattice shifts
    rep_pi = check_lemma64(5, 2, [math.pi, math.pi])
    h0_pi = (1 + 25 * math.pi ** 2) ** -2
    assert rep_pi["rhs"] == pytest.approx((2 * h0_pi) ** 2, rel=0.05)
    assert rep_pi["lhs"] < 1e-4  # Dirichlet kernel at pi is deep in a trough
    # bounded ratio over random z
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(1000):
        z = rng.uniform(-math.pi, math.pi, size=2)
        ratios.append(check_lemma64(4, 2, z)["ratio"])
    assert max(ratios) < 50.0


def test_profile_values_bounded(surd9):
    prof = sup_phi_profile(surd9, 100.0, 2.0, t_res=5e-3)
    assert np.all(prof.values <= 1 + 1e-9)
    assert np.all(prof.values >= 0)
    fixed = phi_profile(surd9, [0.5] * 9, 100.0, 2.0, t_res=5e-3)
    assert np.all(fixed.values <= prof.values + 1e-6)


def test_gamma_refuses_nondiagonal_forms():
    """The shift supremum is computed per coordinate; a non-diagonal form gets
    a plain reason, not a heuristic lower bound reported as gamma."""
    form = build_form(np.array([[1.0, 0.2], [0.2, 1.5]]), normalize=False)
    with pytest.raises(ValueError, match="needs a diagonal form"):
        gamma_estimate(form, 9.0, 2.0)


@pytest.mark.parametrize("t_res", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_profiles_refuse_bad_t_res(surd9, t_res):
    for call in (lambda: phi_profile(surd9, [0] * 9, 100.0, 4.0, t_res=t_res),
                 lambda: sup_phi_profile(surd9, 100.0, 4.0, t_res=t_res),
                 lambda: gamma_estimate(surd9, 100.0, 4.0, t_res=t_res),
                 lambda: default_t_grid(100.0, 4.0, t_res)):
        with pytest.raises(ValueError, match="t_res must be finite and > 0"):
            call()
    for T in (math.inf, math.nan, 0.05):
        with pytest.raises(ValueError, match=r"need s\^\(-1/2\) <= T < inf"):
            phi_profile(surd9, [0] * 9, 100.0, T, t_res=t_res)


def test_profile_at_t_equal_to_s_minus_half_is_one_node():
    for t_res in (None, 1e-3):
        assert default_t_grid(100.0, 0.1, t_res).tolist() == [0.1]
        prof = phi_profile(D2, [0.25, 0.0], 100.0, 0.1, t_res=t_res)
        assert prof.t.tolist() == [0.1]
        assert prof.values[0] == pytest.approx(
            phi(D2, [0.25, 0.0], 0.1, 100.0), abs=1e-15)


def _sym_coefficients_oracle(n, k):
    """X_v over v >= 0 from every signed (u, l) pair in Fractions, unfolded."""
    w, d = convolve_weights((n, n)), convolve_weights((n,) * (2 * k))
    den = w.denominator * d.denominator
    X = [Fraction(0)] * (4 * k * n * n + 1)
    for u, wu in zip(w.offsets, w.numerators):
        for l, dl in zip(d.offsets, d.numerators):
            X[abs(int(u) * int(l))] += Fraction(int(wu) * int(dl), den)
    return X


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_sym_coefficients_are_exact(n, k):
    """Every X_v is the exact sum over u l = +-v rounded once: nonnegative,
    summing to 1 (phi_sym(0) = 1), and the u = 0 column, where every u l is
    0, lands on X_0 in full."""
    exact = _sym_coefficients_oracle(n, k)
    assert sum(exact) == 1 and min(exact) >= 0
    X = trig._sym_coefficients(n, k)
    assert X.tolist() == [float(x) for x in exact]
    assert math.fsum(X) == pytest.approx(1.0, abs=1e-15)
    # the expansion is the kernel: sum_v X_v cos(z v) = sum_u w_u g(z u)
    z = np.array([0.0, 0.3, 1.7, 2.9])
    cosines = np.cos(np.outer(z, np.arange(len(X)))) @ X
    assert np.allclose(cosines, trig.symmetrized_transform(np.array([0.5]), z, n, k),
                       rtol=0, atol=1e-13)


# node counts relative to a block of `block` nodes: one and two nodes, fewer
# than a block, block multiples +- 1
_EDGES = ("one", "two", "few", "block-1", "block", "block+1", "2block-1", "2block+1")


def _edge_nodes(edge, block):
    return max(1, {"one": 1, "two": 2, "few": max(1, block // 3), "block-1": block - 1,
                   "block": block, "block+1": block + 1, "2block-1": 2 * block - 1,
                   "2block+1": 2 * block + 1}[edge])


_QS = st.lists(st.sampled_from([1.0, math.sqrt(2), 0.75, math.pi / 2]),
               min_size=1, max_size=4)
_SHIFTS = st.sampled_from([0.0, 0.25, math.sqrt(3) - 1])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(qs=_QS, data=st.data(), s=st.integers(1, 1600), edge=st.sampled_from(_EDGES),
       frac=st.floats(0.0, 1.0))
def test_fixed_shift_grid_matches_the_direct_transform(qs, data, s, edge, frac):
    """Seeded phasors against factorized_transform, per coordinate factor
    and for the profile, tail node included, within 1e-11 per factor."""
    a = np.array([data.draw(_SHIFTS) for _ in qs])
    table = phi_weights(s)
    n = _edge_nodes(edge, trig.SUP_BLOCK // len(table.weights))
    t0 = 1 / math.sqrt(s)
    T = t0 + frac * (8.0 - t0)
    step = (T - t0) / max(n - 1, 1)
    ts = t0 + step * np.arange(n)
    for qj, aj in zip(qs, a):
        got = trig.phi_factorized_grid(np.array([qj]), np.array([aj]), t0, step, n,
                                       table)
        want = phi_factorized_batch(np.array([qj]), np.array([aj]), ts, table)
        assert np.max(np.abs(got - want)) <= 1e-11
    form = build_form(np.diag(qs), normalize=False)
    if T > t0:
        prof = phi_profile(form, a, s, T, t_res=(T - t0) / (n - 0.5))
        assert len(prof.t) == n + 1 and prof.t[-1] == T        # the tail node
        want = phi_factorized_batch(np.array(qs), a, prof.t, table)
        assert np.max(np.abs(prof.values - want)) <= 1e-11 * len(qs)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(qs=_QS, n=st.integers(1, 40), k=st.integers(1, 3), edge=st.sampled_from(_EDGES),
       log_step=st.floats(-5.0, 0.0), t0=st.floats(0.0, 4.0))
def test_symmetrized_grid_matches_the_direct_kernel(qs, n, k, edge, log_step, t0):
    """The chirp-z grid against the direct Dirichlet kernel per coordinate
    factor and as a product, within 1e-11 per factor, at every block edge.
    Coarse grids of a few nodes keep the chirp phase cap honest: there the
    chirp phase grows with the expansion's length, not with the grid."""
    X = trig._sym_coefficients(n, k)
    step = 10.0 ** log_step
    # the chirp block: the most M with |w| (L + M)^2 / 2 <= CHIRP_PHASE
    block = max(1, math.isqrt(int(2 * trig.CHIRP_PHASE / (2 * max(qs) * step))) - len(X))
    nodes = min(_edge_nodes(edge, block), 1 + int(8.0 / step))   # t within [0, 8]
    t0 = min(t0, 8.0 - step * (nodes - 1))
    ts = t0 + step * np.arange(nodes)
    # the direct kernel only at block edges and a spread of nodes between
    idx = np.unique(np.clip(np.r_[np.arange(3), block + np.arange(-2, 3),
                                  2 * block + np.arange(-2, 3), nodes - np.arange(1, 3),
                                  np.linspace(0, nodes - 1, 40).astype(int)],
                            0, nodes - 1))
    for qj in set(qs):
        got = trig._sym_factor_grid(qj, X, t0, step, nodes, n, k)
        want = trig.symmetrized_transform(np.array([qj]), ts[idx], n, k)
        assert np.max(np.abs(got[idx] - want)) <= 1e-11
    form = build_form(np.diag(qs), normalize=False)
    got = phi_symmetrized_grid(form, t0, step, nodes, n + 0.5, k)
    want = phi_symmetrized_batch(form, ts[idx], n + 0.5, k)
    assert np.max(np.abs(got[idx] - want)) <= 1e-11 * len(qs)


def _refine_oracle(engine, qt):
    """Dense oracle for `_ShiftSup._refine`: each lane's bracket
    [(best - 1) / a_res, (best + 1) / a_res] around its grid maximum scanned at
    4097 points, then a golden search over one spacing on either side of the
    best point."""
    V = engine.c[:, None] * np.exp(1j * np.outer(engine.m ** 2, qt))
    best = np.argmax(np.abs(engine.cos @ V), axis=0)
    lo, hi = (best - 1) / engine.a_res, (best + 1) / engine.a_res

    def value(alpha):
        return np.abs(np.sum(V * np.cos(2 * math.pi * np.outer(engine.m, alpha)),
                             axis=0))

    dense = lo + (hi - lo) * np.linspace(0.0, 1.0, 4097)[:, None]
    vals = np.array([value(row) for row in dense])
    top = dense[np.argmax(vals, axis=0), np.arange(len(qt))]
    h = (hi - lo) / 4096
    _, polished = golden_max(value, np.maximum(top - h, lo), np.minimum(top + h, hi))
    return np.maximum(vals.max(axis=0), polished)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(qs=_QS, s=st.sampled_from([9, 16, 100, 400, 1600]),
       a_res=st.sampled_from([1, 2, 3, 7, 96]), t=st.floats(0.02, 8.0))
def test_refined_shift_sup_reaches_a_dense_oracle(qs, s, a_res, t):
    """The scan-and-Newton refinement is never below the dense oracle by more
    than 1e-12 relative, and phi at the reported shift is the refined value."""
    form = build_form(np.diag(qs), normalize=False)
    engine = trig._ShiftSup.build(form, float(s), a_res)
    _, got = engine._refine(engine.q * t)
    assert np.all(got >= _refine_oracle(engine, engine.q * t) * (1 - 1e-12))
    assert phi(form, engine.shift(t), t, s, mode="factorized") == pytest.approx(
        engine.refined(np.array([t]))[0], rel=1e-12, abs=0)
