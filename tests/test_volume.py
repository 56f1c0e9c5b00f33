import math

import numpy as np
import pytest

from qflab.forms import build_form
from qflab.util import spawn_rngs, worker_chunks
from qflab.volume import (U_GRID_NODES, U_MAX_SLACK, _arranged_eigen,
                          check_lemma82, delta_curve, delta_error,
                          ellipsoid_volume, euclidean_functional,
                          indefinite_limit_formula, indefinite_volume_mc,
                          m0_functional, mc_ellipsoid_volume, mc_mean,
                          sphere_area, sup_norm_functional,
                          weighted_sup_functional)

Q3 = build_form([[1, 0, 0], [0, -1, 0], [0, 0, -1]], normalize=False)
HAND_LIMIT = 2 * math.pi * 0.2  # hand evaluation for Q3, I0=[0,1], I=[-0.1,0.1]


def test_ellipsoid_volume_examples(identity2):
    assert ellipsoid_volume(identity2, 1.0) == pytest.approx(math.pi)
    D = build_form([[4, 0], [0, 9]], normalize=False)
    assert ellipsoid_volume(D, 1.0) == pytest.approx(math.pi / 6)
    # scaling s^{d/2}
    for s in (0.5, 2.0, 9.0):
        assert (ellipsoid_volume(identity2, s) / ellipsoid_volume(identity2, 1.0)
                == pytest.approx(s))


def test_ellipsoid_volume_rejects_indefinite(hyperbolic2):
    with pytest.raises(ValueError, match="not elliptic"):
        ellipsoid_volume(hyperbolic2, 1.0)


def test_delta_error_examples(identity2):
    assert delta_error(identity2, [0, 0], 25.0) == pytest.approx(
        abs(81 - 25 * math.pi) / (25 * math.pi))
    one = build_form([[1]])
    assert delta_error(one, [0.0], 1.0) == pytest.approx(0.5)
    # invariance under integer shifts
    assert delta_error(identity2, [0.3, -1.7], 30.0) == pytest.approx(
        delta_error(identity2, [0.3, 0.3], 30.0))


@pytest.mark.parametrize("s_list", [[0.0, 25.0], [25.0, -1.0]])
def test_delta_curve_rejects_nonpositive_s(identity2, s_list):
    # s = 0 used to divide by the zero volume
    with pytest.raises(ValueError, match="s must be > 0"):
        delta_curve(identity2, [0, 0], s_list)


def test_volume_mc_cross_check():
    rng = np.random.default_rng(2)
    for i in range(10):
        d = int(rng.integers(2, 6))
        A = rng.normal(size=(d, d))
        form = build_form(A @ A.T + np.eye(d), normalize=True)
        s = float(rng.uniform(4, 30))
        est = mc_ellipsoid_volume(form, s, samples=200000, seed=100 + i)
        assert est.within(ellipsoid_volume(form, s), n_sigma=3.5)


def test_limit_formula_hand_value():
    M = sup_norm_functional()
    lim = indefinite_limit_formula(Q3, M, (0.0, 1.0), (-0.1, 0.1),
                                   samples=20000, seed=1)
    assert abs(lim.mean - HAND_LIMIT) <= max(3 * lim.stderr, 1e-3)


def test_limit_formula_linear_in_interval():
    M = sup_norm_functional()
    a = indefinite_limit_formula(Q3, M, (0.0, 1.0), (-0.1, 0.1),
                                 samples=5000, seed=3)
    b = indefinite_limit_formula(Q3, M, (0.0, 1.0), (-0.2, 0.2),
                                 samples=5000, seed=3)
    assert b.mean == pytest.approx(2 * a.mean, rel=1e-9)


def test_limit_formula_det_scaling():
    M = sup_norm_functional()
    base = indefinite_limit_formula(Q3, M, (0.0, 1.0), (-0.1, 0.1),
                                    samples=20000, seed=4)
    scaled_form = build_form(4.0 * Q3.matrix, normalize=False)
    # I scales with the form so the indicator geometry is unchanged
    scaled = indefinite_limit_formula(scaled_form, M, (0.0, 1.0),
                                      (-0.4, 0.4), samples=20000, seed=4)
    # det factor 2^{-d} = 1/8, interval factor 4, M0 rescales u by 2:
    # overall u-substitution gives ratio (beta-alpha)*|det|^{-1/2}*2^{d-2}
    assert scaled.mean == pytest.approx(base.mean, rel=0.05)


def _dense_limit_formula(form, M, I0, I, samples, seed):
    """The limit formula with a dense per-sample indicator over the u-grid."""
    d = form.dim
    w, v, (alpha, beta) = _arranged_eigen(form, I)
    n = int(np.sum(w > 0))
    scale = 1.0 / np.sqrt(np.abs(w))
    lo0, hi0 = I0
    u_max = M.sandwich_m * math.sqrt(d * form.q) * hi0 * U_MAX_SLACK
    us = np.linspace(0.0, u_max, U_GRID_NODES)
    du = us[1] - us[0]
    trap_w = np.full(U_GRID_NODES, du)
    trap_w[0] = trap_w[-1] = du / 2
    upow = us ** (d - 3) if d != 3 else np.ones_like(us)
    area = sphere_area(n) * sphere_area(d - n)
    prefactor = (beta - alpha) / 2.0 / math.sqrt(abs(float(np.prod(form.eigenvalues))))

    def sampler(rng, n_samp):
        g1 = rng.standard_normal((n_samp, n))
        g2 = rng.standard_normal((n_samp, d - n))
        g1 /= np.linalg.norm(g1, axis=1, keepdims=True)
        g2 /= np.linalg.norm(g2, axis=1, keepdims=True)
        eta = np.concatenate([g1, g2], axis=1)
        c = M((eta * scale) @ v.T)
        out = np.empty(n_samp)
        chunk = max(1, (2 ** 22) // U_GRID_NODES)
        for k in range(0, n_samp, chunk):
            cc = c[k:k + chunk, None]
            ind = (us[None, :] * cc >= lo0) & (us[None, :] * cc <= hi0)
            out[k:k + chunk] = ind @ (trap_w * upow)
        return out * area * prefactor

    return mc_mean(sampler, samples, seed, 1)


Q5 = build_form(np.diag([1.0, 2.0, -1.0, -3.0, -0.5]), normalize=False)


@pytest.mark.parametrize("form,functional,I0", [
    (Q3, "sup", (0.0, 1.0)), (Q3, "sup", (0.5, 1.0)),
    (Q5, "sup", (0.0, 1.0)), (Q5, "euclidean", (0.5, 1.0))],
    ids=["q3", "q3-lo0", "q5", "q5-euclidean-lo0"])
def test_limit_formula_matches_dense_indicator(form, functional, I0):
    M = (sup_norm_functional() if functional == "sup"
         else euclidean_functional(form.dim))
    got = indefinite_limit_formula(form, M, I0, (-0.1, 0.2), samples=20000, seed=2)
    ref = _dense_limit_formula(form, M, I0, (-0.1, 0.2), 20000, 2)
    assert got.mean == pytest.approx(ref.mean, rel=1e-12, abs=0)
    assert got.stderr == pytest.approx(ref.stderr, rel=1e-9, abs=1e-15 * ref.mean)


def test_limit_formula_rejects_definite(identity2):
    with pytest.raises(ValueError, match="not indefinite"):
        indefinite_limit_formula(identity2, sup_norm_functional(),
                                 (0.0, 1.0), (-0.1, 0.1), samples=2000)


def test_mc_volume_null_interval():
    M = sup_norm_functional()
    est = indefinite_volume_mc(Q3, [0, 0, 0], M, 8.0, (0.0, 1.0), (0.1, 0.1),
                               samples=2000, seed=0)
    assert est.mean == 0.0 and est.stderr == 0.0


def test_mc_stderr_scaling():
    M = sup_norm_functional()
    e1 = indefinite_volume_mc(Q3, [0, 0, 0], M, 16.0, (0.0, 1.0), (-0.5, 0.5),
                              samples=10 ** 5, seed=5)
    e2 = indefinite_volume_mc(Q3, [0, 0, 0], M, 16.0, (0.0, 1.0), (-0.5, 0.5),
                              samples=2 * 10 ** 5, seed=6)
    assert e2.stderr == pytest.approx(e1.stderr / math.sqrt(2), rel=0.2)


def _offset_uniform(rng, n):
    return 1e9 + rng.uniform(0, 1, n)


def _normal(rng, n):
    return rng.normal(5.0, 2.0, n)


def _phasor(rng, n):
    return np.exp(1j * rng.uniform(0, 1, n))


def test_mc_mean_keeps_variance_under_an_offset():
    """One-pass E[x^2] - mean^2 cancels to 0 here; the merged M2 does not."""
    est = mc_mean(_offset_uniform, 100000, 1, 2)
    assert est.stderr == pytest.approx(1 / math.sqrt(12 * 100000), rel=0.02)


@pytest.mark.parametrize("sampler", [_normal, _phasor])
def test_mc_mean_merge_matches_two_pass(sampler):
    n, seed, workers = 30001, 4, 3
    xs = np.concatenate([sampler(rng, cnt) for rng, cnt in
                         zip(spawn_rngs(seed, workers), worker_chunks(n, workers))])
    mean = np.mean(xs)
    stderr = math.sqrt(np.mean(np.abs(xs - mean) ** 2) / n)
    est = mc_mean(sampler, n, seed, workers)
    assert est.samples == n
    assert abs(est.mean - mean) <= 1e-12 * abs(mean)
    assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0)
    # one substream: the mean is the plain sum over the samples
    vals = sampler(spawn_rngs(seed, 1)[0], n)
    assert mc_mean(sampler, n, seed, 1).mean == np.sum(vals) / n


COLUMN_MAPS = (lambda u: u, lambda u: 1e9 + u, lambda u: np.exp(1j * u),
               lambda u: (u < 0.01) * 1.0)


def test_mc_mean_columns_match_one_call_per_column():
    """Columns of one sample, returned as an iterator, get the estimates that
    one single-column call per column gets on the same substreams."""
    n, seed, workers = 30001, 4, 3

    def columns(rng, m):
        u = rng.uniform(0, 1, m)
        return (f(u) for f in COLUMN_MAPS)

    ests = mc_mean(columns, n, seed, workers)
    assert len(ests) == len(COLUMN_MAPS)
    for f, est in zip(COLUMN_MAPS, ests):
        ref = mc_mean(lambda rng, m: f(rng.uniform(0, 1, m)), n, seed, workers)
        assert est.samples == ref.samples == n and est.seed == seed
        assert abs(est.mean - ref.mean) <= 1e-15 * abs(ref.mean)
        assert abs(est.stderr - ref.stderr) <= 1e-15 * ref.stderr


def test_mc_mean_rejects_empty_sample():
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        mc_mean(_normal, 0, 0, 1)


def test_r_convergence_to_limit():
    M = sup_norm_functional()
    lim = indefinite_limit_formula(Q3, M, (0.0, 1.0), (-0.1, 0.1),
                                   samples=50000, seed=7)
    for R in (8.0, 16.0, 32.0, 64.0):
        mc = indefinite_volume_mc(Q3, [0, 0, 0], M, R, (0.0, 1.0),
                                  (-0.1, 0.1), samples=4 * 10 ** 6, seed=8)
        if R == 64.0:
            scaled = mc.mean / R
            sig = math.hypot(mc.stderr / R, lim.stderr)
            assert abs(scaled - lim.mean) <= 3 * sig


def test_lemma82_envelopes():
    rep = check_lemma82(Q3, [0, 0, 0], 32.0, 1.0, (-0.1, 0.1),
                        samples=200000, seed=9)
    assert rep["ratio_upper"] > 0 and math.isfinite(rep["ratio_upper"])
    assert rep["ratio_lower"] is not None and rep["ratio_lower"] > 0
    assert rep["sigma"] == pytest.approx(1.0)  # a = 0: sigma = lambda/m
    # lambda = 0 degenerates everything to zero
    rep0 = check_lemma82(Q3, [0, 0, 0], 32.0, 0.0, (-0.1, 0.1),
                         samples=2000, seed=10)
    assert rep0["volume"].mean == 0.0 and rep0["upper_envelope"] == 0.0


def test_minkowski_sandwich_all_builtins():
    rng = np.random.default_rng(11)
    d = 4
    A = rng.normal(size=(d, d))
    form = build_form(A @ A.T - 3 * np.eye(d), normalize=True)
    if not form.is_indefinite:
        form = build_form(np.diag([1.0, 2.0, -1.0, -2.0]), normalize=True)
    q = form.q
    for M in (sup_norm_functional(), euclidean_functional(d),
              weighted_sup_functional([1.0, 1.5, 2.0, 1.2])):
        m0, _, _ = m0_functional(form, M)
        X = rng.normal(size=(10 ** 4, d))
        vals = m0(X)
        norms = np.linalg.norm(X, axis=1)
        assert np.all(vals >= norms / math.sqrt(d * q) * (1 - 1e-9))
        assert np.all(vals <= M.sandwich_m * norms * (1 + 1e-9))
        # homogeneity of the raw functional
        t = 3.7
        assert np.allclose(M(t * X), t * M(X), rtol=1e-9)
