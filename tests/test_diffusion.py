import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridseek.diffusion import (
    GaussianMixturePrior,
    GuidanceConfig,
    NoiseSchedule,
    ScheduleError,
    ancestral_step,
    gmm_log_density,
    gmm_score,
    gmm_score_hessian,
    guidance_step,
    make_schedule,
    tweedie_denoise,
)
import gridseek.bench
from gridseek.bench import reverse_step
from gridseek.diffusion import _component_log_terms, _step_hvp, _step_terms
from gridseek.env import make_blob_prior
from gridseek.validate import reference_step


def random_prior(rng, dim, k):
    w = rng.uniform(0.2, 1.0, k)
    w /= w.sum()
    return GaussianMixturePrior(
        w, rng.normal(0.0, 2.0, (k, dim)), rng.uniform(0.05, 1.5, k)
    )


# ---------------------------------------------------------------- schedules


def test_single_step_schedule():
    sched = make_schedule(1, 0.1, 0.1)
    assert sched.alpha_bar[0] == pytest.approx(0.9, abs=0)


def test_three_step_cumprod():
    sched = make_schedule(3, 0.1, 0.1)
    np.testing.assert_allclose(sched.alpha_bar, [0.9, 0.81, 0.729], rtol=0, atol=1e-15)


def test_long_linear_schedule_matches_product_loop():
    sched = make_schedule(1000, 1e-4, 0.02)
    acc = 1.0
    for b in sched.beta:
        acc *= 1.0 - b
    assert sched.alpha_bar[-1] == pytest.approx(acc, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4096))
def test_schedule_algebra_property(T):
    sched = make_schedule(T, 1e-4, 0.02)
    assert np.all(sched.alpha == 1.0 - sched.beta)
    recomputed = np.cumprod(1.0 - sched.beta)
    np.testing.assert_allclose(sched.alpha_bar, recomputed, rtol=1e-12, atol=0)
    assert np.all(np.diff(sched.alpha_bar) < 0) or T == 1
    assert np.all(sched.alpha_bar > 0) and np.all(sched.alpha_bar <= 1)
    assert sched.sigma_tilde[0] == 0.0
    assert np.all(sched.sigma_tilde >= 0)


def test_cosine_schedule_valid():
    sched = make_schedule(100, 1e-4, 0.999 - 1e-6, curve="cosine")
    assert np.all(sched.beta > 0) and np.all(sched.beta < 1)
    assert np.all(np.diff(sched.alpha_bar) < 0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(T=0),
        dict(T=5, beta_min=0.0),
        dict(T=5, beta_min=0.3, beta_max=0.2),
        dict(T=5, beta_max=1.0),
        dict(T=5, curve="geometric"),
        dict(T=5, beta_min=1e-300),
        dict(T=5, sigma_mode="prior"),
    ],
)
def test_schedule_rejects_bad_ranges(kwargs):
    with pytest.raises(ScheduleError):
        make_schedule(**{"beta_min": 1e-4, "beta_max": 0.02, **kwargs})


def test_zero_sigma_mode():
    sched = make_schedule(10, sigma_mode="zero")
    assert np.all(sched.sigma_tilde == 0.0)


@pytest.mark.parametrize("curve", ["linear", "cosine"])
@pytest.mark.parametrize("sigma_mode", ["posterior", "zero"])
def test_schedule_derives_the_arrays_it_was_once_handed(curve, sigma_mode):
    T, beta_min, beta_max = 50, 1e-4, 0.3
    if curve == "linear":
        beta = np.linspace(beta_min, beta_max, T)
    else:
        s = 0.008
        f = np.cos((np.arange(T + 1) / T + s) / (1.0 + s) * math.pi / 2.0) ** 2
        beta = np.clip(1.0 - f[1:] / f[:-1], beta_min, beta_max)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    if sigma_mode == "posterior":
        prev = np.concatenate(([1.0], alpha_bar[:-1]))
        sigma_tilde = np.sqrt(beta * (1.0 - prev) / (1.0 - alpha_bar))
    else:
        sigma_tilde = np.zeros(T)
    sched = make_schedule(T, beta_min, beta_max, curve, sigma_mode)
    assert sched.T == T and type(sched.T) is int
    for got, want in ((sched.beta, beta), (sched.alpha, alpha), (sched.alpha_bar, alpha_bar),
                      (sched.sigma_tilde, sigma_tilde)):
        assert np.array_equal(got, want)


def test_schedule_takes_only_beta_and_sigma_mode():
    """Arrays that contradict beta (alpha is not 1 - beta) have nowhere to go."""
    with pytest.raises(TypeError):
        NoiseSchedule(T=2, beta=np.array([0.1, 0.2]), alpha=np.array([0.5, 0.5]),
                      alpha_bar=np.array([0.99, 0.98]), sigma_tilde=np.array([0.0, 3.0]))
    with pytest.raises(TypeError):
        NoiseSchedule(np.array([0.1, 0.2]), alpha=np.array([0.5, 0.5]))


@pytest.mark.parametrize("beta", [np.zeros((2, 2)) + 0.1, np.zeros(0), np.array([0.1, np.nan])],
                         ids=["2-D", "empty", "nan"])
def test_schedule_refuses_a_beta_it_cannot_derive_from(beta):
    with pytest.raises(ScheduleError):
        NoiseSchedule(beta)


# ------------------------------------------------------------------- scores


def test_standard_normal_prior_score_is_negative_x():
    # the marginal of N(0, 1) stays N(0, 1) at every noise level
    prior = GaussianMixturePrior.single([0.0], 1.0)
    sched = make_schedule(50)
    x = np.array([1.7])
    for tau in (1, 25, 50):
        np.testing.assert_allclose(gmm_score(x, tau, prior, sched), -x, atol=1e-12)


def test_point_mass_prior_score():
    mu = 0.8
    prior = GaussianMixturePrior.single([mu], 0.0)
    sched = make_schedule(20)
    tau = 7
    abar = sched.alpha_bar[tau - 1]
    x = np.array([-0.3])
    expected = -(x - math.sqrt(abar) * mu) / (1.0 - abar)
    np.testing.assert_allclose(gmm_score(x, tau, prior, sched), expected, rtol=1e-12)


def fd_score(x, tau, prior, sched, h=1e-5):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (
            gmm_log_density(x + e, tau, prior, sched)
            - gmm_log_density(x - e, tau, prior, sched)
        ) / (2 * h)
    return g


def test_two_component_score_matches_finite_difference():
    rng = np.random.default_rng(3)
    prior = GaussianMixturePrior(
        np.array([0.4, 0.6]), np.array([[-1.0], [2.0]]), np.array([0.5, 0.2])
    )
    sched = make_schedule(100)
    for _ in range(10):
        x = rng.normal(0.0, 2.0, 1)
        tau = int(rng.integers(1, 101))
        an = gmm_score(x, tau, prior, sched)
        fd = fd_score(x, tau, prior, sched)
        assert np.linalg.norm(fd - an) / max(np.linalg.norm(an), 1e-6) < 1e-6


def test_score_fd_property_random_mixtures():
    rng = np.random.default_rng(11)
    sched = make_schedule(200)
    for _ in range(100):
        dim = int(rng.integers(1, 9))
        k = int(rng.integers(1, 6))
        prior = random_prior(rng, dim, k)
        x = rng.normal(0.0, 1.5, dim)
        tau = int(rng.integers(1, 201))
        an = gmm_score(x, tau, prior, sched)
        fd = fd_score(x, tau, prior, sched)
        assert np.linalg.norm(fd - an) / max(np.linalg.norm(an), 1e-6) < 1e-6


def test_score_batched_matches_single():
    rng = np.random.default_rng(5)
    prior = random_prior(rng, 4, 3)
    sched = make_schedule(30)
    xs = rng.normal(size=(6, 4))
    batched = gmm_score(xs, 9, prior, sched)
    for i, x in enumerate(xs):
        np.testing.assert_allclose(batched[i], gmm_score(x, 9, prior, sched))


def test_score_dimension_mismatch():
    prior = GaussianMixturePrior.single([0.0, 0.0], 1.0)
    sched = make_schedule(5)
    with pytest.raises(ValueError):
        gmm_score(np.zeros(3), 1, prior, sched)


def difference_form(x, tau, prior, sched):
    """Log terms (..., K) and pulls (m_k - x) / s_k (..., K, N) from the difference tensor.

    The kernels' oracle: it forms x - m_k for every component, which the
    Gram-form kernels in ``gridseek.diffusion`` never do.
    """
    abar = sched.alpha_bar[tau - 1]
    means = math.sqrt(abar) * prior.means
    variances = abar * prior.variances + (1.0 - abar)
    diff = x[..., None, :] - means
    log_terms = (np.log(prior.weights) - 0.5 * x.shape[-1] * np.log(2.0 * math.pi * variances)
                 - 0.5 * np.sum(diff * diff, axis=-1) / variances)
    return log_terms, -diff / variances[:, None]


def difference_responsibilities(log_terms):
    resp = np.exp(log_terms - log_terms.max(axis=-1, keepdims=True))
    return resp / resp.sum(axis=-1, keepdims=True)


def difference_score(x, tau, prior, sched):
    log_terms, pull = difference_form(x, tau, prior, sched)
    return np.sum(difference_responsibilities(log_terms)[..., None] * pull, axis=-2)


def difference_log_density(x, tau, prior, sched):
    log_terms, _ = difference_form(x, tau, prior, sched)
    top = log_terms.max(axis=-1)
    return top + np.log(np.sum(np.exp(log_terms - top[..., None]), axis=-1))


def dense_score_hessian(x, tau, prior, sched):
    """The N x N Hessian of the step-tau log-density at one state: the product's oracle."""
    log_terms, pull = difference_form(x, tau, prior, sched)
    resp = difference_responsibilities(log_terms)
    abar = sched.alpha_bar[tau - 1]
    variances = abar * prior.variances + (1.0 - abar)
    score = resp @ pull
    hess = -np.eye(x.size) * float(np.sum(resp / variances))
    hess += (resp[:, None] * pull).T @ pull
    hess -= np.outer(score, score)
    return hess


def test_hessian_matches_score_finite_difference():
    rng = np.random.default_rng(7)
    prior = random_prior(rng, 3, 3)
    sched = make_schedule(40)
    x = rng.normal(size=3)
    tau = 13
    hess = dense_score_hessian(x, tau, prior, sched)
    h = 1e-5
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        col = (gmm_score(x + e, tau, prior, sched) - gmm_score(x - e, tau, prior, sched)) / (2 * h)
        np.testing.assert_allclose(hess[:, i], col, atol=1e-6)


def mixture_case(case):
    """A prior, schedule, step and (x, v) pair shaped ``(*batch, N)`` for one kernel case."""
    rng = np.random.default_rng(sum(map(ord, case)))
    batch = {"single": (), "batch-4": (4,), "batch-2x3": (2, 3)}.get(case, (4,))
    n, k = 7, 1 if case == "one-component" else 4
    prior = random_prior(rng, n, k)
    sched = make_schedule(40)
    tau = int(rng.integers(1, sched.T + 1))
    x, v = rng.normal(size=(*batch, n)), rng.normal(size=(*batch, n))
    if case == "tight-component":  # at tau = 1 its marginal variance is about 1e-4
        prior = GaussianMixturePrior(prior.weights, prior.means,
                                     np.concatenate(([1e-6], prior.variances[1:])))
        tau = 1
        x[0] = math.sqrt(sched.alpha_bar[0]) * prior.means[0]  # on the tight mean
    return prior, sched, tau, x, v


MIXTURE_CASES = ["single", "batch-4", "batch-2x3", "one-component", "tight-component"]


@pytest.mark.parametrize("case", MIXTURE_CASES)
def test_gram_form_score_matches_difference_oracle(case):
    prior, sched, tau, x, _ = mixture_case(case)
    got = gmm_score(x, tau, prior, sched)
    assert got.shape == x.shape
    # the score is a convex combination of pulls: its rounding scales with the largest
    _, pull = difference_form(x, tau, prior, sched)
    scale = np.abs(pull).max()
    np.testing.assert_allclose(got, difference_score(x, tau, prior, sched),
                               rtol=0, atol=1e-10 * scale)


@pytest.mark.parametrize("case", MIXTURE_CASES)
def test_gram_form_log_density_matches_difference_oracle(case):
    prior, sched, tau, x, _ = mixture_case(case)
    got = gmm_log_density(x, tau, prior, sched)
    want = difference_log_density(x, tau, prior, sched)
    assert got.shape == x.shape[:-1]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * max(1.0, np.abs(want).max()))


def test_gram_form_density_on_a_mean_stays_at_its_peak():
    """||x||^2 - 2 x.m + ||m||^2 can round below 0 on a mean; the density must stay at its peak."""
    rng = np.random.default_rng(29)
    sched = make_schedule(40)
    for _ in range(20):
        prior = GaussianMixturePrior.single(rng.normal(size=256), 1e-6)
        x = math.sqrt(sched.alpha_bar[0]) * prior.means[0]
        assert gmm_log_density(x, 1, prior, sched) <= difference_log_density(x, 1, prior, sched)


@pytest.mark.parametrize("kernel", ["score", "hessian"])
def test_mixture_kernels_allocate_no_component_by_cell_tensor(kernel):
    """At (16, 1024) with K = 32 a (..., K, N) tensor is 4 MiB; each kernel stays under 1 MiB."""
    rng = np.random.default_rng(23)
    prior = random_prior(rng, 1024, 32)
    sched = make_schedule(40)
    x, v = rng.normal(size=(2, 16, 1024))
    call = {"score": lambda: gmm_score(x, 9, prior, sched),
            "hessian": lambda: gmm_score_hessian(x, 9, prior, sched, v)}[kernel]
    call()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"{kernel} allocated a {peak / 2**20:.2f} MiB peak"


@pytest.mark.parametrize("case", MIXTURE_CASES)
def test_hessian_vector_product_matches_dense_oracle(case):
    prior, sched, tau, x, v = mixture_case(case)
    got = gmm_score_hessian(x, tau, prior, sched, v)
    assert got.shape == x.shape
    for i in np.ndindex(x.shape[:-1]):
        hess = dense_score_hessian(x[i], tau, prior, sched)
        scale = np.abs(hess).max() * np.abs(v[i]).max()
        np.testing.assert_allclose(got[i], hess @ v[i], rtol=0, atol=1e-10 * scale)


@pytest.mark.parametrize("case", MIXTURE_CASES)
def test_hessian_vector_product_is_symmetric(case):
    prior, sched, tau, x, v = mixture_case(case)
    u = np.random.default_rng(3).normal(size=x.shape)
    u_hv = np.sum(u * gmm_score_hessian(x, tau, prior, sched, v), axis=-1)
    v_hu = np.sum(v * gmm_score_hessian(x, tau, prior, sched, u), axis=-1)
    scale = np.max(np.abs(u_hv)) + np.max(np.abs(v_hu))
    np.testing.assert_allclose(u_hv, v_hu, rtol=0, atol=1e-12 * scale)


def test_hessian_vector_product_matches_score_finite_difference():
    rng = np.random.default_rng(17)
    prior = random_prior(rng, 5, 3)
    sched = make_schedule(40)
    tau = 13
    x, v = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
    h = 1e-5
    fd = (gmm_score(x + h * v, tau, prior, sched)
          - gmm_score(x - h * v, tau, prior, sched)) / (2 * h)
    np.testing.assert_allclose(gmm_score_hessian(x, tau, prior, sched, v), fd, atol=1e-6)


@pytest.mark.parametrize("case", MIXTURE_CASES)
def test_shared_terms_product_is_the_hessian_product_bit_for_bit(case):
    """The product on a step's kept terms equals a from-scratch gmm_score_hessian exactly."""
    prior, sched, tau, x, v = mixture_case(case)
    terms = _step_terms(x, tau, prior, sched)
    np.testing.assert_array_equal(terms.score, gmm_score(x, tau, prior, sched))
    np.testing.assert_array_equal(_step_hvp(terms, x, v, prior),
                                  gmm_score_hessian(x, tau, prior, sched, v))


def test_step_terms_flush_subnormal_responsibilities():
    """A responsibility below the smallest normal float is set to 0 before normalising."""
    prior = GaussianMixturePrior(np.array([0.5, 0.5]), np.array([[0.0], [40.0]]), np.ones(2))
    sched = make_schedule(1, 0.1, 0.1)
    x = np.zeros((1, 1))
    log_terms, _, _ = _component_log_terms(x, 1, prior, sched)
    assert 0.0 < math.exp(log_terms[0, 1] - log_terms[0, 0]) < np.finfo(float).tiny
    w = _step_terms(x, 1, prior, sched).w
    assert w[0, 1] == 0.0 and w[0, 0] > 0.0


@pytest.mark.parametrize("tau", [1, 20, 100, 200])
def test_step_invariant_kernels_match_difference_form_at_wide32_shape(tau):
    """n_b 16, K 32, N 1024, the 32x32 benchmark's prior: score and product within 1e-12."""
    prior = make_blob_prior((32, 32), n_components=32).affine(2.0, -1.0)
    sched = make_schedule(200)
    rng = np.random.default_rng(tau)
    abar = sched.alpha_bar[tau - 1]
    x = (math.sqrt(abar) * prior.means[rng.integers(0, 32, 16)]
         + math.sqrt(1.0 - abar) * rng.standard_normal((16, 1024)))
    v = rng.standard_normal((16, 1024))
    hv = np.stack([dense_score_hessian(xi, tau, prior, sched) @ vi for xi, vi in zip(x, v)])
    for got, want in [(gmm_score(x, tau, prior, sched), difference_score(x, tau, prior, sched)),
                      (gmm_score_hessian(x, tau, prior, sched, v), hv)]:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_prior_caches_its_squared_mean_norms():
    prior = random_prior(np.random.default_rng(31), 9, 5)
    norms = prior.mean_sq_norms
    np.testing.assert_array_equal(norms, np.sum(prior.means**2, axis=1))
    assert prior.mean_sq_norms is norms  # computed once
    assert not norms.flags.writeable
    shifted = prior.affine(2.0, -1.0)  # a new prior gets its own
    np.testing.assert_array_equal(shifted.mean_sq_norms, np.sum(shifted.means**2, axis=1))


# ------------------------------------------------------------ episode step


def step_case(shape, k, n_b, tau, share, seed=0):
    """A prior in sampler space, particles near the step-tau marginal, a partly revealed scene."""
    rng = np.random.default_rng(seed)
    prior = make_blob_prior(shape, n_components=k).affine(2.0, -1.0)
    sched = make_schedule(200)
    n = prior.dimension
    observed = np.zeros(n, dtype=bool)
    observed[rng.permutation(n)[:round(share * n)]] = True
    values = np.where(observed, prior.sample(rng), 0.0)
    abar = sched.alpha_bar[tau - 1]
    x = (math.sqrt(abar) * prior.means[rng.integers(0, k, n_b)]
         + math.sqrt(1.0 - abar) * rng.standard_normal((n_b, n)))
    return prior, sched, x, rng.standard_normal((n_b, n)), observed, values


@pytest.mark.parametrize("share", [0.0, 0.1, 1.0], ids=["none", "tenth", "all"])
@pytest.mark.parametrize("tau", [200, 100, 1])
@pytest.mark.parametrize("zeta", [0.0, 1.0])
@pytest.mark.parametrize("mode", ["scaled-identity", "exact"])
def test_episode_step_matches_written_out_step(mode, zeta, tau, share):
    """x_{tau-1} and xhat within 1e-12 of the one-expression forms, paper16 shape."""
    prior, sched, x, z, observed, values = step_case((16, 16), 8, 8, tau, share)
    cfg = GuidanceConfig(zeta, mode)
    want = reference_step(x, tau, z, observed, values, prior, sched, cfg)
    got = reverse_step(x, tau, z, observed, values, prior, cfg, sched)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


@pytest.mark.parametrize("mode", ["scaled-identity", "exact"])
def test_episode_step_leaves_its_inputs_alone(mode):
    prior, sched, x, z, observed, values = step_case((16, 16), 8, 8, 50, 0.1)
    before = [a.copy() for a in (x, z, observed, values)]
    reverse_step(x, 50, z, observed, values, prior, GuidanceConfig(1.0, mode), sched)
    for a, b in zip((x, z, observed, values), before):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("mode, terms, scores", [("exact", 1, 0), ("scaled-identity", 0, 1)])
def test_episode_step_takes_its_mode_from_the_guidance_config(monkeypatch, mode, terms, scores):
    """One mixture evaluation per step, by the kernel ``GuidanceConfig.jacobian_mode`` names."""
    calls = {"terms": 0, "score": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(gridseek.bench, "_step_terms", counted("terms", gridseek.bench._step_terms))
    monkeypatch.setattr(gridseek.bench, "gmm_score", counted("score", gridseek.bench.gmm_score))
    prior, sched, x, z, observed, values = step_case((16, 16), 8, 8, 50, 0.1)
    reverse_step(x, 50, z, observed, values, prior, GuidanceConfig(1.0, mode), sched)
    assert calls == {"terms": terms, "score": scores}


@pytest.mark.parametrize("mode, arrays", [("scaled-identity", 3.5), ("exact", 7.5)])
def test_episode_step_allocates_a_few_particle_arrays(mode, arrays):
    """n_b 16, N 1024, K 32 (the wide32 shape), guided: peak in (n_b, N) arrays.

    The one-expression forms peak at 6 arrays in scaled-identity mode and 7
    in exact mode; the exact mode's Hessian product keeps its peak.
    """
    prior, sched, x, z, observed, values = step_case((32, 32), 32, 16, 100, 0.03)
    cfg = GuidanceConfig(1.0, mode)
    tracemalloc.start()
    try:
        reverse_step(x, 100, z, observed, values, prior, cfg, sched)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= arrays * x.nbytes, f"peak {peak / x.nbytes:.2f} (n_b, N) arrays"


def one_component_affine_step(x, tau, z, observed, values, mu, v, zeta, mode, sched):
    """x <- A_tau x + b_tau + sigma_tilde_tau z per cell: the guided reverse step of a K = 1 prior.

    With s = abar v + 1 - abar the denoised mean is xhat = sqrt(abar) v / s x + (1 - abar) / s mu,
    so off the observed cells A_tau = c_x + c_xhat sqrt(abar) v / s. On them guidance subtracts
    (2 zeta / sqrt(abar)) (xhat - y), times the Jacobian factor abar v / s in ``exact`` mode
    (H = -I / s), which takes 2 zeta v / s or 2 zeta abar v^2 / s^2 off A_tau. Guidance reads
    xhat, the mean before the noise, so the noise term is sigma_tilde_tau z on every cell.
    """
    abar, abar_prev = sched.alpha_bar[tau - 1], sched.alpha_bar_at(tau - 1)
    coef_x = math.sqrt(sched.alpha[tau - 1]) * (1.0 - abar_prev) / (1.0 - abar)
    coef_hat = math.sqrt(abar_prev) * sched.beta[tau - 1] / (1.0 - abar)
    s = abar * v + 1.0 - abar
    x_hat = math.sqrt(abar) * v / s * x + (1.0 - abar) / s * mu
    out = coef_x * x + coef_hat * x_hat + sched.sigma_tilde[tau - 1] * z
    gain = 2.0 * zeta / math.sqrt(abar) * (1.0 if mode == "scaled-identity" else abar * v / s)
    return np.where(observed, out - gain * (x_hat - values), out)


@pytest.mark.parametrize("mode", ["scaled-identity", "exact"])
def test_one_component_trajectory_follows_the_affine_recursion(mode):
    """200 guided steps of a blob-variance K = 1 prior stay within 1e-12 of the scalar recursion.

    Four particles start at distinct states and take one fixed nonzero z at every step, so
    every cell carries the noise term sigma_tilde_tau z as well as A_tau x + b_tau.
    """
    prior = make_blob_prior((8, 8), n_components=1).affine(2.0, -1.0)
    mu, v = prior.means[0], prior.variances[0]
    assert v == pytest.approx(0.0064)
    sched, cfg = make_schedule(200), GuidanceConfig(1.0, mode)
    rng = np.random.default_rng(0)
    n = prior.dimension
    observed = np.zeros(n, dtype=bool)
    observed[rng.permutation(n)[:16]] = True
    values = np.where(observed, rng.uniform(-1.0, 1.0, n), 0.0)
    want, z = rng.standard_normal((2, 4, n))
    x = want.copy()
    for tau in range(sched.T, 0, -1):
        x, _ = reverse_step(x, tau, z, observed, values, prior, cfg, sched)
        want = one_component_affine_step(want, tau, z, observed, values, mu, v, 1.0, mode, sched)
        assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max(), tau


# ------------------------------------------------------------------ tweedie


def make_score_fn(prior, sched):
    return lambda x, tau: gmm_score(x, tau, prior, sched)


def test_tweedie_identity_at_negligible_noise():
    sched = NoiseSchedule(np.full(1, 1e-15), sigma_mode="zero")
    prior = GaussianMixturePrior.single([0.4], 1.0)
    x = np.array([0.9])
    np.testing.assert_allclose(
        tweedie_denoise(x, 1, make_score_fn(prior, sched), sched), x, atol=1e-12
    )


def test_tweedie_standard_normal_prior():
    prior = GaussianMixturePrior.single([0.0], 1.0)
    sched = make_schedule(64)
    rng = np.random.default_rng(2)
    score_fn = make_score_fn(prior, sched)
    for tau in (1, 13, 64):
        x = rng.normal(size=1)
        abar = sched.alpha_bar[tau - 1]
        np.testing.assert_allclose(
            tweedie_denoise(x, tau, score_fn, sched), math.sqrt(abar) * x, atol=1e-12
        )


def test_tweedie_point_mass_prior():
    mu = np.array([0.25, -0.5])
    prior = GaussianMixturePrior.single(mu, 0.0)
    sched = make_schedule(32)
    score_fn = make_score_fn(prior, sched)
    for x in (np.array([3.0, -3.0]), np.array([0.0, 0.0])):
        np.testing.assert_allclose(
            tweedie_denoise(x, 17, score_fn, sched), mu, atol=1e-10
        )


def closed_form_posterior_mean(x, abar, mu, v):
    s = abar * v + (1.0 - abar)
    return (math.sqrt(abar) * v * x + (1.0 - abar) * mu) / s


def test_tweedie_gaussian_oracle_all_steps():
    rng = np.random.default_rng(9)
    sched = make_schedule(50)
    for _ in range(20):
        mu, v = rng.normal(), rng.uniform(0.05, 2.0)
        prior = GaussianMixturePrior.single([mu], v)
        score_fn = make_score_fn(prior, sched)
        for tau in range(1, 51):
            x = rng.normal(size=1)
            expected = closed_form_posterior_mean(x, sched.alpha_bar[tau - 1], mu, v)
            got = tweedie_denoise(x, tau, score_fn, sched)
            assert abs(got[0] - expected[0]) < 1e-9


# ----------------------------------------------------------- ancestral step


def test_ancestral_hand_evaluated_two_step_schedule():
    sched = NoiseSchedule(np.array([0.1, 0.2]), sigma_mode="zero")
    x = np.array([1.0])
    # tau=2: abar_1 = 0.9, abar_2 = 0.72
    coef_x = math.sqrt(0.8) * (1.0 - 0.9) / (1.0 - 0.72)
    coef_hat = math.sqrt(0.9) * 0.2 / (1.0 - 0.72)
    out = ancestral_step(x, x, 2, np.zeros(1), sched)
    np.testing.assert_allclose(out, (coef_x + coef_hat) * x, rtol=1e-14)


def test_ancestral_zero_draw_ignores_sigma():
    sched_a = make_schedule(8, sigma_mode="posterior")
    sched_b = make_schedule(8, sigma_mode="zero")
    x = np.array([0.3, -0.7])
    xh = np.array([0.1, 0.2])
    np.testing.assert_array_equal(
        ancestral_step(x, xh, 5, np.zeros(2), sched_a),
        ancestral_step(x, xh, 5, np.zeros(2), sched_b),
    )


def test_ancestral_final_step_boundary():
    sched = make_schedule(4)
    x = np.array([2.0])
    xh = np.array([-1.0])
    z = np.array([0.6])
    # at tau=1 the x coefficient vanishes and the xhat coefficient is exactly 1
    out = ancestral_step(x, xh, 1, z, sched)
    np.testing.assert_allclose(out, xh + sched.sigma_tilde[0] * z, atol=1e-15)
    assert sched.sigma_tilde[0] == 0.0


# ----------------------------------------------------------------- guidance


def as_mask(cells, values, n):
    """The (n,) observed mask and dense values that aligned cells/values arrays describe."""
    observed, dense = np.zeros(n, dtype=bool), np.zeros(n)
    observed[cells], dense[cells] = True, values
    return observed, dense


def test_guidance_noop_without_observations():
    sched = make_schedule(10)
    prior = GaussianMixturePrior.single([0.0, 0.0], 1.0)
    xp, x_tau = np.array([0.5, -0.5]), np.array([1.0, 1.0])
    x_hat = tweedie_denoise(x_tau, 4, make_score_fn(prior, sched), sched)
    out = guidance_step(
        xp, x_hat, np.zeros(2, dtype=bool), np.zeros(2), 4,
        GuidanceConfig(zeta=2.0), sched,
    )
    np.testing.assert_array_equal(out, xp)


def test_guidance_noop_with_zero_zeta():
    sched = make_schedule(10)
    prior = GaussianMixturePrior.single([0.0, 0.0], 1.0)
    xp, x_tau = np.array([0.5, -0.5]), np.array([1.0, 1.0])
    x_hat = tweedie_denoise(x_tau, 4, make_score_fn(prior, sched), sched)
    out = guidance_step(
        xp, x_hat, np.array([True, False]), np.array([0.9, 0.0]), 4,
        GuidanceConfig(zeta=0.0), sched,
    )
    np.testing.assert_array_equal(out, xp)


def test_guidance_scaled_identity_gradient_formula():
    prior = GaussianMixturePrior.single([0.0], 1.0)
    sched = make_schedule(30)
    tau = 11
    abar = sched.alpha_bar[tau - 1]
    x_obs = 0.4
    x_tau = np.array([1.3])
    xp = np.array([0.2])
    zeta = 0.7
    x_hat = tweedie_denoise(x_tau, tau, make_score_fn(prior, sched), sched)
    out = guidance_step(
        xp, x_hat, np.array([True]), np.array([x_obs]), tau,
        GuidanceConfig(zeta=zeta), sched,
    )
    grad = (2.0 / math.sqrt(abar)) * (math.sqrt(abar) * x_tau[0] - x_obs)
    np.testing.assert_allclose(out, xp - zeta * grad, rtol=1e-12)


def test_guidance_exact_mode_matches_residual_finite_difference():
    rng = np.random.default_rng(21)
    prior = random_prior(rng, 3, 2)
    sched = make_schedule(25)
    tau = 9
    cells, values = np.array([0, 2]), np.array([0.3, -0.6])
    observed, dense = as_mask(cells, values, 3)
    score_fn = make_score_fn(prior, sched)
    x_tau = rng.normal(size=3)
    hess_fn = lambda v: gmm_score_hessian(x_tau, tau, prior, sched, v)
    xp = rng.normal(size=3)
    zeta = 0.31
    out = guidance_step(
        xp, tweedie_denoise(x_tau, tau, score_fn, sched), observed, dense, tau,
        GuidanceConfig(zeta=zeta, jacobian_mode="exact"), sched, hessian_fn=hess_fn,
    )

    def residual_norm(x):
        xh = tweedie_denoise(x, tau, score_fn, sched)
        return float(np.sum((values - xh[cells]) ** 2))

    h = 1e-6
    fd = np.empty(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd[i] = (residual_norm(x_tau + e) - residual_norm(x_tau - e)) / (2 * h)
    np.testing.assert_allclose(out, xp - zeta * fd, atol=1e-6)


def test_guidance_rejects_out_of_range_location():
    sched = make_schedule(10)
    prior = GaussianMixturePrior.single([0.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="shape"):
        x_hat = tweedie_denoise(np.zeros(2), 3, make_score_fn(prior, sched), sched)
        guidance_step(np.zeros(2), x_hat, np.array([False, False, True]),
                      np.array([0.0, 0.0, 0.1]), 3, GuidanceConfig(), sched)



def guidance_by_index(x_prime, x_hat, cells, values, tau, cfg, sched, hessian_fn):
    """Guidance from aligned cell-index and value arrays: the mask form's reference."""
    abar = sched.alpha_bar[tau - 1]
    residual = np.zeros_like(x_hat)
    residual[..., cells] = x_hat[..., cells] - values
    if cfg.jacobian_mode == "scaled-identity":
        grad = (2.0 / math.sqrt(abar)) * residual
    else:
        grad = 2.0 * (residual + (1.0 - abar) * hessian_fn(residual)) / math.sqrt(abar)
    return x_prime - cfg.zeta * grad


@pytest.mark.parametrize("mode", ["scaled-identity", "exact"])
def test_guidance_mask_form_matches_index_form(mode):
    rng = np.random.default_rng(8)
    n = 9
    prior = random_prior(rng, n, 3)
    sched = make_schedule(40)
    score_fn = make_score_fn(prior, sched)
    hess_fn = lambda v: gmm_score_hessian(x_tau, tau, prior, sched, v)  # this pass's x_tau, tau
    cfg = GuidanceConfig(zeta=0.4, jacobian_mode=mode)
    for batch in [(), (4,), (), (4,), (2, 3)]:
        cells = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)  # any order
        values = rng.uniform(-1.0, 1.0, cells.size)
        observed, dense = as_mask(cells, values, n)
        tau = int(rng.integers(1, sched.T + 1))
        x_tau, xp = rng.normal(size=(*batch, n)), rng.normal(size=(*batch, n))
        xh = tweedie_denoise(x_tau, tau, score_fn, sched)
        got = guidance_step(xp, xh, observed, dense, tau, cfg, sched, hess_fn)
        want = guidance_by_index(xp, xh, cells, values, tau, cfg, sched, hess_fn)
        assert np.array_equal(got, want)


def test_exact_guidance_applies_one_product_to_the_whole_batch():
    rng = np.random.default_rng(5)
    prior, sched, tau = random_prior(rng, 6, 3), make_schedule(30), 11
    calls = []

    def hess_fn(v):
        calls.append(v.shape)
        return gmm_score_hessian(x_tau, tau, prior, sched, v)

    x_tau = rng.normal(size=(2, 3, 6))
    xh = tweedie_denoise(x_tau, tau, make_score_fn(prior, sched), sched)
    observed = np.array([True, False, True, False, False, True])
    guidance_step(rng.normal(size=x_tau.shape), xh, observed, np.zeros(6), tau,
                  GuidanceConfig(jacobian_mode="exact"), sched, hess_fn)
    assert calls == [(2, 3, 6)]


# --------------------------------------------- contraction and determinism


def run_mini_sampler(seed, zeta, prior, scene, sched, n_particles=4):
    """All cells observed noiselessly from the start; returns final particles."""
    observed, values = np.ones(scene.size, dtype=bool), np.asarray(scene, dtype=float)
    children = np.random.SeedSequence(seed).spawn(n_particles)
    rngs = [np.random.default_rng(c) for c in children]
    dim = scene.size
    x = np.stack([r.standard_normal(dim) for r in rngs])
    cfg = GuidanceConfig(zeta=zeta)
    score_fn = make_score_fn(prior, sched)
    for tau in range(sched.T, 0, -1):
        xh = tweedie_denoise(x, tau, score_fn, sched)
        z = np.stack([r.standard_normal(dim) for r in rngs])
        xp = ancestral_step(x, xh, tau, z, sched)
        x = guidance_step(xp, xh, observed, values, tau, cfg, sched)
    return x


def test_full_observation_guidance_contracts_mse():
    # documented threshold: zeta >= 0.1 suffices on this schedule
    rng = np.random.default_rng(100)
    dim = 16
    means = np.stack([rng.uniform(-1, 1, dim), rng.uniform(-1, 1, dim)])
    prior = GaussianMixturePrior(np.array([0.5, 0.5]), means, np.array([0.01, 0.01]))
    sched = make_schedule(60, 1e-4, 0.05)
    diffs = []
    for seed in range(20):
        scene = prior.sample(np.random.default_rng(10_000 + seed))
        guided = run_mini_sampler(seed, 1.0, prior, scene, sched)
        free = run_mini_sampler(seed, 0.0, prior, scene, sched)
        mse_g = float(np.mean((guided - scene) ** 2))
        mse_f = float(np.mean((free - scene) ** 2))
        diffs.append(mse_g - mse_f)
    assert np.mean(diffs) < 0.0
    assert np.mean(np.asarray(diffs) < 0) >= 0.9


def test_trajectories_bit_identical_for_same_seed():
    rng = np.random.default_rng(55)
    prior = random_prior(rng, 6, 2)
    sched = make_schedule(30)
    scene = prior.sample(np.random.default_rng(1))
    a = run_mini_sampler(42, 0.5, prior, scene, sched)
    b = run_mini_sampler(42, 0.5, prior, scene, sched)
    np.testing.assert_array_equal(a, b)


# -------------------------------------------------------------------- prior


def test_prior_json_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    prior = random_prior(rng, 5, 3)
    path = tmp_path / "prior.json"
    prior.to_json(path)
    back = GaussianMixturePrior.from_json(path)
    np.testing.assert_array_equal(prior.weights, back.weights)
    np.testing.assert_array_equal(prior.means, back.means)
    np.testing.assert_array_equal(prior.variances, back.variances)


def test_prior_weight_validation():
    with pytest.raises(ValueError):
        GaussianMixturePrior(
            np.array([0.5, 0.6]), np.zeros((2, 2)), np.array([1.0, 1.0])
        )


@pytest.mark.parametrize("which,value", [
    ("weights", math.nan), ("means", math.nan), ("means", math.inf), ("variances", math.nan),
])
def test_prior_rejects_non_finite_components(which, value):
    arrays = {"weights": np.array([0.5, 0.5]), "means": np.zeros((2, 2)),
              "variances": np.array([1.0, 1.0])}
    arrays[which].flat[0] = value
    with pytest.raises(ValueError, match="finite"):
        GaussianMixturePrior(**arrays)


def prior_doc():
    return {"components": [{"weight": 1.0, "mean": [0.0, 1.0], "variance": 0.5}],
            "dimension": 2}


@pytest.mark.parametrize("edit", [
    lambda d: [1, 2],
    lambda d: {"dimension": 2},
    lambda d: {**d, "components": 5},
    lambda d: {**d, "components": []},
    lambda d: {**d, "components": [7]},
    lambda d: {"components": d["components"]},
    lambda d: {**d, "components": [{"mean": [0.0, 1.0], "variance": 0.5}]},
    lambda d: {**d, "components": [{"weight": None, "mean": [0.0, 1.0], "variance": 0.5}]},
    lambda d: {**d, "components": [{"weight": 1.0, "mean": [math.nan, 1.0], "variance": 0.5}]},
    lambda d: {**d, "components": [{"weight": 1.0, "mean": [0.0, 1.0], "variance": math.nan}]},
    lambda d: {**d, "dimension": 3},
    lambda d: {**d, "components": [{"weight": "1.0", "mean": [0.0, 1.0], "variance": 0.5}]},
    lambda d: {**d, "components": [{"weight": 1.0, "mean": [0.0, 1.0], "variance": True}]},
    lambda d: {**d, "components": [{"weight": 1.0, "mean": ["0.1", "0.2"], "variance": 0.5}]},
    lambda d: {**d, "components": [{"weight": 1.0, "mean": 0.5, "variance": 0.5}]},
    lambda d: {**d, "dimension": 2.0},
], ids=["array", "no-components", "components-5", "components-empty", "component-7",
        "no-dimension", "no-weight", "weight-null", "nan-mean", "nan-variance",
        "wrong-dimension", "weight-string", "variance-bool", "mean-strings", "mean-number",
        "dimension-float"])
def test_prior_from_json_names_file_of_malformed_document(tmp_path, edit):
    path = tmp_path / "bad-prior.json"
    path.write_text(json.dumps(edit(prior_doc())))
    with pytest.raises(ValueError, match="bad-prior.json"):
        GaussianMixturePrior.from_json(path)


@pytest.mark.parametrize("raw", [b"{not json", b"", b"\xff\xfe{}"],
                         ids=["not-json", "empty", "not-utf8"])
def test_prior_from_json_names_file_it_cannot_parse(tmp_path, raw):
    path = tmp_path / "bad-prior.json"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="prior file .*bad-prior.json"):
        GaussianMixturePrior.from_json(path)


def test_prior_from_json_names_a_directory_and_keeps_a_missing_file_distinct(tmp_path):
    folder = tmp_path / "bad-prior.json"
    folder.mkdir()
    with pytest.raises(ValueError, match="prior file .*bad-prior.json"):
        GaussianMixturePrior.from_json(folder)
    with pytest.raises(FileNotFoundError):
        GaussianMixturePrior.from_json(tmp_path / "missing.json")


def test_prior_affine_transform():
    prior = GaussianMixturePrior.single([0.25, 0.75], 0.04)
    mapped = prior.affine(2.0, -1.0)
    np.testing.assert_allclose(mapped.means, [[-0.5, 0.5]])
    np.testing.assert_allclose(mapped.variances, [0.16])


def test_guidance_config_validation():
    with pytest.raises(ValueError):
        GuidanceConfig(zeta=-1.0)
    with pytest.raises(ValueError):
        GuidanceConfig(jacobian_mode="diagonal")
