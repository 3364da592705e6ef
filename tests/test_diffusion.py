import json
import math

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
    ],
)
def test_schedule_rejects_bad_ranges(kwargs):
    with pytest.raises(ScheduleError):
        make_schedule(**{"beta_min": 1e-4, "beta_max": 0.02, **kwargs})


def test_zero_sigma_mode():
    sched = make_schedule(10, sigma_mode="zero")
    assert np.all(sched.sigma_tilde == 0.0)


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


def test_hessian_matches_score_finite_difference():
    rng = np.random.default_rng(7)
    prior = random_prior(rng, 3, 3)
    sched = make_schedule(40)
    x = rng.normal(size=3)
    tau = 13
    hess = gmm_score_hessian(x, tau, prior, sched)
    h = 1e-5
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        col = (gmm_score(x + e, tau, prior, sched) - gmm_score(x - e, tau, prior, sched)) / (2 * h)
        np.testing.assert_allclose(hess[:, i], col, atol=1e-6)


# ------------------------------------------------------------------ tweedie


def make_score_fn(prior, sched):
    return lambda x, tau: gmm_score(x, tau, prior, sched)


def test_tweedie_identity_at_negligible_noise():
    beta = np.full(1, 1e-15)
    sched = NoiseSchedule(
        T=1, beta=beta, alpha=1.0 - beta, alpha_bar=np.cumprod(1.0 - beta),
        sigma_tilde=np.zeros(1),
    )
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
    beta = np.array([0.1, 0.2])
    alpha = 1.0 - beta
    sched = NoiseSchedule(
        T=2, beta=beta, alpha=alpha, alpha_bar=np.cumprod(alpha),
        sigma_tilde=np.zeros(2),
    )
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
        xp, x_tau, x_hat, np.zeros(2, dtype=bool), np.zeros(2), 4,
        GuidanceConfig(zeta=2.0), sched,
    )
    np.testing.assert_array_equal(out, xp)


def test_guidance_noop_with_zero_zeta():
    sched = make_schedule(10)
    prior = GaussianMixturePrior.single([0.0, 0.0], 1.0)
    xp, x_tau = np.array([0.5, -0.5]), np.array([1.0, 1.0])
    x_hat = tweedie_denoise(x_tau, 4, make_score_fn(prior, sched), sched)
    out = guidance_step(
        xp, x_tau, x_hat, np.array([True, False]), np.array([0.9, 0.0]), 4,
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
        xp, x_tau, x_hat, np.array([True]), np.array([x_obs]), tau,
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
    hess_fn = lambda x, t: gmm_score_hessian(x, t, prior, sched)
    x_tau = rng.normal(size=3)
    xp = rng.normal(size=3)
    zeta = 0.31
    out = guidance_step(
        xp, x_tau, tweedie_denoise(x_tau, tau, score_fn, sched), observed, dense, tau,
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
        guidance_step(np.zeros(2), np.zeros(2), x_hat, np.array([False, False, True]),
                      np.array([0.0, 0.0, 0.1]), 3, GuidanceConfig(), sched)



def guidance_by_index(x_prime, x_tau, x_hat, cells, values, tau, cfg, sched, hessian_fn):
    """Guidance from aligned cell-index and value arrays: the mask form's reference."""
    abar = sched.alpha_bar[tau - 1]
    residual = np.zeros_like(x_tau)
    residual[..., cells] = x_hat[..., cells] - values
    if cfg.jacobian_mode == "scaled-identity":
        grad = (2.0 / math.sqrt(abar)) * residual
    else:
        n = x_tau.shape[-1]
        grad = np.empty_like(x_tau)
        for i in np.ndindex(x_tau.shape[:-1]):
            jac = (np.eye(n) + (1.0 - abar) * hessian_fn(x_tau[i], tau)) / math.sqrt(abar)
            grad[i] = 2.0 * (jac @ residual[i])
    return x_prime - cfg.zeta * grad


@pytest.mark.parametrize("mode", ["scaled-identity", "exact"])
def test_guidance_mask_form_matches_index_form(mode):
    rng = np.random.default_rng(8)
    n = 9
    prior = random_prior(rng, n, 3)
    sched = make_schedule(40)
    score_fn = make_score_fn(prior, sched)
    hess_fn = lambda x, t: gmm_score_hessian(x, t, prior, sched)
    cfg = GuidanceConfig(zeta=0.4, jacobian_mode=mode)
    for batch in [(), (4,), (), (4,), (2, 3)]:
        cells = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)  # any order
        values = rng.uniform(-1.0, 1.0, cells.size)
        observed, dense = as_mask(cells, values, n)
        tau = int(rng.integers(1, sched.T + 1))
        x_tau, xp = rng.normal(size=(*batch, n)), rng.normal(size=(*batch, n))
        xh = tweedie_denoise(x_tau, tau, score_fn, sched)
        got = guidance_step(xp, x_tau, xh, observed, dense, tau, cfg, sched, hess_fn)
        want = guidance_by_index(xp, x_tau, xh, cells, values, tau, cfg, sched, hess_fn)
        assert np.array_equal(got, want)


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
        x = guidance_step(xp, x, xh, observed, values, tau, cfg, sched)
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
], ids=["array", "no-components", "components-5", "components-empty", "component-7",
        "no-dimension", "no-weight", "weight-null", "nan-mean", "nan-variance",
        "wrong-dimension"])
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
