"""Built-in oracle suites behind the CLI's self-check subcommand.

Each suite reruns one of the package's independently derivable checks on its
shipped defaults: closed-form posterior means against one-step denoising,
finite differences against the analytic score, the written-out guided
reverse step against the one that episodes run, the brute-force
``location_scores`` against the exploration score, and finite differences
against the reward model's backward pass. Each check takes its seed and returns
(passed, detail); acceptance criteria 1-4 run them at seeds 101-104.
"""

from __future__ import annotations

import math

import numpy as np

from gridseek.belief import BeliefConfig, ParticleBatch, location_scores, score_field
from gridseek.bench import reverse_step
from gridseek.diffusion import (
    GaussianMixturePrior,
    GuidanceConfig,
    NoiseSchedule,
    gmm_log_density,
    gmm_score,
    gmm_score_hessian,
    tweedie_denoise,
)
from gridseek.env import make_blob_prior
from gridseek.reward import RewardNet, deep_layout, default_layout, grad_check

__all__ = ["run_all", "SUITES"]


def check_tweedie(seed: int = 0):
    rng = np.random.default_rng(seed)
    sched = NoiseSchedule(1000)
    worst = 0.0
    for _ in range(50):
        mu = float(rng.normal())
        v = float(rng.uniform(0.05, 2.0))
        tau = int(rng.integers(1, 1001))
        x = rng.normal(size=1)
        prior = GaussianMixturePrior.single([mu], v)
        score_fn = lambda xx, tt: gmm_score(xx, tt, prior, sched)
        abar = sched.alpha_bar[tau - 1]
        s = abar * v + (1.0 - abar)
        expected = (np.sqrt(abar) * v * x + (1.0 - abar) * mu) / s
        got = tweedie_denoise(x, tau, score_fn, sched)
        worst = max(worst, float(abs(got[0] - expected[0])))
    return worst < 1e-9, f"max abs err {worst:.2e} (tol 1e-9)"


def check_score_fd(seed: int = 1):
    rng = np.random.default_rng(seed)
    sched = NoiseSchedule(200)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 9))
        k = int(rng.integers(1, 6))
        w = rng.uniform(0.2, 1.0, k)
        w /= w.sum()
        prior = GaussianMixturePrior(
            w, rng.normal(0.0, 2.0, (k, dim)), rng.uniform(0.05, 1.5, k)
        )
        x = rng.normal(0.0, 1.5, dim)
        tau = int(rng.integers(1, 201))
        an = gmm_score(x, tau, prior, sched)
        fd = np.empty(dim)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            fd[i] = (
                gmm_log_density(x + e, tau, prior, sched)
                - gmm_log_density(x - e, tau, prior, sched)
            ) / (2.0 * h)
        rel = np.linalg.norm(fd - an) / max(np.linalg.norm(an), 1e-6)
        worst = max(worst, float(rel))
    return worst < 1e-6, f"max rel err {worst:.2e} (tol 1e-6)"


def reference_step(x, tau, z, observed, values, prior, sched, cfg):
    """(x_{tau-1}, xhat), each written out as one expression over ``gmm_score``.

    ``exact`` guidance takes its product from ``gmm_score_hessian``.
    """
    abar, abar_prev = sched.alpha_bar[tau - 1], sched.alpha_bar_at(tau - 1)
    x_hat = (x + (1.0 - abar) * gmm_score(x, tau, prior, sched)) / math.sqrt(abar)
    x_prime = (math.sqrt(sched.alpha[tau - 1]) * (1.0 - abar_prev) / (1.0 - abar) * x
               + math.sqrt(abar_prev) * sched.beta[tau - 1] / (1.0 - abar) * x_hat
               + sched.sigma_tilde[tau - 1] * z)
    if not observed.any() or cfg.zeta == 0.0:
        return x_prime, x_hat
    residual = np.where(observed, x_hat - values, 0.0)
    if cfg.jacobian_mode == "scaled-identity":
        grad = (2.0 / math.sqrt(abar)) * residual
    else:
        product = gmm_score_hessian(x, tau, prior, sched, residual)
        grad = 2.0 * (residual + (1.0 - abar) * product) / math.sqrt(abar)
    return x_prime - cfg.zeta * grad, x_hat


def check_reverse_step(seed: int = 5):
    """``bench.reverse_step`` against ``reference_step``, at the paper16 and wide32 shapes.

    Both Jacobian modes, zeta 0 and 1, tau T, T/2 and 1, and no, a tenth of
    and every cell observed, with values drawn from the prior as a blob scene's are.
    """
    rng = np.random.default_rng(seed)
    sched = NoiseSchedule(200)
    worst = 0.0
    for shape, k, n_b in (((16, 16), 8, 8), ((32, 32), 32, 16)):
        prior = make_blob_prior(shape, k, layout_seed=int(rng.integers(1000))).affine(2.0, -1.0)
        n = prior.dimension
        for mode in ("scaled-identity", "exact"):
            for zeta in (0.0, 1.0):
                cfg = GuidanceConfig(zeta, mode)
                for tau in (sched.steps, sched.steps // 2, 1):
                    root = np.sqrt(sched.alpha_bar[tau - 1])
                    for share in (0.0, 0.1, 1.0):
                        observed = rng.random(n) < share
                        values = np.where(observed, prior.sample(rng), 0.0)
                        x = (root * prior.means[rng.integers(0, k, n_b)]
                             + np.sqrt(1.0 - root**2) * rng.standard_normal((n_b, n)))
                        z = rng.standard_normal((n_b, n))
                        want = reference_step(x, tau, z, observed, values, prior, sched, cfg)
                        got = reverse_step(x, tau, z, observed, values, prior, cfg, sched)
                        for g, w in zip(got, want):
                            worst = max(worst, float(np.abs(g - w).max() / np.abs(w).max()))
    return worst <= 1e-12, f"max rel err {worst:.2e} (tol 1e-12)"


def check_entropy_ranking(seed: int = 2):
    rng = np.random.default_rng(seed)
    cfg = BeliefConfig()
    agreed = 0
    total = 200
    for _ in range(total):
        n_b = int(rng.integers(2, 5))
        n_loc = int(rng.integers(2, 17))
        batch = ParticleBatch(rng.normal(size=(n_b, n_loc)))
        cands = list(range(n_loc))
        vals = np.array([location_scores(batch, q, cfg)[0] for q in cands])
        expl = score_field(batch, cands, np.arange(n_loc)[:, None], cfg).exploration
        tied = set(np.flatnonzero(vals >= vals.max() - 1e-9))
        agreed += int(np.argmax(expl)) in tied
    return agreed == total, f"{agreed}/{total} instances agree"


def check_reward_gradients(seed: int = 3):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for layout in (default_layout(4), deep_layout(4)):
        net = RewardNet.create(layout, seed=seed)
        data = np.array([[*rng.uniform(0, 1, 4), rng.integers(0, 2)] for _ in range(6)])
        worst = max(worst, grad_check(net, data))
    return worst < 1e-4, f"max rel err {worst:.2e} (tol 1e-4)"


SUITES = (
    ("tweedie-posterior-mean", check_tweedie),
    ("mixture-score-finite-difference", check_score_fd),
    ("guided-reverse-step", check_reverse_step),
    ("entropy-ranking-equivalence", check_entropy_ranking),
    ("reward-gradient-check", check_reward_gradients),
)


def run_all():
    """Run every oracle suite; yields (name, passed, detail)."""
    for name, fn in SUITES:
        passed, detail = fn()
        yield name, passed, detail
