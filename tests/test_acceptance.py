"""Acceptance gate: every shipped claim, at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all;
failures surface the line regardless). The ordering and robustness checks
run the full synthetic benchmark and are the slow part, bounded below their
stated runtime budgets.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from gridseek.bench import (
    EpisodeResult,
    default_benchmark_config,
    run_episode,
    success_rate,
)
from gridseek.policy import kappa
from gridseek.validate import (
    check_entropy_ranking,
    check_reward_gradients,
    check_score_fd,
    check_tweedie,
)


def report(criterion, ok, detail, elapsed=None):
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}{stamp}")
    assert ok, f"{criterion}: {detail}"


def oracle_criterion(criterion, check, seed, time_bound_s):
    """Run one of the ``gridseek validate`` suites at the criterion's seed."""
    start = time.perf_counter()
    ok, detail = check(seed)
    elapsed = time.perf_counter() - start
    report(criterion, ok and elapsed < time_bound_s, detail, elapsed)


def test_criterion_1_tweedie_oracle():
    oracle_criterion("criterion 1 (tweedie posterior-mean oracle, 50 pairs)",
                     check_tweedie, 101, 1.0)


def test_criterion_2_score_fidelity():
    oracle_criterion("criterion 2 (score vs finite differences, 100 points)",
                     check_score_fd, 102, 5.0)


def test_criterion_3_entropy_ranking_equivalence():
    oracle_criterion("criterion 3 (exploration argmax in oracle tied set)",
                     check_entropy_ranking, 103, 10.0)


def test_criterion_4_reward_gradients():
    oracle_criterion("criterion 4 (reward gradient check, default + deep preset)",
                     check_reward_gradients, 104, 5.0)


# ------------------------------------------------------------- criterion 5


def test_criterion_5_kappa_schedule():
    ok = kappa(200, 0) == 1.0 and kappa(200, 200) == 0.0
    vals = [kappa(200, t) for t in range(201)]
    ok = ok and all(a > b for a, b in zip(vals, vals[1:]))
    ok = ok and kappa(200, 150, alpha=0.5) == 0.0
    report("criterion 5 (mixing-weight schedule)",
           ok, "boundaries, strict decrease, and clamp all exact")


# ------------------------------------------------------------- criterion 6


def test_criterion_6_sr_formula():
    def stub(ys, u, budget):
        return EpisodeResult(policy="stub", seed=0, budget=budget, u=u,
                             records=[], r_total=float(sum(ys)), wall_time=0.0)

    a = success_rate([stub([0.5, 1.0], u=3, budget=2)], B=2)
    b = success_rate([stub([1.0, 1.0, 0.0], u=2, budget=3)], B=3)
    c = success_rate([stub([0.8], 2, 2), stub([1.6], 2, 2)], B=2)
    ok = a == pytest.approx(0.75) and b == pytest.approx(1.0) and c == pytest.approx(0.6)
    report("criterion 6 (success-rate formula)",
           ok, f"worked examples give ({a}, {b}, {c}) == (0.75, 1.0, 0.6)")


# ----------------------------------------------------- benchmark machinery


SEEDS = list(range(1, 25))  # 24 seeds


def benchmark_terms(kind=None, alpha=1.0, noise=None):
    cfg = default_benchmark_config()
    cfg = replace(cfg, seeds=SEEDS,
                  policy=replace(cfg.policy, kind=kind or "diffatd", alpha=alpha))
    if noise is not None:
        cfg = replace(cfg, scene=replace(cfg.scene, noise=noise))
    return np.array([run_episode(cfg, s).sr_term for s in cfg.seeds])


@pytest.fixture(scope="module")
def diffatd_terms():
    return benchmark_terms("diffatd")


def pooled_se(a, b):
    return math.sqrt(a.std() ** 2 / a.size + b.std() ** 2 / b.size)


# ------------------------------------------------------------- criterion 7


def test_criterion_7_policy_ordering(diffatd_terms):
    start = time.perf_counter()
    terms = {"diffatd": diffatd_terms}
    for kind in ("max_ent", "greedy_adaptive", "random"):
        terms[kind] = benchmark_terms(kind)
    elapsed = time.perf_counter() - start

    gaps = []
    for better, worse in (
        ("diffatd", "max_ent"),
        ("diffatd", "greedy_adaptive"),
        ("max_ent", "random"),
        ("greedy_adaptive", "random"),
    ):
        gap = terms[better].mean() - terms[worse].mean()
        se = pooled_se(terms[better], terms[worse])
        gaps.append((better, worse, gap, se, gap > se))

    means = {k: v.mean() for k, v in terms.items()}
    detail = (
        f"means {({k: round(v, 3) for k, v in means.items()})}; gaps "
        + ", ".join(f"{b}>{w}: {g:.3f}>se {s:.3f}" for b, w, g, s, _ in gaps)
    )
    ok = all(flag for *_, flag in gaps) and elapsed < 300.0
    report("criterion 7 (policy ordering on the synthetic benchmark)",
           ok, detail, elapsed)


# ------------------------------------------------------------- criterion 8


def test_criterion_8_alpha_ablation(diffatd_terms):
    start = time.perf_counter()
    low = benchmark_terms("diffatd", alpha=0.2)
    high = benchmark_terms("diffatd", alpha=5.0)
    elapsed = time.perf_counter() - start
    mid = diffatd_terms
    ok_low = mid.mean() >= low.mean() - pooled_se(mid, low)
    ok_high = mid.mean() >= high.mean() - pooled_se(mid, high)
    ok = ok_low and ok_high and elapsed < 600.0
    report("criterion 8 (extreme mixing scales do not help)",
           ok,
           f"mean SR alpha=1: {mid.mean():.3f} >= alpha=0.2: {low.mean():.3f} "
           f"and >= alpha=5: {high.mean():.3f} (ties within one SE allowed)",
           elapsed)


# ------------------------------------------------------------- criterion 9


def test_criterion_9_noise_robustness(diffatd_terms):
    start = time.perf_counter()
    noisy = benchmark_terms("diffatd", noise=(0.0, 0.1))
    elapsed = time.perf_counter() - start
    clean_mean = diffatd_terms.mean()
    rel_drop = (clean_mean - noisy.mean()) / clean_mean
    ok = rel_drop < 0.10 and elapsed < 300.0
    report("criterion 9 (content-noise robustness)",
           ok,
           f"clean {clean_mean:.3f} vs noisy {noisy.mean():.3f}, "
           f"relative drop {rel_drop * 100:.1f}% < 10%",
           elapsed)


# ------------------------------------------------------------ criterion 10


def test_criterion_10_determinism(tmp_path):
    cfg = default_benchmark_config()
    cfg = replace(cfg, seeds=[7])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_episode(cfg, 7).write_trace(a)
    run_episode(cfg, 7).write_trace(b)
    ok = a.read_bytes() == b.read_bytes()
    report("criterion 10 (byte-identical trace on re-run)",
           ok, "same seed twice gives identical trace bytes")
