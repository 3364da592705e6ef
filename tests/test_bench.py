import concurrent.futures
import copy
import dataclasses
import hashlib
import json
import math
import os
import re
import threading
import types
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridseek.bench
import gridseek.diffusion
from gridseek.belief import BeliefConfig
from gridseek.bench import (
    ConfigError,
    DirPrior,
    EpisodeResult,
    ExperimentConfig,
    JsonPrior,
    RewardSpec,
    SceneSpec,
    ScheduleSpec,
    build_prior_and_scene,
    default_benchmark_config,
    run_episode,
    run_suite,
    scene_generator,
    success_rate,
    write_suite_csv,
)
from gridseek.env import load_scene
from gridseek.policy import POLICY_KINDS, EpisodeState, PolicyConfig


def tiny_cfg(**overrides):
    base = ExperimentConfig(
        scene=SceneSpec(kind="blobs", rows=6, cols=6, components=3,
                        blobs_per_component=1, radius=1.4, layout_seed=2),
        schedule=ScheduleSpec(steps=30),
        budget=6,
        particles=3,
        seeds=[1, 2],
    )
    return replace(base, **overrides)


def file_scene_cfg(tmp_path, rows=6, cols=6, p_target=12, **overrides):
    rng = np.random.default_rng(0)
    grid = rng.uniform(0.0, 0.4, (rows, cols))
    flat_targets = rng.choice(rows * cols, size=p_target, replace=False)
    grid.ravel()[flat_targets] = rng.uniform(0.8, 1.0, p_target)
    lines = "\n".join(",".join(repr(float(v)) for v in row) for row in grid)
    (tmp_path / "scene.csv").write_text(lines + "\n")
    y = np.zeros((rows, cols))
    y.ravel()[flat_targets] = 1.0
    tlines = "\n".join(",".join(repr(float(v)) for v in row) for row in y)
    (tmp_path / "scene.target.csv").write_text(tlines + "\n")

    from gridseek.diffusion import GaussianMixturePrior

    prior = GaussianMixturePrior.single(grid.ravel(), 0.01)
    prior.to_json(tmp_path / "prior.json")
    base = tiny_cfg(
        scene=SceneSpec(kind="file", path=str(tmp_path / "scene.csv")),
        prior=JsonPrior(str(tmp_path / "prior.json")),
    )
    return replace(base, **overrides)


def stub_result(y_values, u, budget):
    return EpisodeResult(
        policy="stub", seed=0, budget=budget, u=u, records=[],
        r_total=float(sum(y_values)), wall_time=0.0,
    )


# ------------------------------------------------------------ success rate


def test_sr_worked_example_partial():
    res = stub_result([0.5, 1.0], u=3, budget=2)
    assert success_rate([res], B=2) == pytest.approx(0.75)


def test_sr_worked_example_full():
    res = stub_result([1.0, 1.0, 0.0], u=2, budget=3)
    assert success_rate([res], B=3) == pytest.approx(1.0)


def test_sr_mean_over_tasks():
    a = stub_result([0.8], u=2, budget=2)   # 0.8 / 2 = 0.4
    b = stub_result([1.6], u=2, budget=2)   # 1.6 / 2 = 0.8
    assert success_rate([a, b], B=2) == pytest.approx(0.6)


def test_sr_empty_results_error():
    with pytest.raises(ValueError):
        success_rate([], B=2)


def test_sr_bounds_random_runs():
    rng = np.random.default_rng(0)
    results = []
    for _ in range(20):
        u = int(rng.integers(1, 8))
        budget = int(rng.integers(1, 8))
        denom = min(budget, u)
        ys = rng.uniform(0, 1, budget)
        ys = ys * denom / max(ys.sum(), denom)  # keep the collectable bound
        results.append(stub_result(ys, u=u, budget=budget))
    for budget in {r.budget for r in results}:
        played = [r for r in results if r.budget == budget]
        assert 0.0 <= success_rate(played, B=budget) <= 1.0


def test_sr_rejects_result_played_at_other_budget():
    # budget 3, r_total 3, u 5: its own term is 3 / min(3, 5) = 1, but
    # dividing by min(B=2, 5) would give 1.5
    res = stub_result([1.0, 1.0, 1.0], u=5, budget=3)
    assert res.sr_term == pytest.approx(1.0)
    with pytest.raises(ValueError, match="budget 3"):
        success_rate([res], B=2)
    with pytest.raises(ValueError):
        success_rate([stub_result([0.5], u=1, budget=2), res], B=2)


# ------------------------------------------------------------ run_episode


def test_exhaustive_budget_collects_everything():
    cfg = tiny_cfg(budget=36, schedule=ScheduleSpec(steps=40))
    res = run_episode(cfg, seed=3)
    assert len(res.records) == 36
    assert res.sr_term == pytest.approx(1.0)
    # collected y equals the scene total
    assert res.r_total == pytest.approx(sum(r.y for r in res.records))


def test_record_count_min_budget_candidates():
    cfg = tiny_cfg(budget=40, schedule=ScheduleSpec(steps=40))
    res = run_episode(cfg, seed=3)
    assert len(res.records) == 36  # candidates run out first


def test_same_seed_bit_identical_trace():
    cfg = tiny_cfg()
    a = run_episode(cfg, seed=7)
    b = run_episode(cfg, seed=7)
    assert a.trace_csv() == b.trace_csv()
    assert a.records == b.records


def test_different_seeds_differ():
    cfg = tiny_cfg()
    a = run_episode(cfg, seed=7)
    b = run_episode(cfg, seed=8)
    assert a.trace_csv() != b.trace_csv()


def test_trace_y_matches_ground_truth(tmp_path):
    cfg = file_scene_cfg(tmp_path)
    scene = load_scene(tmp_path / "scene.csv")
    res = run_episode(cfg, seed=5)
    for rec in res.records:
        assert rec.y == pytest.approx(scene.location_y(rec.location))


def test_trace_csv_layout(tmp_path):
    cfg = tiny_cfg()
    res = run_episode(cfg, seed=1)
    out = tmp_path / "trace.csv"
    res.write_trace(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,tau,location,expl,likeli,reward,exploit,combined,y,entropy"
    assert len(lines) == 1 + len(res.records)


def test_random_policy_matches_density_monte_carlo(tmp_path):
    cfg = file_scene_cfg(tmp_path, policy=PolicyConfig(kind="random"))
    p = 12 / 36
    collected = []
    for seed in range(100):
        res = run_episode(cfg, seed=seed)
        collected.extend(r.y for r in res.records)
    n = len(collected)
    se = np.sqrt(p * (1 - p) / n)
    assert abs(np.mean(collected) - p) < 3 * se


def test_locations_never_repeat_within_episode():
    cfg = tiny_cfg(budget=20, schedule=ScheduleSpec(steps=30))
    res = run_episode(cfg, seed=9)
    locs = [r.location for r in res.records]
    assert len(locs) == len(set(locs))


def test_bandit_policies_run_end_to_end():
    for kind in ("ucb", "eps_greedy"):
        cfg = tiny_cfg(policy=PolicyConfig(kind=kind))
        res = run_episode(cfg, seed=2)
        assert len(res.records) == cfg.budget
        assert res.wall_time > 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blow-up overflows on purpose
def test_non_finite_particles_raise_with_tau():
    cfg = replace(default_benchmark_config(), zeta=1000.0, budget=8)
    with pytest.raises(FloatingPointError, match=r"tau=67 \(zeta=1000.0\)"):
        run_episode(cfg, seed=1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the refits overflow on purpose
@pytest.mark.parametrize("lr, t", [(1000.0, 5), (100.0, 6)])
def test_non_finite_reward_net_raises_with_t(lr, t):
    cfg = replace(default_benchmark_config(), budget=8, reward=RewardSpec(lr=lr))
    with pytest.raises(FloatingPointError, match=rf"reward net went non-finite at t={t} "
                                                 rf"\(reward.lr={lr}\)"):
        run_episode(cfg, seed=1)


def _noise_cases():
    """(n_b, dim, steps): T of 1, C - 1, C, C + 1 and 200 at n_b 2 and 16, and a step over the cap."""
    for n_b, dim in ((2, 256), (16, 256)):
        chunk = gridseek.bench._NOISE_CHUNK_BYTES // (8 * n_b * dim)
        for steps in sorted({1, chunk - 1, chunk, chunk + 1, 200}):
            yield n_b, dim, steps
    dim = gridseek.bench._NOISE_CHUNK_BYTES // 16 + 1  # 8 * 2 * dim bytes: one step > the cap
    for steps in (1, 3):
        yield 2, dim, steps


class _DeferredPool:
    """Runs a task only when its result is read, as a worker that falls behind would."""

    def submit(self, fn, *args):
        return types.SimpleNamespace(result=lambda: fn(*args))


class _InlinePool:
    """Runs a task as it is submitted, as a worker that keeps ahead would."""

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("pool", ["thread", "inline", "deferred", None])
@pytest.mark.parametrize("n_b, dim, steps", list(_noise_cases()))
def test_particle_noise_matches_step_by_step_draws(n_b, dim, steps, pool):
    """Each particle's stream gives its first draw, then every step's row, as drawn in turn.

    The rows are the same whether a worker thread fills each chunk ("thread"),
    whether it keeps ahead ("inline") or falls behind ("deferred"), and with no
    worker at all (None).
    """
    seeds = np.random.SeedSequence(11).spawn(n_b)
    ref_rngs = [np.random.default_rng(s) for s in seeds]
    ref_start = np.stack([r.standard_normal(dim) for r in ref_rngs])
    ref_steps = np.empty((steps, n_b, dim))
    for z in ref_steps:
        for row, r in zip(z, ref_rngs):
            r.standard_normal(out=row)

    rngs = [np.random.default_rng(s) for s in seeds]
    start = np.stack([r.standard_normal(dim) for r in rngs])
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as thread_pool:
        executor = {"thread": thread_pool, "inline": _InlinePool(),
                    "deferred": _DeferredPool(), None: None}[pool]
        got = [z.copy() for z in gridseek.bench._particle_noise(rngs, dim, steps, executor)]
    assert start.tobytes() == ref_start.tobytes()
    assert len(got) == steps
    assert np.stack(got).tobytes() == ref_steps.tobytes()
    # nothing is drawn past the last step: each stream stops where the step-by-step one did
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in ref_rngs]


def test_noise_worker_starts_from_a_step_of_32_kib(monkeypatch):
    """A worker draws the noise of an episode whose step noise is 32 KiB or more, given two
    CPUs; none at 16 KiB, and none when the process may use one CPU only."""
    pools = []
    real = gridseek.bench._particle_noise

    def recorded(rngs, dim, steps, pool):
        pools.append(pool is not None)
        return real(rngs, dim, steps, pool)

    monkeypatch.setattr(gridseek.bench, "_particle_noise", recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = replace(default_benchmark_config(), budget=2)
    run_episode(cfg, seed=1)  # 8 particles x 256 cells x 8 bytes = 16 KiB
    run_episode(replace(cfg, particles=16), seed=1)  # 32 KiB
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    run_episode(replace(cfg, particles=16), seed=1)
    assert pools == [False, True, False]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blow-up overflows on purpose
@pytest.mark.parametrize("particles", [8, 16])  # without and with the noise worker
def test_no_thread_outlives_an_episode(particles, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = replace(default_benchmark_config(), particles=particles)
    before = threading.active_count()
    run_episode(cfg, seed=1)
    assert threading.active_count() == before
    unstable = replace(cfg, zeta=1000.0, budget=8)
    with pytest.raises(FloatingPointError,
                       match=r"^particles went non-finite at tau=\d+ \(zeta=1000.0\)$"):
        run_episode(unstable, seed=1)
    assert threading.active_count() == before


def test_exact_jacobian_mode_runs():
    cfg = tiny_cfg(jacobian_mode="exact", budget=3,
                   schedule=ScheduleSpec(steps=12))
    res = run_episode(cfg, seed=1)
    assert len(res.records) == 3


def test_block_query_episode():
    cfg = tiny_cfg(
        scene=SceneSpec(kind="blobs", rows=8, cols=8, components=3,
                        blobs_per_component=1, radius=1.6, layout_seed=2,
                        block=2),
        budget=8,
    )
    res = run_episode(cfg, seed=6)
    assert len(res.records) == 8
    locs = [r.location for r in res.records]
    assert all(0 <= q < 16 for q in locs)  # 8x8 grid has 16 2x2 blocks
    assert len(set(locs)) == 8


def test_directory_prior_episode(tmp_path):
    rng = np.random.default_rng(1)
    for name in ("a", "b", "c"):
        grid = rng.uniform(0.0, 1.0, (6, 6))
        lines = "\n".join(",".join(repr(float(v)) for v in row) for row in grid)
        (tmp_path / f"{name}.csv").write_text(lines + "\n")
    scene_csv = tmp_path / "a.csv"
    cfg = tiny_cfg(
        scene=SceneSpec(kind="file", path=str(scene_csv), target="value>0.5"),
        prior=DirPrior(str(tmp_path), variance=0.01),
        budget=4,
    )
    res = run_episode(cfg, seed=2)
    assert len(res.records) == 4


def test_field_sink_sees_every_measurement():
    cfg = tiny_cfg()
    seen = []
    run_episode(cfg, seed=1, field_sink=lambda t, tau, f: seen.append((t, tau)))
    assert len(seen) == cfg.budget


# ------------------------------------------------------ policy separability


def test_kappa_one_reduces_to_max_ent():
    base = tiny_cfg()
    diff = replace(base, policy=PolicyConfig(kind="diffatd", kappa_override=1.0))
    ment = replace(base, policy=PolicyConfig(kind="max_ent", kappa_override=1.0))
    a = run_episode(diff, seed=4)
    b = run_episode(ment, seed=4)
    assert [r.location for r in a.records] == [r.location for r in b.records]
    assert a.trace_csv() == b.trace_csv()


def test_kappa_zero_reduces_to_greedy_adaptive():
    base = tiny_cfg()
    diff = replace(base, policy=PolicyConfig(kind="diffatd", kappa_override=0.0,
                                             combine_mode="exploit"))
    ga = replace(base, policy=PolicyConfig(kind="greedy_adaptive",
                                           kappa_override=0.0))
    a = run_episode(diff, seed=4)
    b = run_episode(ga, seed=4)
    assert [r.location for r in a.records] == [r.location for r in b.records]
    assert a.trace_csv() == b.trace_csv()


# -------------------------------------------------------------- run_suite


def test_suite_single_config_single_seed():
    cfg = tiny_cfg(seeds=[5])
    rows, failures = run_suite(cfg)
    assert failures == []
    assert len(rows) == 1
    assert rows[0]["std_SR"] == 0.0
    assert rows[0]["n_seeds"] == 1


def test_suite_duplicate_seeds_rejected():
    with pytest.raises(ConfigError):
        run_suite(tiny_cfg(seeds=[1, 1]))


def test_suite_row_accounting():
    cfg = tiny_cfg(seeds=[1, 2, 3, 4, 5], budget=4)
    rows, failures = run_suite(
        cfg, policies=["random", "max_ent", "ucb", "eps_greedy"], budgets=[2, 4]
    )
    assert failures == []
    assert len(rows) == 8
    assert all(r["n_seeds"] == 5 for r in rows)


def test_suite_parallel_matches_serial():
    cfg = tiny_cfg(seeds=[1, 2, 3], budget=4)
    serial, _ = run_suite(cfg, policies=["random", "diffatd"])
    parallel, _ = run_suite(cfg, policies=["random", "diffatd"], jobs=2)

    def metrics(rows):  # wall clock is recorded but excluded from any metric
        return [{k: v for k, v in r.items() if k != "mean_runtime"} for r in rows]

    assert metrics(serial) == metrics(parallel)


def test_suite_pool_starts_no_more_workers_than_tasks(monkeypatch):
    """--jobs 64 asks for 2 workers on a 2-task suite and for no pool on an empty one.

    The fake pool runs each task inline, so no process starts.
    """
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    rows, failures = run_suite(tiny_cfg(seeds=[1, 2], budget=2), policies=["random"], jobs=64)
    assert asked == [2]
    assert failures == [] and rows[0]["n_seeds"] == 2
    # no tasks, no pool: an empty policy list gives an empty table, as with one job
    assert run_suite(tiny_cfg(), policies=[], jobs=2) == ([], [])
    assert asked == [2]


def test_suite_partial_failure_report(tmp_path, monkeypatch):
    cfg = file_scene_cfg(tmp_path, seeds=[1, 2])

    def broken_refit(*args, **kwargs):
        raise RuntimeError("reward refit failed")

    monkeypatch.setattr(gridseek.bench, "train", broken_refit)  # fails inside each episode
    for jobs in (1, 2):  # forked workers inherit the patch
        rows, failures = run_suite(cfg, jobs=jobs)
        assert rows == []
        assert len(failures) == 2
        assert failures[0][:3] == (cfg.policy.kind, cfg.budget, 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blow-up overflows on purpose
def test_suite_reports_failed_episodes_from_worker_processes():
    cfg = replace(default_benchmark_config(), zeta=1000.0, seeds=[1, 2])
    rows, failures = run_suite(cfg, budgets=[1, 8], jobs=2)
    assert [(r["B"], r["n_seeds"]) for r in rows] == [(1, 2)]
    assert [f[:3] for f in failures] == [("diffatd", 8, 1), ("diffatd", 8, 2)]
    assert all("tau=67" in f[3] for f in failures)


def test_suite_rejects_missing_scene_before_any_cell(tmp_path):
    cfg = file_scene_cfg(tmp_path, seeds=[1, 2])
    (tmp_path / "scene.csv").unlink()
    with pytest.raises(FileNotFoundError, match="scene.csv"):
        run_suite(cfg)


def test_suite_csv_output(tmp_path):
    cfg = tiny_cfg(seeds=[1, 2], budget=3)
    rows, _ = run_suite(cfg, policies=["random"])
    out = tmp_path / "suite.csv"
    write_suite_csv(rows, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "policy,B,mean_SR,std_SR,n_seeds,mean_runtime"
    assert len(lines) == 2


# ------------------------------------------------------------ configuration


def test_config_validation_errors_name_keys():
    with pytest.raises(ConfigError, match="budget"):
        tiny_cfg(budget=0)
    with pytest.raises(ConfigError, match="particles"):
        tiny_cfg(particles=1)
    with pytest.raises(ConfigError, match="budget"):
        tiny_cfg(budget=50)  # exceeds steps
    with pytest.raises(ConfigError, match="sigma_x2"):
        tiny_cfg(sigma_x2=0.0)
    with pytest.raises(ConfigError, match="seeds"):
        tiny_cfg(seeds=[])
    with pytest.raises(ConfigError, match="scene.threshold"):
        tiny_cfg(scene=SceneSpec(kind="blobs", threshold=2.0))


def test_replace_checks_the_copy():
    cfg = tiny_cfg()
    with pytest.raises(ConfigError, match="budget"):
        replace(cfg, budget=0)
    with pytest.raises(ConfigError, match=re.escape("scene.threshold")):
        replace(cfg.scene, threshold=2.0)


@pytest.mark.parametrize("config,name", [
    (tiny_cfg(), "budget"),
    (SceneSpec(), "threshold"),
    (ScheduleSpec(), "steps"),
    (RewardSpec(), "epochs"),
    (PolicyConfig(), "kind"),
    (BeliefConfig(), "sigma_x2"),
    (JsonPrior("prior.json"), "path"),
    (DirPrior("corpus"), "variance"),
], ids=lambda v: type(v).__name__ if dataclasses.is_dataclass(v) else v)
def test_config_types_are_frozen(config, name):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, name, getattr(config, name))


def test_built_config_cannot_be_changed_and_hashes(tmp_path):
    json_cfg = file_scene_cfg(tmp_path)
    dir_cfg = ExperimentConfig.from_dict(
        {**json_cfg.to_dict(), "prior": {"kind": "dir", "path": str(tmp_path)}})
    for cfg in (default_benchmark_config(), json_cfg, dir_cfg):
        assert hash(cfg) == hash(ExperimentConfig.from_dict(cfg.to_dict()))
    with pytest.raises(dataclasses.FrozenInstanceError):
        dir_cfg.prior.variance = 5
    with pytest.raises(AttributeError):
        json_cfg.seeds.append(1)
    assert dir_cfg.prior == DirPrior(str(tmp_path), variance=1e-3)
    assert json_cfg.seeds == (1, 2)


def test_blob_block_that_does_not_divide_the_grid_is_refused_when_built():
    with pytest.raises(ConfigError, match=re.escape("scene.block 3 must divide (4, 4)")):
        SceneSpec(rows=4, cols=4, radius=1.0, block=3)
    with pytest.raises(ConfigError, match=re.escape("scene.block 2 must divide (4, 5)")):
        SceneSpec(rows=4, cols=5, radius=1.0, block=2)
    SceneSpec(rows=4, cols=6, radius=1.0, block=2)
    SceneSpec(kind="file", path="scene.csv", block=3)  # checked when the grid is loaded


def test_config_sequences_are_stored_as_tuples():
    assert RewardSpec(hidden=[4]).hidden == (4,)
    assert SceneSpec(noise=[0.0, 0.1]).noise == (0.0, 0.1)
    base = default_benchmark_config()
    cfg = replace(base, reward=RewardSpec(hidden=[4]),
                  scene=replace(base.scene, noise=[0.0, 0.1]))
    assert hash(cfg) == hash(ExperimentConfig.from_dict(cfg.to_dict()))
    with pytest.raises(AttributeError):
        cfg.reward.hidden.append(0)
    with pytest.raises(AttributeError):
        cfg.scene.noise.append(0.2)


BLOB_KEY_VALUES = {"rows": 8, "cols": 8, "components": 3, "blobs_per_component": 3,
                   "background": 0.2, "amplitude": 0.5, "radius": 1.0, "variance": 0.01,
                   "threshold": 0.4, "layout_seed": 1}
FILE_KEY_VALUES = {"path": "scene.csv", "format": "csv", "target": "value>0.5"}


@pytest.mark.parametrize("kind,key,value", [
    *(("file", k, v) for k, v in BLOB_KEY_VALUES.items()),
    *(("blobs", k, v) for k, v in FILE_KEY_VALUES.items()),
])
def test_scene_key_its_kind_does_not_read_is_refused(kind, key, value):
    base = {"path": "scene.csv"} if kind == "file" else {}
    with pytest.raises(ConfigError, match=f"^scene.{key} is not read by a {kind} scene$"):
        SceneSpec(kind=kind, **{**base, key: value})
    with pytest.raises(ConfigError, match=f"scene.{key} is not read"):
        ExperimentConfig.from_dict({"scene": {"kind": kind, **base, key: value}})


def test_scene_keys_at_their_defaults_are_accepted_by_either_kind():
    SceneSpec(kind="file", path="scene.csv", rows=16, threshold=0.5, layout_seed=0)
    SceneSpec(kind="blobs", path=None, format=None, target="auto")
    with pytest.raises(ConfigError, match="^scene.components is not read by a file scene$"):
        SceneSpec(kind="file", path="x.csv", threshold=5.0, components=-3)


# First 16 hex characters of the SHA-256 of each episode's (t, tau, location, y)
# lines, measured before the forward pass, CSV writer and score rows were unified.
# Floats other than y are left out, so BLAS rounding in the scores cannot fail it.
REFERENCE_PICKS = [
    "74d3eb387d0b2ec7", "cca40249d033dd1a", "ba93a7141cba78ed", "85cd57fb8dacac9c",
    "34d0ab5a926c8441", "6c8e6f2bd91898fb", "3f5bde8b8f50a2f9", "e916a446ae4d8ef4",
]


def test_reference_episodes_keep_their_picks():
    cfg = default_benchmark_config()
    episodes = [(replace(cfg, policy=PolicyConfig(kind=k)), 7)
                for k in ("diffatd", "max_ent", "greedy_adaptive", "random", "ucb", "eps_greedy")]
    episodes.append((replace(cfg, jacobian_mode="exact", budget=8), 7))
    episodes.append((replace(cfg, scene=replace(cfg.scene, block=2, noise=(0.0, 0.1)),
                             budget=16), 3))
    got = []
    for episode_cfg, seed in episodes:
        records = run_episode(episode_cfg, seed).records
        picks = "".join(f"{r.t},{r.tau},{r.location},{r.y!r}\n" for r in records)
        got.append(hashlib.sha256(picks.encode()).hexdigest()[:16])
    assert got == REFERENCE_PICKS


def test_exact_episode_evaluates_the_mixture_once_per_reverse_step(monkeypatch):
    """T log-term evaluations per exact-mode episode: each guidance product reuses its step's."""
    calls = {"log_terms": 0, "products": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(gridseek.diffusion, "_component_log_terms",
                        counted("log_terms", gridseek.diffusion._component_log_terms))
    monkeypatch.setattr(gridseek.bench, "_step_hvp", counted("products", gridseek.bench._step_hvp))
    cfg = replace(default_benchmark_config(), jacobian_mode="exact")
    run_episode(cfg, 7)
    assert calls["products"] > 100  # guided from the first measurement on
    assert calls["log_terms"] == cfg.schedule.steps


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_episode_reads_the_candidates_once_per_measurement(kind, monkeypatch):
    """``choose`` derives the candidate set; the pick and its record read the field it built."""
    reads, derive = [], EpisodeState.candidates.fget
    monkeypatch.setattr(EpisodeState, "candidates", property(
        lambda state: reads.append(state.t) or derive(state)))
    cfg = tiny_cfg(policy=PolicyConfig(kind=kind), budget=40, schedule=ScheduleSpec(steps=40))
    res = run_episode(cfg, seed=3)
    assert len(res.records) == 36  # every location, then the candidates run out
    assert reads == list(range(36))


@pytest.mark.parametrize("make, key", [
    (lambda: RewardSpec(lr=math.inf), "reward.lr"),
    (lambda: SceneSpec(noise=(math.nan, 0.1)), "scene.noise"),
    (lambda: SceneSpec(noise=(0.0, math.inf)), "scene.noise"),
    (lambda: BeliefConfig(sigma_x2=math.inf), "sigma_x2"),
    (lambda: ExperimentConfig(sigma_x2=math.inf), "sigma_x2"),
    (lambda: PolicyConfig(alpha=math.inf), "alpha"),
    (lambda: PolicyConfig(ucb_c=math.nan), "ucb_c"),
    (lambda: ExperimentConfig.from_dict({"policy": {"ucb_c": -5}}), "ucb_c"),
    (lambda: SceneSpec(background=math.inf), "scene.background"),
    (lambda: SceneSpec(amplitude=math.nan), "scene.amplitude"),
    (lambda: SceneSpec(variance=math.inf), "scene.variance"),
    (lambda: SceneSpec(variance=-1.0), "scene.variance"),
    (lambda: DirPrior("x", variance=math.inf), "prior.variance"),
    (lambda: DirPrior("x", variance=-1.0), "prior.variance"),
], ids=["lr-inf", "noise-mu-nan", "noise-sigma-inf", "belief-sigma_x2-inf",
        "config-sigma_x2-inf", "alpha-inf", "ucb_c-nan", "json-ucb_c-negative",
        "background-inf", "amplitude-nan", "variance-inf", "variance-negative",
        "dir-variance-inf", "dir-variance-negative"])
def test_config_types_refuse_non_finite_numbers(make, key):
    with pytest.raises(ValueError, match=re.escape(key)):
        make()


def test_nested_section_error_names_its_key_once():
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict({"scene": {"threshold": 2.0}})
    assert str(info.value).count("scene.threshold") == 1


def test_config_errors_surface_before_computation():
    with pytest.raises(ConfigError):
        run_episode(tiny_cfg(budget=0), seed=1)


def test_config_json_round_trip(tmp_path):
    cfg = default_benchmark_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    back = ExperimentConfig.from_json(path)
    assert back == cfg


def test_readme_config_example_is_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1]
    doc = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    assert doc.keys() == ExperimentConfig().to_dict().keys()
    assert ExperimentConfig.from_dict(doc) == ExperimentConfig(seeds=(1, 2, 3, 4, 5))


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"budgets": 3}))
    with pytest.raises(ConfigError, match="budgets"):
        ExperimentConfig.from_json(path)
    path.write_text(json.dumps({"scene": {"rows": 4, "colums": 4}}))
    with pytest.raises(ConfigError, match="scene.colums"):
        ExperimentConfig.from_json(path)


def test_config_missing_file():
    with pytest.raises(FileNotFoundError, match="missing.json"):
        ExperimentConfig.from_json("/nowhere/missing.json")


def test_reward_spec_validation():
    with pytest.raises(ConfigError, match="reward.hidden"):
        tiny_cfg(reward=RewardSpec(hidden=()))
    with pytest.raises(ConfigError, match="reward.epochs"):
        tiny_cfg(reward=RewardSpec(epochs=0))


def test_config_round_trip_of_every_non_default_section(tmp_path):
    cfg = file_scene_cfg(
        tmp_path,
        scene=SceneSpec(kind="file", path=str(tmp_path / "scene.csv"), format="csv",
                        target="value>0.5", block=2, noise=(0.0, 0.05)),
        schedule=ScheduleSpec(steps=40, beta_min=2e-4, beta_max=0.03, curve="cosine",
                              sigma_mode="zero"),
        budget=5, particles=4, zeta=0.5, jacobian_mode="exact", sigma_x2=2.0,
        policy=PolicyConfig(kind="ucb", alpha=2.0, combine_mode="likeli",
                            normalize="none", tie_break="seeded_random", ucb_c=0.5,
                            epsilon=0.2, kappa_override=0.3),
        reward=RewardSpec(hidden=(4,), epochs=2, lr=0.05),
        seeds=[3, 0, 9],
    )
    doc = json.loads(json.dumps(cfg.to_dict()))
    assert doc["prior"] == {"kind": "json", "path": cfg.prior.path}
    assert doc["scene"]["noise"] == [0.0, 0.05] and doc["reward"]["hidden"] == [4]
    back = ExperimentConfig.from_dict(doc)
    assert back == cfg
    assert back.scene.noise == (0.0, 0.05) and back.reward.hidden == (4,)


@pytest.mark.parametrize("prior,key", [
    ({"kind": "dir", "path": "corpus", "varaince": 0.5}, "prior.varaince"),
    ({"kind": "json", "path": "prior.json", "variance": 0.5}, "prior.variance"),
    ({"kind": "dir", "path": "corpus", "variance": 0.5, "comment": ""}, "prior.comment"),
])
def test_prior_section_rejects_keys_it_does_not_read(tmp_path, prior, key):
    doc = {**file_scene_cfg(tmp_path).to_dict(), "prior": prior}
    with pytest.raises(ConfigError, match=re.escape(f"unknown key {key}")):
        ExperimentConfig.from_dict(doc)


def test_blobs_scene_rejects_a_prior_section():
    with pytest.raises(ConfigError, match="prior"):
        tiny_cfg(prior={"kind": "dir", "path": "corpus"})


def test_config_dict_has_no_out_dir_and_drops_unset_prior():
    doc = ExperimentConfig().to_dict()
    assert "out_dir" not in doc and "prior" not in doc
    with pytest.raises(ConfigError, match="out_dir"):
        ExperimentConfig.from_dict({"out_dir": "results"})


@pytest.mark.parametrize("key,doc", [
    ("budget", {"budget": True}),
    ("particles", {"particles": 2.7}),
    ("particles", {"particles": 3.0}),
    ("zeta", {"zeta": 10**400}),
    ("schedule.beta_min", {"schedule": {"beta_min": -10**400}}),
    ("sigma_x2", {"sigma_x2": math.nan}),
    ("zeta", {"zeta": math.inf}),
    ("zeta", {"zeta": False}),
    ("jacobian_mode", {"jacobian_mode": 1}),
    ("scene", {"scene": None}),
    ("scene.noise[1]", {"scene": {"noise": [0.0, "x"]}}),
    ("reward.hidden[0]", {"reward": {"hidden": [4.0]}}),
    ("seeds[1]", {"seeds": [1, None]}),
    ("prior", {"prior": []}),
])
def test_config_reader_checks_json_types(key, doc):
    with pytest.raises(ConfigError, match=re.escape(key)):
        ExperimentConfig.from_dict(doc)


def test_config_reader_converts_json_numbers_and_arrays():
    cfg = ExperimentConfig.from_dict({"zeta": 2, "scene": {"noise": [0, 1]},
                                      "reward": {"hidden": [4]},
                                      "policy": {"kappa_override": None}})
    assert cfg.zeta == 2.0 and type(cfg.zeta) is float
    assert cfg.scene.noise == (0.0, 1.0) and cfg.reward.hidden == (4,)
    assert cfg.policy.kappa_override is None


def conforms(tp, value) -> bool:
    """Whether ``value`` has the annotated type ``tp`` (floats finite)."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return any(conforms(a, value) for a in args)
    if dataclasses.is_dataclass(tp):
        return isinstance(value, tp) and all(
            conforms(t, getattr(value, n)) for n, t in typing.get_type_hints(tp).items())
    if origin in (tuple, list):
        return type(value) is origin and all(conforms(args[0], v) for v in value)
    if tp is float:
        return type(value) is float and math.isfinite(value)
    return type(value) is tp


def key_paths(doc, prefix=()):
    for name, value in doc.items():
        yield prefix + (name,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (name,))


DEFAULT_DOC = ExperimentConfig().to_dict()
KEY_PATHS = [*key_paths(DEFAULT_DOC), ("prior",)]
SECTIONS = [()] + [(name,) for name, v in DEFAULT_DOC.items() if isinstance(v, dict)]
# integers stay within +-1e4 so no drawn schedule.steps allocates more than a few MB
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-10**4, 10**4) | st.floats()
                | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=8)
                | st.sampled_from(["file", "exact", "cosine", "ucb", "csv"]))
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(["kind", "path"]), inner,
                      max_size=4),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_reader_fuzz(data):
    doc = copy.deepcopy(DEFAULT_DOC)
    if data.draw(st.booleans()):
        path = data.draw(st.sampled_from(KEY_PATHS))
    else:
        path = data.draw(st.sampled_from(SECTIONS)) + (data.draw(st.text(max_size=8)),)
    section = doc
    for name in path[:-1]:
        section = section[name]
    section[path[-1]] = data.draw(JSON_VALUES)
    try:
        cfg = ExperimentConfig.from_dict(doc)
    except ConfigError:
        return
    assert conforms(ExperimentConfig, cfg)


TINY_BLOB_CONFIGS = st.fixed_dictionaries({
    "scene": st.fixed_dictionaries({
        "rows": st.sampled_from([7, 6, 5, 4, 3, 2, 1]),
        "cols": st.sampled_from([7, 6, 5, 4, 3, 2, 1]),
        "components": st.integers(1, 3), "blobs_per_component": st.integers(1, 2),
        "radius": st.sampled_from([0.5, 1.0, 1.5]),
        "variance": st.sampled_from([0.0, 0.0016, 0.05]),
        "threshold": st.sampled_from([0.2, 0.5, 0.8]),
        "layout_seed": st.integers(0, 3), "block": st.sampled_from([1, 1, 2, 3]),
        "noise": st.none() | st.tuples(st.sampled_from([-0.1, 0.0]),
                                       st.sampled_from([0.0, 0.1])).map(list),
    }),
    "schedule": st.fixed_dictionaries({
        "steps": st.sampled_from([30, 20, 12, 6, 1]),
        "beta_max": st.sampled_from([0.02, 0.2, 0.6]),
        "curve": st.sampled_from(["linear", "cosine"]),
        "sigma_mode": st.sampled_from(["posterior", "zero"]),
    }),
    "budget": st.integers(1, 12),
    "particles": st.integers(2, 4),
    "zeta": st.sampled_from([1.0, 0.3, 0.0, 1000.0]),
    "jacobian_mode": st.sampled_from(["scaled-identity", "exact"]),
    "sigma_x2": st.sampled_from([0.1, 1.0]),
    "policy": st.fixed_dictionaries({
        "kind": st.sampled_from(POLICY_KINDS),
        "alpha": st.sampled_from([0.5, 1.0]),
        "combine_mode": st.sampled_from(["exploit", "likeli"]),
        "normalize": st.sampled_from(["minmax", "none"]),
        "tie_break": st.sampled_from(["lowest_index", "seeded_random"]),
        "epsilon": st.sampled_from([0.0, 0.5]),
        "kappa_override": st.sampled_from([None, 0.0, 0.5, 1.0]),
    }),
    "reward": st.fixed_dictionaries({
        "hidden": st.sampled_from([[2], [4, 3]]),
        "epochs": st.integers(1, 2),
        "lr": st.sampled_from([0.0, 0.05]),
    }),
})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a blow-up overflows before it is caught
@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=TINY_BLOB_CONFIGS, seed=st.integers(0, 2**32 - 1))
def test_built_blob_config_plays_or_fails_by_name(doc, seed):
    """A config that builds either fails with a named error or plays a whole episode."""
    try:
        cfg = ExperimentConfig.from_dict(doc)
        build_prior_and_scene(cfg, scene_generator(seed))
    except ConfigError:
        return
    try:
        res = run_episode(cfg, seed)
    except FloatingPointError:
        return
    block = cfg.scene.block
    locations = (cfg.scene.rows // block) * (cfg.scene.cols // block)
    assert len(res.records) == min(cfg.budget, locations)
    for r in res.records:
        assert all(math.isfinite(v) for v in dataclasses.astuple(r))
    assert 0.0 <= res.sr_term <= 1.0
