"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests -q``.

Workloads are shrunk (8x8 grid, 20 reverse steps, budget 4) so every test
runs in seconds; the code paths are the ones the full benchmark takes.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from checks import check_episode  # noqa: E402
from tracing import ROOT_SPAN, SpanRecorder, WrapTableError, installed, self_times_ns  # noqa: E402
from workloads import WORKLOADS, EpisodeSeeds, Workload, get_workload  # noqa: E402

import gridseek  # noqa: E402
import gridseek.bench  # noqa: E402
from gridseek.env import Scene  # noqa: E402


def tiny(name: str) -> Workload:
    w = get_workload(name)
    cfg = w.config
    cfg = replace(cfg, scene=replace(cfg.scene, rows=8, cols=8, components=4),
                  schedule=replace(cfg.schedule, steps=20), budget=4)
    return replace(w, config=cfg, quality_units=2)


def played(workload, seed=1, units=1):
    episodes, _ = run.run_units(workload, EpisodeSeeds(workload.name, seed),
                                run.timed(0, units))
    return episodes


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_runs_and_passes_checks(name):
    w = tiny(name)
    warm_sha = run.warm_up(w, 5)
    episodes = played(w, seed=5)
    assert [e.kind for e in episodes] == list(w.kinds)
    assert all(e.problems == [] for e in episodes)
    run.check_rerun(warm_sha, episodes)
    assert episodes[0].problems == []


def test_rerun_mismatch_is_a_failure():
    episodes = played(tiny("exact16"))
    run.check_rerun("0" * 64, episodes)
    assert episodes[0].problems


def test_checks_catch_bad_outputs():
    w = tiny("wide32")
    cfg = w.episode_config("diffatd")
    result = gridseek.run_episode(cfg, 3)
    assert check_episode(result, cfg) == []
    recs = result.records
    bad = [
        replace(result, records=recs[:-1]),
        replace(result, records=recs[:-1] + [recs[0]]),
        replace(result, r_total=result.r_total + 0.5),
        replace(result, records=recs[:-1] + [replace(recs[-1], entropy=math.nan)]),
        replace(result, records=recs[:-1] + [replace(recs[-1], location=10**6)]),
    ]
    for case in bad:
        assert check_episode(case, cfg), case


def test_same_seed_same_episodes_and_success_rate():
    w = tiny("paper16")

    def summary(seed):
        seeds = EpisodeSeeds(w.name, seed)
        episodes, wall = run.run_units(w, seeds, run.timed(0, w.quality_units))
        _, info = run.end_to_end_metrics(w, episodes, wall, [0.1])
        return seeds.drawn, info["success_rate"]

    first, again, other = summary(7), summary(7), summary(8)
    assert first == again
    assert other[0] != first[0]


def test_episode_seed_stream_is_prefix_stable():
    a, b = EpisodeSeeds("paper16", 3), EpisodeSeeds("paper16", 3)
    head = [next(a) for _ in range(3)]
    assert [next(b) for _ in range(5)][:3] == head
    assert next(EpisodeSeeds("wide32", 3)) != head[0]


def test_span_accounting():
    w = tiny("paper16")
    recorder = SpanRecorder()
    untraced, traced = run.run_traced_units(
        w, EpisodeSeeds(w.name, 2), run.timed(0, 1), recorder)
    assert [e.sha256 for e in traced] == [e.sha256 for e in untraced]
    spans = recorder.spans
    children = [0] * len(spans)
    for s in spans:
        assert s[2] >= s[1]
        if s[3] >= 0:
            parent = spans[s[3]]
            assert parent[1] <= s[1] and s[2] <= parent[2]
            assert parent[4] == s[4]
            children[s[3]] += s[2] - s[1]
    for s, c in zip(spans, children):
        assert c <= s[2] - s[1]
    selfs = self_times_ns(spans)
    roots = {s[4]: s for s in spans if s[0] == ROOT_SPAN}
    assert sorted(roots) == list(range(len(traced)))
    for episode, root in roots.items():
        total = sum(t for s, t in zip(spans, selfs) if s[4] == episode)
        assert total == root[2] - root[1]
    names = {s[0] for s in spans}
    assert {"diffusion.gmm_score", "belief.score_field", "reward.predict",
            "env.location_cells"} <= names
    # gmm_score runs inside tweedie_denoise, predict inside score_field.
    by_name = {s[0]: s for s in spans}
    assert spans[by_name["diffusion.gmm_score"][3]][0] == "diffusion.tweedie_denoise"
    assert spans[by_name["reward.predict"][3]][0] == "belief.score_field"


def test_per_layer_metrics_cover_benchmark_json():
    w = tiny("paper16")
    recorder = SpanRecorder()
    untraced, traced = run.run_traced_units(
        w, EpisodeSeeds(w.name, 4), run.timed(0, 1), recorder)
    metrics, info = run.per_layer_metrics(recorder.spans, traced, untraced)
    assert list(metrics) == list(run.PER_LAYER)
    assert metrics["belief.unread_share"] == 0.5
    assert metrics["diffusion.gmm_score_hessian.calls"] == 0
    assert metrics["diffusion.gmm_score.calls"] == 20
    assert abs(sum(info["self_pct"]["all"].values()) - 100.0) < 1e-9


def test_wrap_table_names_missing_function_and_restores():
    original = gridseek.bench.gmm_score
    table = (("gridseek.bench", "gmm_score", "diffusion"),
             ("gridseek.bench", "no_such_function", "diffusion"))
    with pytest.raises(WrapTableError, match="no_such_function"):
        with installed(SpanRecorder(), table):
            pass
    assert gridseek.bench.gmm_score is original
    with installed(SpanRecorder()):
        assert gridseek.bench.gmm_score is not original
        assert Scene.location_cells.__wrapped__ is not None
    assert gridseek.bench.gmm_score is original
    assert not hasattr(Scene.location_cells, "__wrapped__")


def test_benchmark_json_matches_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
