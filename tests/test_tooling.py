"""The test suite's own settings, and the gate script in tools/."""

import hashlib
import json
import importlib.util
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from gridseek import run_episode

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
TOOLS = PYPROJECT.parent / "tools"

FAILING_PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_after():
    pass
'''


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    """Under the project's warning filters a shrunk failure is one failure, and later tests run.

    Hypothesis's failure reporter may import libcst, which warns through
    mypy_extensions; were that warning an error, pytest would stop with an
    INTERNALERROR and report nothing after it.
    """
    (tmp_path / "test_pair.py").write_text(FAILING_PAIR)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout


def load_trace_hashes(monkeypatch):
    """Import tools/trace_hashes.py; its path and BLAS-thread settings are undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    spec = importlib.util.spec_from_file_location("trace_hashes", TOOLS / "trace_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hashes_plays_the_gate_groups_kind_major(monkeypatch):
    tool = load_trace_hashes(monkeypatch)
    groups = dict(tool.gate_groups())
    assert list(groups) == ["default_6_policies_x_24_seeds", "exact_24_seeds", "wide32_seeds_1_3"]
    kinds = ("diffatd", "max_ent", "greedy_adaptive", "random", "ucb", "eps_greedy")
    default = groups["default_6_policies_x_24_seeds"]
    assert [(label, seed) for label, _, seed in default] == [
        (kind, seed) for kind in kinds for seed in range(1, 25)]
    assert all(cfg.policy.kind == label for label, cfg, _ in default)
    assert [(cfg.jacobian_mode, seed) for _, cfg, seed in groups["exact_24_seeds"]] == [
        ("exact", seed) for seed in range(1, 25)]
    assert [(cfg.scene.rows, seed) for _, cfg, seed in groups["wide32_seeds_1_3"]] == [
        (32, 1), (32, 2), (32, 3)]

    label, cfg, _ = default[0]
    short = replace(cfg, budget=3)
    digest, picks = tool.play([(label, short, 5), (label, short, 6)])
    results = [run_episode(short, seed) for seed in (5, 6)]
    assert digest == hashlib.sha256("".join(r.trace_csv() for r in results).encode()).hexdigest()
    assert picks == [{"episode": f"diffatd/{r.seed}", "locations": [s.location for s in r.records],
                      "y": [s.y for s in r.records], "r_total": r.r_total} for r in results]


def picks_file(path, sha, episodes):
    """A hand-written --out file: one group of (episode, locations, y, r_total)."""
    doc = {"default_6_policies_x_24_seeds": {"sha256": sha, "episodes": [
        {"episode": name, "locations": locs, "y": ys, "r_total": total}
        for name, locs, ys, total in episodes]}}
    path.write_text(json.dumps(doc))
    return str(path)


def test_trace_hashes_compare_reports_a_moved_pick(monkeypatch, tmp_path, capsys):
    tool = load_trace_hashes(monkeypatch)
    kept, ys = ("diffatd/1", [3, 7], [0.5, 0.0], 0.5), [0.0, 1.0, 0.25]
    parent = picks_file(tmp_path / "parent.json", "aa", [kept, ("diffatd/2", [1, 4, 9], ys, 1.25)])
    tip = picks_file(tmp_path / "tip.json", "bb", [kept, ("diffatd/2", [1, 5, 9], ys, 1.25)])
    assert tool.main(["--compare", parent, tip]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "default_6_policies_x_24_seeds digest differs", "  diffatd/2 moved at t=2"]

    assert tool.main(["--compare", parent, parent]) == 0
    assert capsys.readouterr().out.splitlines() == ["default_6_policies_x_24_seeds digest same"]


def test_ab_time_runs_the_repository_against_itself():
    root = str(PYPROJECT.parent)
    run = subprocess.run(
        [sys.executable, str(TOOLS / "ab_time.py"), root, root, "--workload", "paper16",
         "--seeds", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "identical traces on 2 of 2 units" in run.stdout, run.stdout


def test_sr_pairs_runs_the_repository_against_itself():
    """A tiny paper16 config: a row per kind for the A/A floor and for A/B, and no moved pick
    between a tree and itself. It asserts no success rate, since those depend on the machine."""
    root = str(PYPROJECT.parent)
    run = subprocess.run(
        [sys.executable, str(TOOLS / "sr_pairs.py"), root, root, "--workload", "paper16",
         "--seeds", "2", "--budget", "2", "--steps", "20"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    rows = [line.split()[:2] for line in run.stdout.splitlines()[2:14]]
    kinds = ("diffatd", "max_ent", "greedy_adaptive", "random", "ucb", "eps_greedy")
    assert rows == [[label, kind] for kind in kinds for label in ("A/A", "A/B")], run.stdout
    for kind in kinds:
        assert f"A/B {kind} moved seeds: none" in run.stdout, run.stdout
