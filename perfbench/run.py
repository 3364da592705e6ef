"""gridseek benchmark: episode throughput, latency and success rate per workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper16 --seed 1 --seconds 30 --trace 0

One client in one process plays episodes back to back through the public
``gridseek.run_episode`` (a closed loop), for at least ``--seconds`` and at
least the workload's quality set. Every episode's output is checked. With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the run first plays untraced for half the time, then replays
the same episodes with every module call wrapped in a span (see tracing.py)
and reports the per-layer split. Full results, the machine record and the
episode seeds go to perfbench/out/. Exit code 0 when every check passed,
1 when an episode failed a check, 2 when the benchmark could not run.
"""

from __future__ import annotations

import os

# One BLAS thread. With the default two, the second OpenBLAS thread spins on
# the other core for no speed-up on these workloads (wide32: same wall time,
# twice the CPU time), which ties every timing to that core's neighbours.
# Set before numpy loads; the set-up probes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import check_episode, trace_sha256  # noqa: E402
from machine import machine_record  # noqa: E402
from tracing import (  # noqa: E402
    SpanRecorder,
    WrapTableError,
    episode_kind_share,
    installed,
    span_names,
    summarize,
)
from workloads import ALL_KINDS, BELIEF_BLIND, REWARD_BLIND, EpisodeSeeds, get_workload  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "episodes_per_s": "1/s",
    "episode_ms_p50": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "diffusion.gmm_score.calls": "count",
    "diffusion.gmm_score.self_ms": "ms",
    "diffusion.gmm_score.computed_mb": "MiB",
    "diffusion.gmm_score_hessian.calls": "count",
    "diffusion.gmm_score_hessian.self_ms": "ms",
    "diffusion.guidance_step.self_ms": "ms",
    "diffusion.tweedie_denoise.self_ms": "ms",
    "diffusion.ancestral_step.self_ms": "ms",
    "belief.score_field.calls": "count",
    "belief.score_field.self_ms": "ms",
    "belief.score_field.pair_elems": "count",
    "belief.marginal_entropy.self_ms": "ms",
    "belief.unread_share": "ratio",
    "reward.predict.rows": "count",
    "reward.predict.self_ms": "ms",
    "reward.train.rows": "count",
    "reward.train.self_ms": "ms",
    "reward.unread_share": "ratio",
    "policy.select_from_field.self_ms": "ms",
    "policy.combined_score.self_ms": "ms",
    **{f"policy.{kind}.episode_ms_p50": "ms" for kind in ALL_KINDS},
    "env.location_cells.calls": "count",
    "env.location_cells.self_ms": "ms",
    "env.all_location_cells.self_ms": "ms",
    "env.measure.self_ms": "ms",
    "env.build_scene.self_ms": "ms",
    "bench.run_episode.self_ms": "ms",
    "bench.build_unit_prior.self_ms": "ms",
    "bench.trace_overhead_pct": "%",
}


@dataclass
class Episode:
    unit: int
    kind: str
    seed: int
    ns: int
    sr: float | None = None
    sha256: str | None = None
    problems: list[str] = field(default_factory=list)


def play(cfg, unit: int, kind: str, seed: int, recorder=None, episode_id=0) -> Episode:
    """Play and check one episode."""
    import gridseek  # only importable once import_program() has set sys.path

    start = time.perf_counter_ns()
    try:
        if recorder is None:
            result = gridseek.run_episode(cfg, seed)
        else:
            with recorder.episode_span(episode_id):
                result = gridseek.run_episode(cfg, seed)
    except Exception as exc:  # noqa: BLE001 - a raising episode is a counted failure
        ns = time.perf_counter_ns() - start
        return Episode(unit, kind, seed, ns, problems=[f"{type(exc).__name__}: {exc}"])
    ns = time.perf_counter_ns() - start
    return Episode(unit, kind, seed, ns, result.sr_term, trace_sha256(result.trace_csv()),
                   check_episode(result, cfg))


def play_unit(cfgs: dict, unit: int, seed: int, recorder=None, first_id: int = 0):
    """Play one seed under every kind of the workload, in order."""
    return [play(cfg, unit, kind, seed, recorder, first_id + i)
            for i, (kind, cfg) in enumerate(cfgs.items())]


def episode_configs(workload) -> dict:
    return {kind: workload.episode_config(kind) for kind in workload.kinds}


def run_units(workload, seeds, stop):
    """Play whole units back to back until ``stop(units_done, elapsed_s)``.

    Returns (episodes, wall_ns). Wall time covers every episode and its checks.
    """
    cfgs = episode_configs(workload)
    episodes: list[Episode] = []
    start = time.perf_counter_ns()
    unit = 0
    while not stop(unit, (time.perf_counter_ns() - start) / 1e9):
        episodes += play_unit(cfgs, unit, next(seeds))
        unit += 1
    return episodes, time.perf_counter_ns() - start


def run_traced_units(workload, seeds, stop, recorder):
    """Play each unit untraced, then again with every WRAP_TABLE name wrapped.

    Alternating per unit keeps machine drift out of the overhead figure.
    Returns (untraced, traced) episode lists; traced episode i is the replay
    of untraced episode i and has span episode id i.
    """
    cfgs = episode_configs(workload)
    untraced: list[Episode] = []
    traced: list[Episode] = []
    start = time.perf_counter_ns()
    unit = 0
    while not stop(unit, (time.perf_counter_ns() - start) / 1e9):
        seed = next(seeds)
        untraced += play_unit(cfgs, unit, seed)
        with installed(recorder):
            traced += play_unit(cfgs, unit, seed, recorder, first_id=len(traced))
        unit += 1
    return untraced, traced


def timed(seconds: float, min_units: int):
    return lambda units, elapsed: units >= min_units and elapsed >= seconds


def warm_up(workload, seed: int) -> str | None:
    """Play the run's first episode once, untimed; return its trace's SHA-256.

    This lets lazy imports and allocator pools settle before timing. The
    timed loop starts with the same (seed, kind), so ``check_rerun`` can
    require byte-identical traces. The hash itself is recorded, not gated.
    """
    kind = workload.kinds[0]
    return play(workload.episode_config(kind), 0, kind,
                next(EpisodeSeeds(workload.name, seed))).sha256


def check_rerun(warm_sha: str | None, episodes) -> None:
    first = episodes[0]
    if first.sha256 != warm_sha:
        first.problems.append("trace differs from the warm-up run of the same seed")


def setup_seconds(workload_name: str) -> list[float]:
    """Cold set-up time from fresh processes: one discarded, then SETUP_PROBES timed."""
    times = []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload_name],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def percentile_ms(ns_values, q: int) -> float:
    return statistics.quantiles(ns_values, n=100, method="inclusive")[q - 1] / 1e6


def by_kind_p50_ms(episodes) -> dict:
    out = {}
    for kind in ALL_KINDS:
        ns = [e.ns for e in episodes if e.kind == kind]
        out[kind] = {"episode_ms_p50": statistics.median(ns) / 1e6 if ns else 0.0,
                     "episodes": len(ns)}
    return out


def end_to_end_metrics(workload, episodes, wall_ns, setup_times) -> tuple[dict, dict]:
    ns = [e.ns for e in episodes]
    # An episode that raised has no sr_term; it is already counted as failed.
    quality = [e.sr for e in episodes if e.unit < workload.quality_units and e.sr is not None]
    metrics = {
        "episodes_per_s": len(episodes) / (wall_ns / 1e9),
        "episode_ms_p50": statistics.median(ns) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    info = {
        # Deterministic per workload seed, but its spread over seeds is task
        # sampling, too wide for a gated metric in one run (see README.md).
        "success_rate": statistics.fmean(quality) if quality else 0.0,
        "episodes": len(episodes),
        "units": episodes[-1].unit + 1,
        "wall_s": wall_ns / 1e9,
        "episode_ms_p90": percentile_ms(ns, 90) if len(ns) >= 100 else None,
        "quality_episodes": len(quality),
        "setup_probe_s": setup_times,
        "by_kind": by_kind_p50_ms(episodes),
    }
    return metrics, info


def per_layer_metrics(spans, traced, untraced) -> tuple[dict, dict]:
    n = len(traced)
    summary = summarize(spans, span_names())
    values = {}
    for name, s in summary.items():
        values[f"{name}.calls"] = s["calls"] / n
        values[f"{name}.self_ms"] = s["self_ns"] / 1e6 / n
    gmm = summary["diffusion.gmm_score"]
    values["diffusion.gmm_score.computed_mb"] = (
        gmm["work"] / gmm["calls"] / 2**20 if gmm["calls"] else 0.0)
    values["belief.score_field.pair_elems"] = summary["belief.score_field"]["work"] / n
    values["reward.predict.rows"] = summary["reward.predict"]["work"] / n
    values["reward.train.rows"] = summary["reward.train"]["work"] / n
    kinds = [e.kind for e in traced]
    values["belief.unread_share"] = episode_kind_share(
        spans, "belief.score_field", kinds, BELIEF_BLIND, weigh_work=False)
    values["reward.unread_share"] = episode_kind_share(
        spans, "reward.predict", kinds, REWARD_BLIND, weigh_work=True)
    for kind, entry in by_kind_p50_ms(untraced).items():
        values[f"policy.{kind}.episode_ms_p50"] = entry["episode_ms_p50"]
    values["bench.trace_overhead_pct"] = 100.0 * (
        sum(e.ns for e in traced) / sum(e.ns for e in untraced) - 1.0)

    # Self-time split in percent of episode time, over all traced episodes
    # and per policy kind.
    def split(episode_ids) -> dict:
        part = summarize(spans, span_names(), episode_ids)
        total = sum(s["self_ns"] for s in part.values())
        return {name: 100.0 * s["self_ns"] / total for name, s in part.items()}

    self_pct = {"all": split(None)}
    for kind in dict.fromkeys(kinds):
        self_pct[kind] = split({i for i, k in enumerate(kinds) if k == kind})
    return {name: values[name] for name in PER_LAYER}, {"all": values, "self_pct": self_pct}


def write_spans(path: Path, spans) -> None:
    with gzip.open(path, "wt") as fh:
        fh.write("name,start_ns,end_ns,parent,episode,work\n")
        for s in spans:
            fh.write(",".join("" if v is None else str(v) for v in s) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> None:
    """Put this checkout's src/ first on sys.path and import gridseek from it."""
    if not (SRC / "gridseek" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: gridseek sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import gridseek

    if SRC.resolve() not in Path(gridseek.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported gridseek from {gridseek.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    try:
        workload = get_workload(args.workload)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "kinds": list(workload.kinds),
              "quality_units": workload.quality_units,
              "machine": machine_record(ROOT)}
    if args.trace == 0:
        try:
            setup_times = setup_seconds(workload.name)
        except (subprocess.SubprocessError, OSError) as exc:
            print(f"perfbench: set-up probe failed: {exc}", file=sys.stderr)
            return 2
        warm_sha = warm_up(workload, args.seed)
        seeds = EpisodeSeeds(workload.name, args.seed)
        episodes, wall = run_units(workload, seeds,
                                   timed(args.seconds, workload.quality_units))
        check_rerun(warm_sha, episodes)
        played = episodes
        metrics, info = end_to_end_metrics(workload, episodes, wall, setup_times)
        units = END_TO_END
    else:
        warm_sha = warm_up(workload, args.seed)
        seeds = EpisodeSeeds(workload.name, args.seed)
        recorder = SpanRecorder()
        try:
            untraced, episodes = run_traced_units(workload, seeds, timed(args.seconds, 1),
                                                  recorder)
        except WrapTableError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        check_rerun(warm_sha, untraced)
        for before, after in zip(untraced, episodes):
            if after.sha256 != before.sha256:
                after.problems.append("traced episode's trace differs from untraced")
        played = untraced + episodes
        metrics, info = per_layer_metrics(recorder.spans, episodes, untraced)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.csv.gz"
        write_spans(spans_path, recorder.spans)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
        info["untraced_episodes"] = [asdict(e) for e in untraced]
        units = PER_LAYER

    failed = sum(1 for e in played if e.problems)
    record.update({
        "episode_seeds": list(seeds.drawn),
        "determinism_sha256": warm_sha,
        "attempted": len(played),
        "failed": failed,
        "failure_rate": failed / len(played),
        "metrics": metrics,
        "info": info,
        "episodes": [asdict(e) for e in episodes],
    })
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    for e in played:
        for problem in e.problems:
            print(f"FAIL {e.kind} seed {e.seed}: {problem}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed} trace={args.trace}: {len(played)} episodes, "
          f"{failed} failed; results in {out_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if "success_rate" in info:
        print(f"  (not gated) success_rate = {info['success_rate']:.6g} over "
              f"{info['quality_episodes']} episodes")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(played),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
