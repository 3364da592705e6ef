"""In-process A/B timing of two source trees on one perfbench workload.

Run from anywhere, with two exported trees (``git archive`` or a copy) that
each hold ``src/gridseek`` and ``perfbench/workloads.py``:

    python3 tools/ab_time.py TREE_A TREE_B --workload exact16 --seeds 16

Both trees' ``gridseek`` packages are imported into this one process, each
under its own ``sys.modules`` entries, which are swapped in before that
tree's episodes are played. Each tree builds its configs from its own
workload definition. After one warm-up unit per tree, every seed is played
as one unit (the seed under each of the workload's policy kinds, as
perfbench plays it) by both trees, the tree that goes first alternating from
seed to seed, so slow drifts of the host fall on both sides alike.

It prints the median over seeds of B's time over A's, how many seeds B
played faster, each tree's median ms per unit and how many units gave the
same traces in both trees. BLAS runs on one thread, as in perfbench.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads, as perfbench/run.py does

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

WARM_SEED = 999_983  # a seed outside the timed ones


def _is_tree_module(name: str) -> bool:
    return name == "workloads" or name == "gridseek" or name.startswith("gridseek.")


class Tree:
    """One tree's imported modules and the configs its own workload builds."""

    def __init__(self, root: Path, workload: str):
        saved_path = list(sys.path)
        sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
        try:
            import gridseek
            import workloads

            spec = workloads.get_workload(workload)
            self.configs = [spec.episode_config(kind) for kind in spec.kinds]
            self.run_episode = gridseek.run_episode
        finally:
            sys.path[:] = saved_path
        self.modules = {n: m for n, m in sys.modules.items() if _is_tree_module(n)}
        for name in self.modules:
            del sys.modules[name]

    def play_unit(self, seed: int) -> tuple[float, list[str]]:
        """Seconds to play ``seed`` under every kind, and each episode's trace."""
        sys.modules.update(self.modules)  # for any name the program looks up as it runs
        try:
            start = time.perf_counter()
            results = [self.run_episode(cfg, seed) for cfg in self.configs]
            took = time.perf_counter() - start
        finally:
            for name in self.modules:
                del sys.modules[name]
        return took, [result.trace_csv() for result in results]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path, help="the reference tree, A")
    parser.add_argument("tree_b", type=Path, help="the tree timed against it, B")
    parser.add_argument("--workload", required=True, help="a perfbench workload name")
    parser.add_argument("--seeds", type=int, required=True, help="episode seeds 1..N to time")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    for root in (args.tree_a, args.tree_b):
        if not (root / "src" / "gridseek").is_dir() or not (root / "perfbench").is_dir():
            parser.error(f"{root} holds no src/gridseek and perfbench/")

    trees = [Tree(root.resolve(), args.workload) for root in (args.tree_a, args.tree_b)]
    for tree in trees:
        tree.play_unit(WARM_SEED)
    seconds: list[list[float]] = [[], []]
    same = 0
    for seed in range(1, args.seeds + 1):
        order = (0, 1) if seed % 2 else (1, 0)
        traces = [None, None]
        for side in order:
            took, traces[side] = trees[side].play_unit(seed)
            seconds[side].append(took)
        same += traces[0] == traces[1]

    ratios = [b / a for a, b in zip(*seconds)]
    wins = sum(r < 1.0 for r in ratios)
    print(f"workload {args.workload}, {args.seeds} seeds")
    print(f"median B/A time {statistics.median(ratios):.3f}")
    print(f"B faster on {wins} of {args.seeds} seeds")
    for label, side in (("A", seconds[0]), ("B", seconds[1])):
        print(f"{label} median {1e3 * statistics.median(side):.1f} ms per unit")
    print(f"identical traces on {same} of {args.seeds} units")
    return 0


if __name__ == "__main__":
    sys.exit(main())
