"""Paired-seed success rates of two source trees on one perfbench workload.

Run from anywhere, with two exported trees as for ab_time.py:

    python3 tools/sr_pairs.py TREE_A TREE_B --workload wide32 --seeds 24

Both trees are imported into one process as ab_time.py imports them, and
each seed is played by both under every policy kind of the workload. Per
kind, and per row, it prints the seeds whose picks (locations or y) moved,
the mean success rate (SR) of each side, the mean per-seed difference
B - A with a 95% bootstrap interval over the seeds, and a sign count: the
seeds where B's SR is above, below and equal to A's.

The ``A/A`` row is the noise floor. It plays tree A against itself with
the particles and xhat of every reverse step rounded to float32, a change
that can move picks only through rounding. Read the ``A/B`` row against
it. In a tree whose episodes already hold their particles in float32 the
rounding changes nothing for those episodes.

``--jacobian-mode``, ``--budget`` and ``--steps`` replace those fields of
the workload's config in both trees. BLAS runs on one thread, as in
perfbench.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from ab_time import Tree  # sets the BLAS thread count before numpy loads

import numpy as np

BOOTSTRAP_DRAWS = 10_000


def round_steps_to_float32(tree: Tree) -> None:
    """Make ``tree``'s episodes round each reverse step's particles and xhat to float32."""
    bench = tree.modules["gridseek.bench"]
    step = bench.reverse_step

    def rounded(*args):
        return tuple(out.astype(np.float32).astype(out.dtype) for out in step(*args))

    bench.reverse_step = rounded


def picks(result) -> list:
    return [(r.location, r.y) for r in result.records]


def summary(seeds, side_a, side_b) -> dict:
    """Moved seeds, mean SRs and the paired SR difference of two sides' results for one kind."""
    moved = [seed for seed, a, b in zip(seeds, side_a, side_b) if picks(a) != picks(b)]
    sr_a = np.array([r.sr_term for r in side_a])
    sr_b = np.array([r.sr_term for r in side_b])
    diff = sr_b - sr_a
    draws = np.random.default_rng(0).integers(0, len(diff), (BOOTSTRAP_DRAWS, len(diff)))
    low, high = np.percentile(diff[draws].mean(axis=1), [2.5, 97.5])
    return {"moved": moved, "sr_a": sr_a.mean(), "sr_b": sr_b.mean(), "diff": diff.mean(),
            "low": low, "high": high,
            "signs": (int((diff > 0).sum()), int((diff < 0).sum()), int((diff == 0).sum()))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path, help="the reference tree, A")
    parser.add_argument("tree_b", type=Path, help="the tree compared with it, B")
    parser.add_argument("--workload", required=True, help="a perfbench workload name")
    parser.add_argument("--seeds", type=int, required=True, help="episode seeds 1..N to play")
    parser.add_argument("--jacobian-mode", choices=("scaled-identity", "exact"))
    parser.add_argument("--budget", type=int)
    parser.add_argument("--steps", type=int, help="reverse steps T")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    for root in (args.tree_a, args.tree_b):
        if not (root / "src" / "gridseek").is_dir() or not (root / "perfbench").is_dir():
            parser.error(f"{root} holds no src/gridseek and perfbench/")

    def configure(cfg):
        if args.jacobian_mode is not None:
            cfg = replace(cfg, jacobian_mode=args.jacobian_mode)
        if args.budget is not None:
            cfg = replace(cfg, budget=args.budget)
        if args.steps is not None:
            cfg = replace(cfg, schedule=replace(cfg.schedule, steps=args.steps))
        return cfg

    roots = (args.tree_a, args.tree_a, args.tree_b)
    trees = [Tree(root.resolve(), args.workload) for root in roots]  # A, A rounded, B
    round_steps_to_float32(trees[1])
    for tree in trees:
        tree.configs = [configure(cfg) for cfg in tree.configs]
    kinds = [cfg.policy.kind for cfg in trees[0].configs]
    seeds = range(1, args.seeds + 1)
    played = [[tree.play_unit(seed)[1] for seed in seeds] for tree in trees]  # [tree][seed][kind]

    cfg = trees[0].configs[0]
    print(f"workload {args.workload}, seeds 1-{args.seeds}, {cfg.jacobian_mode}, "
          f"budget {cfg.budget}, T {cfg.schedule.steps}")
    print(f"{'row':4} {'kind':16} {'moved':>5} {'SR A':>6} {'SR B':>6} {'B - A':>7}"
          f" {'95% interval':>17}  B above/below/equal")
    moved_lines = []
    for k, kind in enumerate(kinds):
        for label, side in (("A/A", 1), ("A/B", 2)):
            row = summary(seeds, [unit[k] for unit in played[0]],
                          [unit[k] for unit in played[side]])
            print(f"{label:4} {kind:16} {len(row['moved']):5d} {row['sr_a']:6.3f}"
                  f" {row['sr_b']:6.3f} {row['diff']:+7.3f}"
                  f" [{row['low']:+.3f}, {row['high']:+.3f}]  {'/'.join(map(str, row['signs']))}")
            moved_lines.append(f"{label} {kind} moved seeds: "
                               f"{', '.join(map(str, row['moved'])) or 'none'}")
    print("\n".join(moved_lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
