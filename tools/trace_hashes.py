"""Digests and picks of the episodes that gate a numeric rewrite.

Run from the repository root:

    python3 tools/trace_hashes.py --out picks.json

It plays three groups of episodes and prints, per group, the SHA-256 of the
concatenated ``trace_csv()`` of its episodes in order:

- ``default_6_policies_x_24_seeds``: seeds 1-24 of
  ``default_benchmark_config()`` under each kind of perfbench's ``ALL_KINDS``,
  kind-major;
- ``exact_24_seeds``: the same seeds of perfbench's ``exact16`` config;
- ``wide32_seeds_1_3``: seeds 1-3 of perfbench's ``wide32`` config.

``--out`` receives each episode's locations, y and r_total. Run the script in
two trees, then compare the two files:

    python3 tools/trace_hashes.py --compare PARENT.json TIP.json

prints, per group, whether the digests match, and each episode whose
locations, y or r_total differ with the first measurement t at which they
do (one past its last when only r_total differs). It exits 1 if any pick
moved and 0 otherwise. The digests depend on the CPU and the BLAS build, so
they compare trees on one machine only. BLAS runs on one thread, as in
perfbench.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads, as perfbench/run.py does

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from gridseek import run_episode  # noqa: E402
from workloads import ALL_KINDS, get_workload  # noqa: E402


def gate_groups():
    """(group name, [(label, config, seed), ...]) for the three gate groups, in order."""
    paper16, exact16, wide32 = (get_workload(w) for w in ("paper16", "exact16", "wide32"))
    return [
        ("default_6_policies_x_24_seeds",
         [(kind, paper16.episode_config(kind), seed) for kind in ALL_KINDS
          for seed in range(1, 25)]),
        ("exact_24_seeds",
         [("exact", exact16.episode_config("diffatd"), seed) for seed in range(1, 25)]),
        ("wide32_seeds_1_3",
         [("wide32", wide32.episode_config("diffatd"), seed) for seed in (1, 2, 3)]),
    ]


def play(episodes):
    """The SHA-256 of the episodes' concatenated traces, and each one's picks."""
    digest, picks = hashlib.sha256(), []
    for label, cfg, seed in episodes:
        result = run_episode(cfg, seed)
        digest.update(result.trace_csv().encode())
        picks.append({"episode": f"{label}/{seed}",
                      "locations": [r.location for r in result.records],
                      "y": [r.y for r in result.records],
                      "r_total": result.r_total})
    return digest.hexdigest(), picks


def first_difference(a, b) -> int:
    """The first measurement t (from 1) whose location or y differs between two episodes."""
    steps_a, steps_b = (list(zip(e["locations"], e["y"])) for e in (a, b))
    return next((t for t, (p, q) in enumerate(zip(steps_a, steps_b), 1) if p != q),
                min(len(steps_a), len(steps_b)) + 1)


def compare(parent: dict, tip: dict) -> int:
    """Print each group's digest match and each episode whose picks moved; 1 if any did."""
    moved = False
    for name, old in parent.items():
        new = tip.get(name, {"sha256": None, "episodes": []})
        print(f"{name} digest {'same' if new['sha256'] == old['sha256'] else 'differs'}")
        if len(new["episodes"]) != len(old["episodes"]):
            print(f"  {len(old['episodes'])} episodes against {len(new['episodes'])}")
            moved = True
        for a, b in zip(old["episodes"], new["episodes"]):
            if a != b:
                print(f"  {a['episode']} moved at t={first_difference(a, b)}")
                moved = True
    return int(moved)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path,
                      help="JSON file for each episode's locations, y and r_total")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("PARENT", "TIP"),
                      help="two --out files to compare")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*(json.loads(path.read_text()) for path in args.compare))
    report = {}
    for name, episodes in gate_groups():
        digest, picks = play(episodes)
        print(f"{name} {digest}", flush=True)
        report[name] = {"sha256": digest, "episodes": picks}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
