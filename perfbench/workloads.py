"""Workload definitions and episode-seed derivation for the gridseek benchmark.

A workload is a base configuration, the policy kinds it interleaves, and the
number of units whose success rate it reports. One unit is one episode seed
played once under every kind, in the listed order. Episode seeds come from a
generator keyed by the workload seed and the workload name, so the same
workload seed always gives the same episode stream.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from gridseek.bench import ExperimentConfig

ALL_KINDS = ("diffatd", "max_ent", "greedy_adaptive", "random", "ucb", "eps_greedy")
# Kinds whose selection never reads the particle belief (score_field) ...
BELIEF_BLIND = frozenset({"random", "ucb", "eps_greedy"})
# ... and kinds whose selection never reads the reward net's exploitation term.
REWARD_BLIND = BELIEF_BLIND | {"max_ent"}


@dataclass(frozen=True)
class Workload:
    name: str
    config: ExperimentConfig
    kinds: tuple[str, ...]
    # Units in the fixed quality set: success_rate averages exactly these, so
    # it does not depend on how many units fit into the timed window. Sized
    # to fit in a 30 s run on a 2-vCPU Xeon, so the set rarely lengthens it.
    quality_units: int

    def episode_config(self, kind: str) -> ExperimentConfig:
        return replace(self.config, policy=replace(self.config.policy, kind=kind))


# The builders import gridseek late so this module loads before the program's
# source directory is on sys.path.
def _paper16() -> Workload:
    from gridseek import default_benchmark_config

    return Workload("paper16", default_benchmark_config(), ALL_KINDS, quality_units=24)


def _wide32() -> Workload:
    from gridseek import default_benchmark_config

    cfg = default_benchmark_config()
    cfg = replace(cfg, scene=replace(cfg.scene, rows=32, cols=32, components=32),
                  particles=16)
    return Workload("wide32", cfg, ("diffatd",), quality_units=10)


def _exact16() -> Workload:
    from gridseek import default_benchmark_config

    cfg = replace(default_benchmark_config(), jacobian_mode="exact")
    return Workload("exact16", cfg, ("diffatd",), quality_units=14)


WORKLOADS = {"paper16": _paper16, "wide32": _wide32, "exact16": _exact16}


def get_workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]()
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}") from None


class EpisodeSeeds:
    """Deterministic, prefix-stable stream of episode seeds for one workload."""

    def __init__(self, workload: str, seed: int):
        key = [int(seed), zlib.crc32(workload.encode())]
        self._rng = np.random.default_rng(np.random.SeedSequence(key))
        self.drawn: list[int] = []

    def __iter__(self):
        return self

    def __next__(self) -> int:
        value = int(self._rng.integers(1, 2**31))
        self.drawn.append(value)
        return value
