"""Active discovery of target cells on a hidden grid under a measurement budget.

A batch of diffusion particles tracks belief over the unobserved scene;
revealed cells steer the reverse process, and a budget-scheduled score
trades exploration against exploitation when picking the next cell.
"""

__version__ = "0.1.0"

from gridseek.bench import (
    ExperimentConfig,
    default_benchmark_config,
    run_episode,
    run_suite,
    success_rate,
)
from gridseek.belief import BeliefConfig, ParticleBatch, ScoreField
from gridseek.diffusion import (
    GaussianMixturePrior,
    GuidanceConfig,
    NoiseSchedule,
    make_schedule,
)
from gridseek.env import Scene, load_scene, save_scene
from gridseek.policy import PolicyConfig
from gridseek.reward import RewardNet

__all__ = [
    "BeliefConfig",
    "ExperimentConfig",
    "GaussianMixturePrior",
    "GuidanceConfig",
    "NoiseSchedule",
    "ParticleBatch",
    "PolicyConfig",
    "RewardNet",
    "Scene",
    "ScoreField",
    "default_benchmark_config",
    "load_scene",
    "make_schedule",
    "run_episode",
    "run_suite",
    "save_scene",
    "success_rate",
]
