"""Measurement selection: budget-scheduled scoring plus baseline policies.

The main policy mixes per-location exploration and exploitation scores with
a budget-dependent weight

    kappa = max(0, (alpha B - t) / (alpha B + t))

which starts at 1 (pure exploration) and decays toward 0 as the budget is
spent. Both score components are min-max normalized over the remaining
candidates before mixing, since their raw scales are incommensurate;
``normalize="none"`` keeps raw values for ablations, and
``combine_mode="likeli"`` swaps the exploitation term for the bare
likelihood score.

Baselines: uniform random, pure exploration (max_ent), pure exploitation
(greedy_adaptive), and two model-free bandits (ucb, eps_greedy) whose arm
value is an optimistic pseudo-count mean of observed ratios in each
location's 8-neighborhood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from gridseek.belief import ScoreField
from gridseek.env import Measurement, RepeatMeasurementError, Scene

__all__ = [
    "POLICY_KINDS",
    "PolicyConfig",
    "EpisodeState",
    "kappa",
    "combined_score",
    "select_from_field",
    "build_measurement_schedule",
]

POLICY_KINDS = ("diffatd", "random", "max_ent", "greedy_adaptive", "ucb", "eps_greedy")


class ExhaustedCandidatesError(RuntimeError):
    """Raised when selection is asked to pick from an empty candidate set."""


@dataclass(frozen=True)
class PolicyConfig:
    kind: str = "diffatd"
    alpha: float = 1.0
    combine_mode: str = "exploit"
    normalize: str = "minmax"
    tie_break: str = "lowest_index"
    ucb_c: float = math.sqrt(2.0)
    epsilon: float = 0.1
    kappa_override: float | None = None  # pins the mixing weight, for ablations

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if not (math.isfinite(self.ucb_c) and self.ucb_c >= 0.0):
            raise ValueError(f"ucb_c must be finite and non-negative, got {self.ucb_c}")
        if self.combine_mode not in ("exploit", "likeli"):
            raise ValueError(f"unknown combine_mode {self.combine_mode!r}")
        if self.normalize not in ("minmax", "none"):
            raise ValueError(f"unknown normalize {self.normalize!r}")
        if self.tie_break not in ("lowest_index", "seeded_random"):
            raise ValueError(f"unknown tie_break {self.tie_break!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if self.kappa_override is not None and not 0.0 <= self.kappa_override <= 1.0:
            raise ValueError(f"kappa_override must lie in [0, 1], got {self.kappa_override}")


@dataclass
class EpisodeState:
    """The episode's one record of what it has measured and revealed.

    ``observed`` is an (N,) mask of revealed cells and ``values`` their contents in sampler
    space (zero elsewhere), both written by ``apply``; ``candidates`` reads the unrevealed
    locations, ascending, off each one's first cell. Row t of the (budget, patch_area + 1)
    ``dataset`` holds query t's raw contents, then its y: the reward net trains on ``dataset[:t]``.
    """

    scene: Scene
    budget: int
    observed: np.ndarray = field(init=False)
    values: np.ndarray = field(init=False)
    locations: list[int] = field(init=False)
    dataset: np.ndarray = field(init=False)
    r_total: float = field(init=False)

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        self.observed = np.zeros(self.scene.n_cells, dtype=bool)
        self.values = np.zeros(self.scene.n_cells)
        self.dataset = np.zeros((self.budget, self.scene.block**2 + 1))
        self.locations, self.r_total = [], 0.0

    @property
    def t(self) -> int:
        return len(self.locations)

    @property
    def candidates(self) -> np.ndarray:
        return np.flatnonzero(~self.observed[self.scene.all_location_cells()[:, 0]])

    def apply(self, m: Measurement, engine_values: np.ndarray) -> None:
        """Book a measurement: spend budget, mark its cells revealed, grow the reward dataset.

        ``engine_values`` are the revealed contents mapped into the sampler's value space,
        one per cell; the raw contents feed the reward dataset. An out-of-range location
        raises IndexError, a repeated one RepeatMeasurementError; a rejected call changes nothing.
        """
        if self.t >= self.budget:
            raise ValueError("budget exhausted")
        cells = self.scene.location_cells(m.location)
        if self.observed[cells[0]]:
            raise RepeatMeasurementError(f"location {m.location} already measured")
        engine_values = np.asarray(engine_values, dtype=float).ravel()
        if engine_values.shape != cells.shape:
            raise ValueError("engine_values must hold one value per cell")
        self.dataset[self.t] = *np.ravel(m.content), m.y
        self.locations.append(m.location)
        self.observed[cells] = True
        self.values[cells] = engine_values
        self.r_total += m.y


def kappa(B: int, t: int, alpha: float = 1.0) -> float:
    """Exploration weight max(0, (alpha B - t) / (alpha B + t))."""
    if B < 1:
        raise ValueError(f"budget must be >= 1, got {B}")
    if not 0 <= t <= B:
        raise ValueError(f"steps taken {t} outside 0..{B}")
    ab = alpha * B
    return max(0.0, (ab - t) / (ab + t))


def _minmax(values: np.ndarray) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if hi <= lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def combined_score(
    field: ScoreField,
    kappa_val: float,
    combine_mode: str = "exploit",
    normalize: str = "minmax",
) -> np.ndarray:
    """kappa-weighted mix of exploration and the chosen exploitation term."""
    if len(field.locations) == 0:
        raise ExhaustedCandidatesError("no candidates to score")
    second = field.exploitation if combine_mode == "exploit" else field.likelihood
    expl = field.exploration
    if normalize == "minmax":
        expl, second = _minmax(expl), _minmax(second)
    return kappa_val * expl + (1.0 - kappa_val) * second


def _argmax_with_ties(values: np.ndarray, tie_break: str, rng) -> int:
    best = int(np.argmax(values))
    if tie_break == "lowest_index":
        return best
    top = values[best]
    tol = 1e-12 * max(1.0, abs(top))
    tied = np.flatnonzero(values >= top - tol)
    return int(tied[rng.integers(tied.size)]) if tied.size > 1 else best


def _neighborhood_estimates(state: EpisodeState, locations):
    """Optimistic pseudo-count mean of observed y around each of ``locations``.

    The measured-y and count maps are summed over each 3x3 neighbourhood
    (nine shifted slices of the zero-padded maps) and read at ``locations``.
    """
    rows, cols = state.scene.location_shape
    maps = np.zeros((2, rows * cols))
    maps[0, state.locations] = state.dataset[:state.t, -1]
    maps[1, state.locations] = 1.0
    padded = np.pad(maps.reshape(2, rows, cols), ((0, 0), (1, 1), (1, 1)))
    sums = sum(padded[:, i:i + rows, j:j + cols] for i in range(3) for j in range(3))
    y_sum, counts = sums.reshape(2, -1)[:, locations]
    return (1.0 + y_sum) / (1.0 + counts), counts.astype(int)


def select_from_field(
    cfg: PolicyConfig,
    state: EpisodeState,
    field: ScoreField | None,
    rng: np.random.Generator,
) -> int:
    """The row of the next location among ``field.locations``, the candidates it scores.

    ``diffatd`` reads the kappa mix that ``bench.choose`` left in ``field.combined``.
    A belief-blind kind may get no field; its row then indexes ``state.candidates``.
    """
    locations = state.candidates if field is None else field.locations
    n = len(locations)
    if not n:
        raise ExhaustedCandidatesError("candidate set is empty")

    if cfg.kind == "random":
        return int(rng.integers(n))

    if cfg.kind in ("ucb", "eps_greedy"):
        est, counts = _neighborhood_estimates(state, locations)
        if cfg.kind == "ucb":
            bonus = cfg.ucb_c * np.sqrt(math.log(state.t + 1.0) / (counts + 1.0))
            return _argmax_with_ties(est + bonus, cfg.tie_break, rng)
        if rng.random() < cfg.epsilon:
            return int(rng.integers(n))
        return _argmax_with_ties(est, cfg.tie_break, rng)

    if field is None:
        raise ValueError(f"{cfg.kind} needs a score field")
    if cfg.kind == "max_ent":
        values = field.exploration
    elif cfg.kind == "greedy_adaptive":
        values = field.exploitation
    elif field.combined is None:
        raise ValueError("diffatd needs the field's combined score")
    else:
        values = field.combined
    return _argmax_with_ties(values, cfg.tie_break, rng)


def build_measurement_schedule(T: int, B: int) -> frozenset[int]:
    """Reverse steps at which to measure: B evenly spaced points over T..1.

    The j-th measurement lands after ceil(T j / B) reverse steps, i.e. at
    step tau = T - ceil(T j / B) + 1; the last one always sits at tau = 1.
    """
    if B < 1:
        raise ValueError(f"need at least one measurement, got {B}")
    if B > T:
        raise ValueError(f"cannot schedule {B} measurements over {T} steps")
    taus = {T - math.ceil(T * j / B) + 1 for j in range(1, B + 1)}
    assert len(taus) == B
    return frozenset(taus)
