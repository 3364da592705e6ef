"""Episode runner, success-rate metric, and multi-seed suite orchestration.

One episode runs the full reverse-diffusion loop: particles start as pure
noise, every step applies one-step denoising, the ancestral update, and
measurement guidance; at scheduled steps (while budget remains) the policy
scores the unmeasured locations, one is revealed, and the reward model is
refit on everything revealed so far. The scene lives on [0, 1] cell values
while the sampler runs on [-1, 1]; revealed contents are mapped into sampler
space for guidance and kept raw for the reward dataset.

The per-task success metric divides the collected target ratio by
min(budget, number of target locations); a suite averages it over seeds and
reports mean, population std, and runtime per (policy, budget) row.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import math
import os
import sys
import time
import types
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from gridseek.belief import (
    BeliefConfig,
    ParticleBatch,
    ScoreField,
    marginal_entropy,
    score_field,
)
from gridseek.diffusion import (
    GaussianMixturePrior,
    GuidanceConfig,
    NoiseSchedule,
    _step_hvp,
    _step_terms,
    ancestral_step,
    as_float,
    gmm_score,
    gmm_score_hessian,  # not called here; perfbench traces it by this name
    guidance_step,
    tweedie_denoise,
)
from gridseek.env import (
    Scene,
    _parse_target_spec,
    gen_gmm_scene,
    load_grid_dir,
    load_scene,
    make_blob_prior,
    measure,
)
from gridseek.policy import (
    EpisodeState,
    PolicyConfig,
    build_measurement_schedule,
    combined_score,
    kappa,
    select_from_field,
)
from gridseek.reward import RewardNet, predict, train

__all__ = [
    "ConfigError",
    "SceneSpec",
    "RewardSpec",
    "JsonPrior",
    "DirPrior",
    "ExperimentConfig",
    "read_value",
    "scene_generator",
    "StepRecord",
    "EpisodeResult",
    "choose",
    "run_episode",
    "success_rate",
    "run_suite",
    "write_suite_csv",
    "default_benchmark_config",
]


class ConfigError(ValueError):
    """Raised before any computation when a configuration key is invalid."""


_JSON_KINDS = {int: "an integer", float: "a finite number", str: "a string"}


def _build(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ``ValueError`` raised as a ConfigError naming ``section``."""
    try:
        return make(*args, **kwargs)
    except ConfigError:  # names its key already
        raise
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def read_value(tp, value, key: str = ""):
    """A parsed JSON ``value`` read as the annotated type ``tp``, named ``key`` in errors.

    This walk is the config schema: a dataclass takes an object of its fields (one with no
    default is required), a union of them the one its ``kind`` names, a tuple or list an array.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        members = [a for a in args if a is not type(None)]
        if len(members) > 1 and isinstance(value, dict):  # told apart by their ``kind``
            kinds, kind = [a.kind for a in members], value.get("kind")
            if kind not in kinds:  # a list, so an unhashable kind is no TypeError
                raise ConfigError(f"{key}.kind must be one of {kinds}, got {kind!r:.40}")
            members = [members[kinds.index(kind)]]
        return read_value(members[0], value, key)
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{key or 'config'} must be an object")
        hints, prefix = typing.get_type_hints(tp), f"{key}." if key else ""
        for name in value:
            if name not in hints:
                raise ConfigError(f"unknown key {prefix}{name}")
        for f in dataclasses.fields(tp):
            if f.name not in value and f.default is dataclasses.MISSING is f.default_factory:
                raise ConfigError(f"missing key {prefix}{f.name}")
        return _build(key, tp, **{n: read_value(hints[n], v, prefix + n)
                                  for n, v in value.items()})
    if origin in (tuple, list):
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be an array")
        return origin(read_value(args[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    # type(), not isinstance(): a JSON true is no integer
    if tp is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    if tp in (int, str) and type(value) is tp:
        return value
    raise ConfigError(f"{key} must be {_JSON_KINDS[tp]}, got {value!r:.40}")


def to_engine(values: np.ndarray) -> np.ndarray:
    """Map unit-interval cell values onto the sampler's [-1, 1] range."""
    return 2.0 * np.asarray(values, dtype=float) - 1.0


def to_unit(values: np.ndarray) -> np.ndarray:
    """Map sampler values back onto [0, 1], in their float dtype."""
    return (as_float(values) + 1.0) / 2.0


@dataclass(frozen=True)
class SceneSpec:
    """Where scenes come from: a synthetic mixture or a grid file."""

    kind: str = "blobs"
    # blobs
    rows: int = 16
    cols: int = 16
    components: int = 8
    blobs_per_component: int = 2
    background: float = 0.1
    amplitude: float = 0.8
    radius: float = 2.0
    variance: float = 0.0016
    threshold: float = 0.5
    layout_seed: int = 0
    # file
    path: str | None = None
    format: str | None = None
    target: str = "auto"
    # shared
    block: int = 1
    noise: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "noise", None if self.noise is None else tuple(self.noise))
        if self.kind not in ("blobs", "file"):
            raise ConfigError(f"scene.kind must be 'blobs' or 'file', got {self.kind!r}")
        unread = ("path", "format", "target") if self.kind == "blobs" else (
            "rows", "cols", "components", "blobs_per_component", "background",
            "amplitude", "radius", "variance", "threshold", "layout_seed")
        for key in unread:
            if getattr(self, key) != getattr(SceneSpec, key):
                raise ConfigError(f"scene.{key} is not read by a {self.kind} scene")
        if self.kind == "blobs":
            if self.rows < 1 or self.cols < 1:
                raise ConfigError("scene.rows and scene.cols must be positive")
            if self.components < 1:
                raise ConfigError("scene.components must be >= 1")
            if not 0.0 < self.threshold < 1.0:
                raise ConfigError("scene.threshold must lie in (0, 1)")
            for key in ("background", "amplitude", "variance"):
                if not math.isfinite(getattr(self, key)):
                    raise ConfigError(f"scene.{key} must be finite")
            if self.variance < 0.0:
                raise ConfigError("scene.variance must be >= 0")
            if self.blobs_per_component < 1:
                raise ConfigError("scene.blobs_per_component must be >= 1")
            if not 0.0 < 2.0 * self.radius <= min(self.rows, self.cols) - 1:
                raise ConfigError("scene.radius must satisfy 0 < 2 * scene.radius"
                                  " <= min(scene.rows, scene.cols) - 1")
        elif self.path is None:
            raise ConfigError("scene.path is required when scene.kind is 'file'")
        elif self.format not in (None, "csv", "pgm"):
            raise ConfigError(f"scene.format must be null, 'csv' or 'pgm', got {self.format!r}")
        else:
            _build("scene.target", _parse_target_spec, self.target)
        if self.block < 1:
            raise ConfigError("scene.block must be >= 1")
        if self.kind == "blobs" and (self.rows % self.block or self.cols % self.block):
            raise ConfigError(f"scene.block {self.block} must divide ({self.rows}, {self.cols})")
        if self.noise is not None and (len(self.noise) != 2 or self.noise[1] < 0.0
                                       or not all(map(math.isfinite, self.noise))):
            raise ConfigError("scene.noise must be [mu, sigma], both finite, with sigma >= 0")


@dataclass(frozen=True)
class RewardSpec:
    hidden: tuple[int, ...] = (16, 8)
    epochs: int = 3
    lr: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ConfigError("reward.hidden must list positive layer widths")
        if self.epochs < 1:
            raise ConfigError("reward.epochs must be >= 1")
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise ConfigError("reward.lr must be finite and non-negative")


@dataclass(frozen=True)
class JsonPrior:
    """A file scene's prior read from a ``GaussianMixturePrior.to_json`` file."""
    path: str
    kind: str = "json"


@dataclass(frozen=True)
class DirPrior:
    """An empirical prior: one component of ``variance`` per grid file in ``path``."""
    path: str
    variance: float = 1e-3
    kind: str = "dir"

    def __post_init__(self):
        if not (math.isfinite(self.variance) and self.variance >= 0.0):
            raise ConfigError("prior.variance must be finite and >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    scene: SceneSpec = field(default_factory=SceneSpec)
    schedule: NoiseSchedule = field(default_factory=NoiseSchedule)
    budget: int = 32
    particles: int = 8
    zeta: float = 1.0
    jacobian_mode: str = "scaled-identity"
    sigma_x2: float = 1.0
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    reward: RewardSpec = field(default_factory=RewardSpec)
    seeds: tuple[int, ...] = (1,)
    prior: JsonPrior | DirPrior | None = None

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if self.particles < 2:
            raise ConfigError("particles must be >= 2")
        # rules an engine constructor owns are checked by building it
        _build("guidance", GuidanceConfig, self.zeta, self.jacobian_mode)
        _build("belief", BeliefConfig, self.sigma_x2)
        _build("budget", build_measurement_schedule, self.schedule.steps, self.budget)
        if not self.seeds or len(set(self.seeds)) != len(self.seeds) or min(self.seeds) < 0:
            raise ConfigError("seeds must be a nonempty list of distinct non-negative integers")
        if (self.scene.kind == "file") != (self.prior is not None):
            raise ConfigError("prior: file scenes need a json or dir prior; blobs scenes take none")

    # ---------------------------------------------------------- dict round trip

    def to_dict(self) -> dict:
        """The JSON document ``from_dict`` reads back; ``prior`` is left out when unset."""
        doc = json.loads(json.dumps(dataclasses.asdict(self)))
        if self.prior is None:
            del doc["prior"]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        return read_value(cls, doc)

    @staticmethod
    def read_doc(path) -> dict:
        """A config file's JSON document; a missing or malformed file names the path."""
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as exc:  # a directory, unreadable, not UTF-8 or not JSON
            raise ConfigError(f"{path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: a config must be a JSON object")
        return doc

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(cls.read_doc(path))


def build_unit_prior(cfg: ExperimentConfig) -> GaussianMixturePrior:
    """The engine's scene prior on [0, 1] cell values."""
    if cfg.scene.kind == "blobs":
        return make_blob_prior(
            (cfg.scene.rows, cfg.scene.cols),
            n_components=cfg.scene.components,
            layout_seed=cfg.scene.layout_seed,
            blobs_per_component=cfg.scene.blobs_per_component,
            background=cfg.scene.background,
            amplitude=cfg.scene.amplitude,
            radius=cfg.scene.radius,
            variance=cfg.scene.variance,
        )
    if isinstance(cfg.prior, DirPrior):
        return GaussianMixturePrior.from_grids(load_grid_dir(cfg.prior.path), cfg.prior.variance)
    return GaussianMixturePrior.from_json(cfg.prior.path)


def build_scene(cfg: ExperimentConfig, prior_unit: GaussianMixturePrior,
                rng: np.random.Generator) -> Scene:
    if cfg.scene.kind == "blobs":
        return gen_gmm_scene(
            prior_unit, cfg.scene.threshold, rng,
            shape=(cfg.scene.rows, cfg.scene.cols),
            block=cfg.scene.block, noise=cfg.scene.noise,
        )
    return load_scene(cfg.scene.path, fmt=cfg.scene.format,
                      target=cfg.scene.target, block=cfg.scene.block,
                      noise=cfg.scene.noise)


def scene_generator(seed: int) -> np.random.Generator:
    """Episode ``seed``'s scene generator: the first child of ``SeedSequence(seed)``."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def build_prior_and_scene(cfg: ExperimentConfig, scene_rng: np.random.Generator):
    """The unit prior and one scene; a ValueError becomes a ConfigError naming the section.

    A missing file stays a FileNotFoundError naming the path.
    """
    prior_section = "scene" if cfg.scene.kind == "blobs" else "prior"
    prior_unit = _build(prior_section, build_unit_prior, cfg)
    scene = _build("scene", build_scene, cfg, prior_unit, scene_rng)
    if prior_unit.dimension != scene.n_cells:
        raise ConfigError(f"prior dimension {prior_unit.dimension} does not match "
                          f"scene cells {scene.n_cells}")
    return prior_unit, scene


@dataclass(frozen=True)
class StepRecord:
    t: int
    tau: int
    location: int
    expl: float
    likeli: float
    reward_sum: float
    exploit: float
    combined: float
    y: float
    entropy: float


# a measurement's score-field columns: the score dumps' whole row, the trace's first columns
FIELD_HEADER = "t,tau,location,expl,likeli,reward,exploit,combined"
TRACE_HEADER = FIELD_HEADER + ",y,entropy"


def csv_text(header: str, rows) -> str:
    """The ``header`` line, then one comma-joined line per row of values written with ``str``."""
    return "".join([header + "\n", *(",".join(map(str, row)) + "\n" for row in rows)])


@dataclass
class EpisodeResult:
    policy: str
    seed: int
    budget: int
    u: int
    records: list[StepRecord]
    r_total: float
    wall_time: float

    @property
    def sr_term(self) -> float:
        """Collected ratio over min(budget, target locations); 1 if nothing to find."""
        if self.u == 0:
            return 1.0
        return self.r_total / min(self.budget, self.u)

    def trace_csv(self) -> str:
        names = [f.name for f in dataclasses.fields(StepRecord)]
        return csv_text(TRACE_HEADER, ([getattr(r, n) for n in names] for r in self.records))

    def write_trace(self, path) -> None:
        Path(path).write_text(self.trace_csv())


def choose(policy: PolicyConfig, state: EpisodeState, batch: ParticleBatch,
           bcfg: BeliefConfig, reward_fn, rng: np.random.Generator) -> tuple[int, ScoreField]:
    """One query step: score every candidate, mix, and pick the next location's row.

    The field's ``locations`` are the state's candidates, read once, with their cells
    from the state's scene, so the pick is ``field.locations[row]``. ``combined`` holds
    the kappa mix, kappa at the state's spent budget unless the policy pins it.
    """
    cands = state.candidates
    field = score_field(batch, cands.tolist(), state.scene.all_location_cells()[cands], bcfg,
                        reward_fn)
    k = policy.kappa_override
    if k is None:
        k = kappa(state.budget, state.t, policy.alpha)
    field.combined = combined_score(field, k, policy.combine_mode, policy.normalize)
    return select_from_field(policy, state, field, rng), field


def reverse_step(x, tau: int, z, observed, values, prior: GaussianMixturePrior,
                 gcfg: GuidanceConfig, sched):
    """One guided reverse step as an episode takes it: (x_{tau-1}, xhat).

    Denoise under ``prior``'s mixture score, ancestral step with noise ``z``,
    then guidance toward the revealed ``values`` under the ``observed`` mask.
    In ``exact`` mode the mixture is evaluated once, at x, and this step's
    score and Hessian product both come from those terms. The kernels are
    looked up in this module when called, so perfbench's traced runs see
    each as a span.
    """
    if gcfg.jacobian_mode == "exact":
        terms = _step_terms(x, tau, prior, sched)
        score_fn = lambda *_: terms.score
        hessian_fn = lambda v: _step_hvp(terms, x, v, prior)
    else:
        score_fn, hessian_fn = lambda x, tau: gmm_score(x, tau, prior, sched), None
    x_hat = tweedie_denoise(x, tau, score_fn, sched)
    x_prime = ancestral_step(x, x_hat, tau, z, sched)
    return guidance_step(x_prime, x_hat, observed, values, tau, gcfg, sched, hessian_fn), x_hat


# Bytes of float64 noise drawn per chunk: 64 reverse steps at 16x16 with 8 particles, 8 at
# 32x32 with 16; a step larger than this is drawn one at a time. Against 512 KiB, halving the
# worker's calls (and so its GIL handoffs) ran wide32 episodes 4-5% faster on 2 CPUs.
_NOISE_CHUNK_BYTES = 1024 * 1024
# From this many bytes of float64 particle state per step (8 x particles x cells), an episode
# draws its noise on a worker thread and holds its particles in float32. Below it, at 16 KiB
# (16x16 with 8 particles), numpy's call overhead outweighs the memory traffic both save: a
# worker saved too little to repay its thread and handoffs, and float32 took 1.017 (paper16)
# and 0.996 (exact16) of float64 time while changing every trace. At 32 KiB (16x16 with 16
# particles) float32 took 0.95-0.98 of float64 time, and at 128 KiB (wide32) 0.85-0.86.
_LARGE_STEP_BYTES = 32 * 1024


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def _particle_noise(rngs, dim: int, steps: int, pool: concurrent.futures.Executor | None,
                    dtype=np.float64):
    """Each of ``steps`` reverse steps' noise: an (n_b, dim) array, row i from ``rngs[i]``.

    Row i is what ``rngs[i].standard_normal(out=row)`` gives step by step, cast to
    ``dtype``, since each stream is read in the same order. The noise is drawn a
    chunk of steps at a time. With a ``pool``, its one worker draws the next chunk
    into one (n_b, chunk, dim) slot while the caller reads the other, since NumPy's
    generators release the GIL while they fill; the caller waits for a chunk that is
    not drawn when it is due. Without one the caller draws every chunk. float32
    noise is drawn into one float64 buffer and cast into slots of half its size, on
    the worker when there is one, so the buffers keep the float64 slots' bytes.
    A yielded array is valid until the next one is asked for.
    """
    n_b = len(rngs)
    chunk = max(1, _NOISE_CHUNK_BYTES // (8 * n_b * dim))
    # allocated on the calling thread, so the worker opens no malloc arena of its own
    slots = [np.empty((n_b, chunk, dim), dtype) for _ in range(1 if pool is None else 2)]
    drawn64 = None if dtype == np.float64 else np.empty((n_b, chunk, dim))

    def draw(first):
        """Fill the chunk from step ``first`` on; its slot's earlier steps were all yielded."""
        n = min(chunk, steps - first)
        slot = slots[first // chunk % len(slots)][:, :n]
        buf = slot if drawn64 is None else drawn64[:, :n]
        for row, r in zip(buf, rngs):
            r.standard_normal(out=row)
        if drawn64 is not None:
            slot[...] = buf
        return slot

    firsts = range(0, steps, chunk)
    if pool is None:
        for first in firsts:
            yield from draw(first).swapaxes(0, 1)
        return
    drawn = pool.submit(draw, 0)
    for first in firsts:
        buf = drawn.result()
        if first + chunk < steps:
            drawn = pool.submit(draw, first + chunk)
        yield from buf.swapaxes(0, 1)


def run_episode(cfg: ExperimentConfig, seed: int,
                field_sink=None) -> EpisodeResult:
    """Play one full episode under the configured policy.

    ``field_sink``, if given, receives (t, tau, ScoreField) right after each
    measurement's scores are computed, for score-field dumps.
    """
    children = np.random.SeedSequence(seed).spawn(4 + cfg.particles)  # [0] is scene_generator's
    noise_rng = np.random.default_rng(children[1])
    policy_rng = np.random.default_rng(children[2])
    reward_seed = int(children[3].generate_state(1)[0])
    particle_rngs = [np.random.default_rng(c) for c in children[4:]]

    prior_unit, scene = build_prior_and_scene(cfg, scene_generator(seed))
    dim = scene.n_cells
    # a large step holds its particles, xhat and their scores in float32; the reward net and
    # its patches stay float64. The choice reads the config alone, never the CPU count.
    large_step = 8 * cfg.particles * dim >= _LARGE_STEP_BYTES
    dtype = np.float32 if large_step else np.float64
    prior = prior_unit.affine(2.0, -1.0).astype(dtype)
    sched = cfg.schedule
    gcfg = GuidanceConfig(zeta=cfg.zeta, jacobian_mode=cfg.jacobian_mode)
    bcfg = BeliefConfig(sigma_x2=cfg.sigma_x2)
    schedule_set = build_measurement_schedule(sched.steps, cfg.budget)

    patch_area = scene.block**2
    net = RewardNet.create([patch_area, *cfg.reward.hidden, 1], reward_seed)
    state = EpisodeState(scene, cfg.budget)

    # drawn in float64 before any noise, so each stream is the same in either dtype
    particles = np.stack([r.standard_normal(dim) for r in particle_rngs]).astype(dtype, copy=False)
    records: list[StepRecord] = []

    start = time.perf_counter()
    # a worker only helps with a CPU of its own and a step large enough to repay its handoffs
    use_worker = large_step and _usable_cpus() > 1
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:  # no thread until a submit
        noise = _particle_noise(particle_rngs, dim, sched.steps, pool if use_worker else None,
                                dtype)
        for tau, z in zip(range(sched.steps, 0, -1), noise):
            particles, x_hat = reverse_step(particles, tau, z, state.observed, state.values,
                                            prior, gcfg, sched)
            if not np.isfinite(particles).all():
                raise FloatingPointError(
                    f"particles went non-finite at tau={tau} (zeta={cfg.zeta})")

            if tau in schedule_set and state.t < scene.n_locations:
                snapshot = ParticleBatch(to_unit(x_hat))
                reward_fn = lambda patches: predict(net, np.clip(patches, 0.0, 1.0))
                row, field_now = choose(cfg.policy, state, snapshot, bcfg, reward_fn, policy_rng)
                if not np.isfinite(field_now.reward).all():
                    raise FloatingPointError(f"reward net went non-finite at t={state.t + 1}"
                                             f" (reward.lr={cfg.reward.lr})")
                if field_sink is not None:
                    field_sink(state.t, tau, field_now)
                m = measure(scene, field_now.locations[row], noise_rng)
                state.apply(m, to_engine(m.content))
                net = train(net, state.dataset[:state.t], cfg.reward.epochs, cfg.reward.lr)
                records.append(StepRecord(state.t, tau, *field_now.row(row), m.y,
                                          marginal_entropy(snapshot, bcfg)))
    wall = time.perf_counter() - start

    return EpisodeResult(
        policy=cfg.policy.kind, seed=seed, budget=cfg.budget,
        u=scene.n_target_locations, records=records,
        r_total=state.r_total, wall_time=wall,
    )


def success_rate(results, B: int) -> float:
    """Mean over tasks, all played at budget B, of collected ratio / min(B, targets)."""
    if not results:
        raise ValueError("success_rate needs at least one episode result")
    for r in results:
        if r.budget != B:
            raise ValueError(f"seed {r.seed} was played at budget {r.budget}, not B={B}")
    return float(np.mean([r.sr_term for r in results]))


def run_suite(cfg: ExperimentConfig, policies=None, budgets=None, jobs: int = 1):
    """Run the (policy x budget x seed) matrix and aggregate per cell.

    Returns (rows, failures): rows are dicts sorted by (policy, budget),
    failures list (policy, budget, seed, message) without aborting the rest.
    The prior and the first seed's scene are built once first, so a bad scene
    or prior fails the whole suite before any cell runs, as does a policy kind
    or budget that makes no valid config.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    build_prior_and_scene(cfg, scene_generator(cfg.seeds[0]))
    if policies is None:
        policies = [cfg.policy.kind]
    if budgets is None:
        budgets = [cfg.budget]
    cells = [(kind, budget, replace(cfg, policy=replace(cfg.policy, kind=kind), budget=budget))
             for kind in policies for budget in budgets]
    tasks = [((kind, budget, seed), sub, seed)
             for kind, budget, sub in cells for seed in cfg.seeds]
    outcomes: dict[tuple, EpisodeResult] = {}
    failures: list[tuple] = []

    def settle(key, play):
        try:
            outcomes[key] = play()
        except Exception as exc:  # noqa: BLE001 - reported, not fatal
            failures.append((*key, str(exc)))

    if jobs > 1 and tasks:  # a fork pool starts all its workers at once, so start no idle ones
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            futs = [(key, pool.submit(run_episode, sub, seed)) for key, sub, seed in tasks]
            for key, fut in futs:
                settle(key, fut.result)
    else:
        for key, sub, seed in tasks:
            settle(key, lambda: run_episode(sub, seed))

    rows = []
    for kind, budget, _ in cells:
        got = [outcomes[(kind, budget, s)] for s in cfg.seeds
               if (kind, budget, s) in outcomes]
        if not got:
            continue
        terms = np.array([r.sr_term for r in got])
        rows.append({
            "policy": kind,
            "B": budget,
            "mean_SR": float(terms.mean()),
            "std_SR": float(terms.std()),
            "n_seeds": len(got),
            "mean_runtime": float(np.mean([r.wall_time for r in got])),
        })
    rows.sort(key=lambda r: (r["policy"], r["B"]))
    failures.sort()
    return rows, failures


def write_suite_csv(rows, path) -> None:
    keys = ["policy", "B", "mean_SR", "std_SR", "n_seeds", "mean_runtime"]
    Path(path).write_text(csv_text(",".join(keys), ([r[k] for k in keys] for r in rows)))


def default_benchmark_config() -> ExperimentConfig:
    """The shipped benchmark: the default config, 16x16 scenes from an 8-way mixture, seeds 1-24."""
    return ExperimentConfig(seeds=tuple(range(1, 25)))
