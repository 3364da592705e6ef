"""Outside-in span tracing of one episode's module calls.

The traced run swaps the names in ``WRAP_TABLE`` for span-recording
wrappers. ``run_episode`` resolves these names from ``gridseek.bench``'s
globals at call time (its score, Hessian and reward lambdas too), and
``Scene`` methods are looked up on the class, so nested calls become child
spans: ``gmm_score`` inside ``tweedie_denoise``, ``predict`` inside
``score_field``, ``location_cells`` inside ``measure``. Nothing in the
program changes; the originals are restored when the context exits.

A span is ``[name, start_ns, end_ns, parent_index, episode, work]``. Spans
live in memory until the run ends. A span's self time is its duration minus
its children's durations; children of one parent run one after another, so
the self times of one episode sum exactly to its root span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

import numpy as np

ROOT_SPAN = "bench.run_episode"

# (module, attribute path, layer). The span name is "<layer>.<function>".
WRAP_TABLE = (
    ("gridseek.bench", "gmm_score", "diffusion"),
    ("gridseek.bench", "gmm_score_hessian", "diffusion"),
    ("gridseek.bench", "tweedie_denoise", "diffusion"),
    ("gridseek.bench", "ancestral_step", "diffusion"),
    ("gridseek.bench", "guidance_step", "diffusion"),
    ("gridseek.bench", "score_field", "belief"),
    ("gridseek.bench", "marginal_entropy", "belief"),
    ("gridseek.bench", "predict", "reward"),
    ("gridseek.bench", "train", "reward"),
    ("gridseek.bench", "combined_score", "policy"),
    ("gridseek.bench", "select_from_field", "policy"),
    ("gridseek.bench", "measure", "env"),
    ("gridseek.bench", "build_scene", "env"),
    ("gridseek.bench", "build_unit_prior", "bench"),
    ("gridseek.env", "Scene.location_cells", "env"),
    ("gridseek.env", "Scene.all_location_cells", "env"),
)


class WrapTableError(LookupError):
    """A name in WRAP_TABLE no longer exists in the program."""


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _gmm_score_bytes(args, kwargs):
    """Bytes of one (n_b, K, N) float64 difference tensor, from the call's shapes."""
    x = np.asarray(_arg(args, kwargs, 0, "x"))
    prior = _arg(args, kwargs, 2, "prior")
    return (x.size // x.shape[-1]) * prior.n_components * x.shape[-1] * 8


def _score_field_pair_elems(args, kwargs):
    """n_b^2 * L * cells: elements of the pairwise-difference tensor."""
    batch = _arg(args, kwargs, 0, "batch")
    coord_sets = np.asarray(_arg(args, kwargs, 2, "coord_sets"))
    return batch.n_b**2 * coord_sets.shape[0] * coord_sets.shape[1]


def _predict_rows(args, kwargs):
    patch = np.asarray(_arg(args, kwargs, 1, "patch"))
    return patch.shape[0] if patch.ndim == 2 else 1


def _train_rows(args, kwargs):
    """Dataset rows times epochs: the rows pushed through forward and backward."""
    return len(_arg(args, kwargs, 1, "dataset")) * _arg(args, kwargs, 2, "epochs")


# Work counted per call, from the call's arguments, for these spans.
WORK = {
    "diffusion.gmm_score": _gmm_score_bytes,
    "belief.score_field": _score_field_pair_elems,
    "reward.predict": _predict_rows,
    "reward.train": _train_rows,
}


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self.episode = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.episode,
                    work(args, kwargs) if work else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    @contextlib.contextmanager
    def episode_span(self, episode: int):
        """Root span for one episode; every wrapped call inside is its descendant."""
        self.episode = episode
        span = [ROOT_SPAN, 0, 0, -1, episode, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or not hasattr(owner, attr):
        raise WrapTableError(f"{module_name}.{path} no longer exists; update WRAP_TABLE")
    return owner, attr


@contextlib.contextmanager
def installed(recorder: SpanRecorder, table=WRAP_TABLE):
    """Swap every name in ``table`` for a wrapper; restore them on exit.

    Every name is resolved before anything is swapped, so a missing name
    fails the traced run without leaving the program half-wrapped.
    """
    targets = [(*_resolve(module, path), f"{layer}.{path.rsplit('.', 1)[-1]}")
               for module, path, layer in table]
    originals = []
    try:
        for owner, attr, name in targets:
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def self_times_ns(spans) -> list[int]:
    child = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def summarize(spans, names, episodes=None) -> dict:
    """Per-span-name totals: calls, self and total ns, work.

    Covers every episode, or only the ids in ``episodes``. Every name in
    ``names`` gets an entry, so a wrapped function that was never called
    reads as an explicit zero count.
    """
    out = {n: {"calls": 0, "self_ns": 0, "total_ns": 0, "work": 0} for n in names}
    for span, self_ns in zip(spans, self_times_ns(spans)):
        if episodes is not None and span[4] not in episodes:
            continue
        entry = out[span[0]]
        entry["calls"] += 1
        entry["self_ns"] += self_ns
        entry["total_ns"] += span[2] - span[1]
        if span[5] is not None:
            entry["work"] += span[5]
    return out


def span_names() -> list[str]:
    return [ROOT_SPAN] + [f"{layer}.{path.rsplit('.', 1)[-1]}" for _, path, layer in WRAP_TABLE]


def episode_kind_share(spans, name: str, kind_of_episode, kinds, weigh_work: bool) -> float:
    """Share of ``name``'s calls (or work) made in episodes of the given kinds."""
    total = hit = 0
    for span in spans:
        if span[0] != name:
            continue
        amount = span[5] if weigh_work else 1
        total += amount
        if kind_of_episode[span[4]] in kinds:
            hit += amount
    return hit / total if total else 0.0

