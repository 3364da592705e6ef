"""Belief quantities computed from a batch of denoised particles.

The batch's one-step denoised means define a mixture of isotropic Gaussians
over the hidden scene. Candidate measurement locations are ranked through
three per-location quantities built from pairwise particle deviations:

* exploration score: summed squared disagreement over ordered particle
  pairs, large where the belief is uncertain;
* likelihood score: summed Gaussian consensus kernel over ordered pairs,
  in (0, n_b^2], maximal when all particles agree;
* exploitation score: likelihood score times the summed reward-model
  output over the particles' predicted patches.

A location may be a single cell index or a set of cell indices (block
queries); per-location values aggregate by summing squared deviations over
the set. ``score_field`` computes all three for every candidate at once;
``location_scores`` is its brute-force reference at one location. The
batch-level ``marginal_entropy`` follows the printed ranking
surrogate with a positive exponent in the consensus kernel; it grows with
particle spread and is not a literal mixture entropy.

Neither ``score_field`` nor ``marginal_entropy`` builds an (n_b, n_b, ...)
array of particle differences. Both subtract the particle mean first, so a
common offset cannot cancel away the spread (see each docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from gridseek.diffusion import as_float

__all__ = [
    "ParticleBatch",
    "BeliefConfig",
    "ScoreField",
    "marginal_entropy",
    "location_scores",
    "score_field",
]


@dataclass
class ParticleBatch:
    """One-step denoised means of the particles, shape (n_b, dim), float32 or float64."""

    denoised: np.ndarray

    def __post_init__(self):
        self.denoised = as_float(self.denoised)
        if self.denoised.ndim != 2:
            raise ValueError("denoised must have shape (n_b, dim)")
        if self.n_b < 2:
            raise ValueError("need at least 2 particles for pairwise scores")

    @property
    def n_b(self) -> int:
        return self.denoised.shape[0]

    @property
    def dim(self) -> int:
        return self.denoised.shape[1]


@dataclass(frozen=True)
class BeliefConfig:
    """Belief-mixture variance; the mixture weights its particles equally.

    sigma_x2 only rescales exploration, which min-max normalization undoes,
    but it also sets the width of the likelihood kernel exp(-d / 2 sigma_x2)
    and of ``marginal_entropy``, so it changes exploitation-driven picks.
    """

    sigma_x2: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma_x2) and self.sigma_x2 > 0.0):
            raise ValueError(f"sigma_x2 must be finite and positive, got {self.sigma_x2}")


@dataclass
class ScoreField:
    """Per-location score components over the candidate locations."""

    locations: list
    exploration: np.ndarray
    likelihood: np.ndarray
    reward: np.ndarray
    exploitation: np.ndarray
    combined: np.ndarray | None = field(default=None)

    def row(self, i: int) -> tuple:
        """(location, expl, likeli, reward, exploit, combined) at i; combined is NaN until mixed."""
        combined = float("nan") if self.combined is None else float(self.combined[i])
        return (self.locations[i], float(self.exploration[i]), float(self.likelihood[i]),
                float(self.reward[i]), float(self.exploitation[i]), combined)

    def csv_rows(self):
        return map(self.row, range(len(self.locations)))


def _coords(location, dim: int) -> np.ndarray:
    coords = np.atleast_1d(np.asarray(location, dtype=int))
    if coords.size == 0:
        raise IndexError("empty coordinate set")
    if coords.min() < 0 or coords.max() >= dim:
        raise IndexError(f"location {location} outside 0..{dim - 1}")
    return coords


def marginal_entropy(batch: ParticleBatch, cfg: BeliefConfig) -> float:
    """Batch-level ranking surrogate: sum_i a_i log sum_j a_j exp(d_ij).

    d_ij = ||c_i||^2 + ||c_j||^2 - 2 c_i.c_j over the centred particles
    c = x - mean(x), clamped at 0: one (n_b, n_b) Gram product and no
    (n_b, n_b, dim) difference array.
    """
    w = np.full(batch.n_b, 1.0 / batch.n_b)
    c = batch.denoised - batch.denoised.mean(axis=0)
    sq = np.einsum("ij,ij->i", c, c)
    d = sq[:, None] + sq[None, :] - 2.0 * (c @ c.T)
    np.maximum(d, 0.0, out=d)
    d /= 2.0 * cfg.sigma_x2
    terms = np.log(w)[None, :] + d
    m = terms.max(axis=1, keepdims=True)
    inner = np.squeeze(m, 1) + np.log(np.sum(np.exp(terms - m), axis=1))
    return float(np.dot(w, inner))


def location_scores(
    batch: ParticleBatch, location, cfg: BeliefConfig, reward_fn: Callable | None = None
) -> tuple[float, float, float]:
    """Brute-force (exploration, likelihood, exploitation) at one location.

    The test reference for ``score_field``: walks the ordered particle pairs
    one at a time, summing squared deviations over the location's cells.
    ``reward_fn`` receives the (n_b, cells) matrix of predicted contents at
    the location and returns one probability in [0, 1] per particle; without
    it the exploitation score is zero.
    """
    patches = batch.denoised[:, _coords(location, batch.dim)]
    expl = likeli = 0.0
    for a in patches:
        for b in patches:
            d = float(np.sum((a - b) ** 2)) / (2.0 * cfg.sigma_x2)
            expl += d
            likeli += math.exp(-d)
    reward = 0.0 if reward_fn is None else float(np.sum(reward_fn(patches)))
    return expl, likeli, likeli * reward


def score_field(
    batch: ParticleBatch,
    candidates: Sequence,
    coord_sets: np.ndarray,
    cfg: BeliefConfig,
    reward_fn: Callable | None = None,
) -> ScoreField:
    """Vectorized per-location scores for all candidates at once.

    ``coord_sets`` is an (L, cells) int array, one row of cell indices per
    candidate. With no reward_fn the reward column is zero (and so is the
    exploitation column).

    Exploration uses sum_ij ||a_i - a_j||^2 = 2 n_b sum_i ||a_i - mean(a)||^2
    on centred values; the uncentred 2 n_b sum a^2 - 2 (sum a)^2 would cancel
    away a small spread under a large common offset. Likelihood uses
    n_b + 2 sum_{i<j} exp(-d_ij), one particle i at a time over its
    (n_b - 1 - i, L) later pairs, so no (n_b, n_b, L, cells) array is formed.
    Both run in the batch's float dtype; the reward column is float64.
    """
    coord_sets = np.asarray(coord_sets, dtype=int)
    if coord_sets.ndim != 2 or coord_sets.shape[0] != len(candidates):
        raise ValueError("coord_sets must be (n_candidates, cells)")
    if coord_sets.size and (coord_sets.min() < 0 or coord_sets.max() >= batch.dim):
        raise IndexError("coordinate set outside the state dimension")

    vals = batch.denoised[:, coord_sets.T]  # (n_b, cells, L): cell sums add whole rows
    n_b, cells, n_loc = vals.shape
    two_s2 = 2.0 * cfg.sigma_x2
    centred = vals - vals.mean(axis=0)
    expl = 2.0 * n_b * np.einsum("icl,icl->l", centred, centred) / two_s2
    # buffers for particle 0's n_b - 1 later pairs, reused for each later i
    diff = np.empty((n_b - 1, cells, n_loc), dtype=vals.dtype)
    pair_sq = np.empty((n_b - 1, n_loc), dtype=vals.dtype)
    pair_sum = np.zeros(n_loc, dtype=vals.dtype)
    for i in range(n_b - 1):
        d = np.subtract(vals[i + 1:], vals[i], out=diff[: n_b - 1 - i])
        p = np.einsum("icl,icl->il", d, d, out=pair_sq[: n_b - 1 - i])
        p /= -two_s2
        pair_sum += np.exp(p, out=p).sum(axis=0)
    likeli = n_b + 2.0 * pair_sum

    if reward_fn is None:
        reward = np.zeros(n_loc)
    else:
        flat = vals.transpose(2, 0, 1).reshape(n_loc * n_b, cells)
        preds = np.asarray(reward_fn(flat), dtype=float).reshape(n_loc, n_b)
        reward = preds.sum(axis=1)

    return ScoreField(
        locations=list(candidates),
        exploration=expl,
        likelihood=likeli,
        reward=reward,
        exploitation=likeli * reward,
    )
