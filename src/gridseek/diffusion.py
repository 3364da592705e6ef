"""Discretized variance-preserving diffusion with analytic mixture scores.

The forward process perturbs a clean state x_0 through

    x_tau = sqrt(abar_tau) * x_0 + sqrt(1 - abar_tau) * eps

with abar_tau the running product of alpha_tau = 1 - beta_tau. Because the
prior here is an explicit Gaussian mixture, the marginal at every step is
again a Gaussian mixture and its score is available in closed form, so no
learned network is involved. Reverse sampling follows the ancestral update

    x_{tau-1} = sqrt(alpha_tau) (1 - abar_{tau-1}) / (1 - abar_tau) * x_tau
              + sqrt(abar_{tau-1}) beta_tau / (1 - abar_tau) * xhat
              + sigma_tilde_tau * z

where xhat is the one-step denoised mean, followed by a measurement-guidance
correction that pulls the trajectory toward the observed cells.

The mixture kernels scale step-invariant constants (x.mu_k, ||mu_k||^2,
w @ mu) by sqrt(abar) instead of forming the step's means sqrt(abar) mu_k,
and one responsibility evaluation serves a step's score and its ``exact``
guidance product alike. The step kernels reuse buffers of their own: with the
score given, denoising makes one (..., N) array, the ancestral step two and
``scaled-identity`` guidance one, computing on the observed columns only.
Each gives the same bits as its plain one-expression form.

Every kernel computes in its state's float dtype: a float32 state and a
prior cast by ``GaussianMixturePrior.astype`` give float32 results, and any
other state is read as float64. So the step constants are read as Python
floats, which NumPy 2 does not let widen a float32 array.

Stability note on guidance: in ``scaled-identity`` mode the residual gradient
carries a 1/sqrt(abar_tau) factor, which grows as abar_tau falls. On the linear
beta 1e-4..0.02 schedule abar_T is 0.132 at the default T=200, 0.0064 at T=500
and 4.0e-5 at T=1000. That this makes zeta=1.0 unstable on long schedules, and
that ``exact`` mode (whose Jacobian vanishes at high noise) cures it, is
unmeasured; ROADMAP.md lists the sweep that would settle it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "NoiseSchedule",
    "GaussianMixturePrior",
    "GuidanceConfig",
    "make_schedule",
    "gmm_log_density",
    "gmm_score",
    "gmm_score_hessian",
    "tweedie_denoise",
    "ancestral_step",
    "guidance_step",
]
_FLOAT32 = np.dtype(np.float32)
# the smallest normal number of each state dtype; _step_terms flushes rho_k below it
_TINY = {np.dtype(t): np.finfo(t).tiny for t in (np.float32, np.float64)}


class ScheduleError(ValueError):
    """Raised when noise-schedule parameters are out of range."""


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step constants of the discretized forward/reverse process, derived from ``beta``.

    Arrays are indexed by tau - 1 for tau in 1..T. ``alpha_bar_at`` extends
    the cumulative product with abar_0 = 1, which the reverse-step formula
    needs at the tau = 1 boundary. ``sigma_mode`` selects the reverse-step
    noise scale: ``posterior`` uses sqrt(beta_tau (1 - abar_{tau-1}) / (1 - abar_tau))
    (zero at tau = 1), ``zero`` gives a deterministic sampler.
    """

    beta: np.ndarray
    sigma_mode: str = "posterior"
    T: int = field(init=False)
    alpha: np.ndarray = field(init=False)
    alpha_bar: np.ndarray = field(init=False)
    sigma_tilde: np.ndarray = field(init=False)

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        if beta.ndim != 1 or beta.size == 0:
            raise ScheduleError(f"beta must be a nonempty 1-D array, got shape {beta.shape}")
        if not np.all((beta > 0.0) & (beta < 1.0)):
            raise ScheduleError("beta values must lie in (0, 1)")
        alpha = 1.0 - beta
        if np.any(alpha == 1.0):  # abar_tau = 1 leaves 1 - abar_tau = 0 to divide by
            raise ScheduleError(f"beta {beta.min()} is too small: 1 - beta rounds to 1")
        alpha_bar = np.cumprod(alpha)
        if self.sigma_mode == "posterior":
            alpha_bar_prev = np.concatenate(([1.0], alpha_bar[:-1]))
            sigma_tilde = np.sqrt(beta * (1.0 - alpha_bar_prev) / (1.0 - alpha_bar))
        elif self.sigma_mode == "zero":
            sigma_tilde = np.zeros(beta.size)
        else:
            raise ScheduleError(f"unknown sigma_mode {self.sigma_mode!r}")
        for name, value in (("beta", beta), ("T", beta.size), ("alpha", alpha),
                            ("alpha_bar", alpha_bar), ("sigma_tilde", sigma_tilde)):
            object.__setattr__(self, name, value)

    def alpha_bar_at(self, tau: int) -> float:
        if tau == 0:
            return 1.0
        return self.alpha_bar.item(tau - 1)

    def _check_tau(self, tau: int) -> None:
        if not 1 <= tau <= self.T:
            raise ScheduleError(f"step index {tau} outside 1..{self.T}")


def make_schedule(
    T: int,
    beta_min: float = 1e-4,
    beta_max: float = 0.02,
    curve: str = "linear",
    sigma_mode: str = "posterior",
) -> NoiseSchedule:
    """Build a noise schedule with T steps.

    ``linear`` interpolates beta from beta_min to beta_max. ``cosine`` derives
    beta from a squared-cosine signal curve and clips it into
    [beta_min, beta_max]. ``NoiseSchedule`` derives the rest, under ``sigma_mode``.
    """
    if T < 1:
        raise ScheduleError(f"step count must be >= 1, got {T}")
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise ScheduleError(
            f"need 0 < beta_min <= beta_max < 1, got ({beta_min}, {beta_max})"
        )

    if curve == "linear":
        beta = np.linspace(beta_min, beta_max, T)
    elif curve == "cosine":
        s = 0.008
        grid = np.arange(T + 1) / T
        f = np.cos((grid + s) / (1.0 + s) * math.pi / 2.0) ** 2
        beta = np.clip(1.0 - f[1:] / f[:-1], beta_min, beta_max)
    else:
        raise ScheduleError(f"unknown curve {curve!r}")
    return NoiseSchedule(beta, sigma_mode)


@dataclass(frozen=True)
class GaussianMixturePrior:
    """Isotropic Gaussian mixture standing in for a learned data prior.

    ``means`` has shape (K, N); ``variances`` holds one isotropic variance
    per component. Weights must sum to 1. An empirical prior places one
    component on each corpus grid with equal weights and a shared small
    variance (see ``from_grids``).
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w, mu, v = self.weights, self.means, self.variances
        if mu.ndim != 2 or w.shape != (mu.shape[0],) or v.shape != (mu.shape[0],):
            raise ValueError("component arrays disagree on K")
        if not all(np.isfinite(a).all() for a in (w, mu, v)):
            raise ValueError("weights, means and variances must be finite")
        if np.any(w <= 0.0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1 within 1e-12")
        if np.any(v < 0.0):
            raise ValueError("variances must be non-negative")

    @cached_property
    def mean_sq_norms(self) -> np.ndarray:
        """||mu_k||^2 per component, (K,), read-only; kept, as the frozen prior cannot change."""
        norms = np.sum(self.means * self.means, axis=1)
        norms.flags.writeable = False
        return norms

    def astype(self, dtype) -> "GaussianMixturePrior":
        """This prior with its means, variances and ||mu_k||^2 cast to ``dtype``.

        ||mu_k||^2 is cast from the float64 norms, and the weights stay float64, so
        their sum-to-1 check reads the same numbers.
        """
        if self.means.dtype == dtype:
            return self
        cast = GaussianMixturePrior(self.weights, self.means.astype(dtype),
                                    self.variances.astype(dtype))
        norms = self.mean_sq_norms.astype(dtype)
        norms.flags.writeable = False
        cast.__dict__["mean_sq_norms"] = norms  # the cached_property's slot
        return cast

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dimension(self) -> int:
        return self.means.shape[1]

    @classmethod
    def single(cls, mean, variance: float) -> "GaussianMixturePrior":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        return cls(np.array([1.0]), mean[None, :], np.array([float(variance)]))

    @classmethod
    def from_grids(cls, grids, variance: float) -> "GaussianMixturePrior":
        """Empirical prior: one equally weighted component per example grid."""
        means = np.stack([np.asarray(g, dtype=float).ravel() for g in grids])
        k = means.shape[0]
        return cls(np.full(k, 1.0 / k), means, np.full(k, float(variance)))

    def affine(self, scale: float, shift: float) -> "GaussianMixturePrior":
        """Prior of scale * x + shift when x follows this mixture."""
        return GaussianMixturePrior(
            self.weights.copy(), self.means * scale + shift,
            self.variances * scale * scale,
        )

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        k = rng.choice(self.n_components, p=self.weights)
        x = self.means[k].copy()
        if self.variances[k] > 0.0:
            x += math.sqrt(self.variances[k]) * rng.standard_normal(self.dimension)
        return x

    def to_json(self, path) -> None:
        doc = {
            "components": [
                {"weight": float(w), "mean": m.tolist(), "variance": float(v)}
                for w, m, v in zip(self.weights, self.means, self.variances)
            ],
            "dimension": self.dimension,
        }
        Path(path).write_text(json.dumps(doc))

    @classmethod
    def from_json(cls, path) -> "GaussianMixturePrior":
        """The prior a ``to_json`` file holds; a malformed one raises ValueError naming it."""
        try:
            doc = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise
        except (OSError, ValueError) as exc:  # a directory, unreadable, not UTF-8 or not JSON
            raise ValueError(f"prior file {path}: {exc}") from exc
        comps = doc.get("components") if isinstance(doc, dict) else None
        if not (isinstance(comps, list) and comps and "dimension" in doc and all(
                isinstance(c, dict) and c.keys() >= {"weight", "mean", "variance"}
                and isinstance(c["mean"], list) for c in comps)):
            raise ValueError(f"prior file {path} must be an object with a dimension and a non-empty"
                             " components list of {weight, mean array, variance} objects")
        entries = [v for c in comps for v in (c["weight"], c["variance"], *c["mean"])]
        # type(), not isinstance(): a JSON true is no number
        if type(doc["dimension"]) is not int or not all(type(v) in (int, float) for v in entries):
            raise ValueError(f"prior file {path}: dimension must be a JSON integer, and each"
                             " weight, mean entry and variance a JSON number")
        try:
            prior = cls(
                np.array([c["weight"] for c in comps], dtype=float),
                np.array([c["mean"] for c in comps], dtype=float),
                np.array([c["variance"] for c in comps], dtype=float),
            )
        except ValueError as exc:
            raise ValueError(f"prior file {path}: {exc}") from exc
        if prior.dimension != doc["dimension"]:
            raise ValueError(f"prior file {path}: dimension field disagrees with component means")
        return prior


@dataclass(frozen=True)
class GuidanceConfig:
    """Measurement-guidance step size and Jacobian treatment.

    ``scaled-identity`` approximates the denoiser Jacobian by
    (1/sqrt(abar)) I, the cheap choice common in guided samplers; ``exact``
    chain-rules through the closed-form mixture score.
    """

    zeta: float = 1.0
    jacobian_mode: str = "scaled-identity"

    def __post_init__(self):
        if not math.isfinite(self.zeta) or self.zeta < 0.0:
            raise ValueError(f"zeta must be finite and non-negative, got {self.zeta}")
        if self.jacobian_mode not in ("scaled-identity", "exact"):
            raise ValueError(f"unknown jacobian_mode {self.jacobian_mode!r}")


def _component_log_terms(x: np.ndarray, tau, prior, sched):
    """log w_k + log N(x; m_k, s_k I), shape (..., K), with sqrt(abar) and s_k.

    The step-tau marginal has means m_k = sqrt(abar) mu_k and variances
    s_k = abar v_k + (1 - abar). ||x - m_k||^2 is taken in Gram form from
    step-invariant constants, ||x||^2 - 2 sqrt(abar) x.mu_k + abar ||mu_k||^2:
    one (..., N) @ (N, K) product with the prior's own means and its cached
    ||mu_k||^2. Neither a (..., K, N) difference tensor nor the m_k are formed.
    """
    sched._check_tau(tau)
    abar = sched.alpha_bar.item(tau - 1)
    root, variances = math.sqrt(abar), abar * prior.variances + (1.0 - abar)
    sq = ((x * x).sum(axis=-1, keepdims=True) - (2.0 * root) * (x @ prior.means.T)
          + abar * prior.mean_sq_norms)  # (..., K)
    np.maximum(sq, 0.0, out=sq)  # rounding may leave a near-zero distance below 0
    n = prior.dimension
    terms = (
        np.log(prior.weights)
        - 0.5 * n * np.log(2.0 * math.pi * variances)
        - 0.5 * sq / variances
    )
    return terms, root, variances


def _weighted_pulls(w: np.ndarray, root: float, means: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k w_k (m_k - x) with m_k = root mu_k, taken as (root w) @ mu - (sum_k w_k) x."""
    pulls = (root * w) @ means
    pulls -= w.sum(axis=-1, keepdims=True) * x
    return pulls


class _StepTerms(NamedTuple):
    """One step's mixture terms at x: w_k = rho_k / s_k, sqrt(abar), s_k and the score."""
    w: np.ndarray
    root: float
    variances: np.ndarray
    score: np.ndarray


def _step_terms(x: np.ndarray, tau, prior, sched) -> _StepTerms:
    """The responsibilities rho_k, evaluated once at (x, tau), and the score built from them.

    The log terms carry the float64 weights, so rho_k is float64; w is cast to x's
    dtype once, before the pulls product, and rho_k below that dtype's smallest
    normal number are flushed first.
    """
    terms, root, variances = _component_log_terms(x, tau, prior, sched)
    resp = np.exp(terms - terms.max(axis=-1, keepdims=True))
    resp[resp < _TINY[x.dtype]] = 0.0  # subnormal rho_k weigh nothing but slow the pulls
    resp /= resp.sum(axis=-1, keepdims=True)
    w = (resp / variances).astype(x.dtype, copy=False)
    return _StepTerms(w, root, variances, _weighted_pulls(w, root, prior.means, x))


def _step_hvp(terms: _StepTerms, x: np.ndarray, v: np.ndarray, prior) -> np.ndarray:
    """H(x) v from the terms ``_step_terms`` made at the same x; see ``gmm_score_hessian``."""
    w, root, variances, score = terms
    pv = (root * (v @ prior.means.T) - (x * v).sum(axis=-1, keepdims=True)) / variances  # p_k . v
    out = _weighted_pulls(w * pv, root, prior.means, x)
    part = np.multiply(w.sum(axis=-1, keepdims=True), v)
    out -= part
    out -= np.multiply((score * v).sum(axis=-1, keepdims=True), score, out=part)
    return out


def gmm_log_density(x, tau: int, prior: GaussianMixturePrior,
                    sched: NoiseSchedule) -> np.ndarray:
    """Log-density of the step-tau marginal, stabilized through log-sum-exp."""
    x = _check_state(x, prior)
    terms, _, _ = _component_log_terms(x, tau, prior, sched)
    m = terms.max(axis=-1, keepdims=True)
    return np.squeeze(m, -1) + np.log(np.sum(np.exp(terms - m), axis=-1))


def gmm_score(x, tau: int, prior: GaussianMixturePrior,
              sched: NoiseSchedule) -> np.ndarray:
    """Gradient of the step-tau marginal log-density.

    The marginal of the mixture under the forward process has component
    means m_k = sqrt(abar) mu_k and variances s_k = abar v_k + (1 - abar);
    the score is the responsibility-weighted sum of the per-component
    Gaussian scores, sum_k rho_k (m_k - x) / s_k = w @ M - (sum_k w_k) x with
    w_k = rho_k / s_k. Broadcasts over leading axes of ``x``.
    """
    return _step_terms(_check_state(x, prior), tau, prior, sched).score


def gmm_score_hessian(x, tau: int, prior: GaussianMixturePrior,
                      sched: NoiseSchedule, v) -> np.ndarray:
    """H(x) v: the step-tau log-density's Hessian times ``v``, for ``exact`` guidance.

    Hv = -(sum_k rho_k / s_k) v + sum_k rho_k p_k (p_k . v) - g (g . v) with
    responsibilities rho_k, pulls p_k = (m_k - x) / s_k and score g. Each
    p_k . v = (v . m_k - x . v) / s_k comes from one (..., N) @ (N, K)
    product; neither the N x N matrix (Pearlmutter 1994) nor a (..., K, N)
    pull tensor is formed. Broadcasts over leading axes.
    """
    x, v = _check_state(x, prior), _check_state(v, prior)
    return _step_hvp(_step_terms(x, tau, prior, sched), x, v, prior)


def as_float(x) -> np.ndarray:
    """``x`` as a float array: float32 stays float32, anything else is read as float64."""
    return x if getattr(x, "dtype", None) is _FLOAT32 else np.asarray(x, dtype=float)


def _check_state(x, prior: GaussianMixturePrior) -> np.ndarray:
    x = as_float(x)
    if x.shape[-1] != prior.dimension:
        raise ValueError(
            f"state dimension {x.shape[-1]} does not match prior dimension "
            f"{prior.dimension}"
        )
    return x


def tweedie_denoise(x_tau, tau: int, score_fn, sched: NoiseSchedule) -> np.ndarray:
    """One-step denoised mean: (x_tau + (1 - abar) score(x_tau, tau)) / sqrt(abar)."""
    sched._check_tau(tau)
    x_tau = as_float(x_tau)
    abar = sched.alpha_bar.item(tau - 1)
    x_hat = (1.0 - abar) * score_fn(x_tau, tau)
    x_hat += x_tau
    x_hat /= math.sqrt(abar)
    return x_hat


def ancestral_step(x_tau, x_hat, tau: int, z, sched: NoiseSchedule) -> np.ndarray:
    """Reverse-step convex combination of current state and denoised mean.

    (c_x x_tau + c_xhat xhat) + sigma_tilde z, summed in that order into one
    output and one scratch array, so the three arrays share one shape.
    """
    sched._check_tau(tau)
    abar = sched.alpha_bar.item(tau - 1)
    abar_prev = sched.alpha_bar_at(tau - 1)
    beta = sched.beta.item(tau - 1)
    alpha = sched.alpha.item(tau - 1)
    coef_x = math.sqrt(alpha) * (1.0 - abar_prev) / (1.0 - abar)
    coef_hat = math.sqrt(abar_prev) * beta / (1.0 - abar)
    out = coef_x * as_float(x_tau)
    part = coef_hat * as_float(x_hat)
    out += part
    out += np.multiply(sched.sigma_tilde.item(tau - 1), z, out=part)
    return out


def guidance_step(
    x_prime,
    x_hat,
    observed: np.ndarray,
    observed_values: np.ndarray,
    tau: int,
    cfg: GuidanceConfig,
    sched: NoiseSchedule,
    hessian_fn=None,
) -> np.ndarray:
    """Correct an ancestral step from x_tau toward the observed cells.

    Subtracts zeta times the gradient (w.r.t. x_tau) of the squared residual
    between observed contents and the denoised mean at the observed indices.
    In ``scaled-identity`` mode that gradient is (2/sqrt(abar)) (xhat_q - x_q)
    at observed coordinates and zero elsewhere; ``exact`` mode chain-rules
    through the symmetric denoiser Jacobian (I + (1 - abar) H) / sqrt(abar),
    with ``hessian_fn(residual)`` giving the product H(x_tau) residual.
    Broadcasts over leading batch axes. ``x_hat`` is the denoised mean of
    x_tau; ``observed`` is an (N,) mask of revealed cells and
    ``observed_values`` an (N,) array of their contents in sampler space.
    """
    x_prime = as_float(x_prime)
    n = x_prime.shape[-1]
    if observed.shape != (n,) or observed_values.shape != (n,):
        raise ValueError(f"observed mask and values must have shape ({n},)")
    if not observed.any() or cfg.zeta == 0.0:
        return x_prime
    sched._check_tau(tau)

    abar = sched.alpha_bar.item(tau - 1)
    obs = np.flatnonzero(observed)
    residual_obs = as_float(x_hat)[..., obs] - observed_values[obs]
    if cfg.jacobian_mode == "scaled-identity":  # the gradient is zero off the observed columns
        out = x_prime.copy()
        out[..., obs] -= cfg.zeta * ((2.0 / math.sqrt(abar)) * residual_obs)
        return out
    if hessian_fn is None:
        raise ValueError("exact guidance requires a hessian_fn")
    residual = np.zeros(residual_obs.shape[:-1] + (n,), dtype=x_prime.dtype)
    residual[..., obs] = residual_obs
    grad = (1.0 - abar) * hessian_fn(residual)
    grad += residual
    grad *= 2.0
    grad /= math.sqrt(abar)
    grad *= cfg.zeta
    return np.subtract(x_prime, grad, out=grad)
