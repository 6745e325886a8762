"""Discrete dynamic Bayesian state estimation.

Forward filtering over N hidden task phases with action-conditioned
transitions, posterior-mean state prediction, and Baum-Welch re-estimation
from logged (action, observation) episodes. The initial hidden-state prior is
fixed uniform; re-estimation touches transition and emission rows only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch

log = logging.getLogger(__name__)

_ROW_TOL = 1e-12


@dataclass(frozen=True)
class BeliefState:
    distribution: np.ndarray
    from_reset: bool = False

    def __post_init__(self):
        dist = np.asarray(self.distribution, dtype=float)
        object.__setattr__(self, "distribution", dist)
        if np.any(dist < 0) or abs(dist.sum() - 1.0) > _ROW_TOL:
            raise ValueError(f"belief must be a distribution, got sum {dist.sum()}")

    @classmethod
    def uniform(cls, n_states: int, from_reset: bool = False) -> "BeliefState":
        return cls(np.full(n_states, 1.0 / n_states), from_reset)


def _check_stochastic(matrix: np.ndarray, what: str) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"{what} must be a matrix")
    if np.any(matrix < 0):
        raise ValueError(f"{what} has negative entries")
    if np.max(np.abs(matrix.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError(f"{what} rows must sum to 1")
    return matrix


@dataclass(frozen=True)
class DbnParams:
    transition: Mapping[str, np.ndarray]  # action -> N x N row-stochastic
    emission: np.ndarray                  # N x M row-stochastic

    def __post_init__(self):
        checked = {a: _check_stochastic(m, f"transition[{a}]")
                   for a, m in self.transition.items()}
        object.__setattr__(self, "transition", checked)
        object.__setattr__(self, "emission",
                           _check_stochastic(self.emission, "emission"))
        n = self.emission.shape[0]
        for action, matrix in checked.items():
            if matrix.shape != (n, n):
                raise DimensionMismatch(
                    f"transition[{action}] is {matrix.shape}, expected ({n}, {n})")

    @property
    def n_states(self) -> int:
        return self.emission.shape[0]

    @property
    def n_observations(self) -> int:
        return self.emission.shape[1]


def random_params(n_states: int, n_observations: int, actions: Sequence[str],
                  rng: np.random.Generator) -> DbnParams:
    def stochastic(shape):
        raw = rng.random(shape) + 0.05
        return raw / raw.sum(axis=1, keepdims=True)

    return DbnParams(
        transition={a: stochastic((n_states, n_states)) for a in actions},
        emission=stochastic((n_states, n_observations)),
    )


def forward_filter(belief: BeliefState, action: str, observation: int,
                   params: DbnParams) -> BeliefState:
    """One step of the forward recursion: b' ~ emission .* (T_a' @ b).

    A zero-likelihood observation (impossible under the model) resets the
    belief to uniform and flags the result instead of raising.
    """
    b = belief.distribution
    if b.shape[0] != params.n_states:
        raise DimensionMismatch(
            f"belief has {b.shape[0]} states, params {params.n_states}")
    prior = params.transition[action].T @ b
    posterior = params.emission[:, observation] * prior
    total = posterior.sum()
    if total <= 0.0:
        log.warning("zero-likelihood observation %r after action %r; belief reset",
                    observation, action)
        return BeliefState.uniform(params.n_states, from_reset=True)
    return BeliefState(posterior / total)


def predict_state(belief: BeliefState, params: DbnParams,
                  state_embedding: np.ndarray) -> np.ndarray:
    """Posterior-mean prediction over per-state embeddings (N x d)."""
    state_embedding = np.asarray(state_embedding, dtype=float)
    if state_embedding.shape[0] != params.n_states:
        raise DimensionMismatch(
            f"{state_embedding.shape[0]} embeddings for {params.n_states} states")
    return state_embedding.T @ belief.distribution


@dataclass
class EmResult:
    params: DbnParams
    log_likelihoods: list = field(default_factory=list)
    degenerate_resets: int = 0


def sequence_log_likelihood(episodes: Sequence[Sequence[tuple]],
                            params: DbnParams) -> float:
    """Total log P(observations) over episodes under the uniform prior."""
    total = 0.0
    for episode in episodes:
        alpha = np.full(params.n_states, 1.0 / params.n_states)
        for action, obs in episode:
            alpha = params.emission[:, obs] * (params.transition[action].T @ alpha)
            scale = alpha.sum()
            if scale <= 0.0:
                return -np.inf
            total += np.log(scale)
            alpha = alpha / scale
    return total


def em_reestimate(episodes: Sequence[Sequence[tuple]], init: DbnParams,
                  iters: int) -> EmResult:
    """Baum-Welch: scaled forward-backward E-step, count-normalizing M-step.

    Per-iteration log-likelihood is recorded before the update; it is
    non-decreasing up to numerical slack. Rows with zero expected mass are
    reset to uniform and counted in ``degenerate_resets``.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if not episodes:
        raise ValueError("episodes must be non-empty")
    n = init.n_states
    m = init.n_observations
    params = init
    result = EmResult(params=params)

    for _ in range(iters):
        trans_counts = {a: np.zeros((n, n)) for a in params.transition}
        emit_counts = np.zeros((n, m))
        loglik = 0.0
        for episode in episodes:
            steps = len(episode)
            alphas = np.zeros((steps + 1, n))
            scales = np.zeros(steps + 1)
            alphas[0] = 1.0 / n
            scales[0] = 1.0
            dead = False
            for t, (action, obs) in enumerate(episode, start=1):
                raw = params.emission[:, obs] * (
                    params.transition[action].T @ alphas[t - 1])
                scales[t] = raw.sum()
                if scales[t] <= 0.0:
                    dead = True
                    break
                alphas[t] = raw / scales[t]
            if dead:
                loglik = -np.inf
                continue
            loglik += float(np.sum(np.log(scales[1:])))
            betas = np.zeros((steps + 1, n))
            betas[steps] = 1.0
            for t in range(steps, 0, -1):
                action, obs = episode[t - 1]
                betas[t - 1] = (params.transition[action]
                                @ (params.emission[:, obs] * betas[t])) / scales[t]
            for t, (action, obs) in enumerate(episode, start=1):
                xi = (alphas[t - 1][:, None] * params.transition[action]
                      * (params.emission[:, obs] * betas[t])[None, :]) / scales[t]
                trans_counts[action] += xi
                gamma = alphas[t] * betas[t]
                gamma = gamma / gamma.sum()
                emit_counts[:, obs] += gamma
        result.log_likelihoods.append(loglik)

        new_transition = {}
        for action, counts in trans_counts.items():
            rows = counts.sum(axis=1, keepdims=True)
            matrix = np.where(rows > 0, counts / np.where(rows > 0, rows, 1.0),
                              1.0 / n)
            zero_rows = int(np.sum(rows == 0))
            if zero_rows:
                log.warning("degenerate transition rows for %r reset to uniform",
                            action)
                result.degenerate_resets += zero_rows
            new_transition[action] = matrix
        rows = emit_counts.sum(axis=1, keepdims=True)
        emission = np.where(rows > 0, emit_counts / np.where(rows > 0, rows, 1.0),
                            1.0 / m)
        zero_rows = int(np.sum(rows == 0))
        if zero_rows:
            log.warning("degenerate emission rows reset to uniform")
            result.degenerate_resets += zero_rows
        params = DbnParams(transition=new_transition, emission=emission)
        result.params = params
    result.log_likelihoods.append(sequence_log_likelihood(episodes, params))
    return result


# -- plain-text snapshots ------------------------------------------------------

def params_to_text(params: DbnParams) -> str:
    lines = [f"states {params.n_states} observations {params.n_observations}"]
    for action in sorted(params.transition):
        lines.append(f"transition {action}")
        for row in params.transition[action]:
            lines.append(" ".join(repr(float(v)) for v in row))
    lines.append("emission")
    for row in params.emission:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
