"""Per-tick reactive control: pluggable policy, PD error feedback, variance damping.

u_t = policy(s_t, a_t, l_t) + zeta * (pd(e_t) + sigma * var_damp(s_t window)),
clamped per component to +/- u_max. The controller term is proportional-
derivative (no integral); the stabilization term pushes against the running
per-component standard deviation of recent states, damping oscillation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch

DEFAULT_VAR_WINDOW = 16


@dataclass
class ReactiveGains:
    zeta: float = 1.0
    sigma: float = 1.0
    kp: float | np.ndarray = 1.0
    kd: float | np.ndarray = 0.0
    u_max: float = 1.0

    def __post_init__(self):
        for name in ("zeta", "sigma", "u_max"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative")


def zero_policy(s_t, a_t, l_t) -> np.ndarray:
    return np.zeros_like(np.asarray(s_t, dtype=float))


def pd_control(e_t, prev_e, kp, kd) -> np.ndarray:
    """kp .* e + kd .* (e - prev_e), componentwise."""
    e_t = np.asarray(e_t, dtype=float)
    prev_e = np.asarray(prev_e, dtype=float)
    if e_t.shape != prev_e.shape:
        raise DimensionMismatch(f"error {e_t.shape} vs previous {prev_e.shape}")
    return kp * e_t + kd * (e_t - prev_e)


def var_react(s_t, l_t, window: Sequence) -> np.ndarray:
    """Negative per-component std of the recent-state window (incl. s_t).

    Zero with fewer than two samples. ``l_t`` is part of the call contract
    but unused by the desk-scale realization.
    """
    s_t = np.asarray(s_t, dtype=float)
    if len(window) < 2:
        return np.zeros_like(s_t)
    stacked = np.asarray(window, dtype=float)
    return -stacked.std(axis=0)


class ReactiveController:
    """Owns the error/window state; called once per reactive tick."""

    def __init__(self, dim: int, gains: Optional[ReactiveGains] = None,
                 policy: Optional[Callable] = None,
                 window: int = DEFAULT_VAR_WINDOW):
        self.dim = dim
        self.gains = gains if gains is not None else ReactiveGains()
        self.policy = policy if policy is not None else zero_policy
        self._window: deque = deque(maxlen=window)
        self._prev_e = np.zeros(dim)
        # running sums make the per-tick std O(dim)
        self._sum = np.zeros(dim)
        self._sumsq = np.zeros(dim)

    def _push(self, s_t: np.ndarray) -> None:
        if len(self._window) == self._window.maxlen:
            old = self._window[0]
            self._sum -= old
            self._sumsq -= old * old
        self._window.append(s_t)
        self._sum += s_t
        self._sumsq += s_t * s_t

    def _var_term(self) -> np.ndarray:
        n = len(self._window)
        if n < 2:
            return np.zeros(self.dim)
        mean = self._sum / n
        variance = np.maximum(self._sumsq / n - mean * mean, 0.0)
        return -np.sqrt(variance)

    def step(self, s_t, a_t, l_t, e_t) -> np.ndarray:
        """One control step; output clamped per component to +/- u_max."""
        s_t = np.asarray(s_t, dtype=float)
        e_t = np.asarray(e_t, dtype=float)
        if s_t.shape != (self.dim,) or e_t.shape != (self.dim,):
            raise DimensionMismatch(
                f"expected dim {self.dim}, got state {s_t.shape} error {e_t.shape}")
        if not (np.all(np.isfinite(s_t)) and np.all(np.isfinite(e_t))):
            raise DimensionMismatch("reactive inputs must be finite")
        self._push(s_t)
        correction = (pd_control(e_t, self._prev_e, self.gains.kp, self.gains.kd)
                      + self.gains.sigma * self._var_term())
        self._prev_e = e_t
        u = self.policy(s_t, a_t, l_t) + self.gains.zeta * correction
        return np.clip(u, -self.gains.u_max, self.gains.u_max)
