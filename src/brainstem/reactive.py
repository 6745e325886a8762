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
        for name in ("kp", "kd"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")


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
        if window < 1:
            raise ValueError("window must be at least 1")
        self.dim = dim
        self.gains = gains if gains is not None else ReactiveGains()
        for name in ("kp", "kd"):
            shape = np.shape(getattr(self.gains, name))
            if shape not in ((), (dim,)):
                raise DimensionMismatch(
                    f"{name} has shape {shape}, expected a scalar or ({dim},)")
        self.policy = policy if policy is not None else zero_policy
        # each entry is a (2, dim) array: the sample and its square
        self._window: deque = deque(maxlen=window)
        self._prev_e = np.zeros(dim)
        # running sum and sum of squares make the per-tick std O(dim)
        self._sums = np.zeros((2, dim))

    def _push(self, s_t: np.ndarray) -> None:
        entry = np.empty((2, self.dim))
        entry[0] = s_t
        np.multiply(s_t, s_t, out=entry[1])
        if len(self._window) == self._window.maxlen:
            self._sums -= self._window[0]
        self._window.append(entry)
        self._sums += entry

    def _var_term(self) -> Optional[np.ndarray]:
        """var_react's value from the running sums; None below two samples."""
        n = len(self._window)
        if n < 2:
            return None
        moments = self._sums / n
        mean, variance = moments[0], moments[1]
        mean *= mean
        variance -= mean
        np.maximum(variance, 0.0, out=variance)
        np.sqrt(variance, out=variance)
        return np.negative(variance, out=variance)

    def step(self, s_t, a_t, l_t, e_t) -> np.ndarray:
        """One control step; output clamped per component to +/- u_max.

        u = policy + zeta * (pd_control(e_t, prev_e, kp, kd) + sigma * var),
        accumulated in place in that order. The only reordering is a * b =
        b * a with at most one NaN operand, which is exact in IEEE arithmetic,
        so the output is bit for bit that of the composition.
        """
        s_t = np.asarray(s_t, dtype=float)
        e_t = np.asarray(e_t, dtype=float)
        if s_t.shape != (self.dim,) or e_t.shape != (self.dim,):
            raise DimensionMismatch(
                f"expected dim {self.dim}, got state {s_t.shape} error {e_t.shape}")
        if (np.count_nonzero(np.isfinite(s_t)) != self.dim
                or np.count_nonzero(np.isfinite(e_t)) != self.dim):
            raise DimensionMismatch("reactive inputs must be finite")
        gains = self.gains
        self._push(s_t)
        u = e_t * gains.kp
        derivative = e_t - self._prev_e
        derivative *= gains.kd
        u += derivative
        var = self._var_term()
        if var is None:
            # the zero variance term still turns -0.0 into +0.0
            u += gains.sigma * 0.0
        else:
            var *= gains.sigma
            u += var
        self._prev_e = e_t
        u *= gains.zeta
        u = self.policy(s_t, a_t, l_t) + u
        return u.clip(-gains.u_max, gains.u_max, out=u)
