"""Per-tick reactive control: pluggable policy, PD error feedback, variance damping.

u_t = policy(s_t, a_t, l_t) + zeta * (pd(e_t) + sigma * var_damp(s_t window)),
clamped per component to +/- u_max. The controller term is proportional-
derivative (no integral); the stabilization term pushes against the running
per-component standard deviation of recent states, damping oscillation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, require_positive_ints

# The C functions behind ndarray.clip and np.count_nonzero, called without
# their Python wrappers; numpy 2 moved them from numpy.core to numpy._core,
# and numpy.core warns on import there.
try:
    from numpy._core.multiarray import count_nonzero as _count_nonzero
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import count_nonzero as _count_nonzero
    from numpy.core.umath import clip as _clip

# ufuncs bound once: a step calls them with ``out`` as a positional argument,
# except maximum, where numpy 2 deprecates that
_add, _divide, _isfinite, _maximum, _multiply, _negative, _sqrt, _subtract = (
    np.add, np.divide, np.isfinite, np.maximum, np.multiply, np.negative,
    np.sqrt, np.subtract)

DEFAULT_VAR_WINDOW = 16
_ZERO = np.zeros(())


@dataclass(frozen=True)
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
    """Owns the error/window state; steps once per reactive tick, and one
    call may cover several ticks with the same inputs (``ticks``).

    The gains are read once, here: ``kp`` and ``kd`` are copied, so refilling
    the caller's arrays later changes nothing. The variance window is a fixed
    ring of (sample, square) entries with running sums, and every
    intermediate of a step lives in a buffer made here.
    """

    def __init__(self, dim: int, gains: Optional[ReactiveGains] = None,
                 policy: Optional[Callable] = None,
                 window: int = DEFAULT_VAR_WINDOW):
        require_positive_ints(dim=dim, window=window)
        self.dim = dim
        if gains is None:
            gains = ReactiveGains()
        self._kp = np.array(gains.kp, dtype=float)
        self._kd = np.array(gains.kd, dtype=float)
        for name, gain in (("kp", self._kp), ("kd", self._kd)):
            if gain.shape not in ((), (dim,)):
                raise DimensionMismatch(
                    f"{name} has shape {gain.shape}, expected a scalar or ({dim},)")
        # 0-d float64 arrays: a ufunc takes them faster than scalars, with
        # the same arithmetic
        self._zeta = np.array(gains.zeta, dtype=float)
        self._sigma = np.array(gains.sigma, dtype=float)
        # the zero variance term of a step below two samples
        self._sigma_zero = np.array(self._sigma * 0.0)
        self._u_max = np.array(gains.u_max, dtype=float)
        self._u_min = np.array(-self._u_max)
        self.policy = policy if policy is not None else zero_policy
        self._shape = (dim,)
        # entry i of the ring is (sample, square); _head is the next slot to
        # write, which holds the oldest entry once the ring is full
        self._ring = [(entry, entry[0], entry[1])
                      for entry in np.zeros((window, 2, dim))]
        self._window = window
        self._head = 0
        self._count = 0
        self._n = np.zeros(())  # _count as a divisor
        # running sum and sum of squares make the per-tick std O(dim)
        self._sums = np.zeros((2, dim))
        self._moments = np.empty((2, dim))
        self._mean, self._variance = self._moments
        self._prev_e = np.zeros(dim)
        self._u = np.empty(dim)
        self._derivative = np.empty(dim)
        # one finite mask for both inputs: row 0 the state, row 1 the error
        self._finite = np.empty((2, dim), dtype=bool)
        self._finite_rows = tuple(self._finite)

    def step(self, s_t, a_t, l_t, e_t, *, ticks: int = 1) -> np.ndarray:
        """``ticks`` control steps with the same inputs; returns the last
        step's output, clamped per component to +/- u_max.

        The inputs are checked once. Each tick then pushes s_t onto the
        window, updates the running sums and prev_e, calls the policy and
        clamps its output, exactly as ``ticks`` separate calls would.

        u = policy + zeta * (pd_control(e_t, prev_e, kp, kd) + sigma * var),
        accumulated in place in that order; var is var_react's value from the
        running sums, which take off the evicted entry before adding the new
        one. The only reordering is a * b = b * a with at most one NaN
        operand, which is exact in IEEE arithmetic, so the output is bit for
        bit that of the composition. The output is a fresh array: callers
        keep it.
        """
        require_positive_ints(ticks=ticks)
        s_t = np.asarray(s_t, dtype=float)
        e_t = np.asarray(e_t, dtype=float)
        if s_t.shape != self._shape or e_t.shape != self._shape:
            raise DimensionMismatch(
                f"expected dim {self.dim}, got state {s_t.shape} error {e_t.shape}")
        finite = self._finite
        finite_s, finite_e = self._finite_rows
        _isfinite(s_t, finite_s)
        _isfinite(e_t, finite_e)
        if _count_nonzero(finite) != finite.size:
            raise DimensionMismatch("reactive inputs must be finite")
        sums = self._sums
        for _ in range(ticks):
            head = self._head
            entry, sample, square = self._ring[head]
            if self._count == self._window:
                _subtract(sums, entry, sums)
            else:
                self._count += 1
                self._n[()] = self._count
            # copies: a caller may refill s_t and e_t in place before the
            # next step
            sample[...] = s_t
            _multiply(s_t, s_t, square)
            _add(sums, entry, sums)
            self._head = head + 1 if head + 1 < self._window else 0
            u = _multiply(e_t, self._kp, self._u)
            derivative = _subtract(e_t, self._prev_e, self._derivative)
            _multiply(derivative, self._kd, derivative)
            _add(u, derivative, u)
            if self._count < 2:
                # the zero variance term still turns -0.0 into +0.0
                _add(u, self._sigma_zero, u)
            else:
                mean, variance = self._mean, self._variance
                _divide(sums, self._n, self._moments)
                _multiply(mean, mean, mean)
                _subtract(variance, mean, variance)
                _maximum(variance, _ZERO, out=variance)
                _sqrt(variance, variance)
                _negative(variance, variance)
                _multiply(variance, self._sigma, variance)
                _add(u, variance, u)
            self._prev_e[...] = e_t
            _multiply(u, self._zeta, u)
            u = self.policy(s_t, a_t, l_t) + u
            _clip(u, self._u_min, self._u_max, u)
        return u
