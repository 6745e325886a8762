import dataclasses
import hashlib
import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brainstem.errors import DimensionMismatch
from brainstem.reactive import (ReactiveController, ReactiveGains, pd_control,
                                var_react, zero_policy)


def run_stream(controller, states, errors, actions=None, latents=None):
    out = []
    for i, (s, e) in enumerate(zip(states, errors)):
        a = actions[i] if actions else np.zeros_like(s)
        l = latents[i] if latents else np.zeros_like(s)
        out.append(controller.step(s, a, l, e))
    return out


def test_zero_zeta_returns_policy_output():
    def policy(s, a, l):
        return np.array([0.3, -0.3])

    controller = ReactiveController(2, ReactiveGains(zeta=0.0), policy)
    u = controller.step(np.array([1.0, 2.0]), None, None, np.array([0.5, 0.5]))
    assert np.array_equal(u, [0.3, -0.3])


def test_zero_error_zero_sigma_is_policy():
    def policy(s, a, l):
        return np.array([0.1, 0.2])

    controller = ReactiveController(2, ReactiveGains(zeta=1.0, sigma=0.0), policy)
    u = controller.step(np.zeros(2), None, None, np.zeros(2))
    assert np.allclose(u, [0.1, 0.2])


def test_pure_proportional_arithmetic():
    gains = ReactiveGains(zeta=1.0, sigma=0.0, kp=1.0, kd=0.0)
    controller = ReactiveController(2, gains)
    u = controller.step(np.zeros(2), None, None, np.array([0.2, -0.1]))
    assert np.allclose(u, [0.2, -0.1], atol=1e-15)


def test_pd_derivative_vanishes_on_constant_error():
    e = np.array([0.4, -0.4])
    first = pd_control(e, np.zeros(2), kp=0.0, kd=2.0)
    assert np.allclose(first, 2.0 * e)
    settled = pd_control(e, e, kp=0.0, kd=2.0)
    assert np.array_equal(settled, np.zeros(2))


def test_pd_zero_history_zero_output():
    assert np.array_equal(pd_control(np.zeros(3), np.zeros(3), 1.0, 1.0),
                          np.zeros(3))


def test_pd_matches_hand_unrolled_recurrence():
    rng = np.random.default_rng(2)
    kp, kd = 0.7, 0.3
    prev = np.zeros(4)
    for _ in range(100):
        e = rng.standard_normal(4)
        expected = [kp * e[i] + kd * (e[i] - prev[i]) for i in range(4)]
        assert np.allclose(pd_control(e, prev, kp, kd), expected, atol=1e-15)
        prev = e


def test_var_react_zero_for_constant_window():
    window = [np.ones(3)] * 8
    assert np.array_equal(var_react(np.ones(3), None, window), np.zeros(3))


def test_var_react_zero_below_two_samples():
    assert np.array_equal(var_react(np.ones(2), None, [np.ones(2)]), np.zeros(2))


def test_var_react_damps_alternating_component():
    window = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])] * 4
    damp = var_react(window[-1], None, window)
    assert damp[0] < 0
    assert damp[1] == 0


def test_controller_variance_matches_bruteforce():
    rng = np.random.default_rng(11)
    gains = ReactiveGains(zeta=1.0, sigma=1.0, kp=0.0, kd=0.0, u_max=100.0)
    controller = ReactiveController(3, gains, window=8)
    states = [rng.standard_normal(3) for _ in range(40)]
    for i, s in enumerate(states):
        u = controller.step(s, None, None, np.zeros(3))
        window = states[max(0, i - 7):i + 1]
        expected = var_react(s, None, window)
        assert np.allclose(u, np.clip(expected, -100, 100), atol=1e-9)


def test_path_decomposition_identity():
    rng = np.random.default_rng(4)
    for _ in range(100):
        zeta = float(rng.uniform(0, 1))
        sigma = float(rng.uniform(0, 1))
        kp, kd = float(rng.uniform(0, 1)), float(rng.uniform(0, 0.5))

        def policy(s, a, l):
            return 0.3 * np.tanh(s)

        streams = [rng.standard_normal(4) * 0.3 for _ in range(6)]
        errors = [rng.standard_normal(4) * 0.2 for _ in range(6)]

        def outputs(z):
            gains = ReactiveGains(zeta=z, sigma=sigma, kp=kp, kd=kd, u_max=50.0)
            controller = ReactiveController(4, gains, policy)
            return run_stream(controller, streams, errors)

        with_z = outputs(zeta)
        without = outputs(0.0)
        # recompute the correction path alone
        probe = ReactiveController(
            4, ReactiveGains(zeta=1.0, sigma=sigma, kp=kp, kd=kd, u_max=1e9))
        corrections = run_stream(probe, streams, errors)
        for u1, u0, corr in zip(with_z, without, corrections):
            assert np.max(np.abs((u1 - u0) - zeta * corr)) <= 1e-12


def test_outputs_always_within_clamp():
    rng = np.random.default_rng(8)
    gains = ReactiveGains(zeta=3.0, sigma=2.0, kp=5.0, kd=2.0, u_max=1.0)

    def policy(s, a, l):
        return 10.0 * s

    controller = ReactiveController(3, gains, policy)
    for _ in range(200):
        u = controller.step(rng.standard_normal(3) * 5, None, None,
                            rng.standard_normal(3) * 5)
        assert np.all(np.abs(u) <= 1.0)


def test_deterministic_for_identical_streams():
    rng = np.random.default_rng(14)
    streams = [rng.standard_normal(2) for _ in range(20)]
    errors = [rng.standard_normal(2) for _ in range(20)]

    def make():
        return ReactiveController(2, ReactiveGains(zeta=0.8, sigma=0.5,
                                                   kp=0.9, kd=0.1))

    first = run_stream(make(), streams, errors)
    second = run_stream(make(), streams, errors)
    for u1, u2 in zip(first, second):
        assert np.array_equal(u1, u2)


def test_dimension_mismatch_rejected():
    controller = ReactiveController(3)
    with pytest.raises(DimensionMismatch):
        controller.step(np.zeros(2), None, None, np.zeros(3))
    with pytest.raises(DimensionMismatch):
        controller.step(np.array([np.nan, 0, 0]), None, None, np.zeros(3))


def test_gains_must_be_nonnegative():
    with pytest.raises(ValueError):
        ReactiveGains(zeta=-0.1)


def test_zero_policy_shape():
    assert np.array_equal(zero_policy(np.ones(4), None, None), np.zeros(4))


def test_window_below_one_rejected():
    # a bool or a numpy integer is not an int, as in RateConfig
    for window in (0, -3, True, np.int64(3), 2.0):
        with pytest.raises(ValueError, match="window"):
            ReactiveController(4, window=window)


def test_ticks_below_one_rejected():
    # as for window, a bool or a numpy integer is not an int
    gains = ReactiveGains(zeta=0.7, sigma=0.4, kp=0.9, kd=0.3, u_max=100.0)
    controller, fresh = ReactiveController(2, gains), ReactiveController(2, gains)
    state, error = np.array([0.5, -1.0]), np.array([0.25, 2.0])
    for ticks in (0, -1, True, 2.0, np.int64(2)):
        with pytest.raises(ValueError, match="ticks"):
            controller.step(state, None, None, error, ticks=ticks)
    # a refused call steps nothing
    assert (controller.step(state, None, None, error).tobytes()
            == fresh.step(state, None, None, error).tobytes())


@pytest.mark.parametrize("ticks", [1, 3, 6])
def test_policy_called_once_per_call(ticks):
    calls = []

    def policy(s, a, l):
        calls.append(a)
        return 0.25 * s

    controller = ReactiveController(2, policy=policy, window=4)
    state, error = np.array([0.5, -1.0]), np.array([0.25, 2.0])
    for action in range(3):
        controller.step(state, action, None, error, ticks=ticks)
    assert calls == [0, 1, 2]


def test_dim_below_one_rejected():
    for dim in (0, -1, True, np.int64(3), 2.0):
        with pytest.raises(ValueError, match="dim"):
            ReactiveController(dim)


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   np.array([0.1, np.nan]),
                                   np.array([0.1, -np.inf])])
def test_gains_kp_kd_must_be_finite(value):
    for name in ("kp", "kd"):
        with pytest.raises(ValueError):
            ReactiveGains(**{name: value})


def test_array_gain_shape_must_match_dim():
    for name in ("kp", "kd"):
        for gain in (np.ones(3), np.ones(1), np.ones((4, 1))):
            with pytest.raises(DimensionMismatch):
                ReactiveController(4, ReactiveGains(**{name: gain}))
    ReactiveController(4, ReactiveGains(kp=np.ones(4), kd=np.float64(0.5)))


def test_refilled_state_buffer_matches_fresh_arrays():
    # the window must hold the values pushed, not the caller's buffer
    gains = ReactiveGains(zeta=1.0, sigma=1.0, kp=0.0, kd=0.0, u_max=100.0)
    refilled = ReactiveController(1, gains, window=3)
    fresh = ReactiveController(1, gains, window=3)
    buffer = np.zeros(1)
    for value in (1.0, 5.0, 2.0, 9.0, 3.0, 3.0, 3.0):
        buffer[:] = value
        assert np.array_equal(
            refilled.step(buffer, None, None, np.zeros(1)),
            fresh.step(np.array([value]), None, None, np.zeros(1)))

def test_refilled_error_buffer_keeps_its_derivative():
    # the previous error must be the value passed, not the caller's buffer
    gains = ReactiveGains(zeta=1.0, sigma=0.0, kp=0.0, kd=1.0, u_max=100.0)
    controller = ReactiveController(1, gains)
    buffer = np.zeros(1)
    outputs = []
    for value in (0.0, 1.0, 3.0):
        buffer[:] = value
        outputs.append(controller.step(np.zeros(1), None, None, buffer)[0])
    assert outputs == [0.0, 1.0, 2.0]


def test_gains_fixed_at_construction():
    kp = np.array([0.5, 1.5])
    gains = ReactiveGains(zeta=1.0, sigma=0.0, kp=kp, kd=0.0, u_max=10.0)
    for name, value in (("u_max", -1.0), ("kp", float("nan"))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(gains, name, value)
    controller = ReactiveController(2, gains)
    twin = ReactiveController(2, ReactiveGains(
        zeta=1.0, sigma=0.0, kp=np.array([0.5, 1.5]), kd=0.0, u_max=10.0))
    # the controller keeps its own copy of the caller's gain array
    kp[:] = np.nan
    error = np.array([1.0, -2.0])
    assert (controller.step(np.zeros(2), None, None, error).tobytes()
            == twin.step(np.zeros(2), None, None, error).tobytes())


@pytest.mark.parametrize("window", [1, 3])
def test_returned_output_survives_later_steps(window):
    # no buffer the controller reuses may alias an output it returned
    rng = np.random.default_rng(5)
    gains = ReactiveGains(zeta=0.7, sigma=0.4, kp=0.9, kd=0.3, u_max=100.0)
    controller = ReactiveController(3, gains, window=window)
    returned = []
    for _ in range(3 * window + 4):
        u = controller.step(rng.standard_normal(3), None, None,
                            rng.standard_normal(3))
        returned.append((u, u.tobytes()))
    for u, kept in returned:
        assert u.tobytes() == kept


@pytest.mark.parametrize("u_max", [0.0, -0.0])
def test_zero_clamp_matches_ndarray_clip(u_max):
    # minimum/maximum in place of clip would differ in the sign of zero here
    rng = np.random.default_rng(6)

    def make(bound):
        return ReactiveController(3, ReactiveGains(
            zeta=0.7, sigma=0.4, kp=0.9, kd=0.3, u_max=bound), window=3)

    clamped, twin = make(u_max), make(1e9)
    for _ in range(40):
        s, e = _golden_vector(rng, 3), _golden_vector(rng, 3)
        expected = twin.step(s, None, None, e).clip(-u_max, u_max)
        assert clamped.step(s, None, None, e).tobytes() == expected.tobytes()


def _golden_vector(rng, dim):
    kind = int(rng.integers(6))
    if kind == 0:
        return np.zeros(dim)
    if kind == 1:
        return np.full(dim, -0.0)
    vector = rng.standard_normal(dim) * float(rng.choice([0.01, 1.0, 5.0]))
    if kind == 2:
        vector[rng.random(dim) < 0.5] = 0.0
        vector[rng.random(dim) < 0.5] = -0.0
    if kind == 3:
        return vector.tolist()
    return vector


def _golden_gain(rng, dim):
    pick = int(rng.integers(4))
    if pick == 0:
        return 0.0
    if pick == 1:
        return float(rng.uniform(0.0, 2.0))
    gain = rng.uniform(-0.5, 2.0, dim)
    gain[rng.random(dim) < 0.2] = -0.0
    return gain


def test_controller_output_bytes_match_golden_digest():
    """Any bit of drift in the controller's output fails this test.

    The digest was taken from the composed reference implementation (the
    pd_control + var_term + policy arithmetic with fresh arrays per term).
    The stream covers dims 1-20, windows 1-20, scalar and per-component
    gains, zero and -0.0 inputs, and both policies. The custom policy uses
    only exactly rounded operations, so the digest does not depend on libm.
    """
    rng = np.random.default_rng(20261018)
    digest = hashlib.sha256()
    steps = 0
    while steps < 6000:
        dim = int(rng.integers(1, 21))
        window = int(rng.integers(1, 21))
        gains = ReactiveGains(
            zeta=float(rng.choice([0.0, -0.0, 0.5, float(rng.uniform(0, 3))])),
            sigma=float(rng.choice([0.0, -0.0, 0.3, float(rng.uniform(0, 3))])),
            kp=_golden_gain(rng, dim), kd=_golden_gain(rng, dim),
            u_max=float(rng.choice([0.05, 1.0, 1e3])))
        custom = bool(rng.integers(2))
        policy = (lambda s, a, l: 0.25 * s - a) if custom else zero_policy
        controller = ReactiveController(dim, gains, policy, window=window)
        for _ in range(int(rng.integers(1, 3 * window + 4))):
            action = np.asarray(_golden_vector(rng, dim)) if custom else None
            u = controller.step(_golden_vector(rng, dim), action, None,
                                _golden_vector(rng, dim))
            digest.update(u.tobytes())
            steps += 1
    assert steps == 6030
    assert digest.hexdigest() == (
        "5355448cfda0263804bd579ae27616266f50b8b6ce13638c6130c5b4a396f08b")


def reference_steps(dim, gains, policy, window, inputs):
    """The composed reference arithmetic ``step`` must match bit for bit.

    pd_control, then the variance term from running sums of the window's
    (sample, square) entries (the evicted entry taken off before the new one
    is added), then the policy, each term a fresh array; ``inputs`` are
    (s_t, a_t, e_t) triples.
    """
    kp = np.asarray(gains.kp, dtype=float)
    kd = np.asarray(gains.kd, dtype=float)
    entries = deque()
    sums = np.zeros((2, dim))
    prev_e = np.zeros(dim)
    outputs = []
    for s_t, a_t, e_t in inputs:
        s_t = np.asarray(s_t, dtype=float)
        e_t = np.asarray(e_t, dtype=float)
        entry = np.stack([s_t, s_t * s_t])
        if len(entries) == window:
            sums = sums - entries.popleft()
        entries.append(entry)
        sums = sums + entry
        pd = pd_control(e_t, prev_e, kp, kd)
        if len(entries) < 2:
            var_term = gains.sigma * 0.0
        else:
            mean, mean_square = sums / len(entries)
            var_term = gains.sigma * np.negative(np.sqrt(np.maximum(
                mean_square - mean * mean, 0.0)))
        u = policy(s_t, a_t, None) + gains.zeta * (pd + var_term)
        outputs.append(u.clip(-gains.u_max, gains.u_max))
        prev_e = e_t
    return outputs


def _vectors(dim):
    # up to 1e300: squares and running sums overflow, and outputs turn NaN
    values = st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0])
    vector = st.lists(values, min_size=dim, max_size=dim)
    return st.one_of(vector, vector.map(np.array))


def _gains(dim):
    scalar = st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0])
    return st.one_of(
        scalar, scalar.map(np.array),
        st.lists(scalar, min_size=dim, max_size=dim).map(np.array))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 8), window=st.integers(1, 8),
       custom=st.booleans())
def test_step_bytes_match_composed_reference(data, dim, window, custom):
    non_negative = st.floats(0.0, 3.0) | st.sampled_from([0.0, -0.0])
    gains = ReactiveGains(
        zeta=data.draw(non_negative), sigma=data.draw(non_negative),
        kp=data.draw(_gains(dim)), kd=data.draw(_gains(dim)),
        u_max=data.draw(st.sampled_from([0.0, -0.0, 0.05, 1.0, 1e3])))
    policy = (lambda s, a, l: 0.25 * s - a) if custom else zero_policy

    def call(ticks):
        return (data.draw(_vectors(dim)), np.asarray(data.draw(_vectors(dim))),
                data.draw(_vectors(dim)), ticks)

    calls = []
    for _ in range(data.draw(st.integers(1, 3 * window + 4))):
        # up to window + 2 ticks: one call evicts entries it pushed itself
        calls.append(call(data.draw(st.integers(1, window + 2))))
        if calls[-1][3] > 1:
            # a single step after a multi-tick call checks the window, sums
            # and previous error that call left, not only its output
            calls.append(call(1))
    controller = ReactiveController(dim, gains, policy, window=window)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = reference_steps(
            dim, gains, policy, window,
            [(s, a, e) for s, a, e, ticks in calls for _ in range(ticks)])
        got = [controller.step(s, a, None, e, ticks=ticks)
               for s, a, e, ticks in calls]
    # a call returns the output of its last tick
    last_ticks = itertools.accumulate(ticks for *_, ticks in calls)
    assert ([u.tobytes() for u in got]
            == [expected[tick - 1].tobytes() for tick in last_ticks])
