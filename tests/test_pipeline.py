import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brainstem.errors import ConfigError, DimensionMismatch
from brainstem.pipeline import (LatentState, RateConfig, RelayMap,
                                relay_update, run_scheduler, state_review)


def relay(dim=4, seed=3):
    return RelayMap(dim, dim, dim, dim, seed=seed)


def rand_inputs(rng, dim=4):
    return (rng.standard_normal(dim), rng.standard_normal(dim),
            rng.standard_normal(dim), rng.standard_normal(dim))


# -- latent relay ------------------------------------------------------------

def test_lambda_zero_ignores_dbn_term():
    rng = np.random.default_rng(0)
    r = relay()
    l, a, m, f = rand_inputs(rng)
    state = LatentState(l)
    one = relay_update(state, a, m, f, rng.standard_normal(4), 0.0, r)
    two = relay_update(state, a, m, f, rng.standard_normal(4), 0.0, r)
    assert np.array_equal(one.vector, two.vector)
    assert one.tick == 1


def test_dbn_term_additivity():
    rng = np.random.default_rng(1)
    r = relay()
    l, a, m, f = rand_inputs(rng)
    state = LatentState(l)
    term = rng.standard_normal(4)
    lam = 0.7
    base = relay_update(state, a, m, f, term, lam, r)
    doubled = relay_update(state, a, m, f, 2 * term, lam, r)
    assert np.allclose(doubled.vector - base.vector, lam * term, atol=1e-12)


def test_rollout_matches_unrolled_recurrence():
    rng = np.random.default_rng(2)
    r = relay()
    lam = 0.4
    state = LatentState(rng.standard_normal(4))
    start = state.vector.copy()
    stream = [rand_inputs(rng) + (rng.standard_normal(4),) for _ in range(20)]
    for a, m, f, _l_unused, term in stream:
        state = relay_update(state, a, m, f, term, lam, r)
    # independent evaluation with explicit numpy calls
    vec = start
    for a, m, f, _l_unused, term in stream:
        stacked = np.concatenate([vec, a, m, f])
        vec = np.tanh(r.weights @ stacked + r.bias) + lam * term
    assert np.allclose(state.vector, vec, atol=1e-12)
    assert state.tick == 20


def test_relay_dimension_checks():
    r = relay()
    with pytest.raises(DimensionMismatch):
        relay_update(LatentState(np.zeros(4)), np.zeros(3), np.zeros(4),
                     np.zeros(4), np.zeros(4), 0.1, r)
    with pytest.raises(DimensionMismatch):
        relay_update(LatentState(np.zeros(4)), np.zeros(4), np.zeros(4),
                     np.zeros(4), np.zeros(3), 0.1, r)


# -- state review --------------------------------------------------------------

def test_same_symbol_keeps():
    assert state_review("door_open", "door_open") is False


def test_different_symbol_replans():
    assert state_review("door_open", "apple_missing") is True


# -- scheduler ----------------------------------------------------------------

def test_test_ratio_firing_counts():
    rates = RateConfig(memory_period=10, deliberative_period=100)
    trace = run_scheduler(rates, 1000)
    assert trace.count("reactive") == 1000
    assert trace.count("memory") == 100
    assert trace.count("deliberative") == 10


def test_firing_counts_floor_division():
    rates = RateConfig(memory_period=7, deliberative_period=30)
    trace = run_scheduler(rates, 100)
    assert trace.count("reactive") == 100
    assert trace.count("memory") == 100 // 7
    assert trace.count("deliberative") == 100 // 30


def test_callbacks_receive_ticks_in_order():
    seen = {"reactive": [], "memory": [], "deliberative": []}
    rates = RateConfig(memory_period=5, deliberative_period=25)
    run_scheduler(rates, 50,
                  on_reactive=lambda t: seen["reactive"].append(t),
                  on_memory=lambda t: seen["memory"].append(t),
                  on_deliberative=lambda t: seen["deliberative"].append(t))
    assert seen["reactive"] == list(range(1, 51))
    assert seen["memory"] == [5, 10, 15, 20, 25, 30, 35, 40, 45, 50]
    assert seen["deliberative"] == [25, 50]


def test_deliberative_latency_never_displaces_reactive():
    rates = RateConfig(memory_period=10, deliberative_period=50)
    applied = []

    def deliberative(tick):
        return 75, lambda t: applied.append((tick, t))

    trace = run_scheduler(rates, 300, on_deliberative=deliberative)
    assert trace.max_reactive_gap() == 1
    # job submitted at 50 is ready at 125, applied at boundary 150
    assert (50, 150) in applied
    assert (100, 200) in applied


def test_stop_predicate_ends_early():
    trace = run_scheduler(RateConfig(memory_period=2, deliberative_period=4),
                          100, stop=lambda t: t >= 10)
    assert trace.count("reactive") == 10


@settings(derandomize=True, max_examples=200, deadline=None)
@given(memory_period=st.integers(1, 12), deliberative_period=st.integers(1, 40),
       horizon=st.integers(0, 160),
       latencies=st.lists(st.none() | st.integers(0, 90), min_size=1,
                          max_size=6),
       gaps=st.lists(st.integers(1, 50), min_size=1, max_size=6),
       stop_after=st.none() | st.integers(1, 8))
def test_next_wake_keeps_every_slow_loop_event(memory_period,
                                               deliberative_period, horizon,
                                               latencies, gaps, stop_after):
    # next_wake(t) = t + gaps[t % len(gaps)]; the run stops after the
    # stop_after-th memory firing, so both runs stop at the same tick
    rates = RateConfig(memory_period, deliberative_period)

    def run(**wake):
        events, reactive = [], []

        def on_deliberative(tick):
            events.append(("deliberative", tick))
            latency = latencies[tick % len(latencies)]
            if latency is not None:
                return latency, lambda t: events.append(("apply", tick, t))

        trace = run_scheduler(
            rates, horizon, on_reactive=reactive.append,
            on_memory=lambda tick: events.append(("memory", tick)),
            on_deliberative=on_deliberative, **wake,
            stop=lambda tick: stop_after is not None and sum(
                kind == "memory" for kind, *_ in events) >= stop_after)
        slow = [record for record in trace.records if record[1] != "reactive"]
        assert [record[0] for record in trace.firings("reactive")] == reactive
        return events, slow, reactive

    def next_wake(tick):
        return tick + gaps[tick % len(gaps)]

    ticked = run()
    woken = run(next_wake=next_wake)
    assert woken[:2] == ticked[:2]
    visits = woken[2]
    assert visits == sorted(set(visits))
    assert set(visits) <= set(ticked[2])
    assert visits[-1:] == ticked[2][-1:]
    for tick, after in zip(visits, visits[1:]):
        assert after <= next_wake(tick)


@pytest.mark.parametrize("wake", [lambda tick: tick, lambda tick: tick - 1,
                                  lambda tick: 0, lambda tick: tick + 0.5,
                                  lambda tick: float(tick + 1),
                                  lambda tick: np.int64(tick + 1)])
def test_next_wake_must_be_later(wake):
    # a wake that is not an int would hand a float tick to every hook
    with pytest.raises(ValueError, match="next_wake"):
        run_scheduler(RateConfig(memory_period=5, deliberative_period=10), 20,
                      next_wake=wake)


@pytest.mark.parametrize("horizon", [-1, -100, 2.5, 10.0, True, np.int64(10),
                                     "10", None])
def test_horizon_must_be_a_non_negative_int(horizon):
    with pytest.raises(ConfigError, match="horizon_ticks"):
        run_scheduler(RateConfig(memory_period=2, deliberative_period=4),
                      horizon)


def test_zero_horizon_runs_no_tick():
    seen = []
    trace = run_scheduler(RateConfig(memory_period=1, deliberative_period=1), 0,
                          on_reactive=seen.append, next_wake=lambda t: t + 1)
    assert (seen, trace.records) == ([], [])


def test_trace_write_and_counts(tmp_path):
    rates = RateConfig(memory_period=2, deliberative_period=4)
    trace = run_scheduler(rates, 8)
    path = tmp_path / "trace.tsv"
    trace.write(str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(trace.records)
    assert lines[0].split("\t")[1] == "reactive"


def test_deterministic_latent_trajectory():
    rng = np.random.default_rng(9)
    r = relay()
    stream = [rand_inputs(rng) + (rng.standard_normal(4),) for _ in range(10)]

    def rollout():
        state = LatentState(np.zeros(4))
        for a, m, f, _unused, term in stream:
            state = relay_update(state, a, m, f, term, 0.3, r)
        return state.vector

    assert np.array_equal(rollout(), rollout())


def test_rate_config_validation():
    # at 2.5 memory would fire at ticks 5, 10, ...; at True on every tick
    for fields in ({"memory_period": 0}, {"memory_period": 2.5},
                   {"memory_period": True}, {"deliberative_period": 10.0},
                   {"deliberative_period": False}):
        with pytest.raises(ValueError):
            RateConfig(**fields)
