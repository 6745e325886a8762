import numpy as np
import pytest

from brainstem.errors import DimensionMismatch
from brainstem.estimator import (BeliefState, DbnParams, em_reestimate,
                                 forward_filter, predict_state, random_params,
                                 sequence_log_likelihood)
from support import enumerated_beliefs


def cyclic_params(n=3):
    transition = np.zeros((n, n))
    for i in range(n):
        transition[i, (i + 1) % n] = 1.0
    return DbnParams(transition={"step": transition}, emission=np.eye(n))


def test_deterministic_chain_tracks_delta():
    params = cyclic_params()
    belief = BeliefState(np.array([1.0, 0.0, 0.0]))
    for expected in (1, 2, 0, 1):
        belief = forward_filter(belief, "step", expected, params)
        assert np.argmax(belief.distribution) == expected
        assert belief.distribution[expected] == pytest.approx(1.0)


def test_uniform_model_stays_uniform():
    n = 4
    params = DbnParams(transition={"a": np.full((n, n), 1.0 / n)},
                       emission=np.full((n, 2), 0.5))
    belief = BeliefState.uniform(n)
    for obs in (0, 1, 1, 0):
        belief = forward_filter(belief, "a", obs, params)
        assert np.allclose(belief.distribution, 1.0 / n, atol=1e-15)


def test_filter_matches_enumeration_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = rng.integers(2, 5)
        m = rng.integers(2, 4)
        steps = rng.integers(1, 6)
        actions = ["a", "b"]
        params = random_params(int(n), int(m), actions, rng)
        episode = [(actions[int(rng.integers(0, 2))], int(rng.integers(0, m)))
                   for _ in range(int(steps))]
        oracle = enumerated_beliefs(episode, params)
        belief = BeliefState.uniform(int(n))
        for (action, obs), expected in zip(episode, oracle):
            belief = forward_filter(belief, action, obs, params)
            assert np.max(np.abs(belief.distribution - expected)) <= 1e-10


def test_zero_likelihood_resets_to_uniform():
    params = DbnParams(
        transition={"a": np.eye(2)},
        emission=np.array([[1.0, 0.0], [1.0, 0.0]]),  # symbol 1 impossible
    )
    belief = forward_filter(BeliefState.uniform(2), "a", 1, params)
    assert belief.from_reset
    assert np.allclose(belief.distribution, 0.5)


def test_belief_stays_normalized():
    rng = np.random.default_rng(3)
    params = random_params(4, 3, ["a"], rng)
    belief = BeliefState.uniform(4)
    for _ in range(200):
        belief = forward_filter(belief, "a", int(rng.integers(0, 3)), params)
        assert abs(belief.distribution.sum() - 1.0) <= 1e-12
        assert np.all(belief.distribution >= 0)


# -- prediction -------------------------------------------------------------

def test_delta_belief_predicts_its_embedding():
    params = cyclic_params()
    embeddings = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    belief = BeliefState(np.array([0.0, 1.0, 0.0]))
    assert np.array_equal(predict_state(belief, params, embeddings), [0.0, 1.0])


def test_uniform_belief_predicts_midpoint():
    params = DbnParams(transition={"a": np.eye(2)}, emission=np.eye(2))
    embeddings = np.array([[2.0, 0.0], [0.0, 4.0]])
    predicted = predict_state(BeliefState.uniform(2), params, embeddings)
    assert np.allclose(predicted, [1.0, 2.0])


def test_prediction_matches_dot_oracle():
    rng = np.random.default_rng(9)
    params = random_params(4, 3, ["a"], rng)
    embeddings = rng.standard_normal((4, 6))
    for _ in range(30):
        raw = rng.random(4) + 0.01
        belief = BeliefState(raw / raw.sum())
        expected = [sum(belief.distribution[i] * embeddings[i, d]
                        for i in range(4)) for d in range(6)]
        assert np.allclose(predict_state(belief, params, embeddings), expected,
                           atol=1e-12)


def test_embedding_count_must_match_states():
    params = cyclic_params()
    with pytest.raises(DimensionMismatch):
        predict_state(BeliefState.uniform(3), params, np.zeros((2, 4)))


# -- EM ---------------------------------------------------------------------

def test_em_fixed_point_on_deterministic_model():
    params = cyclic_params()
    episode = [("step", (t + 1) % 3) for t in range(9)]
    result = em_reestimate([episode] * 3, params, iters=1)
    for action in params.transition:
        assert np.max(np.abs(result.params.transition[action]
                             - params.transition[action])) <= 1e-9
    assert np.max(np.abs(result.params.emission - params.emission)) <= 1e-9


def test_em_loglik_monotone_on_random_data():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n, m = 3, 3
        actions = ["a", "b"]
        init = random_params(n, m, actions, rng)
        episodes = [
            [(actions[int(rng.integers(0, 2))], int(rng.integers(0, m)))
             for _ in range(int(rng.integers(3, 8)))]
            for _ in range(4)
        ]
        result = em_reestimate(episodes, init, iters=10)
        logliks = result.log_likelihoods
        assert len(logliks) == 11
        for before, after in zip(logliks, logliks[1:]):
            assert after >= before - 1e-9


def test_single_state_model_stays_degenerate():
    params = DbnParams(transition={"a": np.array([[1.0]])},
                       emission=np.array([[0.4, 0.6]]))
    result = em_reestimate([[("a", 0), ("a", 1)]], params, iters=3)
    assert np.allclose(result.params.transition["a"], [[1.0]], atol=0)


def test_em_requires_valid_args():
    params = cyclic_params()
    with pytest.raises(ValueError):
        em_reestimate([], params, iters=1)
    with pytest.raises(ValueError):
        em_reestimate([[("step", 0)]], params, iters=0)


def test_row_stochastic_enforced():
    with pytest.raises(ValueError):
        DbnParams(transition={"a": np.array([[0.5, 0.4], [0.5, 0.5]])},
                  emission=np.eye(2))
    with pytest.raises(ValueError):
        DbnParams(transition={"a": np.eye(2)},
                  emission=np.array([[1.1, -0.1], [0.5, 0.5]]))


def test_loglik_helper_matches_em_trace():
    rng = np.random.default_rng(30)
    params = random_params(3, 2, ["a"], rng)
    episodes = [[("a", int(rng.integers(0, 2))) for _ in range(5)]]
    result = em_reestimate(episodes, params, iters=2)
    assert result.log_likelihoods[0] == pytest.approx(
        sequence_log_likelihood(episodes, params))
