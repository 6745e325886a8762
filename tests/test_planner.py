import copy
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brainstem.errors import (CycleDetected, EmptyActionSet, SchemaViolation,
                              UnknownAction)
from brainstem.planner import (MAX_TREE_DEPTH, NOOP_ACTION, StateTree,
                               TransitionModel, build_htn_dag,
                               generate_state_tree, score_state,
                               select_action, subtree_value,
                               validate_state_tree)
from brainstem.simenv import TASK_IDS, load_scenario
from support import model_states, random_tree_doc, tree_action_values_oracle


def subtask(sid, worker, desc, action=None, depends_on=None):
    doc = {"subtask_id": sid, "assigned_worker": worker,
           "task_description": desc, "focus": ["speed", "accuracy", "safety"]}
    if action is not None:
        doc["action"] = action
    if depends_on is not None:
        doc["depends_on"] = depends_on
    return doc


# -- tree validation ---------------------------------------------------------

def leaf(state="goal", score=1.0, is_goal=True):
    return {"state": state, "score": score, "is_goal": is_goal, "transitions": []}


def test_goal_root_is_single_node():
    tree = validate_state_tree({"next_state": leaf()})
    assert tree.root.is_goal and tree.root.transitions == []


def test_score_out_of_range_rejected():
    with pytest.raises(SchemaViolation):
        validate_state_tree({"next_state": leaf(score=1.2)})
    with pytest.raises(SchemaViolation):
        validate_state_tree({"next_state": leaf(score=-0.1)})


def test_goal_with_transitions_rejected():
    doc = {"state": "s", "score": 0.9, "is_goal": True,
           "transitions": [{"action": "a", "probability": 1.0,
                            "next_state": leaf()}]}
    with pytest.raises(SchemaViolation):
        validate_state_tree({"next_state": doc})


def test_depth_six_rejected():
    doc = leaf("s6", 0.5, True)
    for i in range(5, 0, -1):
        doc = {"state": f"s{i}", "score": 0.5, "is_goal": False,
               "transitions": [{"action": "a", "probability": 1.0,
                                "next_state": doc}]}
    # doc is now 6 state layers deep
    with pytest.raises(SchemaViolation) as excinfo:
        validate_state_tree({"next_state": doc})
    assert any("state layers" in p for p in excinfo.value.problems)


def test_depth_five_accepted():
    doc = leaf("s5", 0.5, True)
    for i in range(4, 0, -1):
        doc = {"state": f"s{i}", "score": 0.5, "is_goal": False,
               "transitions": [{"action": "a", "probability": 1.0,
                                "next_state": doc}]}
    validate_state_tree({"next_state": doc})


def test_sibling_probabilities_renormalized():
    doc = {"state": "s", "score": 0.5, "is_goal": False,
           "transitions": [
               {"action": "a", "probability": 0.25, "next_state": leaf()},
               {"action": "b", "probability": 0.25, "next_state": leaf()},
           ]}
    tree = validate_state_tree({"next_state": doc})
    assert sum(t.probability for t in tree.root.transitions) == pytest.approx(1.0)
    assert tree.root.transitions[0].probability == pytest.approx(0.5)


def test_probability_sum_above_one_rejected():
    doc = {"state": "s", "score": 0.5, "is_goal": False,
           "transitions": [
               {"action": "a", "probability": 0.8, "next_state": leaf()},
               {"action": "b", "probability": 0.8, "next_state": leaf()},
           ]}
    with pytest.raises(SchemaViolation):
        validate_state_tree({"next_state": doc})


def test_unknown_action_rejected_with_vocab():
    doc = {"state": "s", "score": 0.5, "is_goal": False,
           "transitions": [{"action": "fly", "probability": 1.0,
                            "next_state": leaf()}]}
    validate_state_tree({"next_state": doc})  # no vocabulary given
    with pytest.raises(SchemaViolation):
        validate_state_tree({"next_state": doc}, action_vocab=["walk"])


def _mutate(doc, rng):
    """Apply one invariant-violating mutation; returns (doc, description)."""
    doc = copy.deepcopy(doc)

    def nodes(node, depth=1):
        yield node, depth
        for tr in node["transitions"]:
            yield from nodes(tr["next_state"], depth + 1)

    all_nodes = list(nodes(doc["next_state"]))
    kind = rng.randrange(5)
    if kind == 0:  # score out of range
        node, _ = rng.choice(all_nodes)
        node["score"] = rng.choice([1.2, -0.3, 7.0])
        return doc, "score"
    if kind == 1:  # goal state with transitions
        node, _ = rng.choice(all_nodes)
        node["is_goal"] = True
        node["transitions"] = [{"action": "a", "probability": 1.0,
                                "next_state": leaf()}]
        return doc, "goal"
    if kind == 2:  # deepen past five layers
        node, depth = max(all_nodes, key=lambda nd: nd[1])
        for _ in range(6 - depth):
            node["is_goal"] = False
            node["transitions"] = [{"action": "a", "probability": 1.0,
                                    "next_state": leaf("deep", 0.5, False)}]
            node = node["transitions"][0]["next_state"]
        node["is_goal"] = False
        node["transitions"] = [{"action": "a", "probability": 1.0,
                                "next_state": leaf("deepest")}]
        return doc, "depth"
    if kind == 3:  # action outside the vocabulary
        node, _ = rng.choice([nd for nd in all_nodes if nd[0]["transitions"]]
                             or [(doc["next_state"], 1)])
        if not node["transitions"]:
            node["is_goal"] = False
            node["transitions"] = [{"action": "x", "probability": 1.0,
                                    "next_state": leaf()}]
        rng.choice(node["transitions"])["action"] = "__not_in_vocab__"
        return doc, "action"
    # probability out of range
    node, _ = rng.choice([nd for nd in all_nodes if nd[0]["transitions"]]
                         or [(doc["next_state"], 1)])
    if not node["transitions"]:
        node["is_goal"] = False
        node["transitions"] = [{"action": "a", "probability": 1.0,
                                "next_state": leaf()}]
    rng.choice(node["transitions"])["probability"] = rng.choice([1.4, -0.2, 2.0])
    return doc, "probability"


def test_fuzzed_mutations_all_rejected():
    rng = random.Random(99)
    vocab = ["advance", "grasp", "look", "retract", "a", "x"]
    for _ in range(250):
        doc = random_tree_doc(rng)
        validate_state_tree(doc, vocab)  # sanity: valid before mutation
        mutated, _ = _mutate(doc, rng)
        with pytest.raises(SchemaViolation):
            validate_state_tree(mutated, vocab)


# -- scoring --------------------------------------------------------------

def test_score_goal_state_full_marks():
    assert score_state(1.0, 1.0, 0.0) == 1.0


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 3))
def test_score_always_in_unit_interval(prox, trans, cost):
    assert 0.0 <= score_state(prox, trans, cost) <= 1.0


# -- action selection -----------------------------------------------------------

def test_single_transition_selected():
    doc = {"state": "s", "score": 0.4, "is_goal": False,
           "transitions": [{"action": "grasp", "probability": 1.0,
                            "next_state": leaf()}]}
    choice = select_action(validate_state_tree({"next_state": doc}), ["grasp"])
    assert choice.selected_action == "grasp"
    assert choice.reason


def test_tie_breaks_lexicographically():
    doc = {"state": "s", "score": 0.4, "is_goal": False,
           "transitions": [
               {"action": "zeta", "probability": 0.5, "next_state": leaf("g1")},
               {"action": "alpha", "probability": 0.5, "next_state": leaf("g2")},
           ]}
    choice = select_action(validate_state_tree({"next_state": doc}),
                           ["alpha", "zeta"])
    assert choice.selected_action == "alpha"


def test_goal_root_returns_noop_sentinel():
    choice = select_action(StateTree(validate_state_tree(
        {"next_state": leaf()}).root), ["grasp"])
    assert choice.selected_action == NOOP_ACTION


def test_empty_transitions_raise():
    with pytest.raises(EmptyActionSet):
        select_action(validate_state_tree(
            {"next_state": leaf("dead", 0.2, False)}), ["grasp"])


def test_selection_agrees_with_bruteforce_oracle():
    rng = random.Random(4242)
    vocab = ["advance", "grasp", "look", "retract"]
    for _ in range(120):
        tree = validate_state_tree(random_tree_doc(rng), vocab)
        oracle = tree_action_values_oracle(tree)
        expected = min(a for a, v in oracle.items() if v == max(oracle.values()))
        choice = select_action(tree, vocab)
        assert choice.selected_action == expected


def test_argmax_invariant_under_score_scaling():
    rng = random.Random(77)
    vocab = ["advance", "grasp", "look", "retract"]
    for _ in range(40):
        doc = random_tree_doc(rng)
        tree = validate_state_tree(doc, vocab)
        base = select_action(tree, vocab).selected_action

        def scale(node, c):
            node["score"] = node["score"] * c
            for tr in node["transitions"]:
                scale(tr["next_state"], c)

        scaled_doc = copy.deepcopy(doc)
        scale(scaled_doc["next_state"], 0.5)
        scaled = validate_state_tree(scaled_doc, vocab)
        assert select_action(scaled, vocab).selected_action == base


# -- tree generation from a declared model ------------------------------------------

def toy_model():
    transitions = {
        "start": [("advance", 0.5, "mid"), ("advance", 0.5, "slip"),
                  ("look", 1.0, "start_seen")],
        "mid": [("grasp", 1.0, "goal")],
        "start_seen": [("advance", 1.0, "mid")],
        "slip": [("advance", 1.0, "mid")],
    }
    return TransitionModel(transitions=transitions,
                           goal_states=frozenset({"goal"}))


def test_generated_tree_matches_exhaustive_expansion():
    model = toy_model()
    tree = generate_state_tree("toy", "start", ["advance", "look", "grasp"],
                               model=model, max_depth=3)
    # exhaustive: depth-3 expansion by hand
    root = tree.root
    assert root.state == "start"
    assert {t.next_state.state for t in root.transitions} == {"mid", "slip",
                                                              "start_seen"}
    mid = next(t.next_state for t in root.transitions
               if t.next_state.state == "mid")
    assert [t.next_state.state for t in mid.transitions] == ["goal"]
    assert mid.transitions[0].next_state.is_goal
    slip = next(t.next_state for t in root.transitions
                if t.next_state.state == "slip")
    # third layer nodes are leaves at max_depth
    assert slip.transitions[0].next_state.transitions == []


def test_goal_root_yields_single_node():
    model = toy_model()
    tree = generate_state_tree("toy", "goal", ["advance"], model=model)
    assert tree.root.is_goal and tree.root.transitions == []


def test_depth_six_backend_output_rejected():
    doc = leaf("s6", 0.5, True)
    for i in range(5, 0, -1):
        doc = {"state": f"s{i}", "score": 0.5, "is_goal": False,
               "transitions": [{"action": "advance", "probability": 1.0,
                                "next_state": doc}]}
    with pytest.raises(SchemaViolation):
        validate_state_tree({"next_state": doc}, ["advance"])


def test_empty_action_set_rejected():
    with pytest.raises(EmptyActionSet):
        generate_state_tree("toy", "start", [], model=toy_model())


def test_excluded_actions_from_an_iterator_stay_excluded():
    # an iterator is used up by one pass; every vocabulary entry must be
    # checked against the whole excluded set
    scenario, _ = load_scenario(2, 0)

    def tree_actions(node):
        return {a for t in node.transitions
                for a in (t.action, *tree_actions(t.next_state))}

    tree = generate_state_tree(scenario.mission, "start",
                               scenario.action_vocab, model=scenario.model,
                               exclude_actions=iter(["grasp red cube"]))
    assert tree_actions(tree.root) == {"grasp blue cube", "grasp green cube",
                                       "release"}


def test_generator_agrees_with_validator_on_every_scenario():
    # the generator no longer re-validates its own trees, so every tree it can
    # build for a shipped scenario must pass validate_state_tree unchanged
    cases = 0
    for task_id in TASK_IDS:
        scenario, _ = load_scenario(task_id, 0)
        vocab = scenario.action_vocab
        for state in model_states(scenario.model):
            for k in range(len(vocab)):
                for excluded in itertools.combinations(vocab, k):
                    for depth in range(1, MAX_TREE_DEPTH + 1):
                        tree = generate_state_tree(
                            scenario.mission, state, vocab,
                            model=scenario.model, max_depth=depth,
                            exclude_actions=excluded)
                        doc = tree.to_doc()
                        assert validate_state_tree(doc, vocab).to_doc() == doc
                        cases += 1
    assert cases == 2135


PLANNER_GOLDEN_DIGEST = \
    "a232eec37a4decfecd63b44fb57641a1ec94c09e7117cdf2e187755a14cf1376"


def test_trees_and_choices_match_golden_digest():
    # pins scoring, expansion and selection bit for bit: every state of every
    # declared model, every excluded-action subset, depths 1/2/3/5, seeds 0-1
    entries = []
    for seed in (0, 1):
        for task_id in TASK_IDS:
            scenario, _ = load_scenario(task_id, seed)
            vocab = scenario.action_vocab
            for state in model_states(scenario.model):
                for k in range(len(vocab) + 1):
                    for excluded in itertools.combinations(vocab, k):
                        for depth in (1, 2, 3, 5):
                            try:
                                tree = generate_state_tree(
                                    scenario.mission, state, vocab,
                                    model=scenario.model, max_depth=depth,
                                    exclude_actions=excluded)
                                choice = select_action(tree, vocab)
                            except EmptyActionSet as exc:
                                entries.append(str(exc))
                                continue
                            entries.append([tree.to_doc(),
                                            choice.selected_action,
                                            choice.reason])
    assert len(entries) == 3648
    text = json.dumps(entries, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PLANNER_GOLDEN_DIGEST


# -- DAG compilation ---------------------------------------------------------------

def test_sequential_chain_has_four_state_nodes():
    plan = {"difficulty": "high", "subtasks": [
        subtask("ST1", "Worker_1", "open cabinet", action="open cabinet"),
        subtask("ST2", "Worker_2", "grasp cube", action="grasp cube"),
        subtask("ST3", "Worker_3", "retract arm", action="retract arm"),
    ]}
    dag = build_htn_dag(plan, ["open cabinet", "grasp cube", "retract arm"])
    states = [n for n in dag.nodes.values() if n.kind == "state"]
    actions = [n for n in dag.nodes.values() if n.kind == "action"]
    assert len(states) == 4
    assert len(actions) == 3
    assert dag.action_labels() == ["open cabinet", "grasp cube", "retract arm"]


def test_root_is_start_state():
    plan = {"difficulty": "medium",
            "subtasks": [subtask("ST1", "Worker_1", "find and fetch the apple",
                                 action="approach apple")]}
    dag = build_htn_dag(plan, ["approach apple"])
    assert dag.nodes[dag.root].label == "start_state"


def test_dependency_cycle_detected():
    plan = {"difficulty": "high", "subtasks": [
        subtask("ST1", "Worker_1", "a", action="a", depends_on=["ST2"]),
        subtask("ST2", "Worker_2", "b", action="b", depends_on=["ST1"]),
    ]}
    with pytest.raises(CycleDetected):
        build_htn_dag(plan, ["a", "b"])


def test_unknown_action_rejected():
    plan = {"difficulty": "low",
            "subtasks": [subtask("ST1", "Worker_1", "fly to the moon")]}
    with pytest.raises(UnknownAction):
        build_htn_dag(plan, ["walk"])


def test_frontier_respects_dependencies():
    plan = {"difficulty": "high", "subtasks": [
        subtask("ST1", "Worker_1", "a", action="a", depends_on=[]),
        subtask("ST2", "Worker_2", "b", action="b", depends_on=[]),
        subtask("ST3", "Worker_3", "c", action="c", depends_on=["ST1", "ST2"]),
    ]}
    dag = build_htn_dag(plan, ["a", "b", "c"])
    assert sorted(dag.edges) == sorted([
        ("s0", "a:ST1"), ("a:ST1", "s:ST1"),
        ("s0", "a:ST2"), ("a:ST2", "s:ST2"),
        ("s:ST1", "a:ST3"), ("s:ST2", "a:ST3"), ("a:ST3", "s:ST3"),
    ])


def test_subtree_value_of_leaf_is_score():
    node = validate_state_tree({"next_state": leaf(score=0.7)}).root
    assert subtree_value(node) == 0.7


def test_scripted_apple_plan_compiles_to_start_state_dag():
    from brainstem.backends import ScriptedBackend

    plan = json.loads(ScriptedBackend().complete("leader",
                                                 "find and fetch the apple"))
    dag = build_htn_dag(plan, ["locate apple", "fetch apple"])
    labels = {n.label for n in dag.nodes.values() if n.kind == "state"}
    assert "start_state" in labels
    assert dag.action_labels() == ["locate apple", "fetch apple"]
