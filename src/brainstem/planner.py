"""Hierarchical task planning over a DAG plus bounded state-transition trees.

A validated decomposition plan compiles to a directed acyclic graph of state
and action nodes (sequential by subtask id unless dependency annotations say
otherwise). From any symbolic state the planner expands an at-most-five-layer
state-transition tree against a declared transition model, scores each state
on goal proximity / transition possibility / safety / resource efficiency,
and selects the next action by discounted expected-value backup.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .errors import CycleDetected, EmptyActionSet, SchemaViolation, UnknownAction

MAX_TREE_DEPTH = 5
DISCOUNT = 0.9
SCORE_WEIGHTS = (0.5, 0.2, 0.2, 0.1)  # goal, transition, safety, resource
NOOP_ACTION = "noop"
STEP_COST = 0.1  # resource cost of each tree layer below the root

_PROB_TOL = 1e-9


# ---------------------------------------------------------------------------
# state-transition trees
# ---------------------------------------------------------------------------

@dataclass
class StateNode:
    state: str
    score: float
    is_goal: bool
    transitions: list = field(default_factory=list)  # list[Transition]

    def to_doc(self) -> dict:
        return {
            "state": self.state,
            "score": self.score,
            "is_goal": self.is_goal,
            "transitions": [t.to_doc() for t in self.transitions],
        }


@dataclass
class Transition:
    action: str
    probability: float
    next_state: StateNode

    def to_doc(self) -> dict:
        return {
            "action": self.action,
            "probability": self.probability,
            "next_state": self.next_state.to_doc(),
        }


@dataclass
class ActionChoice:
    selected_action: str
    reason: str


def _node_problems(doc, where: str, layer: int, vocab, problems: list) -> None:
    if not isinstance(doc, dict):
        problems.append(f"{where}: expected a state node document")
        return
    required = {"state", "score", "is_goal", "transitions"}
    missing = required - set(doc)
    extra = set(doc) - required
    for name in sorted(missing):
        problems.append(f"{where}.{name}: missing required field")
    for name in sorted(extra):
        problems.append(f"{where}.{name}: unknown field")
    if missing:
        return
    if not isinstance(doc["state"], str) or not doc["state"]:
        problems.append(f"{where}.state: expected a non-empty string")
    score = doc["score"]
    if not isinstance(score, (int, float)) or isinstance(score, bool):
        problems.append(f"{where}.score: expected a number")
    elif not 0.0 <= score <= 1.0:
        problems.append(f"{where}.score: {score} outside the 0-1 range")
    if not isinstance(doc["is_goal"], bool):
        problems.append(f"{where}.is_goal: expected a boolean")
    transitions = doc["transitions"]
    if not isinstance(transitions, list):
        problems.append(f"{where}.transitions: expected a list")
        return
    if doc.get("is_goal") is True and transitions:
        problems.append(f"{where}.transitions: goal states must have an empty "
                        "transitions array")
        return
    if transitions and layer >= MAX_TREE_DEPTH:
        problems.append(f"{where}.transitions: tree exceeds {MAX_TREE_DEPTH} "
                        "state layers")
        return
    total = 0.0
    for i, tr in enumerate(transitions):
        sub = f"{where}.transitions[{i}]"
        if not isinstance(tr, dict):
            problems.append(f"{sub}: expected a transition document")
            continue
        t_missing = {"action", "probability", "next_state"} - set(tr)
        t_extra = set(tr) - {"action", "probability", "next_state"}
        for name in sorted(t_missing):
            problems.append(f"{sub}.{name}: missing required field")
        for name in sorted(t_extra):
            problems.append(f"{sub}.{name}: unknown field")
        if t_missing:
            continue
        action = tr["action"]
        if not isinstance(action, str) or not action:
            problems.append(f"{sub}.action: expected a non-empty string")
        elif vocab is not None and action not in vocab:
            problems.append(f"{sub}.action: {action!r} not in available_actions")
        prob = tr["probability"]
        if not isinstance(prob, (int, float)) or isinstance(prob, bool):
            problems.append(f"{sub}.probability: expected a number")
        elif not 0.0 <= prob <= 1.0:
            problems.append(f"{sub}.probability: {prob} outside the 0-1 range")
        else:
            total += prob
        _node_problems(tr["next_state"], f"{sub}.next_state", layer + 1, vocab,
                       problems)
    if transitions and total > 1.0 + _PROB_TOL:
        problems.append(f"{where}.transitions: sibling probabilities sum to "
                        f"{total}, above 1")
    if transitions and total <= 0.0:
        problems.append(f"{where}.transitions: sibling probabilities sum to 0")


def _build_node(doc: dict) -> StateNode:
    transitions = doc["transitions"]
    total = sum(tr["probability"] for tr in transitions)
    node = StateNode(state=doc["state"], score=float(doc["score"]),
                     is_goal=bool(doc["is_goal"]))
    for tr in transitions:
        # sum <= 1 accepted on input, renormalized to 1 here
        prob = float(tr["probability"]) / total
        node.transitions.append(
            Transition(tr["action"], prob, _build_node(tr["next_state"])))
    return node


def validate_state_tree(document,
                        action_vocab: Optional[Iterable[str]] = None) -> StateNode:
    """The root node of a state-tree document, probabilities renormalized.

    Accepts either the wrapped form ``{"next_state": node}`` or a bare node.
    Raises SchemaViolation enumerating every violation found.
    """
    if isinstance(document, dict) and set(document) == {"next_state"}:
        document = document["next_state"]
    vocab = set(action_vocab) if action_vocab is not None else None
    problems: list = []
    _node_problems(document, "next_state", 1, vocab, problems)
    if problems:
        raise SchemaViolation(problems)
    return _build_node(document)


# ---------------------------------------------------------------------------
# state scoring
# ---------------------------------------------------------------------------

def _clamp01(value: float) -> float:
    return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value


def score_state(goal_proximity: float, transition_possibility: float,
                resource_cost: float) -> float:
    """Weighted 0-1 score over the four planning criteria.

    No declared state is unsafe, so the safety factor is always 1.0.
    ``resource_cost`` of 0 means full efficiency.
    """
    factors = (
        _clamp01(goal_proximity),
        _clamp01(transition_possibility),
        1.0,
        _clamp01(1.0 - resource_cost),
    )
    raw = math.fsum(w * f for w, f in zip(SCORE_WEIGHTS, factors))
    return _clamp01(raw)


# ---------------------------------------------------------------------------
# declared transition models and tree generation
# ---------------------------------------------------------------------------

@dataclass
class TransitionModel:
    """A scenario's symbolic dynamics, consumed by the tree generator: derived
    from its world rules plus the task's stated beliefs (see ``simenv``).

    ``transitions`` maps a state label to (action, probability, next state)
    outcome triples; probabilities are per action and sum to 1 within one
    action. ``proximity`` grades distance to goal in [0, 1] by
    :func:`hop_proximity`.
    """

    transitions: Mapping[str, Sequence[tuple]]
    goal_states: frozenset
    proximity: Mapping[str, float] = field(init=False)

    def __post_init__(self):
        self.goal_states = frozenset(self.goal_states)
        self.proximity = hop_proximity(self.transitions, self.goal_states)

    def is_goal(self, state: str) -> bool:
        return state in self.goal_states

    def proximity_of(self, state: str) -> float:
        if state in self.proximity:
            return self.proximity[state]
        return 1.0 if self.is_goal(state) else 0.0


def hop_proximity(transitions: Mapping[str, Sequence[tuple]],
                  goal_states: Iterable[str]) -> dict:
    """Proximity grading 1/(1+d) where d is hop distance to the nearest goal."""
    reverse: dict = {}
    states = set(transitions)
    for state, outs in transitions.items():
        for _, _, nxt in outs:
            states.add(nxt)
            reverse.setdefault(nxt, set()).add(state)
    dist = {g: 0 for g in goal_states}
    frontier = deque(goal_states)
    while frontier:
        state = frontier.popleft()
        for prev in reverse.get(state, ()):
            if prev not in dist:
                dist[prev] = dist[state] + 1
                frontier.append(prev)
    return {s: 1.0 / (1.0 + dist[s]) if s in dist else 0.0 for s in states}


def generate_state_tree(task_desc: str, current_state: str,
                        available_actions: Sequence[str], *,
                        model: TransitionModel,
                        max_depth: int = MAX_TREE_DEPTH,
                        exclude_actions: Iterable[str] = ()) -> StateNode:
    """Expand the reachable state tree from ``current_state``; returns its root.

    Expansion follows the scenario's declared transition model. Unavailable
    actions are pruned before scoring; the returned tree always passes
    :func:`validate_state_tree`.
    """
    if not available_actions:
        raise EmptyActionSet(f"no actions available for {task_desc!r}")

    excluded = set(exclude_actions)
    usable = [a for a in available_actions if a not in excluded]
    if not usable:
        raise EmptyActionSet(f"all actions excluded for {task_desc!r}")
    max_depth = min(max_depth, MAX_TREE_DEPTH)

    def expand(state: str, layer: int, inbound_prob: float) -> StateNode:
        is_goal = model.is_goal(state)
        node = StateNode(
            state=state,
            score=score_state(model.proximity_of(state), inbound_prob,
                              (layer - 1) * STEP_COST),
            is_goal=is_goal,
        )
        if is_goal or layer >= max_depth:
            return node
        outcomes = [(a, p, nxt) for (a, p, nxt) in model.transitions.get(state, ())
                    if a in usable]
        if not outcomes:
            return node
        # joint branch probability under a uniform prior over candidate actions,
        # renormalized so that siblings sum to 1 as validate_state_tree's are
        n_actions = len({a for a, _, _ in outcomes})
        total = sum(prob / n_actions for _, prob, _ in outcomes)
        for action, prob, nxt in outcomes:
            node.transitions.append(
                Transition(action, prob / n_actions / total,
                           expand(nxt, layer + 1, prob)))
        return node

    return expand(current_state, 1, 1.0)


# ---------------------------------------------------------------------------
# action selection (discounted expected-value backup)
# ---------------------------------------------------------------------------

def subtree_value(node: StateNode) -> float:
    """V(node) = score for leaves/goals, else score + DISCOUNT * E[V(child)]."""
    if node.is_goal or not node.transitions:
        return node.score
    expected = sum(t.probability * subtree_value(t.next_state)
                   for t in node.transitions)
    return node.score + DISCOUNT * expected


def select_action(root: StateNode,
                  available_actions: Sequence[str]) -> ActionChoice:
    """Pick the root action with the highest expected subtree value.

    Ties break toward the lexicographically smallest action name. A goal
    root yields the no-op sentinel (exempt from the vocabulary check).
    """
    if root.is_goal:
        return ActionChoice(NOOP_ACTION,
                            "root state satisfies the goal; no action required")
    if not root.transitions:
        raise EmptyActionSet(f"root state {root.state!r} has no transitions")
    values: dict = {}
    for tr in root.transitions:
        q = tr.probability * subtree_value(tr.next_state)
        values[tr.action] = values.get(tr.action, 0.0) + q
    best = max(values.values())
    selected = min(a for a, v in values.items() if v == best)
    if selected not in available_actions:
        raise SchemaViolation(
            f"selected_action: {selected!r} not in available_actions")
    return ActionChoice(
        selected,
        f"highest expected value {best:.6f} under discounted backup "
        f"(gamma={DISCOUNT})")


# ---------------------------------------------------------------------------
# HTN DAG compilation
# ---------------------------------------------------------------------------

START_STATE = "start_state"


@dataclass(frozen=True)
class DagNode:
    kind: str  # "state" | "action"
    label: str


@dataclass
class HtnDag:
    nodes: dict            # node_id -> DagNode
    edges: list            # (src_id, dst_id)
    root: str
    execution_order: list  # action node ids in a valid topological order

    def action_labels(self) -> list:
        return [self.nodes[nid].label for nid in self.execution_order]


def _toposort(order_ids: list, deps: dict) -> list:
    indegree = {sid: len(deps[sid]) for sid in order_ids}
    out_edges: dict = {sid: [] for sid in order_ids}
    for sid in order_ids:
        for dep in deps[sid]:
            out_edges[dep].append(sid)
    ready = deque(sid for sid in order_ids if indegree[sid] == 0)
    result = []
    while ready:
        sid = ready.popleft()
        result.append(sid)
        for nxt in out_edges[sid]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    if len(result) != len(order_ids):
        stuck = sorted(sid for sid in order_ids if indegree[sid] > 0)
        raise CycleDetected(f"dependency cycle through {stuck}")
    return result


def subtask_order(subtasks: Sequence[Mapping]) -> tuple:
    """(subtask ids in execution order, id -> ids it waits on).

    Subtasks chain sequentially by subtask id unless they carry explicit
    ``depends_on`` annotations. Raises SchemaViolation when a dependency
    names no subtask of the plan and CycleDetected when the dependencies
    admit no order.
    """
    subtasks = sorted(subtasks, key=lambda s: s["subtask_id"])
    ids = [s["subtask_id"] for s in subtasks]
    known = set(ids)
    deps: dict = {}
    for i, subtask in enumerate(subtasks):
        sid = subtask["subtask_id"]
        if "depends_on" in subtask:
            for dep in subtask["depends_on"]:
                if dep not in known:
                    raise SchemaViolation(
                        f"subtasks.depends_on: {sid} depends on {dep!r}, "
                        "which is not a subtask in this plan")
            deps[sid] = list(subtask["depends_on"])
        else:
            deps[sid] = [ids[i - 1]] if i > 0 else []
    return _toposort(ids, deps), deps


def build_htn_dag(plan: Mapping, action_vocab: Optional[Iterable[str]] = None) -> HtnDag:
    """Compile a validated decomposition plan into a state/action DAG.

    Subtasks are ordered by :func:`subtask_order`. Each subtask becomes one
    action node between two state nodes; the root state is ``start_state``.
    """
    vocab = set(action_vocab) if action_vocab is not None else None
    by_id = {s["subtask_id"]: s for s in plan["subtasks"]}
    order, deps = subtask_order(plan["subtasks"])

    nodes = {"s0": DagNode("state", START_STATE)}
    edges: list = []
    execution_order: list = []
    for sid in order:
        subtask = by_id[sid]
        label = subtask.get("action", subtask["task_description"])
        if vocab is not None and label not in vocab:
            raise UnknownAction(f"{label!r} is not in the action vocabulary")
        action_id = f"a:{sid}"
        state_id = f"s:{sid}"
        nodes[action_id] = DagNode("action", label)
        nodes[state_id] = DagNode("state", f"{sid}_done")
        sources = [f"s:{dep}" for dep in deps[sid]] or ["s0"]
        for src in sources:
            edges.append((src, action_id))
        edges.append((action_id, state_id))
        execution_order.append(action_id)
    return HtnDag(nodes=nodes, edges=edges, root="s0",
                  execution_order=execution_order)
