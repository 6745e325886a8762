"""Deterministic symbolic manipulation world for the eight benchmark tasks.

No physics: contact failures are stochastic action outcomes, time is virtual
(100 ticks per virtual second), and perturbations are scheduled events. Each
task declares its true action rules (preconditions, effects, success
probabilities, durations), a symbol function that names the model state a
world is in, its goal states and the few beliefs in which its planner differs
from the rules. The planner's transition model is derived from these
(:func:`_derive_model`). A trial succeeds when a world's symbol is one of the
model's goal states (:func:`check_success`). A task's spec is the same for
every seed: a seed acts only on the start world's one seeded mark
(:func:`load_scenario`) and on the episode's draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional

from .errors import UnknownAction, UnknownTask
from .planner import TransitionModel

TICKS_PER_SECOND = 100
DELETION_TICK = 60 * TICKS_PER_SECOND  # "dynamic deletion" fires at 60 s
# reactive-only actions take this much longer on average than the full
# collective's. It alone sets full mode's ~23 % shorter completion times
# (1 - 1/1.3); no planning contributes to that gap.
REACTIVE_SLOWDOWN = 1.3


@dataclass
class ObjectState:
    kind: str
    color: str = ""
    location: str = ""
    container: Optional[str] = None
    occluded: bool = False
    present: bool = True


@dataclass
class WorldState:
    objects: dict
    containers: dict = field(default_factory=dict)   # id -> {"open": bool}
    gripper: dict = field(default_factory=lambda: {"holding": None,
                                                   "location": "home"})
    marks: set = field(default_factory=set)
    tick: int = 0
    fired_events: set = field(default_factory=set)

    def clone(self) -> "WorldState":
        return WorldState(
            objects={k: replace(v) for k, v in self.objects.items()},
            containers={k: dict(v) for k, v in self.containers.items()},
            gripper=dict(self.gripper),
            marks=set(self.marks),
            tick=self.tick,
            fired_events=set(self.fired_events),
        )

    def holding(self) -> Optional[str]:
        return self.gripper["holding"]


@dataclass(frozen=True)
class Observation:
    visible_objects: tuple
    containers: dict
    gripper: dict
    tick: int
    symbol: str


@dataclass(frozen=True)
class ScheduledEvent:
    tick: int
    kind: str
    params: dict


@dataclass
class ActionRule:
    duration_mean: float
    duration_std: float
    precondition: Callable          # world -> None (ok) or str (failure reason)
    effect: Callable                # world -> None, mutates in place
    success_prob: Callable          # world -> float in [0, 1]


@dataclass
class ScenarioSpec:
    task_id: int
    category: str
    mission: str
    rules: Mapping[str, ActionRule]
    model: TransitionModel
    symbol_of: Callable             # world -> model state label
    scheduled_events: tuple = ()
    reactive_script: tuple = ()
    timeout_ticks: int = 8000
    start_marks: tuple = ()         # load_scenario adds one, drawn by seed

    @property
    def action_vocab(self) -> tuple:
        return tuple(self.rules)


# ---------------------------------------------------------------------------
# world mechanics
# ---------------------------------------------------------------------------

def _fire_event(world: WorldState, event: ScheduledEvent) -> Optional[dict]:
    if event.kind == "delete_object":
        object_id = event.params["object_id"]
        target = world.objects.get(object_id)
        if target is None or not target.present:
            return None
        if event.params.get("unless_held") and world.holding() == object_id:
            return None
        target.present = False
        if world.holding() == object_id:
            world.gripper["holding"] = None
        return {"event": "delete_object", "object_id": object_id,
                "tick": event.tick}
    raise ValueError(f"unknown event kind {event.kind!r}")


def advance_clock(scenario: ScenarioSpec, world: WorldState,
                  to_tick: int) -> list:
    """Move the world clock forward, firing due events exactly once."""
    fired = []
    for index, event in enumerate(scenario.scheduled_events):
        if index in world.fired_events or event.tick > to_tick:
            continue
        world.fired_events.add(index)
        record = _fire_event(world, event)
        if record is not None:
            fired.append(record)
    world.tick = max(world.tick, to_tick)
    return fired


def sample_duration(rule: ActionRule, rng: random.Random,
                    slowdown: float = 1.0) -> int:
    mean = rule.duration_mean * slowdown
    raw = rng.gauss(mean, rule.duration_std)
    return max(1, int(round(max(raw, 0.5 * mean))))


def resolve_action(scenario: ScenarioSpec, world: WorldState, action: str,
                   rng: random.Random) -> dict:
    """Apply an action at the current tick; returns the feedback record.

    Precondition failures leave the world unchanged and report failure
    rather than raising; unknown actions are caller errors.
    """
    if action not in scenario.rules:
        raise UnknownAction(f"{action!r} is not in the action vocabulary")
    rule = scenario.rules[action]
    reason = rule.precondition(world)
    if reason is not None:
        return {"action": action, "success": False, "error": reason,
                "tick": world.tick}
    if rng.random() < rule.success_prob(world):
        rule.effect(world)
        return {"action": action, "success": True, "tick": world.tick}
    return {"action": action, "success": False, "error": "execution failed",
            "tick": world.tick}


def can_change(scenario: ScenarioSpec, world: WorldState, action: str) -> bool:
    """Whether doing ``action`` again can still change ``world``.

    It can while a scheduled event is still due, or while the action's
    precondition holds and its success probability is above 0. No rule reads
    the clock, so nothing else changes a world: when this is False, every
    repetition of the action fails and leaves the world as it is.
    """
    # fired_events holds the indices of the events that have fired
    if len(world.fired_events) < len(scenario.scheduled_events):
        return True
    rule = scenario.rules[action]
    return rule.precondition(world) is None and rule.success_prob(world) > 0


def observe(scenario: ScenarioSpec, world: WorldState) -> Observation:
    """What the agents see: never occluded or deleted objects."""
    visible = tuple(
        {"id": object_id, "kind": obj.kind, "color": obj.color,
         "location": obj.location, "container": obj.container}
        for object_id, obj in sorted(world.objects.items())
        if obj.present and not obj.occluded
    )
    return Observation(
        visible_objects=visible,
        containers={k: dict(v) for k, v in world.containers.items()},
        gripper=dict(world.gripper),
        tick=world.tick,
        symbol=scenario.symbol_of(world),
    )


def check_success(scenario: ScenarioSpec, world: WorldState) -> bool:
    """True when the world's symbol is a goal state of the scenario's model."""
    return scenario.model.is_goal(scenario.symbol_of(world))


# ---------------------------------------------------------------------------
# scenario helpers
# ---------------------------------------------------------------------------

def _ok(world):
    return None


def _always(_world):
    return 1.0


def _prob(p):
    return lambda _world: p


def _derive_model(world: WorldState, rules: Mapping[str, ActionRule],
                  symbol_of: Callable, goals: set,
                  beliefs: Optional[Mapping] = None) -> TransitionModel:
    """The planner's model of a task: its rules seen through ``symbol_of``.

    Walks, breadth first, every world that successful actions reach from
    ``world`` (scheduled events left out). For each non-goal symbol it lists,
    in rule order, each action whose precondition holds, whose success
    probability ``p`` is above 0 and whose effect changes the symbol, as
    ``(action, p, next)`` then, when ``p < 1``, ``(action, 1 - p, symbol)``
    rounded to 12 digits. A ``beliefs`` entry (symbol -> outcome list)
    replaces the derived one. Raises ``ValueError`` when one symbol names
    two worlds with different outcome lists.
    """
    transitions, worlds = {}, [world]
    for world in worlds:  # appending while iterating walks breadth first
        symbol = symbol_of(world)
        if symbol in goals:
            continue
        outcomes = []
        for action, rule in rules.items():
            if rule.precondition(world) is not None:
                continue
            p = rule.success_prob(world)
            if p <= 0:
                continue
            after = world.clone()
            rule.effect(after)
            if after not in worlds:
                worlds.append(after)
            nxt = symbol_of(after)
            if nxt != symbol:
                outcomes.append((action, p, nxt))
                if p < 1:
                    outcomes.append((action, round(1 - p, 12), symbol))
        if transitions.setdefault(symbol, outcomes) != outcomes:
            raise ValueError(f"symbol {symbol!r} names worlds with different "
                             f"outcomes: {transitions[symbol]} and {outcomes}")
    return TransitionModel({**transitions, **(beliefs or {})}, goals)


# ---------------------------------------------------------------------------
# the eight tasks
# ---------------------------------------------------------------------------

def _task_1():
    world = WorldState(
        objects={"cube_1": ObjectState("cube", "red", "cabinet_shelf",
                                       container="cabinet_1")},
        containers={"cabinet_1": {"open": False}},
    )

    def pre_grasp(w):
        if not w.containers["cabinet_1"]["open"]:
            return "cabinet is closed"
        return None

    def do_open(w):
        w.containers["cabinet_1"]["open"] = True

    def do_grasp(w):
        w.gripper["holding"] = "cube_1"
        w.objects["cube_1"].location = "gripper"
        w.objects["cube_1"].container = None

    rules = {
        "open cabinet": ActionRule(300, 30, lambda w: None if not
                                   w.containers["cabinet_1"]["open"] else
                                   "cabinet already open", do_open, _always),
        "grasp cube": ActionRule(250, 25, pre_grasp, do_grasp, _prob(0.93)),
    }

    def symbol(w):
        if w.holding() == "cube_1":
            return "holding_cube"
        return "cabinet_open" if w.containers["cabinet_1"]["open"] else "start"

    return ScenarioSpec(
        task_id=1, category="physical", mission="grab cube from cabinet",
        rules=rules, symbol_of=symbol,
        model=_derive_model(world, rules, symbol, {"holding_cube"}),
        reactive_script=("open cabinet", "grasp cube"),
        timeout_ticks=4000,
    ), world


def _task_2():
    world = WorldState(objects={
        "cube_blue": ObjectState("cube", "blue", "table"),
        "cube_red": ObjectState("cube", "red", "table"),
        "cube_green": ObjectState("cube", "green", "table"),
    })

    def grasp(color):
        def effect(w):
            w.gripper["holding"] = f"cube_{color}"
            w.objects[f"cube_{color}"].location = "gripper"
        return effect

    def pre_free(w):
        return None if w.holding() is None else "gripper is occupied"

    def do_release(w):
        held = w.holding()
        if held:
            w.objects[held].location = "table"
        w.gripper["holding"] = None

    rules = {
        "grasp blue cube": ActionRule(350, 35, pre_free, grasp("blue"),
                                      _prob(0.9)),
        "grasp red cube": ActionRule(350, 35, pre_free, grasp("red"), _always),
        "grasp green cube": ActionRule(350, 35, pre_free, grasp("green"),
                                       _always),
        "release": ActionRule(150, 15, lambda w: None if w.holding() else
                              "nothing held", do_release, _always),
    }
    def symbol(w):
        held = w.holding()
        if held == "cube_blue":
            return "holding_blue"
        return "holding_wrong" if held else "start"

    return ScenarioSpec(
        task_id=2, category="visual", mission="grab the blue cube",
        rules=rules, symbol_of=symbol,
        model=_derive_model(world, rules, symbol, {"holding_blue"}),
        reactive_script=("grasp blue cube",),
        timeout_ticks=6000,
    ), world


def _task_3():
    world = WorldState(
        objects={"cube_blue": ObjectState("cube", "blue", "gripper")},
        gripper={"holding": "cube_blue", "location": "table"},
    )

    def do_lift(w):
        w.marks.add("lifted")
        w.objects["cube_blue"].location = "lifted"

    rules = {
        "lift": ActionRule(200, 20, lambda w: None if w.holding() ==
                           "cube_blue" else "blue cube not in gripper",
                           do_lift, _prob(0.97)),
    }
    def symbol(w):
        return "lifted" if "lifted" in w.marks else "holding"

    return ScenarioSpec(
        task_id=3, category="semantic", mission="lift blue cube",
        rules=rules, symbol_of=symbol,
        model=_derive_model(world, rules, symbol, {"lifted"}),
        reactive_script=("lift",),
        timeout_ticks=3000,
    ), world


def _task_4():
    # the visually obvious port is never the right one; only feedback-driven
    # correction finds the match. The start world's seeded mark names it.
    world = WorldState(
        objects={"charger_1": ObjectState("charger", "black", "gripper")},
        gripper={"holding": "charger_1", "location": "ports"},
    )

    def plug(port):
        def effect(w):
            w.marks.add("plugged")
            w.objects["charger_1"].container = port
            w.objects["charger_1"].location = port
            w.gripper["holding"] = None

        def prob(w):
            return 0.95 if f"fits {port}" in w.marks else 0.0

        return ActionRule(300, 30, lambda w: None if w.holding() ==
                          "charger_1" else "charger not in gripper",
                          effect, prob)

    ports = ("port_1", "port_2", "port_3")
    rules = {f"plug {p}": plug(p) for p in ports}
    third = 1.0 / 3.0
    beliefs = {
        # the planner does not know the right port, so gives each a third
        "at_ports": [(f"plug {p}", third, "charger_plugged") for p in ports] +
                    [(f"plug {p}", 1.0 - third, "at_ports") for p in ports],
    }

    def symbol(w):
        return "charger_plugged" if "plugged" in w.marks else "at_ports"

    return ScenarioSpec(
        task_id=4, category="correction", mission="try and plug the right charger",
        rules=rules, symbol_of=symbol,
        model=_derive_model(world, rules, symbol, {"charger_plugged"},
                            beliefs),
        reactive_script=("plug port_1",),
        timeout_ticks=6000, start_marks=("fits port_2", "fits port_3"),
    ), world


def _task_5():
    world = WorldState(objects={
        "book_hp": ObjectState("book", "mixed", "shelf"),
        "book_other": ObjectState("book", "green", "shelf"),
        "vase_1": ObjectState("vase", "white", "shelf"),
    })

    def do_search(w):
        w.marks.add("located")

    def do_grasp(w):
        w.gripper["holding"] = "book_hp"
        w.objects["book_hp"].location = "gripper"

    rules = {
        "search shelf": ActionRule(600, 60, _ok, do_search, _always),
        "grasp book": ActionRule(450, 45, lambda w: None if "located" in
                                 w.marks else "book not located yet",
                                 do_grasp, _prob(0.6)),
        "nudge objects": ActionRule(300, 30, _ok, lambda w: None, _always),
    }
    beliefs = {
        # nudging changes no symbol, yet the planner lists it as an option
        "book_located": [("grasp book", 0.6, "holding_book"),
                         ("grasp book", 0.4, "book_located"),
                         ("nudge objects", 1.0, "book_located")],
    }

    def symbol(w):
        if w.holding() == "book_hp":
            return "holding_book"
        return "book_located" if "located" in w.marks else "start"

    return ScenarioSpec(
        task_id=5, category="ood", mission="grab the harry potter book",
        rules=rules, symbol_of=symbol,
        model=_derive_model(world, rules, symbol, {"holding_book"}, beliefs),
        reactive_script=("grasp book",),  # never searches: stays blind
        timeout_ticks=8000,
    ), world


def _apple_fetch(durations, grasp_p):
    """The rules of the explore-approach-look-grasp chain that tasks 6 and 8
    share."""
    (explore_d, explore_s), (approach_d, approach_s), (look_d, look_s), \
        (grasp_d, grasp_s) = durations

    def do_explore(w):
        w.marks.add("located")

    def do_approach(w):
        w.marks.add("near")
        w.gripper["location"] = "near_apple"

    def do_look(w):
        w.marks.add("in_view")
        if "apple_1" in w.objects:
            w.objects["apple_1"].occluded = False

    def pre_grasp(w):
        apple = w.objects.get("apple_1")
        if apple is None or not apple.present:
            return "apple is not there"
        if apple.occluded:
            return "apple is not visible"
        if "near" not in w.marks:
            return "not close enough"
        return None

    def do_grasp(w):
        w.gripper["holding"] = "apple_1"
        w.objects["apple_1"].location = "gripper"

    return {
        "explore room": ActionRule(explore_d, explore_s, _ok,
                                   do_explore, _always),
        "approach apple": ActionRule(approach_d, approach_s,
                                     lambda w: None if "located" in w.marks
                                     else "apple not located",
                                     do_approach, _always),
        "look closely": ActionRule(look_d, look_s,
                                   lambda w: None if "near" in w.marks
                                   else "too far to inspect",
                                   do_look, _always),
        "grasp apple": ActionRule(grasp_d, grasp_s, pre_grasp,
                                  do_grasp, _prob(grasp_p)),
    }


def _apple_search_symbol(w):
    """The symbol of an apple fetch world before the grasp."""
    if "in_view" in w.marks:
        return "apple_in_view"
    if "near" in w.marks:
        return "near_apple"
    return "apple_located" if "located" in w.marks else "searching"


def _task_6():
    world = WorldState(objects={
        "apple_1": ObjectState("apple", "red", "far_room", occluded=True),
    })
    rules = _apple_fetch(((1500, 90), (800, 64), (400, 40), (500, 45)),
                         grasp_p=0.9)

    def do_deliver(w):
        w.gripper["holding"] = None
        w.objects["apple_1"].location = "delivery_zone"

    rules["deliver apple"] = ActionRule(
        600, 60, lambda w: None if w.holding() == "apple_1"
        else "apple not in gripper", do_deliver, _always)

    def symbol(w):
        if w.objects["apple_1"].location == "delivery_zone":
            return "delivered"
        if w.holding() == "apple_1":
            return "holding_apple"
        return _apple_search_symbol(w)

    return ScenarioSpec(
        task_id=6, category="multimodal", mission="find and fetch the apple",
        rules=rules, symbol_of=symbol,
        model=_derive_model(world, rules, symbol, {"delivered"}),
        reactive_script=("explore room", "approach apple", "look closely",
                         "grasp apple", "deliver apple"),
        timeout_ticks=8000,
    ), world


def _task_7():
    world = WorldState(objects={
        "apple_1": ObjectState("apple", "red", "shelf", occluded=True),
        "box_1": ObjectState("box", "brown", "shelf"),
    })

    def do_approach(w):
        w.marks.add("at_shelf")
        w.marks.add("near")
        w.gripper["location"] = "shelf"

    def look(direction):
        def effect(w):
            w.objects["apple_1"].occluded = direction != "left"
        return effect

    def pre_grasp(w):
        apple = w.objects["apple_1"]
        if apple.occluded:
            return "apple is occluded"
        if not apple.present:
            return "apple is not there"
        return None

    def do_grasp(w):
        w.gripper["holding"] = "apple_1"
        w.objects["apple_1"].location = "gripper"

    rules = {
        "approach shelf": ActionRule(800, 64, _ok, do_approach, _always),
        "look from left": ActionRule(400, 40, lambda w: None if "at_shelf" in
                                     w.marks else "not at the shelf",
                                     look("left"), _always),
        "look from right": ActionRule(400, 40, lambda w: None if "at_shelf" in
                                      w.marks else "not at the shelf",
                                      look("right"), _always),
        "grasp apple": ActionRule(500, 45, pre_grasp, do_grasp, _prob(0.9)),
    }
    beliefs = {
        # a look from the right changes no symbol, yet is listed as an option
        "at_shelf": [("look from left", 1.0, "apple_visible"),
                     ("look from right", 1.0, "at_shelf")],
        # the planner does not believe a look from the right hides the apple
        "apple_visible": [("grasp apple", 0.9, "holding_apple"),
                          ("grasp apple", 0.1, "apple_visible")],
    }

    def symbol(w):
        if w.holding() == "apple_1":
            return "holding_apple"
        if not w.objects["apple_1"].occluded:
            return "apple_visible"
        return "at_shelf" if "at_shelf" in w.marks else "searching"

    return ScenarioSpec(
        task_id=7, category="long-horizon1", mission="fetch the apple (occlusion)",
        rules=rules, symbol_of=symbol,
        model=_derive_model(world, rules, symbol, {"holding_apple"}, beliefs),
        reactive_script=("approach shelf", "look from left", "grasp apple"),
        timeout_ticks=8000,
    ), world


def _task_8():
    world = WorldState(objects={
        "apple_1": ObjectState("apple", "red", "far_room", occluded=True),
    })
    # nominal completion 6400 ticks (64 virtual s, sigma ~262) racing the
    # 60 s deletion: only the fast tail beats the perturbation window
    rules = _apple_fetch(((3000, 190), (1500, 128), (1000, 100), (900, 82)),
                         grasp_p=0.95)
    # a dead end that only the deletion reaches: replanning must abort
    beliefs = {"apple_missing": []}

    def symbol(w):
        if w.holding() == "apple_1":
            return "holding_apple"
        if not w.objects["apple_1"].present:
            return "apple_missing"
        return _apple_search_symbol(w)

    return ScenarioSpec(
        task_id=8, category="long-horizon2",
        mission="fetch the apple (dynamic deletion)",
        rules=rules, symbol_of=symbol,
        model=_derive_model(world, rules, symbol, {"holding_apple"}, beliefs),
        scheduled_events=(ScheduledEvent(DELETION_TICK, "delete_object",
                                         {"object_id": "apple_1",
                                          "unless_held": True}),),
        reactive_script=("explore room", "approach apple", "look closely",
                         "grasp apple"),
        timeout_ticks=9000,
    ), world


_TASKS = {1: _task_1, 2: _task_2, 3: _task_3, 4: _task_4,
          5: _task_5, 6: _task_6, 7: _task_7, 8: _task_8}

TASK_IDS = tuple(sorted(_TASKS))


def load_scenario(task_id: int, seed: int = 0):
    """(ScenarioSpec, WorldState) for a benchmark task. The spec is the same
    for every seed; the seed picks the start world's one mark from the spec's
    ``start_marks``, if any (task 4's right port)."""
    # True == 1 and 1.0 == 1 would both look up task 1
    if type(task_id) is not int or task_id not in _TASKS:
        raise UnknownTask(f"task_id must be an int 1..8, got {task_id!r}")
    scenario, world = _TASKS[task_id]()
    if scenario.start_marks:
        world.marks.add(random.Random(seed).choice(scenario.start_marks))
    return scenario, world
