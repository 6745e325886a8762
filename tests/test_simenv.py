import hashlib
import random
from collections import Counter

import pytest

from brainstem.errors import UnknownAction, UnknownTask
from brainstem.simenv import (DELETION_TICK, TASK_IDS, ActionRule, WorldState,
                              _derive_model, advance_clock, can_change,
                              check_success,
                              load_scenario, observe, resolve_action,
                              sample_duration)


def test_all_eight_tasks_load():
    for task_id in TASK_IDS:
        scenario, world = load_scenario(task_id, seed=0)
        assert scenario.task_id == task_id
        assert scenario.action_vocab
        assert not check_success(scenario, world)


def test_unknown_task_rejected():
    with pytest.raises(UnknownTask):
        load_scenario(9, 0)


def test_same_seed_same_scenario():
    # task 4's right port is its start world's seeded mark: same seed, same
    # hidden truth
    a_spec, a_world = load_scenario(4, seed=11)
    b_spec, b_world = load_scenario(4, seed=11)
    assert a_spec.rules.keys() == b_spec.rules.keys()
    assert a_world.marks == b_world.marks == {"fits port_3"}
    for action in sorted(a_spec.rules):
        assert a_spec.rules[action].success_prob(a_world) == \
            b_spec.rules[action].success_prob(b_world)


def test_task1_cube_inside_closed_cabinet():
    scenario, world = load_scenario(1, 0)
    assert not world.containers["cabinet_1"]["open"]
    assert world.objects["cube_1"].container == "cabinet_1"
    assert scenario.model.goal_states == {"holding_cube"}


def test_task1_open_then_grasp_succeeds():
    scenario, world = load_scenario(1, 0)
    rng = random.Random(0)
    assert resolve_action(scenario, world, "open cabinet", rng)["success"]
    assert resolve_action(scenario, world, "grasp cube", rng)["success"]
    assert check_success(scenario, world)
    assert observe(scenario, world).gripper["holding"] == "cube_1"


def test_grasp_through_closed_cabinet_fails_cleanly():
    scenario, world = load_scenario(1, 0)
    feedback = resolve_action(scenario, world, "grasp cube", random.Random(0))
    assert not feedback["success"]
    assert "closed" in feedback["error"]
    assert world.holding() is None
    assert not check_success(scenario, world)


def test_unknown_action_raises():
    scenario, world = load_scenario(1, 0)
    with pytest.raises(UnknownAction):
        resolve_action(scenario, world, "fly", random.Random(0))


def test_task4_correct_port_never_first():
    for seed in range(30):
        scenario, world = load_scenario(4, seed)
        fits = [m for m in world.marks if m.startswith("fits ")]
        assert len(fits) == 1 and fits[0] != "fits port_1"
        # the plug rules read the right port from the world
        for port in ("port_1", "port_2", "port_3"):
            p = scenario.rules[f"plug {port}"].success_prob(world)
            assert (p > 0) == (f"fits {port}" in world.marks), (seed, port)


def test_task4_port_is_the_seeded_draw():
    # the mark picks the port that random.Random(seed).randint(0, 1) picked
    # when the plug rules closed over it
    ports = Counter()
    for seed in range(-8, 64):
        _, world = load_scenario(4, seed)
        port = f"port_{2 + random.Random(seed).randint(0, 1)}"
        assert [m for m in world.marks if m.startswith("fits ")] == \
            [f"fits {port}"], seed
        ports[port] += 1
    assert set(ports) == {"port_2", "port_3"}


@pytest.mark.parametrize("task_id", TASK_IDS)
def test_a_task_is_the_same_for_every_seed(task_id):
    # a seed acts on the start world's one seeded mark and nowhere else
    def data(spec):
        return (spec.task_id, spec.mission, spec.category, spec.action_vocab,
                spec.reactive_script, spec.timeout_ticks,
                spec.scheduled_events, spec.start_marks,
                repr(sorted(spec.model.transitions.items())),
                spec.model.goal_states)

    spec, world = load_scenario(task_id, 0)
    for seed in (1, 2, 3, -5, 2 ** 40 + 3):
        other_spec, other = load_scenario(task_id, seed)
        assert data(other_spec) == data(spec), seed
        # each start world holds one of start_marks, if the task lists any,
        marks = set(spec.start_marks)
        assert len(world.marks & marks) == len(other.marks & marks) == \
            min(1, len(marks)), seed
        # and is otherwise the same for every seed
        a, b = world.clone(), other.clone()
        a.marks -= marks
        b.marks -= marks
        assert world_key(a) == world_key(b), seed


def test_task8_deletion_scheduled_at_sixty_seconds():
    scenario, _ = load_scenario(8, 0)
    assert scenario.scheduled_events[0].tick == DELETION_TICK == 6000


def test_task8_deletion_hides_apple_from_observation():
    scenario, world = load_scenario(8, 0)
    events = advance_clock(scenario, world, DELETION_TICK)
    assert events and events[0]["event"] == "delete_object"
    obs = observe(scenario, world)
    assert all(o["id"] != "apple_1" for o in obs.visible_objects)
    assert scenario.symbol_of(world) == "apple_missing"


def test_task8_deletion_fires_exactly_once():
    scenario, world = load_scenario(8, 0)
    first = advance_clock(scenario, world, DELETION_TICK)
    second = advance_clock(scenario, world, DELETION_TICK + 500)
    assert len(first) == 1
    assert second == []


def test_task8_held_apple_survives_deletion():
    scenario, world = load_scenario(8, 0)
    rng = random.Random(1)
    # reach the grasp before the deletion tick
    world.marks.update({"located", "near", "in_view"})
    world.objects["apple_1"].occluded = False
    feedback = resolve_action(scenario, world, "grasp apple", rng)
    assert feedback["success"]
    assert world.tick < DELETION_TICK
    events = advance_clock(scenario, world, DELETION_TICK + 1)
    assert events == []  # unless_held guard: nothing to delete
    assert world.objects["apple_1"].present
    assert world.holding() == "apple_1"


def test_occlusion_hidden_until_viewpoint_change():
    scenario, world = load_scenario(7, 0)
    rng = random.Random(0)
    obs = observe(scenario, world)
    assert all(o["id"] != "apple_1" for o in obs.visible_objects)
    resolve_action(scenario, world, "approach shelf", rng)
    before = {k: (v.location, v.container) for k, v in world.objects.items()}
    resolve_action(scenario, world, "look from right", rng)
    obs = observe(scenario, world)
    assert world.objects["apple_1"].occluded
    assert all(o["id"] != "apple_1" for o in obs.visible_objects)
    resolve_action(scenario, world, "look from left", rng)
    obs = observe(scenario, world)
    assert not world.objects["apple_1"].occluded
    assert any(o["id"] == "apple_1" for o in obs.visible_objects)
    after = {k: (v.location, v.container) for k, v in world.objects.items()}
    assert before == after  # a viewpoint change never moves objects


def test_viewpoint_change_never_moves_objects():
    scenario, world = load_scenario(7, 0)
    rng = random.Random(0)
    resolve_action(scenario, world, "approach shelf", rng)
    before = {k: (v.location, v.container) for k, v in world.objects.items()}
    for action in ("look from left", "look from right"):
        moved = world.clone()
        resolve_action(scenario, moved, action, rng)
        after = {k: (v.location, v.container)
                 for k, v in moved.objects.items()}
        assert before == after


def test_grasp_occluded_apple_fails():
    scenario, world = load_scenario(7, 0)
    rng = random.Random(0)
    resolve_action(scenario, world, "approach shelf", rng)
    feedback = resolve_action(scenario, world, "grasp apple", rng)
    assert not feedback["success"]
    assert "occluded" in feedback["error"]


def test_object_count_conserved_except_deletion():
    scenario, world = load_scenario(6, 0)
    rng = random.Random(3)
    count = len([o for o in world.objects.values() if o.present])
    for action in scenario.reactive_script:
        resolve_action(scenario, world, action, rng)
        present = len([o for o in world.objects.values() if o.present])
        assert present == count


def test_durations_positive_and_near_mean():
    scenario, _ = load_scenario(8, 0)
    rng = random.Random(7)
    rule = scenario.rules["explore room"]
    samples = [sample_duration(rule, rng) for _ in range(200)]
    assert all(s >= rule.duration_mean * 0.5 for s in samples)
    mean = sum(samples) / len(samples)
    assert abs(mean - rule.duration_mean) < rule.duration_std


def test_initial_states_never_satisfied():
    for task_id in TASK_IDS:
        for seed in range(4):
            scenario, world = load_scenario(task_id, seed)
            assert not check_success(scenario, world)


def model_states(model):
    return set(model.transitions) | {nxt for outs in model.transitions.values()
                                     for _, _, nxt in outs}


@pytest.mark.parametrize("task_id", TASK_IDS)
def test_random_walk_symbols_are_model_states(task_id):
    # success is the model's goal test on the world's symbol, so every world
    # an episode can reach must map to a state the model declares
    for seed in range(4):
        scenario, world = load_scenario(task_id, seed)
        states = model_states(scenario.model)
        rng = random.Random(seed)
        reached = [scenario.symbol_of(world)]
        for _ in range(40):
            # as an episode does: the clock (with any event due), then the
            # action
            action = rng.choice(scenario.action_vocab)
            duration = sample_duration(scenario.rules[action], rng)
            advance_clock(scenario, world, world.tick + duration)
            resolve_action(scenario, world, action, rng)
            reached.append(observe(scenario, world).symbol)
            if check_success(scenario, world):
                break
        assert set(reached) <= states, (seed, set(reached) - states)


def world_key(world):
    """What an action can change in a world: everything but the clock."""
    return repr((sorted(world.objects.items()), sorted(
        (k, sorted(v.items())) for k, v in world.containers.items()),
        sorted(world.gripper.items()), sorted(world.marks)))


def rules_distribution(scenario, world, action):
    """(next-symbol distribution, world after success or None) of ``action``
    under the scenario's world rules."""
    symbol = scenario.symbol_of(world)
    rule = scenario.rules[action]
    if rule.precondition(world) is not None:
        return Counter({symbol: 1.0}), None
    p = rule.success_prob(world)
    after = world.clone()
    rule.effect(after)
    dist = Counter({symbol: 1.0 - p})
    dist[scenario.symbol_of(after)] += p
    return dist, after if p > 0 else None


def model_distribution(scenario, symbol, action):
    """Next-symbol distribution of ``action`` in the declared model; an
    action the model declares nothing for leaves the symbol unchanged."""
    dist = Counter()
    for name, p, nxt in scenario.model.transitions.get(symbol, ()):
        if name == action:
            dist[nxt] += p
    return dist or Counter({symbol: 1.0})


def belief_disagreements(task_id, seed):
    """(symbol, action) pairs where the declared model and the world rules
    give different next-symbol distributions, over every world reachable by
    successful actions from the task's start. Scheduled events are left out
    and goal worlds are not expanded."""
    scenario, world = load_scenario(task_id, seed)
    frontier, seen, found = [world], {world_key(world)}, set()
    while frontier:
        world = frontier.pop()
        symbol = scenario.symbol_of(world)
        if scenario.model.is_goal(symbol):
            continue
        for action in scenario.action_vocab:
            rules, after = rules_distribution(scenario, world, action)
            model = model_distribution(scenario, symbol, action)
            if any(abs(rules[s] - model[s]) > 1e-9
                   for s in rules.keys() | model.keys()):
                found.add((symbol, action))
            if after is not None and world_key(after) not in seen:
                seen.add(world_key(after))
                frontier.append(after)
    return found


# where the selector's belief differs from the world, per task: task 4's
# model spreads success over all three ports, and task 7's omits that a look
# from the right hides the apple again
BELIEF_DISAGREEMENTS = {
    (4, "at_ports", "plug port_1"),
    (4, "at_ports", "plug port_2"),
    (4, "at_ports", "plug port_3"),
    (7, "apple_visible", "look from right"),
}


def test_model_differs_from_world_rules_only_where_declared():
    found = {(task_id, symbol, action)
             for task_id in TASK_IDS for seed in range(2)
             for symbol, action in belief_disagreements(task_id, seed)}
    assert found == BELIEF_DISAGREEMENTS


# sha256 of repr(sorted(model.transitions.items())) and the sorted goal
# states of each task's planner model, computed from the hand-written tables
# the models are now derived in place of
MODEL_PINS = {
    1: ("706321f3100a658365e748daba9b33c744fdfc01671a3757e6632c8fce20933a",
        ["holding_cube"]),
    2: ("b7c5bb05484977b436e60b12ebb5d984225df37b1259ca2bf838f4d2d95426c8",
        ["holding_blue"]),
    3: ("59231d4c272682ada416e7505124de505ba55e86ea3f6102d704b283eb8a2d3f",
        ["lifted"]),
    4: ("8e9483f5469ee1f997b1e2660cf5622194b204c137bd61abce70ea40a285d452",
        ["charger_plugged"]),
    5: ("14e7089095225627ff1d9dace80bc19fa8f27d476156504ad0d1de9d16a3b063",
        ["holding_book"]),
    6: ("ecc5453fffddf27b9a3cd9c551537d46ca2d23875f3a9d2be8074771e1ba08f3",
        ["delivered"]),
    7: ("b02e21e9be2f3037438990cb9c27c521cdc68737e5f7f10546bc980c40206def",
        ["holding_apple"]),
    8: ("f6572eb31970e823bad89d09214fefe4d989fe770f2261300fafb37ccd50f3e3",
        ["holding_apple"]),
}


@pytest.mark.parametrize("task_id", TASK_IDS)
def test_planner_model_is_pinned_and_seed_free(task_id):
    # float bits and outcome order included; task 4's seeded right port must
    # never reach the planner's belief
    digest, goals = MODEL_PINS[task_id]
    first = load_scenario(task_id, 0)[0].model
    for seed in range(16):
        model = load_scenario(task_id, seed)[0].model
        text = repr(sorted(model.transitions.items()))
        if seed < 4:
            assert hashlib.sha256(text.encode()).hexdigest() == digest, seed
            assert sorted(model.goal_states) == goals, seed
        assert text == repr(sorted(first.transitions.items())), seed
        assert model.goal_states == first.goal_states, seed


def reachable_worlds(scenario, world):
    """Every world that successful actions and scheduled events reach from
    ``world``, goal worlds included."""
    worlds, seen = [world], {world_key(world)}
    for world in worlds:  # appending while iterating walks breadth first
        reached = []
        for rule in scenario.rules.values():
            if rule.precondition(world) is None and \
                    rule.success_prob(world) > 0:
                after = world.clone()
                rule.effect(after)
                reached.append(after)
        for event in scenario.scheduled_events:
            after = world.clone()
            advance_clock(scenario, after, event.tick)
            reached.append(after)
        for after in reached:
            if world_key(after) not in seen:
                seen.add(world_key(after))
                worlds.append(after)
    return worlds


@pytest.mark.parametrize("task_id", TASK_IDS)
def test_no_rule_reads_the_clock(task_id):
    # can_change, and the reactive-only trial's skip to its horizon, rest on
    # this: a world no event will change again stays as it is until the end
    for seed in range(8):
        scenario, start = load_scenario(task_id, seed)
        for world in reachable_worlds(scenario, start):
            early, late = world.clone(), world.clone()
            early.tick, late.tick = 0, scenario.timeout_ticks
            for action, rule in scenario.rules.items():
                where = (seed, action, world_key(world))
                assert rule.precondition(early) == \
                    rule.precondition(late), where
                assert rule.success_prob(early) == \
                    rule.success_prob(late), where


def test_can_change_while_an_event_is_due_or_the_action_can_succeed():
    scenario, world = load_scenario(4, 0)
    wrong = "plug port_1"  # the right port is 2 or 3
    right = next(a for a in scenario.action_vocab if a != wrong
                 and scenario.rules[a].success_prob(world) > 0)
    assert can_change(scenario, world, right)
    assert not can_change(scenario, world, wrong)

    scenario, world = load_scenario(8, 0)
    world.marks.update({"located", "near", "in_view"})
    world.objects["apple_1"].occluded = False
    assert can_change(scenario, world, "grasp apple")
    # the deletion is due, so even a grasp that cannot succeed can change
    # the world
    world.objects["apple_1"].occluded = True
    assert can_change(scenario, world, "grasp apple")
    advance_clock(scenario, world, DELETION_TICK)
    assert not can_change(scenario, world, "grasp apple")
    assert can_change(scenario, world, "explore room")


def mark(name, needs=None, p=1.0):
    """A rule that adds mark ``name``, if mark ``needs`` is set, with
    success probability ``p``."""
    return ActionRule(1, 0, lambda w: None if needs in (None, *w.marks)
                      else f"needs {needs}", lambda w: w.marks.add(name),
                      lambda _w: p)


def marks_symbol(w):
    return "+".join(sorted(w.marks)) or "start"


def derive(rules, goals=("goal",), beliefs=None, symbol_of=marks_symbol):
    return _derive_model(WorldState(objects={}), rules, symbol_of,
                         set(goals), beliefs).transitions


def test_derived_model_omits_actions_that_cannot_change_the_symbol():
    rules = {"blocked": mark("a", needs="key"), "never": mark("b", p=0.0),
             "idle": ActionRule(1, 0, lambda w: None, lambda w: None,
                                lambda _w: 1.0),
             "go": mark("goal")}
    assert derive(rules) == {"start": [("go", 1.0, "goal")]}


def test_derived_failure_follows_success_and_is_rounded():
    transitions = derive({"go": mark("goal", p=0.93)})
    assert transitions == {"start": [("go", 0.93, "goal"),
                                     ("go", 0.07, "start")]}
    assert repr(transitions["start"][1][1]) == "0.07" != repr(1 - 0.93)


def test_derived_model_does_not_expand_goal_symbols():
    rules = {"go": mark("goal"), "beyond": mark("past", needs="goal")}
    assert derive(rules) == {"start": [("go", 1.0, "goal")]}


def test_belief_replaces_its_derived_entry():
    rules = {"go": mark("goal", p=0.5), "other": mark("goal")}
    beliefs = {"start": [("other", 1.0, "goal")], "lost": []}
    assert derive(rules, beliefs=beliefs) == beliefs


def test_one_symbol_with_two_outcome_lists_raises():
    # "key" is invisible to the symbol, yet only a world holding it can go
    def symbol_of(w):
        return "goal" if "goal" in w.marks else "start"

    rules = {"take key": mark("key"), "go": mark("goal", needs="key")}
    with pytest.raises(ValueError, match="'start'"):
        derive(rules, symbol_of=symbol_of)


def test_observation_never_reveals_hidden():
    scenario, world = load_scenario(8, 0)
    obs = observe(scenario, world)
    assert all(o["id"] != "apple_1" for o in obs.visible_objects)  # occluded
