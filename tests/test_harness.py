import hashlib
import json
import math
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from brainstem import harness
from brainstem.backends import ScriptedBackend
from brainstem.cli import main
from brainstem.episode import Outcome, TrialResult
from brainstem.errors import (BackendError, ConfigError, EmptyInput,
                              SchemaViolation)
from brainstem.harness import (BenchConfig, EvalBatch, aggregate, emit_report,
                               load_reference_tables, reference_aggregates,
                               run_bench)
from brainstem.simenv import TASK_IDS
from support import TOO_DEEP, UNKNOWN_COLLEAGUE


# -- aggregation ---------------------------------------------------------------

def test_reference_rows_from_spec_examples():
    assert aggregate([76, 76, 76, 80, 76, 76, 76, 76])[0] == 76.5
    assert aggregate([80, 80, 68, 68, 88, 72, 68, 72])[0] == 74.5
    assert aggregate([40, 36, 36, 44, 36, 36, 44, 36])[0] == 38.5


def test_sample_std_convention():
    avg, std = aggregate([80, 76, 76, 76, 76, 76, 76, 76])
    assert avg == 76.5
    assert std == pytest.approx(2 ** 0.5)  # printed as 1.41


def test_aggregate_empty_rejected():
    with pytest.raises(EmptyInput):
        aggregate([])


def test_aggregate_enforces_expected_n():
    with pytest.raises(ConfigError):
        aggregate([1, 2, 3], expected_n=8)


def test_every_reference_cell_reproduced_or_flagged():
    records = reference_aggregates()
    assert len(records) == 40  # 5 systems x 8 categories
    inconsistent = {(r["model"], r["category"]) for r in records
                    if not r["consistent"]}
    assert inconsistent == {("dp_vla", "physical"), ("octo", "physical"),
                            ("ours", "correction"), ("ours", "long-horizon2")}
    for record in records:
        if record["consistent"]:
            assert record["computed_avg"] == record["printed_avg"]
        else:
            assert record["computed_avg"] != record["printed_avg"]


def test_reference_tables_shape():
    doc = load_reference_tables()
    assert doc["evals_per_row"] == 8
    for rows in doc["tables"].values():
        assert len(rows) == 8
        for cell in rows.values():
            assert len(cell["values"]) == 8
            assert all(0 <= v <= 100 for v in cell["values"])


# -- bench runs -----------------------------------------------------------------

def small_config(**kw):
    defaults = dict(tasks=(1,), trials_per_eval=3, evals=2, base_seed=0)
    defaults.update(kw)
    return BenchConfig(**defaults)


def test_run_bench_deterministic():
    a = run_bench(small_config())
    b = run_bench(small_config())
    assert a.to_doc() == b.to_doc()


def test_run_bench_produces_percentages():
    batch = run_bench(small_config())
    row = batch.row_for(1)
    assert row.category == "physical"
    assert len(row.eval_percentages) == 2
    assert all(0 <= p <= 100 for p in row.eval_percentages)
    assert len(batch.trials) == 6


def test_config_validation():
    with pytest.raises(ConfigError):
        BenchConfig(mode="psychic")
    with pytest.raises(ConfigError):
        BenchConfig(tasks=(42,))
    with pytest.raises(ConfigError):
        BenchConfig(trials_per_eval=0)
    with pytest.raises(ConfigError):
        BenchConfig(backend="carrier-pigeon")


@pytest.mark.parametrize("tasks", [(), []])
def test_config_and_batch_refuse_an_empty_task_list(tasks):
    with pytest.raises(ConfigError, match="non-empty"):
        BenchConfig(tasks=tasks)
    with pytest.raises(SchemaViolation, match="non-empty"):
        EvalBatch.from_doc(batch_doc([], tasks=list(tasks)))


@pytest.mark.parametrize("field, value", [
    ("trials_per_eval", 2.5), ("trials_per_eval", "3"),
    ("trials_per_eval", True), ("evals", True), ("evals", 2.0),
    ("base_seed", 1.5), ("base_seed", "0"), ("base_seed", False),
    ("tasks", (True,)), ("tasks", [3.0]), ("tasks", 3),
])
def test_config_refuses_mistyped_counts_seeds_and_task_ids(field, value):
    with pytest.raises(ConfigError):
        BenchConfig(**{field: value})


def test_config_accepts_a_negative_seed_and_a_task_list():
    config = BenchConfig(tasks=[3, 5], base_seed=-3)
    assert (list(config.tasks), config.base_seed) == ([3, 5], -3)


def test_config_digest_ignores_where_the_batch_is_written():
    # the default config's digest, from before out_dir was left out of it
    assert BenchConfig().digest() == "e21bc655ab86"
    assert BenchConfig(out_dir="a").digest() == BenchConfig().digest()
    assert BenchConfig(tasks=(1, 4), out_dir="b").digest() == \
        BenchConfig(tasks=(1, 4)).digest()


def test_batch_round_trips_through_json(tmp_path):
    config = small_config(out_dir=str(tmp_path))
    batch = run_bench(config)
    saved = json.loads((tmp_path / "batch.json").read_text())
    restored = EvalBatch.from_doc(saved)
    assert restored.to_doc() == batch.to_doc()


def test_batch_json_is_the_json_report(tmp_path):
    batch = run_bench(small_config(out_dir=str(tmp_path)))
    assert (tmp_path / "batch.json").read_text() == emit_report(batch, "json")


def test_batch_reproduces_itself():
    doc = run_bench(small_config(tasks=(1, 8), trials_per_eval=1)).to_doc()
    assert sorted(doc) == ["config", "trials"]
    config = EvalBatch.from_doc(json.loads(json.dumps(doc))).config
    assert config.out_dir is None
    assert run_bench(config).to_doc() == doc


def batch_doc(trials, **config):
    """A batch document of ``trials`` (task_id, seed, outcome) under a config
    of task 1 and one seed, with ``config``'s fields set."""
    config = {"tasks": [1], "mode": "full", "trials_per_eval": 1, "evals": 1,
              "base_seed": 0, "backend": "scripted", "memory_period": 100,
              "deliberative_period": 1000, **config}
    return {"config": config,
            "trials": [{"task_id": t, "seed": s, "outcome": o,
                        "ticks_elapsed": 12, "detail": ""}
                       for t, s, o in trials]}


# "batch" sets a field of the batch's config, "doc" one of the document and
# "trial" one of its trial; new cases go last, as a list value's test id is
# its position
@pytest.mark.parametrize("where, field, value", [
    ("batch", "evals", 0), ("batch", "evals", True), ("batch", "evals", 1.0),
    ("batch", "evals", "1"), ("batch", "evals", 2), ("batch", "rows", []),
    ("trial", "ticks_elapsed", 12.5), ("batch", "mode", 5),
    ("batch", "config_digest", []), ("batch", "seeds", ["a"]),
    ("batch", "seeds", [True]), ("trial", "seed", "x"),
    ("trial", "task_id", None), ("trial", "detail", [1]),
    ("trial", "task_id", 42), ("trial", "ticks_elapsed", -12),
    ("trial", "extra", 1), ("batch", "extra", 1), ("trial", "seed", 7),
    ("batch", "base_seed", "a"), ("batch", "base_seed", True),
    ("batch", "tasks", []), ("batch", "tasks", [4]), ("batch", "tasks", 3),
    ("batch", "out_dir", None), ("batch", "out_dir", "x"),
    ("batch", "trials_per_eval", 2), ("batch", "backend", "carrier-pigeon"),
    ("batch", "memory_period", 0), ("batch", "deliberative_period", 1.5),
    ("doc", "rows", []), ("doc", "config_digest", "x"), ("doc", "extra", 1),
    ("doc", "config", [1]), ("doc", "trials", 5), ("doc", "trials", {}),
    ("trial", "seed", True), ("trial", "task_id", True),
    ("trial", "outcome", "Won"), ("trial", "detail", None),
])
def test_batch_with_mistyped_field_rejected(where, field, value):
    doc = batch_doc([(3, 0, "Success")], tasks=[3])
    EvalBatch.from_doc(doc)
    {"trial": doc["trials"][0], "batch": doc["config"], "doc": doc}[where][
        field] = value
    with pytest.raises(SchemaViolation):
        EvalBatch.from_doc(doc)


@pytest.mark.parametrize("where, field", [
    ("doc", "config"), ("doc", "trials"),
    *(("batch", key) for key in harness._CONFIG_KEYS),
    *(("trial", key) for key in harness._TRIAL_KEYS),
])
def test_batch_missing_a_field_rejected(where, field):
    doc = batch_doc([(3, 0, "Success")], tasks=[3])
    del {"trial": doc["trials"][0], "batch": doc["config"], "doc": doc}[
        where][field]
    with pytest.raises(SchemaViolation, match=f"missing field '{field}'"):
        EvalBatch.from_doc(doc)


@pytest.mark.parametrize("doc", [
    {"config_digest": "x", "mode": "full", "seeds": [0], "evals": 1,
     "trials": []},
    {"config_digest": "x", "mode": "full", "seeds": [0],
     "rows": [{"task_id": 1, "category": "physical",
               "eval_percentages": [0.0], "avg": 0.0, "std": 0.0,
               "outcomes": {"Failure": 1}}],
     "trials": [{"task_id": 1, "seed": 0, "outcome": "Failure",
                 "ticks_elapsed": 12, "detail": ""}]},
], ids=["digest_mode_seeds_evals", "stored_rows"])
def test_batch_in_an_older_format_rejected(doc):
    with pytest.raises(SchemaViolation, match="missing field 'config'"):
        EvalBatch.from_doc(doc)


def test_batch_repeating_a_trial_rejected():
    # two Success trials of one (task, seed): as many trials as seeds, yet
    # no batch run_bench writes repeats a cell
    doc = batch_doc([(3, 0, "Success"), (3, 0, "Success")], tasks=[3],
                    trials_per_eval=2)
    with pytest.raises(SchemaViolation, match="repeat"):
        EvalBatch.from_doc(doc)
    doc["trials"][1]["seed"] = 1
    EvalBatch.from_doc(doc)


def test_backend_error_ends_trials_not_the_batch(monkeypatch):
    class Down:
        def complete(self, role, key):
            raise BackendError("connection refused")

    monkeypatch.setattr(harness, "_make_backend", lambda config: Down())
    batch = run_bench(small_config(tasks=(1, 3)))
    assert [row.task_id for row in batch.rows] == [1, 3]
    assert {(t.outcome, t.ticks_elapsed, t.detail) for t in batch.trials} == \
        {(Outcome.HANDLED_ABORT, 0, "backend: connection refused")}
    assert EvalBatch.from_doc(batch.to_doc()).to_doc() == batch.to_doc()


@pytest.mark.parametrize("doc", [
    batch_doc([(1, 0, "Failure"), (1, 0, "Failure")], evals=2),
    batch_doc([(1, 0, "Failure")], trials_per_eval=2),
    batch_doc([(1, 1, "Failure"), (1, 0, "Failure")], trials_per_eval=2),
    batch_doc([(4, 0, "Failure"), (1, 0, "Failure")], tasks=[1, 4]),
    batch_doc([(1, 0, "Failure"), (4, 0, "Failure")]),
    batch_doc([(1, 0, "Failure")], tasks=[1, 4]),
    batch_doc([], evals=10 ** 12),
    batch_doc([(1, 0, "Failure")], evals=10 ** 12, trials_per_eval=10 ** 12),
], ids=["repeated_seed", "missing_cell", "seeds_out_of_order",
        "tasks_out_of_order", "task_outside_config", "missing_task",
        "huge_grid_no_trials", "grid_past_ssize_t"])
def test_batch_without_one_trial_per_task_and_seed_rejected(doc):
    with pytest.raises(SchemaViolation):
        EvalBatch.from_doc(doc)


def test_batch_rows_are_task_rows_of_their_trials():
    batch = run_bench(small_config(tasks=(1, 4), evals=3, trials_per_eval=2))
    for row in batch.rows:
        trials = [t for t in batch.trials if t.task_id == row.task_id]
        assert row == harness.task_row(row.task_id, trials[::-1], 3)


def test_malformed_reply_ends_trials_not_the_batch(monkeypatch):
    class NotJson:
        def complete(self, role, key):
            return "{not json"

    monkeypatch.setattr(harness, "_make_backend", lambda config: NotJson())
    batch = run_bench(small_config(tasks=(1, 2)))
    assert [row.task_id for row in batch.rows] == [1, 2]
    assert {(t.outcome, t.ticks_elapsed) for t in batch.trials} == \
        {(Outcome.HANDLED_ABORT, 0)}
    assert all(t.detail.startswith("malformed reply: plan: ")
               for t in batch.trials)
    assert EvalBatch.from_doc(batch.to_doc()).to_doc() == batch.to_doc()


class FaultyBackend(ScriptedBackend):
    """The scripted backend, counting its calls per role, except that the
    ``call``-th call for ``role`` raises ``BackendError`` (when ``fault`` is
    that class) or replies ``fault``."""

    def __init__(self, role=None, call=0, fault=None):
        super().__init__()
        self.role, self.call, self.fault = role, call, fault
        self.calls = Counter()

    def complete(self, role, key):
        self.calls[role] += 1
        if role == self.role and self.calls[role] == self.call:
            if self.fault is BackendError:
                raise BackendError(f"{role} call {self.call} failed")
            return self.fault
        return super().complete(role, key)


# JSON values that are not objects: scalars and lists, nested a little
NON_OBJECT_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3), max_leaves=4).map(json.dumps)
# a contract-valid plan whose one subtask goes to an agent that is no worker
INSPECTOR_PLAN = json.dumps({"difficulty": "low", "subtasks": [
    {"subtask_id": "ST1", "assigned_worker": "Inspector_1",
     "task_description": "inspect", "focus": ["a", "b", "c"]}]})
FAULTS = st.just(BackendError) | st.just("{not json") | NON_OBJECT_JSON | \
    st.just("{}") | st.just(TOO_DEEP)
FAULTS_BY_ROLE = {"leader": FAULTS | st.just(INSPECTOR_PLAN),
                  "provider": FAULTS,
                  "worker": FAULTS | st.just(UNKNOWN_COLLEAGUE)}


@settings(derandomize=True, max_examples=25, deadline=None)
@given(task_id=st.sampled_from(TASK_IDS), seed=st.integers(0, 3),
       data=st.data())
def test_injected_backend_fault_ends_its_trial_classified(task_id, seed, data):
    # the fault goes into one of the first two calls a role gets in the
    # fault-free trial, so that it fires
    clean = FaultyBackend()
    harness.run_trial(task_id, seed, backend=clean)
    role = data.draw(st.sampled_from(sorted(clean.calls)))
    call = data.draw(st.integers(1, min(2, clean.calls[role])))
    backend = FaultyBackend(role, call, data.draw(FAULTS_BY_ROLE[role]))
    with mock.patch.object(harness, "_make_backend", lambda config: backend):
        batch = run_bench(small_config(tasks=(task_id,), trials_per_eval=1,
                                       evals=1, base_seed=seed))
    [trial] = batch.trials
    assert trial.outcome is Outcome.HANDLED_ABORT
    assert trial.detail.startswith(("backend: ", "malformed reply: "))
    restored = EvalBatch.from_doc(batch.to_doc())
    assert (restored.trials, restored.rows) == (batch.trials, batch.rows)


# -- reports -------------------------------------------------------------------

def test_all_100_formats_as_100_pm_0():
    batch = EvalBatch(BenchConfig(tasks=(1,), trials_per_eval=1, evals=8),
                      [TrialResult(1, seed, Outcome.SUCCESS, 0)
                       for seed in range(8)])
    text = emit_report(batch, "md")
    assert "100±0" in text


def test_csv_and_md_carry_identical_numbers():
    batch = run_bench(small_config())
    md = emit_report(batch, "md")
    csv = emit_report(batch, "csv")
    row = batch.row_for(1)
    token = f"{row.avg:g}"
    assert token in md.replace("±", " ").replace("|", " ")
    assert token in csv


# sha256 of the md and csv reports of these batches, computed when each row
# was stored in batch.json: a derived row must print byte for byte the same
@pytest.mark.parametrize("tasks, md_sha256, csv_sha256", [
    ((1, 4),
     "e2271556869ca33b3025384607587f7623a3be9a51fbaaa463f9a39d6a35fcc6",
     "5e41af468319205d4eba2cd6f1469d8bd8fda5a03c6f814995400a6598f0b443"),
    ((8, 4),
     "9502e5bde19f5017845b7b4888246593e4920c12a09626eb5ad4a2b6efbb959b",
     "f7f8b02eab0e323c2f52aa4effc2c023d80e04f7672230c6c66971ed4a9d8a17"),
], ids=["all_succeed", "task8_mixed"])
def test_reports_of_derived_rows_are_pinned(tasks, md_sha256, csv_sha256):
    batch = run_bench(BenchConfig(tasks=tasks, trials_per_eval=2, evals=3))
    for fmt, digest in [("md", md_sha256), ("csv", csv_sha256)]:
        text = emit_report(batch, fmt)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, text


def test_report_includes_run_metadata():
    batch = run_bench(small_config())
    text = emit_report(batch, "md")
    assert f"mode: full; config: {batch.config.digest()}; seeds: 0..5" in text


def test_report_unknown_format_rejected():
    batch = run_bench(small_config())
    with pytest.raises(ConfigError):
        emit_report(batch, "pdf")


# -- CLI -----------------------------------------------------------------------

def test_cli_aggregate_fixtures(capsys):
    assert main(["aggregate", "--input", "fixtures"]) == 0
    out = capsys.readouterr().out
    assert "avg=76.5" in out
    assert "inconsistent" in out


def test_cli_run_and_report(tmp_path, capsys):
    assert main(["run", "--task", "3", "--trials", "2", "--evals", "2",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["report", "--input", str(tmp_path / "batch.json"),
                 "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert "task 3" in out


def test_cli_aggregate_custom_file(tmp_path, capsys):
    path = tmp_path / "vals.json"
    path.write_text(json.dumps({"row": [1, 2, 3]}))
    assert main(["aggregate", "--input", str(path)]) == 0
    assert "avg=2" in capsys.readouterr().out


def test_cli_json_report_loads_back_as_the_same_trials(tmp_path, capsys):
    batch = run_bench(small_config(out_dir=str(tmp_path)))
    assert main(["report", "--input", str(tmp_path / "batch.json"),
                 "--format", "json"]) == 0
    restored = EvalBatch.from_doc(json.loads(capsys.readouterr().out))
    assert restored.trials == batch.trials


@pytest.mark.parametrize("argv", [
    ["run", "--ratios", "1,0,1000"],
    ["run", "--task", "3,x"],
    ["report", "--input", "{tmp}/missing.json"],
    ["report", "--input", "{tmp}/no_mode.json"],
    ["report", "--input", "{tmp}/not_json.txt"],
    ["aggregate", "--input", "{tmp}/missing.json"],
    ["run", "--task", "3", "--trials", "1", "--evals", "1",
     "--out", "{tmp}/regular_file/out"],
    ["aggregate", "--input", "{tmp}/list.json"],
    ["aggregate", "--input", "{tmp}/strings.json"],
    ["report", "--input", "{tmp}/no_seeds.json"],
    ["report", "--input", "{tmp}/old_format.json"],
    ["report", "--input", "{tmp}/evals_zero.json", "--format", "csv"],
    ["report", "--input", "{tmp}/evals_not_dividing.json"],
    ["report", "--input", "{tmp}/huge_grid.json"],
    ["aggregate", "--input", "{tmp}/nan.json"],
    ["aggregate", "--input", "{tmp}/infinity.json"],
    ["run", "--task", "1,1", "--trials", "1", "--evals", "1"],
    ["report", "--input", "{tmp}/too_deep.json"],
    ["aggregate", "--input", "{tmp}/too_deep.json"],
    ["report", "--input", "{tmp}/not_utf8.json"],
    ["aggregate", "--input", "{tmp}/not_utf8.json"],
], ids=["ratios", "task", "report_missing",
        "report_no_mode", "report_not_json", "aggregate_missing",
        "out_under_file", "aggregate_list", "aggregate_strings",
        "report_no_seeds", "report_old_format", "report_evals_zero",
        "report_evals_not_dividing", "report_huge_grid", "aggregate_nan", "aggregate_infinity",
        "task_duplicate", "report_too_deep",
        "aggregate_too_deep", "report_not_utf8", "aggregate_not_utf8"])
def test_cli_bad_input_ends_with_one_error_line(argv, tmp_path, capsys):
    no_mode = batch_doc([(1, 0, "Failure")])
    del no_mode["config"]["mode"]
    (tmp_path / "no_mode.json").write_text(json.dumps(no_mode))
    (tmp_path / "no_seeds.json").write_text(json.dumps(
        batch_doc([], trials_per_eval=0)))
    (tmp_path / "list.json").write_text(json.dumps([1, 2]))
    (tmp_path / "strings.json").write_text(json.dumps({"row": ["a"]}))
    (tmp_path / "nan.json").write_text(json.dumps({"a": [math.nan, 1]}))
    (tmp_path / "infinity.json").write_text(json.dumps({"a": [1, math.inf]}))
    (tmp_path / "not_json.txt").write_text("mode: full\n")
    (tmp_path / "too_deep.json").write_text(TOO_DEEP)
    (tmp_path / "not_utf8.json").write_bytes(b'{"a": [1\xff]}')
    (tmp_path / "regular_file").write_text("")
    # a batch.json as written before its config was stored
    (tmp_path / "old_format.json").write_text(json.dumps(
        {"config_digest": "x", "mode": "full", "seeds": [0], "evals": 1,
         "trials": [{"task_id": 1, "seed": 0, "outcome": "Failure",
                     "ticks_elapsed": 12, "detail": ""}]}))
    # three trials are not two evaluation blocks of one seed
    for name, evals in [("evals_zero", 0), ("evals_not_dividing", 2)]:
        (tmp_path / f"{name}.json").write_text(json.dumps(batch_doc(
            [(1, s, "Failure") for s in range(3)], evals=evals)))
    # a config whose grid is far larger than its trials
    (tmp_path / "huge_grid.json").write_text(json.dumps(
        batch_doc([], evals=10 ** 12)))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("ratios", ["1,a,3", "1,2.5,1000"])
def test_cli_malformed_ratios_name_the_expected_form(ratios, capsys):
    # argparse's own message for a ValueError names the parser function
    with pytest.raises(SystemExit) as exited:
        main(["run", "--ratios", ratios])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "ratios must be 1,<memory_period>,<deliberative_period>" in err
    assert "_parse_ratios" not in err


def test_cli_unwritable_out_runs_no_trial(tmp_path, monkeypatch, capsys):
    # the output directory is made before the batch, so a bad --out costs
    # no computed trials
    calls = []

    def run_trial(task_id, seed, *args):
        calls.append((task_id, seed))
        return TrialResult(task_id, seed, Outcome.FAILURE, 0)

    monkeypatch.setattr(harness, "run_trial", run_trial)
    (tmp_path / "regular_file").write_text("")
    assert main(["run", "--task", "3", "--trials", "1", "--evals", "1",
                 "--out", str(tmp_path / "regular_file" / "out")]) == 1
    assert calls == []
    assert capsys.readouterr().err.startswith("error: cannot create")
