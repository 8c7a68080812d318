"""Decision records that keep only their candidates' ids and distances.

A record's scores and probabilities are derived from its distances, so
a retained trace holds no float of its own per candidate. The reader
still checks the scores and probabilities a trace document lists, with
the rules it always had: one tampered score, or one tampered in-range
probability of a candidate that was not chosen, is rejected. The writer
derives each decision's columns as it writes them: traces of the
benchmark's wide shape (about 1600 candidates a decision) survive write,
read and write again byte for byte, and a negative distance, which no
loader accepts, raises before any file is written. The traces of a
wide batch hold at most 24 bytes per candidate.
"""

import gc
import importlib.util
import json
import tracemalloc
from pathlib import Path

import pytest

from attacksim.cli import load_inputs, main
from attacksim.engine import DecisionRecord
from attacksim.harness import (
    EXHAUSTED,
    EpisodeTrace,
    SimConfig,
    load_trace,
    run_monte_carlo,
    save_trace,
    trace_to_dict,
)
from attacksim.model import EXTERNAL_ORIGIN, CpsKnowledge

ROOT = Path(__file__).resolve().parents[1]
MESSAGE = ("scores and probabilities are not the ones its distances "
           "give")


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """The inputs of perfbench's wide-4x2000 instance, written once by its
    generator (imported from its file, and only read)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_instances", ROOT / "perfbench" / "instances.py")
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    paths = instances.write_instance(instances.generate("wide", 0),
                                     tmp_path_factory.mktemp("wide"))
    return load_inputs(paths["system"], paths["actions"], paths["profiles"])


def wide_config(episodes, seed):
    """A batch as the wide-4x2000 workload runs it."""
    return SimConfig(episodes, seed=seed, profile="attacker", max_steps=16)


@pytest.fixture(scope="module")
def fixture_doc(cstr_paths, tmp_path_factory):
    """A written fixture trace with a decision of several candidates, and
    the index of that decision and of a candidate it did not choose."""
    system, db, profiles = load_inputs(cstr_paths["system"],
                                       cstr_paths["actions"],
                                       cstr_paths["profiles"])
    _, traces = run_monte_carlo(system, db, profiles, SimConfig(20, seed=21))
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    for trace in traces:
        for i, rec in enumerate(trace.records):
            others = [j for j, aid in enumerate(rec.action_ids)
                      if aid != rec.chosen]
            if others:
                save_trace(trace, path)
                return json.loads(path.read_text()), i, others[0]
    raise AssertionError("no fixture decision has two candidates")


@pytest.mark.parametrize("how", ["--summary", "--dot"])
@pytest.mark.parametrize("key", ["score", "probability"])
def test_one_tampered_column_value_exits_one(fixture_doc, tmp_path, capsys,
                                             key, how):
    doc, i, j = fixture_doc
    doc = json.loads(json.dumps(doc))
    candidate = doc["decisions"][i]["candidates"][j]
    assert 0.0 < candidate[key] < 1.0
    candidate[key] /= 2  # in range, and not the chosen candidate's
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["trace", str(bad), how]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[1:] == [
        f"  - decision #{i}: {MESSAGE}"]
    assert captured.out == ""


def test_wide_traces_survive_write_read_write(wide, tmp_path):
    _, traces = run_monte_carlo(*wide, wide_config(2, 0))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for trace in traces:
        assert max(len(r.action_ids) for r in trace.records) > 1000
        save_trace(trace, first)
        assert first.read_bytes() == json.dumps(
            trace_to_dict(trace), indent=2).encode("ascii")
        back = load_trace(first)
        assert back == trace
        save_trace(back, second)
        assert second.read_bytes() == first.read_bytes()


def test_negative_distance_raises_and_writes_nothing(tmp_path):
    rec = DecisionRecord("N1", ("a1", "a2"), (0.5, -0.25), "a1", "A one",
                         0.5, "failure", EXTERNAL_ORIGIN)
    trace = EpisodeTrace(0, "p", (rec,), EXHAUSTED, CpsKnowledge(
        frozenset({"N1"}), frozenset(), frozenset()))
    path = tmp_path / "trace.json"
    with pytest.raises(ValueError, match="negative distance"):
        save_trace(trace, path)
    assert not path.exists()


def test_wide_batch_holds_at_most_24_bytes_per_candidate(wide):
    """tracemalloc's count of what a 4-episode wide batch's traces keep
    alive once the run is over, per candidate they list. Ids and
    distances are shared with the database and the profile's distance
    table, so a record's own cost is its two column tuples: 16 bytes a
    candidate, less where a record shares the memo's tuples."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, traces = run_monte_carlo(*wide, wide_config(4, 0))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    candidates = sum(len(r.action_ids) for t in traces for r in t.records)
    assert candidates > 50_000
    assert held / candidates <= 24
