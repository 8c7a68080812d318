"""The action database loads in no more memory than its parsed document.

`actions.load_action_db` owns the document it parses and drops each
entry once its action is built, so the load's peak is the parse's own;
`action_db_from_dict` reads a document its caller keeps, and must leave
it as it was. tests/load_memory_probe.py measures the load at catalog
sizes; here its tracemalloc function runs on the benchmark's wide
instance (2000 actions). Every bound is relative, because the sizes of
dicts and strings differ between Python versions.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import attacksim
import load_memory_probe as probe
from attacksim.actions import action_db_from_dict, load_action_db
from attacksim.errors import ValidationFailure, read_json
from attacksim.profiles import load_profiles

SRC = Path(attacksim.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    return probe.write_wide(2000, tmp_path_factory.mktemp("wide"))


def test_load_peaks_no_higher_than_the_parse(wide):
    seen = probe.traced(wide)
    assert seen["load_peak_kb"] <= probe.PEAK_RATIO * seen["parse_peak_kb"]
    assert probe.broken_rules(seen) == []
    # the database keeps less than the document it was read from
    assert 0 < seen["kept_kb"] < seen["parse_peak_kb"]


def test_a_load_over_the_bound_breaks_the_rule():
    assert probe.broken_rules({"parse_peak_kb": 100.0,
                               "load_peak_kb": 103.0})


def test_the_caller_keeps_its_document(wide):
    schema = load_profiles(wide["profiles"]).schema
    doc = read_json(wide["actions"])
    entries = doc["actions"]
    before = copy.deepcopy(doc)
    db = action_db_from_dict(doc, schema)
    assert doc == before and doc["actions"] is entries
    assert db.actions == load_action_db(wide["actions"], schema).actions


def test_an_invalid_document_is_reported_in_full(tmp_path, wide):
    # the entries are dropped as they are read, yet every problem is
    # still collected, in document order, and the caller's copy is kept
    schema = load_profiles(wide["profiles"]).schema
    doc = {"actions": [{"id": "A0", "effect": "x"}, 5,
                       {"id": "A1", "channels": "lan"}], "extra": 1}
    before = copy.deepcopy(doc)
    with pytest.raises(ValidationFailure) as given:
        action_db_from_dict(doc, schema)
    assert doc == before
    path = tmp_path / "actions.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValidationFailure) as loaded:
        load_action_db(path, schema)
    assert loaded.value.errors == given.value.errors
    assert given.value.errors[0].startswith(
        "action document: unknown top-level keys")


def test_probe_prints_one_line_and_exits_0(tmp_path):
    proc = subprocess.run(
        [sys.executable, probe.__file__, "300", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["actions"] == 300
    assert set(seen["collections"]) == {"0", "1", "2"}
    assert seen["load_s"] > 0 and seen["collector_s"] >= 0
    assert seen["ru_maxrss_mb"] >= seen["ru_maxrss_before_mb"] > 0
