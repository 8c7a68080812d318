import copy
import json
import re
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from attacksim.cli import main
from attacksim.data import fixture_path

DATA = Path(__file__).parent / "data"

# (document index in cstr_args, key path, declared JSON type) of each
# field the loaders check; the type is None for target criteria, which take
# a string or a list of strings
TYPED_FIELDS = {
    "criticality": (2, ("schema", 0, "criticality"), "number"),
    "lower": (2, ("schema", 2, "lower"), "number"),
    "upper": (2, ("schema", 2, "upper"), "number"),
    "profile-value": (2, ("profiles", 0, "values", "Finances"), "number"),
    "likelihood": (2, ("pmf", 0, "likelihood"), "number"),
    "action-profile-value": (1, ("actions", 0, "profile", "Finances"),
                             "number"),
    "success-probability": (1, ("actions", 0, "success_probability"),
                            "number"),
    "node-attribute": (0, ("nodes", 0, "attributes", "os"), "string"),
    "target-criteria": (1, ("actions", 0, "target_criteria", "role"), None),
    # strings and booleans
    "node-name": (0, ("nodes", 0, "name"), "string"),
    "node-target": (0, ("nodes", 0, "target"), "boolean"),
    "edge-from": (0, ("edges", 0, "from"), "string"),
    "edge-to": (0, ("edges", 0, "to"), "string"),
    "edge-entry-point": (0, ("edges", 0, "entry_point"), "boolean"),
    "edge-attack-vector": (0, ("edges", 0, "attack_vector"), "boolean"),
    "action-id": (1, ("actions", 0, "id"), "string"),
    "action-name": (1, ("actions", 0, "name"), "string"),
    "action-description": (1, ("actions", 0, "description"), "string"),
    "action-effect": (1, ("actions", 0, "effect"), "string"),
    "property-name": (2, ("schema", 0, "name"), "string"),
    "property-kind": (2, ("schema", 0, "kind"), "string"),
    "profile-name": (2, ("profiles", 0, "name"), "string"),
    "pmf-profile": (2, ("pmf", 0, "profile"), "string"),
    # containers
    "nodes": (0, ("nodes",), "array"),
    "edges": (0, ("edges",), "array"),
    "actions": (1, ("actions",), "array"),
    "action-profile": (1, ("actions", 0, "profile"), "object"),
    "schema": (2, ("schema",), "array"),
    "property": (2, ("schema", 2), "object"),
    "allowed-values": (2, ("schema", 0, "allowed_values"), "array"),
    "profiles": (2, ("profiles",), "array"),
    "profile-values": (2, ("profiles", 0, "values"), "object"),
    "pmf": (2, ("pmf",), "array"),
}

# the JSON type each declared type name stands for
JSON_TYPES = {
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}

# (document index in cstr_args, key path) of a key that no loader knows,
# in each kind of object
UNKNOWN_KEYS = {
    "system-key": (0, ("\udc80",)),
    "property-key": (2, ("schema", 0, "critcality")),
    "profile-key": (2, ("profiles", 0, "rank")),
    "pmf-entry-key": (2, ("pmf", 0, "weight")),
}

# (document, key path) of fields read by `trace` and `ingest`: a trace
# saved by `simulate` on the fixture, an annotations document and a 1.1 NVD
# feed; the empty key path stands for the whole document
DECISION = ("decisions", 0)
CANDIDATE = DECISION + ("candidates", 0)
ANNOTATION = ("annotations", "CAPEC-457")
ITEM = ("CVE_Items", 0)
DOCUMENT_FIELDS = {
    "trace": ("trace", ()),
    "trace-episode": ("trace", ("episode",)),
    "trace-profile": ("trace", ("profile",)),
    "trace-status": ("trace", ("status",)),
    "trace-decisions": ("trace", ("decisions",)),
    "trace-decision": ("trace", DECISION),
    "trace-target": ("trace", DECISION + ("target",)),
    "trace-candidates": ("trace", DECISION + ("candidates",)),
    "trace-candidate": ("trace", CANDIDATE),
    "trace-candidate-action": ("trace", CANDIDATE + ("action",)),
    "trace-candidate-distance": ("trace", CANDIDATE + ("distance",)),
    "trace-candidate-score": ("trace", CANDIDATE + ("score",)),
    "trace-candidate-probability": ("trace", CANDIDATE + ("probability",)),
    "trace-chosen": ("trace", DECISION + ("chosen",)),
    "trace-chosen-name": ("trace", DECISION + ("chosen_name",)),
    "trace-probability": ("trace", DECISION + ("probability",)),
    "trace-outcome": ("trace", DECISION + ("outcome",)),
    "trace-source": ("trace", DECISION + ("source",)),
    "trace-via-edges": ("trace", DECISION + ("via_edges",)),
    "trace-knowledge": ("trace", ("knowledge",)),
    "trace-known-nodes": ("trace", ("knowledge", "known_nodes")),
    "trace-known-edges": ("trace", ("knowledge", "known_edges")),
    "trace-compromised-nodes": ("trace", ("knowledge", "compromised_nodes")),
    "annotations-document": ("annotations", ()),
    "annotations-schema": ("annotations", ("schema",)),
    "annotations": ("annotations", ("annotations",)),
    "annotation": ("annotations", ANNOTATION),
    "annotation-name": ("annotations", ANNOTATION + ("name",)),
    "annotation-profile": ("annotations", ANNOTATION + ("profile",)),
    "annotation-profile-value": ("annotations",
                                 ANNOTATION + ("profile", "Knowledge")),
    "annotation-channels": ("annotations", ANNOTATION + ("channels",)),
    "annotation-target-criteria": ("annotations",
                                   ANNOTATION + ("target_criteria",)),
    "annotation-success-probability": ("annotations",
                                       ANNOTATION + ("success_probability",)),
    "annotation-references": ("annotations", ANNOTATION + ("references",)),
    "feed": ("cve", ()),
    "feed-items": ("cve", ("CVE_Items",)),
    "feed-item": ("cve", ITEM),
    "feed-cve": ("cve", ITEM + ("cve",)),
    "feed-id": ("cve", ITEM + ("cve", "CVE_data_meta", "ID")),
    "feed-descriptions": ("cve", ITEM + ("cve", "description",
                                         "description_data")),
    "feed-description": ("cve", ITEM + ("cve", "description",
                                        "description_data", 0, "value")),
    "feed-problemtypes": ("cve", ITEM + ("cve", "problemtype",
                                         "problemtype_data")),
    "feed-cwe": ("cve", ITEM + ("cve", "problemtype", "problemtype_data", 0,
                                "description", 0, "value")),
    "feed-configurations": ("cve", ITEM + ("configurations",)),
    "feed-nodes": ("cve", ITEM + ("configurations", "nodes")),
    "feed-cpe-matches": ("cve", ITEM + ("configurations", "nodes", 0,
                                        "cpe_match")),
    "feed-cpe": ("cve", ITEM + ("configurations", "nodes", 0, "cpe_match", 0,
                                "cpe23Uri")),
    "feed-children": ("cve", ("CVE_Items", 2, "configurations", "nodes", 0,
                              "children")),
}

# a candidate that decision #0 of the trace `simulate --seed 4` saves can
# list: it chooses usb-drop, its only candidate, at probability 1.0
USB_DROP = {"action": "usb-drop", "distance": 1.0, "score": 1.0,
            "probability": 1.0}

ANNOTATION_SCHEMA = [
    {"name": "Access", "kind": "unordered-set",
     "allowed_values": ["Direct", "Offsite"]},
    {"name": "Knowledge", "kind": "bounded-range", "lower": 0, "upper": 10},
]
SKELETON_IDS = ["CAPEC-457", "CAPEC-94", "CAPEC-125",
                "CVE-2031-10001", "CVE-2031-10002", "CVE-2031-10003"]
# every skeleton of the CAPEC and NVD samples annotated
ANNOTATIONS = {
    "schema": ANNOTATION_SCHEMA,
    "annotations": {aid: {
        "profile": {"Access": "Direct", "Knowledge": 5},
        "channels": ["net"],
    } for aid in SKELETON_IDS},
}

# any JSON value: nested containers, null, bools, ints, floats including
# NaN and +-Infinity, and text including lone surrogates, which JSON
# escapes can spell
TEXT = st.text(st.characters(codec=None))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8)

# not a JSON document: a byte that is not UTF-8, an integer literal past
# the interpreter's 4300-digit limit, and nesting past the recursion limit
UNPARSABLE = {
    "non-utf8": b'\xff{"nodes": []}',
    "int-over-digit-limit": b'{"episode": ' + b"1" * 5000 + b"}",
    "nesting-over-recursion-limit": b"[" * 100_000 + b"]" * 100_000,
}


def spanning_actions(prop, low, high):
    """The fixture's action list with property `prop` at `low` in the
    first action's profile and at `high` in the second's."""
    doc = json.loads(fixture_path("cstr_actions.json").read_text())
    doc["actions"][0]["profile"][prop] = low
    doc["actions"][1]["profile"][prop] = high
    return doc["actions"]


def fixture_list(name, key):
    """A fresh copy of the list `key` of the fixture document `name`."""
    return json.loads(fixture_path(name).read_text())[key]


NODES = fixture_list("cstr_system.json", "nodes")
EDGES = fixture_list("cstr_system.json", "edges")
ACTIONS = fixture_list("cstr_actions.json", "actions")
SCHEMA = fixture_list("cstr_profiles.json", "schema")
PROFILES = fixture_list("cstr_profiles.json", "profiles")
PMF = fixture_list("cstr_profiles.json", "pmf")

# fields and values that put "Basic User"'s Finances 3.4e308 from the first
# action's, while the actions' own span stays finite
ATTACKER_SPAN_OVERFLOWS = (("action-profile-value", "profile-value"),
                           (-1.7e308, 1.7e308))


def run_cli(*argv):
    return main([str(a) for a in argv])


def ingest_annotations(tmp_path, doc):
    """Exit code of `ingest` of the CAPEC and NVD samples with the
    annotations document `doc`."""
    path = tmp_path / "annotations.json"
    path.write_text(json.dumps(doc))
    return run_cli("ingest", "--capec", DATA / "capec_sample.xml",
                   "--cve", DATA / "nvd_sample.json", "--annotations", path,
                   "--out", tmp_path / "fragment.json")


def reading_commands(document, path, out):
    """The CLI invocations that read `path` as a DOCUMENT_FIELDS document."""
    if document == "trace":
        return [("trace", path), ("trace", path, "--dot")]
    if document == "annotations":
        return [("ingest", "--capec", DATA / "capec_sample.xml",
                 "--cve", DATA / "nvd_sample.json", "--annotations", path,
                 "--out", out)]
    return [("ingest", "--cve", path, "--out", out)]


def replaced(doc, keys, value):
    """A copy of `doc` with the value at key path `keys` set to `value`."""
    if not keys:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    return doc


def with_field(cstr_args, tmp_path, field, value):
    """cstr_args with one TYPED_FIELDS or UNKNOWN_KEYS field set to
    `value`, or with each field of a tuple set to the matching value of
    the tuple `value`."""
    if isinstance(field, tuple):
        for one, v in zip(field, value):
            cstr_args = with_field(cstr_args, tmp_path, one, v)
        return cstr_args
    index, keys = (TYPED_FIELDS.get(field) or UNKNOWN_KEYS[field])[:2]
    doc = json.loads(Path(cstr_args[index]).read_text())
    bad = tmp_path / Path(cstr_args[index]).name
    bad.write_text(json.dumps(replaced(doc, keys, value)))
    args = list(cstr_args)
    args[index] = str(bad)
    return args


@pytest.fixture()
def cstr_args(cstr_paths):
    return [str(cstr_paths["system"]), str(cstr_paths["actions"]),
            str(cstr_paths["profiles"])]


class TestValidate:
    def test_valid_fixture_trio(self, cstr_args, capsys):
        assert run_cli("validate", *cstr_args) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_dangling_reference_exits_one(self, cstr_args, tmp_path, capsys):
        doc = json.loads(Path(cstr_args[0]).read_text())
        doc["edges"][0]["to"] = "N9"
        bad = tmp_path / "sys.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("validate", bad, cstr_args[1], cstr_args[2]) == 1
        assert "N9" in capsys.readouterr().out

    def test_missing_file_exits_three(self, cstr_args):
        assert run_cli("validate", "/does/not/exist.json",
                       cstr_args[1], cstr_args[2]) == 3

    def test_missing_actions_with_invalid_profiles_exits_three(
            self, cstr_args, tmp_path):
        args = with_field(cstr_args, tmp_path, "likelihood", 1.5)
        assert run_cli("validate", args[0], tmp_path / "none.json",
                       args[2]) == 3

    def test_no_profiles_exits_one(self, cstr_args, tmp_path, capsys):
        doc = json.loads(Path(cstr_args[2]).read_text())
        doc["profiles"] = []
        del doc["pmf"]
        bad = tmp_path / "profiles.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("validate", cstr_args[0], cstr_args[1], bad) == 1
        assert capsys.readouterr().out.splitlines() == [
            "profiles document defines no profiles",
            "actions not validated: profiles document is invalid"]

    def test_invalid_actions_reported_per_line(self, cstr_args, tmp_path,
                                               capsys):
        doc = json.loads(Path(cstr_args[1]).read_text())
        doc["actions"][0]["success_probability"] = 7
        del doc["actions"][1]["profile"]["Tools"]
        bad = tmp_path / "actions.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("validate", cstr_args[0], bad, cstr_args[2]) == 1
        out = capsys.readouterr().out
        assert "success_probability" in out and "Tools" in out

    def test_string_edge_channels_exit_one(self, cstr_args, tmp_path,
                                           capsys):
        # a bare string would otherwise parse as its characters
        doc = json.loads(Path(cstr_args[0]).read_text())
        entry = next(e for e in doc["edges"] if e.get("entry_point"))
        entry["channels"] = "usb"
        bad = tmp_path / "sys.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("validate", bad, cstr_args[1], cstr_args[2]) == 1
        assert run_cli("simulate", bad, cstr_args[1], cstr_args[2],
                       "--episodes", 5, "--seed", 1,
                       "--out", tmp_path / "r") == 1
        out = capsys.readouterr().out
        assert (f"edge {entry['id']!r} channels must be a list of "
                "strings") in out

    def test_string_action_channels_exit_one(self, cstr_args, tmp_path,
                                             capsys):
        doc = json.loads(Path(cstr_args[1]).read_text())
        action = doc["actions"][0]
        action["channels"] = "usb"
        bad = tmp_path / "actions.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("validate", cstr_args[0], bad, cstr_args[2]) == 1
        assert run_cli("simulate", cstr_args[0], bad, cstr_args[2],
                       "--episodes", 5, "--seed", 1,
                       "--out", tmp_path / "r") == 1
        out = capsys.readouterr().out
        assert (f"action {action['id']!r}: channels must be a list of "
                "strings") in out

    def test_profiles_checked_when_system_invalid(self, cstr_args, tmp_path,
                                                 capsys):
        fields, values = ATTACKER_SPAN_OVERFLOWS
        args = with_field(cstr_args, tmp_path, fields, values)
        doc = json.loads(Path(args[0]).read_text())
        doc["edges"] = [e for e in doc["edges"] if not e.get("entry_point")]
        args[0] = tmp_path / "sys.json"
        args[0].write_text(json.dumps(doc))
        assert run_cli("validate", *args) == 1
        out = capsys.readouterr().out.splitlines()
        assert ("no entry point: at least one entry-point edge is required"
                in out)
        assert ("attacker profile 'Basic User': max - min of property "
                "'Finances' over the action values and this profile's "
                "value must be finite") in out

    @pytest.mark.parametrize("field, value, message", [
        pytest.param("criticality", "high",
                     "property 'Access': criticality must be a finite number",
                     id="criticality-string"),
        pytest.param("criticality", None,
                     "property 'Access': criticality must be a finite number",
                     id="criticality-null"),
        pytest.param("lower", "x",
                     "property 'Knowledge': lower must be a finite number",
                     id="lower-string"),
        pytest.param("profile-value", [1],
                     "profile 'Basic User': property 'Finances' must be a "
                     "finite number", id="profile-value-list"),
        pytest.param("profile-value", float("nan"),
                     "profile 'Basic User': property 'Finances' must be a "
                     "finite number", id="profile-value-nan"),
        pytest.param("profile-value", 10 ** 400,
                     "profile 'Basic User': property 'Finances' must be a "
                     "finite number", id="profile-value-int-beyond-float"),
        pytest.param("likelihood", "x",
                     "pmf likelihood for 'Basic User' must be a finite number",
                     id="likelihood-string"),
        pytest.param("likelihood", True,
                     "pmf likelihood for 'Basic User' must be a finite number",
                     id="likelihood-bool"),
        pytest.param("action-profile-value", float("inf"),
                     "action 'usb-drop': property 'Finances' must be a finite "
                     "number", id="action-profile-value-inf"),
        pytest.param("success-probability", True,
                     "action 'usb-drop': success_probability must be a finite "
                     "number", id="success-probability-bool"),
        pytest.param("node-attribute", [1],
                     "node 'N1' attribute 'os' must be a string",
                     id="node-attribute-list"),
        pytest.param("target-criteria", [1, {"x": None}],
                     "action 'usb-drop': target_criteria 'role' must be a "
                     "list of strings", id="target-criteria-mixed-list"),
        # a non-boolean flag, an unknown key, a non-string id, name or
        # description: each is an error, never a value read some other way
        pytest.param("node-target", "false",
                     "node 'N1' target must be true or false",
                     id="node-target-string"),
        pytest.param("edge-entry-point", "no",
                     "edge 'E1' entry_point must be true or false",
                     id="edge-entry-point-string"),
        pytest.param("edge-attack-vector", 1,
                     "edge 'E1' attack_vector must be true or false",
                     id="edge-attack-vector-int"),
        pytest.param("property-key", 0.5,
                     "property 'Access' has unknown keys: critcality",
                     id="property-misspelt-key"),
        pytest.param("profile-key", 1,
                     "profile 'Basic User' has unknown keys: rank",
                     id="profile-unknown-key"),
        pytest.param("pmf-entry-key", 1,
                     "pmf entry 'Basic User' has unknown keys: weight",
                     id="pmf-entry-unknown-key"),
        pytest.param("action-id", 12,
                     "action #0 must be an object with a string 'id'",
                     id="action-id-int"),
        pytest.param("action-name", None,
                     "action 'usb-drop': name must be a string",
                     id="action-name-null"),
        pytest.param("action-name", 5,
                     "action 'usb-drop': name must be a string",
                     id="action-name-int"),
        pytest.param("action-description", None,
                     "action 'usb-drop': description must be a string",
                     id="action-description-null"),
        pytest.param("action-description", 5,
                     "action 'usb-drop': description must be a string",
                     id="action-description-int"),
        pytest.param("node-name", None, "node 'N1' name must be a string",
                     id="node-name-null"),
        pytest.param("node-name", 5, "node 'N1' name must be a string",
                     id="node-name-int"),
        # 1e-200 squared is 0, so its distance weight divides by zero
        pytest.param("criticality", 1e-200,
                     "property 'Access': criticality must be in [1e-150, 1]",
                     id="criticality-square-underflows"),
        # scaling divides by a property's span, which must not overflow
        pytest.param("property", {"name": "Knowledge", "kind": "bounded-range",
                                  "lower": -1.7e308, "upper": 1.7e308},
                     "property 'Knowledge': upper - lower must be finite",
                     id="bounded-span-overflows"),
        pytest.param("actions", spanning_actions("Finances", -1.7e308,
                                                 1.7e308),
                     "property 'Finances': max - min of the action values "
                     "must be finite", id="unbounded-span-overflows"),
        # the actions' span is finite, but not with a profile's value
        pytest.param(*ATTACKER_SPAN_OVERFLOWS,
                     "attacker profile 'Basic User': max - min of property "
                     "'Finances' over the action values and this profile's "
                     "value must be finite", id="attacker-span-overflows"),
        # a lone surrogate, which UTF-8 cannot encode
        pytest.param("node-name", "\udc80",
                     "node 'N1' name is not valid Unicode text",
                     id="node-name-surrogate"),
        pytest.param("system-key", 1,
                     "unknown top-level keys: \\udc80",
                     id="system-surrogate-key"),
        # structural checks of each document, after the fields parse
        pytest.param("nodes", NODES + [NODES[0]], "duplicate node id 'N1'",
                     id="duplicate-node-id"),
        pytest.param("edges", EDGES + [EDGES[0]], "duplicate edge id 'E1'",
                     id="duplicate-edge-id"),
        pytest.param("nodes", NODES + [{"id": "@external"}],
                     "node id '@external' collides with the external origin",
                     id="node-id-external-origin"),
        pytest.param("nodes", replaced(NODES, (0, "attributes"), {"": "x"}),
                     "node 'N1' has an empty attribute key",
                     id="empty-attribute-key"),
        pytest.param("actions", ACTIONS + [ACTIONS[0]],
                     "duplicate action id 'usb-drop'",
                     id="duplicate-action-id"),
        pytest.param("actions", replaced(ACTIONS, (0, "target_criteria"),
                                         {"": "x"}),
                     "action 'usb-drop': empty criteria key",
                     id="empty-criteria-key"),
        pytest.param("property-name", "", "property name must be non-empty",
                     id="empty-property-name"),
        pytest.param("property-kind", "ranged",
                     "property 'Access': unknown kind 'ranged'",
                     id="unknown-property-kind"),
        pytest.param("property-name", "Finances",
                     "duplicate property names in schema",
                     id="duplicate-property-name"),
        # a field of another kind would be ignored, so it is rejected
        pytest.param("schema", replaced(SCHEMA, (1, "lower"), 5),
                     "property 'Finances': lower applies only to "
                     "bounded-range", id="lower-on-unbounded"),
        pytest.param("schema", replaced(SCHEMA, (1, "lower"), None),
                     "property 'Finances': lower must be a finite number",
                     id="null-lower-on-unbounded"),
        pytest.param("schema", replaced(SCHEMA, (4, "upper"), 5),
                     "property 'Motivation': upper applies only to "
                     "bounded-range", id="upper-on-ordered-set"),
        pytest.param("schema", replaced(SCHEMA, (2, "allowed_values"),
                                        ["Low"]),
                     "property 'Knowledge': allowed_values apply only to set "
                     "kinds", id="allowed-values-on-bounded"),
        pytest.param("schema", replaced(SCHEMA, (1, "allowed_values"), []),
                     "property 'Finances': allowed_values apply only to set "
                     "kinds", id="empty-allowed-values-on-unbounded"),
        pytest.param("schema", replaced(SCHEMA, (0,), {
                         k: v for k, v in SCHEMA[0].items()
                         if k != "allowed_values"}),
                     "property 'Access': set kinds need allowed_values",
                     id="missing-allowed-values-on-set"),
        pytest.param("likelihood", 1.5,
                     "pmf likelihood for 'Basic User' must be in [0, 1]",
                     id="likelihood-above-one"),
        pytest.param("pmf", [dict(e, likelihood=0) for e in PMF],
                     "pmf needs at least one positive likelihood",
                     id="all-zero-pmf"),
        pytest.param("profile-value", "rich",
                     "profile 'Basic User': property 'Finances' needs a "
                     "number", id="label-for-number"),
        pytest.param("profiles", replaced(PROFILES, (0, "values", "Access"), 3),
                     "profile 'Basic User': property 'Access' needs a label",
                     id="number-for-label"),
        pytest.param("profiles", PROFILES + [PROFILES[0]],
                     "duplicate profile name 'Basic User'",
                     id="duplicate-profile-name"),
        # a second entry would add to the profile's weight
        pytest.param("pmf", PMF + [PMF[0]],
                     "pmf lists profile 'Basic User' more than once",
                     id="pmf-profile-twice"),
    ])
    def test_malformed_field_exits_one(self, cstr_args, tmp_path, capsys,
                                       field, value, message):
        args = with_field(cstr_args, tmp_path, field, value)
        assert run_cli("validate", *args) == 1
        assert run_cli("simulate", *args, "--episodes", 5, "--seed", 1,
                       "--out", tmp_path / "r") == 1
        captured = capsys.readouterr()
        assert captured.out.count(message) == 1
        assert captured.err.count(message) == 1
        assert not (tmp_path / "r").exists()


class TestSimulate:
    def test_identical_seeds_identical_artifacts(self, cstr_args, tmp_path,
                                                 capsys):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            code = run_cli("simulate", *cstr_args, "--episodes", 20,
                           "--seed", 7, "--out", out, "--jobs", 1)
            assert code == 0
        for name in ["report.json", "report.csv", "trace_0.json",
                     "trace_0.dot"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_summary_line_is_machine_parseable(self, cstr_args, tmp_path,
                                               capsys):
        assert run_cli("simulate", *cstr_args, "--episodes", 10,
                       "--seed", 3, "--out", tmp_path / "r") == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        fields = dict(kv.split("=", 1) for kv in line.split())
        assert fields["episodes"] == "10"
        assert fields["seed"] == "3"
        assert 0.0 <= float(fields["success_rate"]) <= 1.0

    def test_static_profile_tags_every_trace(self, cstr_args, tmp_path):
        out = tmp_path / "r"
        assert run_cli("simulate", *cstr_args, "--episodes", 5, "--seed", 1,
                       "--profile", "Nation State", "--out", out,
                       "--traces", 5) == 0
        for i in range(5):
            doc = json.loads((out / f"trace_{i}.json").read_text())
            assert doc["profile"] == "Nation State"

    def test_seed_drawn_and_printed_when_missing(self, cstr_args, tmp_path,
                                                 capsys):
        assert run_cli("simulate", *cstr_args, "--episodes", 2,
                       "--out", tmp_path / "r") == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert re.search(r"\bseed=\d+\b", line)

    def test_trace_cap_limits_files(self, cstr_args, tmp_path):
        out = tmp_path / "r"
        assert run_cli("simulate", *cstr_args, "--episodes", 20, "--seed", 2,
                       "--out", out, "--traces", 3) == 0
        assert len(list(out.glob("trace_*.json"))) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["episodes"] == 20  # summaries cover every episode

    def test_validation_failure_blocks_run(self, cstr_args, tmp_path):
        bad = tmp_path / "sys.json"
        bad.write_text('{"nodes": [], "edges": []}')
        out = tmp_path / "r"
        assert run_cli("simulate", bad, cstr_args[1], cstr_args[2],
                       "--episodes", 1, "--seed", 1, "--out", out) == 1
        assert not out.exists()

    def test_profile_checked_whether_drawn_or_not(self, cstr_args,
                                                   tmp_path, capsys):
        # at likelihood 0.001, 20 episodes of seed 1 never draw "Basic User"
        rare = with_field(cstr_args, tmp_path, "likelihood", 0.001)
        out = tmp_path / "r"
        assert run_cli("simulate", *rare, "--episodes", 20, "--seed", 1,
                       "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["profile_counts"]["Basic User"] == 0
        # so the run must reject its profile before any episode draws it
        fields, values = ATTACKER_SPAN_OVERFLOWS
        args = with_field(rare, tmp_path, fields, values)
        bad_out = tmp_path / "bad"
        assert run_cli("simulate", *args, "--episodes", 20, "--seed", 1,
                       "--out", bad_out) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid inputs:")
        assert "attacker profile 'Basic User'" in err
        assert not bad_out.exists()

    def test_missing_input_exits_three(self, cstr_args, tmp_path):
        assert run_cli("simulate", "/none.json", cstr_args[1], cstr_args[2],
                       "--episodes", 1, "--out", tmp_path / "r") == 3

    def test_profile_outside_the_pmf_checked(self, cstr_args, tmp_path,
                                             capsys):
        # no pmf entry names "Outsider", and its Finances put it 3.4e308
        # from the first action's, while the actions' own span stays finite
        outsider = {"name": "Outsider",
                    "values": dict(PROFILES[0]["values"], Finances=-1.7e308)}
        args = with_field(cstr_args, tmp_path,
                          ("profiles", "action-profile-value"),
                          (PROFILES + [outsider], 1.7e308))
        message = ("attacker profile 'Outsider': max - min of property "
                   "'Finances' over the action values and this profile's "
                   "value must be finite")
        assert run_cli("validate", *args) == 1
        out = tmp_path / "r"
        for static in ((), ("--profile", "Insider")):
            assert run_cli("simulate", *args, *static, "--episodes", 5,
                           "--seed", 1, "--out", out) == 1
            assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out.count(message) == 1
        assert captured.err.count(message) == 2

    def test_every_document_problem_listed(self, cstr_args, tmp_path,
                                           capsys):
        args = with_field(cstr_args, tmp_path,
                          ("edge-entry-point", "success-probability"),
                          ("no", True))
        assert run_cli("validate", *args) == 1
        listed = capsys.readouterr().out.splitlines()
        assert "edge 'E1' entry_point must be true or false" in listed
        assert ("action 'usb-drop': success_probability must be a finite "
                "number") in listed
        out = tmp_path / "r"
        assert run_cli("simulate", *args, "--episodes", 5, "--seed", 1,
                       "--out", out) == 1
        assert capsys.readouterr().err == "invalid inputs:\n" + "".join(
            f"  - {line}\n" for line in listed)
        assert not out.exists()

    def test_missing_actions_with_invalid_profiles_exits_three(
            self, cstr_args, tmp_path):
        args = with_field(cstr_args, tmp_path, "likelihood", 1.5)
        assert run_cli("simulate", args[0], tmp_path / "none.json", args[2],
                       "--episodes", 1, "--seed", 1,
                       "--out", tmp_path / "r") == 3

    @pytest.mark.parametrize("option, message", [
        (("--profile", "Nobody"), "unknown attacker profile 'Nobody'"),
        (("--episodes", 0), "episode_count must be >= 1"),
    ], ids=["unknown-profile", "zero-episodes"])
    def test_run_config_failure_exits_one(self, cstr_args, tmp_path, capsys,
                                          option, message):
        out = tmp_path / "r"
        assert run_cli("simulate", *cstr_args, "--seed", 1, *option,
                       "--out", out) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_is_usage_error(self, cstr_args, tmp_path, capsys):
        assert run_cli("simulate", *cstr_args, "--frobnicate",
                       "--out", tmp_path / "r") == 2

    def test_negative_trace_count_is_usage_error(self, cstr_args, tmp_path,
                                                 capsys, monkeypatch):
        def no_run(*args):
            raise AssertionError("an episode ran")
        monkeypatch.setattr("attacksim.cli.run_monte_carlo", no_run)
        out = tmp_path / "r"
        assert run_cli("simulate", *cstr_args, "--episodes", 2, "--seed", 1,
                       "--traces", -1, "--out", out) == 2
        assert capsys.readouterr().err == "error: --traces must be >= 0\n"
        assert not out.exists()

    def test_out_created_before_the_run(self, cstr_args, tmp_path, capsys,
                                        monkeypatch):
        def no_run(*args):
            raise AssertionError("an episode ran")
        monkeypatch.setattr("attacksim.cli.run_monte_carlo", no_run)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_cli("simulate", *cstr_args, "--episodes", 20000,
                       "--seed", 1, "--out", taken) == 3
        assert "File exists" in capsys.readouterr().err
        bad = tmp_path / "sys.json"
        bad.write_text('{"nodes": [], "edges": []}')
        out = tmp_path / "r"
        assert run_cli("simulate", bad, cstr_args[1], cstr_args[2],
                       "--episodes", 20000, "--seed", 1, "--out", out) == 1
        assert not out.exists()

    def test_sole_profile_used_without_pmf(self, cstr_args, tmp_path):
        doc = json.loads(Path(cstr_args[2]).read_text())
        del doc["pmf"]
        doc["profiles"] = [p for p in doc["profiles"]
                           if p["name"] == "Insider"]
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps(doc))
        out = tmp_path / "r"
        assert run_cli("simulate", cstr_args[0], cstr_args[1], profiles,
                       "--episodes", 3, "--seed", 1, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["profile_counts"] == {"Insider": 3}

    def test_profile_without_pmf_required(self, cstr_args, tmp_path, capsys):
        doc = json.loads(Path(cstr_args[2]).read_text())
        del doc["pmf"]
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps(doc))
        assert run_cli("simulate", cstr_args[0], cstr_args[1], profiles,
                       "--episodes", 1, "--out", tmp_path / "r") == 2


class TestIngest:
    def test_skeleton_emission_and_counts(self, tmp_path, capsys):
        out = tmp_path / "skeletons.json"
        assert run_cli("ingest", "--capec", DATA / "capec_sample.xml",
                       "--out", out) == 0
        line = capsys.readouterr().out.strip()
        assert line == "imported=3 annotated=0 skipped=0"
        doc = json.loads(out.read_text())
        assert len(doc["skeletons"]) == 3

    def test_unannotated_skeleton_reported_and_skipped(self, tmp_path,
                                                       capsys):
        doc = {**ANNOTATIONS, "annotations": {
            aid: ann for aid, ann in ANNOTATIONS["annotations"].items()
            if aid != "CAPEC-94"}}
        assert ingest_annotations(tmp_path, doc) == 0
        captured = capsys.readouterr()
        assert captured.err == "unannotated: CAPEC-94\n"
        assert captured.out == "imported=6 annotated=5 skipped=1\n"

    def test_zero_sources_is_usage_error(self, tmp_path):
        assert run_cli("ingest", "--out", tmp_path / "x.json") == 2

    def test_annotated_fragment_validates(self, tmp_path, capsys):
        assert ingest_annotations(tmp_path, ANNOTATIONS) == 0
        assert "annotated=6" in capsys.readouterr().out
        fragment = tmp_path / "fragment.json"

        profiles_doc = {
            "schema": ANNOTATION_SCHEMA,
            "profiles": [{"name": "tester",
                          "values": {"Access": "Direct", "Knowledge": 5}}],
        }
        system_doc = {
            "nodes": [{"id": "A", "target": True}],
            "edges": [{"id": "E1", "from": "@external", "to": "A",
                       "channels": ["net"], "entry_point": True,
                       "attack_vector": True}],
        }
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps(profiles_doc))
        system = tmp_path / "system.json"
        system.write_text(json.dumps(system_doc))
        assert run_cli("validate", system, fragment, profiles) == 0

    @pytest.mark.parametrize("doc, message", [
        pytest.param([1], "annotations document must be a JSON object",
                     id="document-list"),
        pytest.param({"schema": ANNOTATION_SCHEMA,
                      "annotation": ANNOTATIONS["annotations"]},
                     "unknown top-level keys: annotation",
                     id="misspelt-annotations-key"),
        pytest.param(replaced(ANNOTATIONS, ("annotations",), ["CAPEC-457"]),
                     "annotations must be an object", id="annotations-list"),
        pytest.param(replaced(ANNOTATIONS, ANNOTATION, None),
                     "annotation 'CAPEC-457' must be an object",
                     id="annotation-null"),
        pytest.param(replaced(ANNOTATIONS, ANNOTATION + ("severity",), 3),
                     "action 'CAPEC-457' has unknown keys: severity",
                     id="annotation-unknown-key"),
        pytest.param(replaced(ANNOTATIONS, ANNOTATION + ("references",),
                              ["CWE-1"]),
                     "annotation 'CAPEC-457' sets 'references', which comes "
                     "from the catalog", id="annotation-references"),
        pytest.param({"schema": [ANNOTATION_SCHEMA[0],
                                 {"name": "Knowledge", "kind": "bounded-range",
                                  "lower": 10, "upper": 0}],
                      "annotations": ANNOTATIONS["annotations"], "extra": 1},
                     "property 'Knowledge': lower must be < upper",
                     id="unknown-key-and-schema-problem"),
    ])
    def test_malformed_annotations_exit_one(self, tmp_path, capsys, doc,
                                            message):
        assert ingest_annotations(tmp_path, doc) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "fragment.json").exists()

    def test_parse_error_exits_one(self, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_text("<unclosed")
        assert run_cli("ingest", "--capec", bad,
                       "--out", tmp_path / "x.json") == 1

    def test_missing_source_exits_three(self, tmp_path):
        assert run_cli("ingest", "--capec", "/none.xml",
                       "--out", tmp_path / "x.json") == 3


class TestTrace:
    @pytest.fixture()
    def trace_file(self, cstr_args, tmp_path):
        out = tmp_path / "r"
        assert run_cli("simulate", *cstr_args, "--episodes", 3, "--seed", 4,
                       "--out", out) == 0
        return out / "trace_0.json"

    def test_summary_rows_match_steps(self, trace_file, capsys):
        assert run_cli("trace", trace_file, "--summary") == 0
        out = capsys.readouterr().out.strip().splitlines()
        doc = json.loads(Path(trace_file).read_text())
        assert len(out) == 2 + len(doc["decisions"])  # header lines + rows

    def test_array_document_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "trace.json"
        bad.write_text("[]")
        assert run_cli("trace", bad) == 1
        assert capsys.readouterr().err == (
            "trace document must be a JSON object\n")

    def test_dot_output_is_structurally_valid(self, trace_file, capsys):
        assert run_cli("trace", trace_file, "--dot") == 0
        dot = capsys.readouterr().out
        assert dot.startswith("digraph trace {")
        assert dot.rstrip().endswith("}")
        assert dot.count("{") == dot.count("}")

    def test_dot_missing_source_is_external_origin(self, trace_file,
                                                   tmp_path, capsys):
        doc = json.loads(Path(trace_file).read_text())
        assert run_cli("trace", trace_file, "--dot") == 0
        dot = capsys.readouterr().out
        assert '  "@external" [shape=ellipse, style=dashed];' in dot
        for d in doc["decisions"]:
            if d["source"] == "@external":
                del d["source"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(doc))
        assert run_cli("trace", bare, "--dot") == 0
        assert capsys.readouterr().out == dot

    def test_empty_trace_header_only(self, tmp_path, capsys):
        doc = {"episode": 0, "profile": "x", "status": "exhausted",
               "decisions": [], "knowledge": {
                   "known_nodes": [], "known_edges": [],
                   "compromised_nodes": []}}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        assert run_cli("trace", path, "--summary") == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_corrupt_trace_exits_one(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text('{"episode": 1}')
        assert run_cli("trace", path) == 1

    @pytest.mark.parametrize("keys, value, message", [
        pytest.param(("episode",), "x", "episode must be an integer",
                     id="episode-string"),
        pytest.param(DECISION + ("probability",), "high",
                     "decision #0: probability must be a finite number",
                     id="probability-string"),
        pytest.param(DECISION + ("target",), ["N1"],
                     "decision #0: target must be a string",
                     id="target-list"),
        pytest.param(DECISION + ("target",), "\ud800",
                     "decision #0: target is not valid Unicode text",
                     id="target-surrogate"),
        pytest.param(("status",), "banana",
                     "status must be one of target-reached, exhausted, "
                     "step-capped", id="status-unknown"),
        pytest.param(DECISION + ("outcome",), "maybe",
                     "decision #0: outcome must be one of success, failure",
                     id="outcome-unknown"),
        pytest.param(DECISION + ("probability",), 7.5,
                     "decision #0: probability must be in [0, 1]",
                     id="probability-above-one"),
        pytest.param(DECISION + ("chosen",), "no-such-action",
                     "decision #0: chosen is not among its candidates",
                     id="chosen-unknown"),
        pytest.param(CANDIDATE + ("probability",), 7.5,
                     "decision #0: candidate #0: probability must be in "
                     "[0, 1]", id="candidate-probability-above-one"),
        pytest.param(DECISION + ("candidates",), [USB_DROP, USB_DROP],
                     "decision #0: candidate #1: action 'usb-drop' is listed "
                     "twice", id="candidate-action-twice"),
        pytest.param(DECISION + ("target",), "N5",
                     "decision #0: target is not among the known nodes",
                     id="target-unknown"),
        pytest.param(DECISION + ("probability",), 0.5,
                     "decision #0: probability differs from its chosen "
                     "candidate's", id="probability-not-chosen"),
        pytest.param(("knowledge", "compromised_nodes"), ["N5"],
                     "knowledge: compromised node 'N5' is not among the "
                     "known nodes", id="compromised-unknown"),
        pytest.param(DECISION + ("candidates",),
                     [USB_DROP, {"action": "zz", "distance": 1.0,
                                 "score": 1.0, "probability": 1.0}],
                     "decision #0: scores and probabilities are not the ones "
                     "its distances give", id="scores-not-from-distances"),
        pytest.param(DECISION + ("via_edges",), ["ZZ"],
                     "decision #0: via edge 'ZZ' is not among the known "
                     "edges", id="via-edge-unknown"),
        pytest.param(("decisions", 1, "target"), "N2",
                     "decision #1: target was compromised by an earlier "
                     "decision", id="target-compromised-earlier"),
        pytest.param(("knowledge", "compromised_nodes"), [],
                     "knowledge: compromised nodes are not the targets of "
                     "the successful decisions", id="compromised-not-won"),
        pytest.param(("status",), "target-reached",
                     "status target-reached needs a successful last "
                     "decision", id="target-reached-not-won"),
        pytest.param(("episode",), -1, "episode must not be negative",
                     id="episode-negative"),
        pytest.param(DECISION + ("source",), "N5",
                     "decision #0: source 'N5' is neither @external nor "
                     "among the known nodes", id="source-unknown"),
    ])
    @pytest.mark.parametrize("how", ["--summary", "--dot"])
    def test_mistyped_trace_field_exits_one(self, trace_file, tmp_path,
                                            capsys, keys, value, message,
                                            how):
        doc = json.loads(Path(trace_file).read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(replaced(doc, keys, value)))
        assert run_cli("trace", bad, how) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_missing_trace_exits_three(self):
        assert run_cli("trace", "/none.json") == 3


class TestExitCodeContract:
    def test_randomized_bad_inputs_follow_contract(self, tmp_path, capsys):
        rng = Random(33)
        for _ in range(30):
            kind = rng.randrange(3)
            if kind == 0:  # unknown subcommand -> usage
                assert run_cli(f"cmd{rng.randrange(100)}") == 2
            elif kind == 1:  # missing file -> io error
                assert run_cli("validate", f"/{rng.random()}.json",
                               f"/{rng.random()}.json",
                               f"/{rng.random()}.json") == 3
            else:  # garbage json -> validation failure
                bad = tmp_path / "garbage.json"
                bad.write_text("{" * rng.randint(1, 5))
                assert run_cli("trace", bad) == 1

    @pytest.mark.parametrize("content", UNPARSABLE.values(), ids=UNPARSABLE)
    def test_unparsable_file_exits_one(self, cstr_args, tmp_path, capsys,
                                       content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert run_cli("validate", bad, *cstr_args[1:]) == 1
        assert run_cli("trace", bad) == 1
        captured = capsys.readouterr()
        assert f"cannot parse {bad}" in captured.out
        assert f"cannot parse {bad}" in captured.err

    @given(field=st.sampled_from(sorted(TYPED_FIELDS)), value=JSON_VALUES)
    @settings(deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_json_value_in_a_typed_field(self, cstr_args, tmp_path,
                                             field, value):
        args = with_field(cstr_args, tmp_path, field, value)
        code = run_cli("validate", *args)
        assert code in (0, 1)
        if code == 0:  # what validates must also run
            assert run_cli("simulate", *args, "--episodes", 2, "--traces", 2,
                           "--seed", 1, "--out", tmp_path / "r") == 0

    @given(field=st.sampled_from(sorted(
               name for name, (_, _, kind) in TYPED_FIELDS.items() if kind)),
           data=st.data())
    @settings(deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_value_of_another_type_exits_one(self, cstr_args, tmp_path,
                                             field, data):
        declared = JSON_TYPES[TYPED_FIELDS[field][2]]
        value = data.draw(JSON_VALUES.filter(lambda v: not declared(v)))
        args = with_field(cstr_args, tmp_path, field, value)
        assert run_cli("validate", *args) == 1

    @pytest.fixture()
    def documents(self, cstr_args, tmp_path):
        """The unaltered document of each DOCUMENT_FIELDS kind."""
        out = tmp_path / "r"
        assert run_cli("simulate", *cstr_args, "--episodes", 3, "--seed", 4,
                       "--out", out) == 0
        return {
            "trace": json.loads((out / "trace_0.json").read_text()),
            "annotations": ANNOTATIONS,
            "cve": json.loads((DATA / "nvd_sample.json").read_text()),
        }

    @given(field=st.sampled_from(sorted(DOCUMENT_FIELDS)), value=JSON_VALUES)
    @settings(deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_json_value_in_a_read_document(self, documents, tmp_path,
                                               field, value):
        document, keys = DOCUMENT_FIELDS[field]
        bad = tmp_path / f"{document}.json"
        bad.write_text(json.dumps(replaced(documents[document], keys, value)))
        for argv in reading_commands(document, bad, tmp_path / "out.json"):
            assert run_cli(*argv) in (0, 1)
