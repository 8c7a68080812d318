"""DecisionContext's column-by-column build against the reference build.

`oracle_context` builds the context's static fields one action, value
and row at a time. The engine's fields must equal them, and the
attacker's scaled profile and its distance to every action must be the
same floats bit for bit (compared as `float.hex`, so 0.0 and -0.0
differ): on generated instances, on the bundled fixture, and on the
benchmark's grid and wide instances, written by perfbench/instances.py,
which is only read here.
"""

import importlib.util
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from attacksim.cli import load_inputs
from attacksim.engine import DecisionContext

from genrand import random_instance
import oracle_context

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.hashseed


def exact(values):
    """Floats as hex; labels as they are."""
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


def check_context(system, db, attackers):
    ctx = DecisionContext(system, db)
    ref = oracle_context.reference_context(system, db)
    assert {aid: exact(p) for aid, p in ctx.action_profiles.items()} == {
        aid: exact(p) for aid, p in ref["action_profiles"].items()}
    assert ctx.inv_beta_sq == ref["inv_beta_sq"]
    assert ctx.unordered_mask == ref["unordered_mask"]
    assert ctx.action_mask == ref["action_mask"]
    assert ctx.actions_for == ref["actions_for"]
    for attacker in attackers:
        theta, dist = ctx.attacker_theta(attacker)
        want_theta, want = oracle_context.reference_distances(db, attacker,
                                                              ref)
        assert exact(theta) == exact(want_theta)
        assert list(dist) == list(want)
        assert exact(dist.values()) == exact(want.values())


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_generated_context_equals_reference(seed):
    system, db, attacker = random_instance(Random(seed), max_actions=30)
    check_context(system, db, [attacker])


def test_fixture_context_equals_reference(cstr_paths):
    system, db, profiles = load_inputs(cstr_paths["system"],
                                       cstr_paths["actions"],
                                       cstr_paths["profiles"])
    check_context(system, db, profiles.profiles.values())


@pytest.fixture(scope="module")
def instances():
    spec = importlib.util.spec_from_file_location(
        "perfbench_instances", ROOT / "perfbench" / "instances.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("shape", ["grid", "wide"])
def test_benchmark_context_equals_reference(instances, shape, tmp_path):
    paths = instances.write_instance(instances.generate(shape, 0), tmp_path)
    system, db, profiles = load_inputs(paths["system"], paths["actions"],
                                       paths["profiles"])
    check_context(system, db, profiles.profiles.values())
