"""Whole traces of the engine against the reference engine.

The engine's speed comes from its caches: the fresh-node memo, the
candidate table, its stamp and its None entries. `oracle_engine` runs
the same decision cycle with none of them, so every trace
`run_monte_carlo` gives, written as `trace_to_dict` writes it, must
equal the reference engine's: on generated instances with a static
profile or a PMF, capped or uncapped, serial or with two workers; on the
bundled fixture; and on a small instance of the benchmark's grid shape.
The reference engine draws from sorted node lists, so a cache whose
order followed the hash seed would show here under some seed.
"""

import importlib.util
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from attacksim.cli import load_inputs
from attacksim.harness import SimConfig, resolve_mode, run_monte_carlo, trace_to_dict
from attacksim.profiles import AttackerProfile, ProfilePmf, ProfileSet

from genrand import random_instance, random_value
import oracle_engine

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.hashseed


def check_run(system, db, profiles, config):
    """`run_monte_carlo`'s traces against the reference engine's."""
    _, traces = run_monte_carlo(system, db, profiles, config)
    want = oracle_engine.run_episodes(system, db,
                                      resolve_mode(profiles, config), config)
    assert list(map(trace_to_dict, traces)) == list(map(trace_to_dict, want))
    return traces


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), pmf=st.booleans(),
       max_steps=st.sampled_from([None, None, 1, 3]),
       parallelism=st.sampled_from([1, 1, 1, 2]))
def test_generated_traces_match_the_reference_engine(seed, pmf, max_steps,
                                                     parallelism):
    rng = Random(seed)
    system, db, attacker = random_instance(rng, max_actions=30)
    other = AttackerProfile("other", {
        p.name: random_value(rng, p) for p in db.schema})
    profiles = ProfileSet(
        db.schema, {p.name: p for p in (attacker, other)},
        ProfilePmf(((attacker, 0.25), (other, 0.75))))
    config = SimConfig(6, seed=seed, profile=None if pmf else attacker.name,
                       max_steps=max_steps, parallelism=parallelism)
    check_run(system, db, profiles, config)


def test_fixture_traces_match_the_reference_engine(cstr_paths):
    system, db, profiles = load_inputs(cstr_paths["system"],
                                       cstr_paths["actions"],
                                       cstr_paths["profiles"])
    traces = check_run(system, db, profiles, SimConfig(150, seed=5))
    # retries and retargets both occur
    assert any(len({r.target for r in t.records}) < t.steps for t in traces)
    assert any(len({r.target for r in t.records}) > 1 for t in traces)


@pytest.fixture(scope="module")
def small_grid(tmp_path_factory):
    """A 9-node, 40-action instance of perfbench's grid shape, built by its
    generator (imported from its file, a private copy, and only read)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_instances", ROOT / "perfbench" / "instances.py")
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    instances.SHAPES["grid"] = dict(nodes=9, width=3, entries=2, actions=40,
                                    success=(0.3, 1.0))
    paths = instances.write_instance(instances.generate("grid", 0),
                                     tmp_path_factory.mktemp("grid"))
    return load_inputs(paths["system"], paths["actions"], paths["profiles"])


@pytest.mark.parametrize("max_steps", [None, 4])
def test_small_grid_traces_match_the_reference_engine(small_grid, max_steps):
    system, db, profiles = small_grid
    traces = check_run(system, db, profiles,
                       SimConfig(30, seed=9, profile="attacker",
                                 max_steps=max_steps))
    assert sum(t.steps for t in traces) > 30
