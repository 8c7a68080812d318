"""Seeded output pinned byte for byte.

``data/seeded_output_sha256.json`` holds the sha256 of

- every file ``attacksim simulate`` writes for the bundled fixture with
  ``--seed 42 --episodes 3000 --traces 50``, the same at ``--jobs`` 1
  and 2;
- every trace ``save_trace`` writes for a generated instance
  (``genrand.random_instance``) on which a large share of decisions
  retry their target after a failed attempt; the share is recorded with
  the digests and checked too, so the instance keeps exercising retries.

A change that moves a seeded float, an RNG draw or one written byte fails
here. Re-record the file only for an intended change of seeded output.
"""

import hashlib
import json
from pathlib import Path
from random import Random

import pytest

from attacksim.cli import main
from attacksim.data import fixture_path
from attacksim.harness import SimConfig, run_monte_carlo, save_trace
from attacksim.profiles import ProfileSet
from genrand import random_instance

pytestmark = pytest.mark.hashseed

GOLDEN = json.loads((Path(__file__).parent / "data" / "seeded_output_sha256.json")
                    .read_text(encoding="utf-8"))


def file_digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def simulate_fixture(out: Path, jobs: int) -> int:
    inputs = [str(fixture_path(f"cstr_{name}.json"))
              for name in ("system", "actions", "profiles")]
    return main(["simulate", *inputs, *GOLDEN["fixture"]["args"],
                 "--jobs", str(jobs), "--out", str(out)])


def retry_instance_traces(out: Path):
    """Run the recorded generated instance and save every trace in `out`."""
    spec = GOLDEN["retry_instance"]
    system, db, attacker = random_instance(Random(spec["instance_seed"]),
                                           max_actions=spec["max_actions"])
    profiles = ProfileSet(db.schema, {attacker.name: attacker})
    _, traces = run_monte_carlo(system, db, profiles, SimConfig(
        spec["episodes"], seed=spec["seed"], profile=attacker.name))
    for trace in traces:
        save_trace(trace, out / f"trace_{trace.index}.json")
    return traces


def retries(traces) -> int:
    """Decisions that keep the target of a failed attempt just before."""
    return sum(prev.outcome == "failure" and cur.target == prev.target
               for t in traces for prev, cur in zip(t.records, t.records[1:]))


@pytest.mark.parametrize("jobs", GOLDEN["fixture"]["jobs"])
def test_fixture_simulate_bytes(tmp_path, jobs):
    assert simulate_fixture(tmp_path, jobs) == 0
    assert file_digests(tmp_path) == GOLDEN["fixture"]["sha256"]


def test_retry_heavy_instance_trace_bytes(tmp_path):
    spec = GOLDEN["retry_instance"]
    traces = retry_instance_traces(tmp_path)
    assert sum(len(t.records) for t in traces) == spec["decisions"]
    assert retries(traces) == spec["retries"]
    assert file_digests(tmp_path) == spec["sha256"]
