"""The order in which an episode draws from its random stream.

The harness docstring states it, and the determinism contract fixes it:
one ``random()`` for the PMF profile draw; then, for each decision, one
``randrange`` only when the target is drawn rather than kept, one
``random()`` for the action and one for the outcome; and no draw at all
when ``step`` ends the episode. Episodes of the bundled fixture's PMF
and of generated instances run on a Random that records every draw.
Each draw must be the one this order names, and the value it drew must
give what the record holds.
"""

from random import Random

from hypothesis import given, settings, strategies as st

from attacksim import _kernels, harness
from attacksim.cli import load_inputs
from attacksim.engine import FAILURE, SUCCESS, DecisionContext
from attacksim.harness import SimConfig, episode_seed
from attacksim.profiles import pmf_probabilities

from genrand import random_instance


class RecordingRandom:
    """A stream with only ``random`` and ``randrange``, drawn from a
    seeded Random, that records each draw as (method, result); any other
    draw raises AttributeError. A Random subclass that overrode
    ``random`` would change what its ``randrange`` draws."""

    def __init__(self, seed):
        self._rng = Random(seed)
        self.draws = []

    def random(self):
        u = self._rng.random()
        self.draws.append(("random", u))
        return u

    def randrange(self, n):
        r = self._rng.randrange(n)
        self.draws.append(("randrange", r))
        return r


def run_recorded(ctx, mode, config, i):
    """Episode `i` of the run, on a recording stream, and its draws; the
    trace must equal the one a plain Random of the same seed gives."""
    seed = episode_seed(config.seed, i)
    rng = RecordingRandom(seed)
    trace = harness._run_one(ctx, mode, config, rng, i)
    assert trace == harness._run_one(ctx, mode, config, Random(seed), i)
    return trace, rng


def check_draws(trace, rng, db, pmf=None):
    """The episode's draws against the stated order and its records."""
    kinds = ["random"] if pmf is not None else []
    prev = None
    for rec in trace.records:
        # a failure keeps its target while the target has a candidate left
        kept = (prev is not None and prev.outcome == FAILURE
                and len(prev.action_ids) > 1)
        if kept:
            assert rec.target == prev.target
        else:
            kinds.append("randrange")
        kinds += ["random", "random"]
        prev = rec
    assert [kind for kind, _ in rng.draws] == kinds

    values = [u for kind, u in rng.draws if kind == "random"]
    if pmf is not None:
        u = values.pop(0)
        i = _kernels.weighted_index(pmf_probabilities(pmf), u)
        assert pmf.entries[i][0].name == trace.profile
    for rec, u_action, u_outcome in zip(trace.records, values[::2],
                                        values[1::2]):
        i = _kernels.weighted_index(rec.probabilities, u_action)
        assert rec.action_ids[i] == rec.chosen
        assert ((u_outcome < db.by_id[rec.chosen].success_probability)
                == (rec.outcome == SUCCESS))


def test_fixture_pmf_episodes_draw_in_the_stated_order(cstr_paths):
    system, db, profiles = load_inputs(cstr_paths["system"],
                                       cstr_paths["actions"],
                                       cstr_paths["profiles"])
    ctx = DecisionContext(system, db)
    statuses = set()
    for config in (SimConfig(300, seed=21), SimConfig(50, seed=4,
                                                      max_steps=2)):
        for i in range(config.episode_count):
            trace, rng = run_recorded(ctx, profiles.pmf, config, i)
            check_draws(trace, rng, db, profiles.pmf)
            statuses.add(trace.status)
    assert statuses == {harness.TARGET_REACHED, harness.EXHAUSTED,
                        harness.STEP_CAPPED}


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_generated_episodes_draw_in_the_stated_order(seed):
    system, db, attacker = random_instance(Random(seed), max_actions=40)
    ctx = DecisionContext(system, db)
    for i in range(3):
        trace, rng = run_recorded(ctx, attacker, SimConfig(3, seed=seed), i)
        check_draws(trace, rng, db)
