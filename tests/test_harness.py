import functools
import importlib.util
import json
import math
import pickle
from concurrent.futures import Future, ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from attacksim import _kernels, harness, model
from attacksim.actions import Action, ActionDatabase, TargetCriteria, load_action_db
from attacksim.engine import (
    AttackState,
    CandidateScore,
    DecisionContext,
    DecisionRecord,
    distance,
    filter_valid,
    probabilities,
    sample_action,
    scores,
    select_target,
)
from attacksim.errors import ValidationFailure
from attacksim.harness import (
    EXHAUSTED,
    STEP_CAPPED,
    TARGET_REACHED,
    SimConfig,
    aggregate,
    episode_seed,
    export_report,
    export_trace_dot,
    load_trace,
    report_from_dict,
    report_to_csv,
    report_to_dict,
    run_monte_carlo,
    save_trace,
    trace_from_dict,
    trace_to_dict,
    wilson_ci95,
)
from attacksim.model import (
    CpsSystem,
    EXTERNAL_ORIGIN,
    Edge,
    Node,
    initial_knowledge,
    load_system,
    reveal_on_compromise,
)
from attacksim.profiles import (
    AttackerProfile,
    ProfileSchema,
    ProfileSet,
    PropertySchema,
    load_profiles,
    sample_profile,
)

from analytic_fixture import analytic_fixture
from genrand import random_instance

ROOT = Path(__file__).resolve().parents[1]


def load_cstr(cstr_paths):
    profiles = load_profiles(cstr_paths["profiles"])
    system = load_system(cstr_paths["system"])
    db = load_action_db(cstr_paths["actions"], profiles.schema)
    return system, db, profiles


def one_shot_fixture(success=1.0):
    """Target is an entry node with a single always-matching action."""
    schema = ProfileSchema([PropertySchema("Skill", "bounded-range",
                                           lower=0, upper=10)])
    system = CpsSystem(
        nodes=[Node("A", is_target=True)],
        edges=[Edge("E1", EXTERNAL_ORIGIN, "A", frozenset({"net"}),
                    is_attack_vector=True, is_entry_point=True)],
    )
    db = ActionDatabase([Action(id="hit", name="hit",
                                profile={"Skill": 5},
                                channels=frozenset({"net"}),
                                success_probability=success)], schema)
    attacker = AttackerProfile("solo", {"Skill": 5})
    return system, db, ProfileSet(schema=schema,
                                  profiles={"solo": attacker}, pmf=None)


class TestRunEpisode:
    def test_one_step_target_reached(self):
        system, db, ps = one_shot_fixture()
        trace = harness._run_one(DecisionContext(system, db),
                                 ps.profiles["solo"], SimConfig(1, seed=0),
                                 Random(0), 0)
        assert trace.status == TARGET_REACHED
        assert trace.steps == 1
        assert trace.records[0].chosen == "hit"

    def test_no_matching_actions_is_zero_decision_exhaustion(self):
        system, _, ps = one_shot_fixture()
        schema = ps.schema
        db = ActionDatabase([Action(id="miss", profile={"Skill": 5},
                                    target_criteria=TargetCriteria(
                                        {"kind": frozenset({"nothere"})}),
                                    channels=frozenset({"net"}))], schema)
        trace = harness._run_one(DecisionContext(system, db),
                                 ps.profiles["solo"], SimConfig(1, seed=0),
                                 Random(0), 0)
        assert trace.status == EXHAUSTED
        assert trace.steps == 0

    def test_step_cap_reported(self):
        system, db, ps = one_shot_fixture(success=0.0)
        config = SimConfig(1, seed=0, max_steps=1)
        trace = harness._run_one(DecisionContext(system, db),
                                 ps.profiles["solo"], config, Random(0), 0)
        assert trace.status == STEP_CAPPED
        assert trace.steps == 1

    def test_case_study_trace_matches_scripted_replay(self, cstr_paths):
        system, db, profiles = load_cstr(cstr_paths)
        seed = 2024
        trace = harness._run_one(DecisionContext(system, db), profiles.pmf,
                                 SimConfig(1, seed=seed),
                                 Random(episode_seed(seed, 0)), 0)
        decisions, knowledge, name = _scripted_replay(
            system, db, profiles, seed)
        assert trace.profile == name
        assert [(r.target, r.chosen, r.outcome) for r in trace.records] == \
            [(t, c, o) for t, c, o, _ in decisions]
        for rec, (_, _, _, probs) in zip(trace.records, decisions):
            assert tuple(c.probability for c in rec.candidates) == probs
        assert trace.knowledge == knowledge

    def test_candidates_zip_the_columns(self, cstr_paths):
        system, db, profiles = load_cstr(cstr_paths)
        _, traces = run_monte_carlo(system, db, profiles,
                                    SimConfig(20, seed=23))
        ctx = DecisionContext(system, db)
        beta = [p.criticality for p in db.schema]
        for trace in traces:
            theta, _ = ctx.attacker_theta(profiles.profiles[trace.profile])
            for rec in trace.records:
                ids = rec.action_ids
                d = [distance(theta, ctx.action_profiles[a], beta)
                     for a in ids]
                s = scores(d)
                p = probabilities(s)
                assert rec.candidates == tuple(
                    CandidateScore(a, d[i], s[i], p[i])
                    for i, a in enumerate(ids))


def _scripted_replay(system, db, profiles, seed):
    """Manual decision loop driving the public ops; independent of step()."""
    rng = Random(episode_seed(seed, 0))
    attacker = sample_profile(profiles.pmf, rng)
    state = AttackState(DecisionContext(system, db), attacker)
    beta = [p.criticality for p in db.schema]
    decisions = []
    while True:
        target = select_target(state, rng)
        if target is None:
            break
        cands = filter_valid(state, target)
        d = [distance(state.theta, state.ctx.action_profiles[a], beta)
             for a in cands]
        p = probabilities(scores(d))
        chosen = sample_action(cands, p, rng)
        ok = rng.random() < db.by_id[chosen].success_probability
        state.attempted.setdefault(target, set()).add(chosen)
        if ok:
            state.succeeded.setdefault(target, set()).add(chosen)
            state.knowledge = reveal_on_compromise(state.knowledge, system,
                                                   target)
            state.current_target = None
        else:
            state.current_target = target
        decisions.append((target, chosen, "success" if ok else "failure",
                          tuple(p)))
        if ok and system.node_by_id[target].is_target:
            break
    return decisions, state.knowledge, attacker.name


class TestRunMonteCarlo:
    def test_single_episode_report_matches_trace(self):
        system, db, ps = one_shot_fixture()
        report, traces = run_monte_carlo(system, db, ps,
                                         SimConfig(1, seed=9, profile="solo"))
        assert report.episodes == 1
        assert report.successes == (traces[0].status == TARGET_REACHED)
        assert report.profile_counts == {"solo": 1}
        assert report.action_counts["hit"] == traces[0].steps

    def test_parallel_matches_serial(self, cstr_paths):
        system, db, profiles = load_cstr(cstr_paths)
        serial = run_monte_carlo(system, db, profiles,
                                 SimConfig(60, seed=5, parallelism=1))
        parallel = run_monte_carlo(system, db, profiles,
                                   SimConfig(60, seed=5, parallelism=4))
        assert report_to_dict(serial[0]) == report_to_dict(parallel[0])
        assert [trace_to_dict(t) for t in serial[1]] == \
            [trace_to_dict(t) for t in parallel[1]]

    def test_pmf_counts_concentrate(self, cstr_paths):
        system, db, profiles = load_cstr(cstr_paths)
        report, _ = run_monte_carlo(system, db, profiles,
                                    SimConfig(400, seed=3))
        assert sum(report.profile_counts.values()) == 400
        assert set(report.profile_counts) == set(profiles.profiles)

    def test_unknown_profile_rejected(self):
        system, db, ps = one_shot_fixture()
        with pytest.raises(ValidationFailure, match="unknown attacker"):
            run_monte_carlo(system, db, ps, SimConfig(1, 0, profile="ghost"))

    def test_missing_pmf_rejected(self):
        system, db, ps = one_shot_fixture()
        with pytest.raises(ValidationFailure, match="no PMF"):
            run_monte_carlo(system, db, ps, SimConfig(1, 0))

    def test_bad_config_rejected(self):
        system, db, ps = one_shot_fixture()
        with pytest.raises(ValidationFailure, match="episode_count"):
            run_monte_carlo(system, db, ps, SimConfig(0, 0, profile="solo"))

    @pytest.mark.parametrize("config, message", [
        (SimConfig(0, 0, profile="solo"), "episode_count must be >= 1"),
        (SimConfig(1, 0, profile="solo", max_steps=0),
         "max_steps must be >= 1 when set"),
        (SimConfig(1, 0, profile="solo", parallelism=0),
         "parallelism must be >= 1"),
    ])
    def test_config_bound_rejected(self, config, message):
        system, db, ps = one_shot_fixture()
        with pytest.raises(ValidationFailure) as exc:
            run_monte_carlo(system, db, ps, config)
        assert exc.value.errors == [message]

    def test_workers_capped_at_cpu_count(self, cstr_paths, monkeypatch):
        sizes = []

        class InlinePool:
            """Runs each batch in this process; records the pool size."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        system, db, profiles = load_cstr(cstr_paths)
        serial = run_monte_carlo(system, db, profiles, SimConfig(60, seed=5))

        def wide_run():
            return run_monte_carlo(system, db, profiles,
                                   SimConfig(60, seed=5, parallelism=5000))

        # the affinity set, not the machine's count, caps the pool
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: {0, 2, 5}, raising=False)
        wide = wide_run()
        assert sizes == [3]
        assert report_to_dict(wide[0]) == report_to_dict(serial[0])
        # one allowed CPU runs serially, with no pool
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: {1}, raising=False)
        wide = wide_run()
        assert sizes == [3]
        assert report_to_dict(wide[0]) == report_to_dict(serial[0])
        # without an affinity call the machine's count caps it
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        wide = wide_run()
        assert sizes == [3, 3]
        assert report_to_dict(wide[0]) == report_to_dict(serial[0])

    def test_one_context_checks_every_profile_first(self, cstr_paths,
                                                    monkeypatch):
        class PicklingPool:
            """Runs each batch in this process on a pickled copy of its
            arguments, as a worker process receives them."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*pickle.loads(pickle.dumps(args))))
                return future

        events = []
        real_context, real_run = harness.DecisionContext, harness._run_one
        real_theta = DecisionContext.attacker_theta
        monkeypatch.setattr(harness, "ProcessPoolExecutor", PicklingPool)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(harness, "DecisionContext", lambda *a: (
            events.append("context") or real_context(*a)))
        monkeypatch.setattr(DecisionContext, "attacker_theta",
                            lambda ctx, p: (events.append(p.name)
                                            or real_theta(ctx, p)))
        monkeypatch.setattr(harness, "_run_one", lambda *a: (
            events.append("episode") or real_run(*a)))
        system, db, profiles = load_cstr(cstr_paths)
        report, _ = run_monte_carlo(system, db, profiles,
                                    SimConfig(30, seed=5, parallelism=2))
        names = [p.name for p, _ in profiles.pmf.entries]
        assert events[:len(names) + 2] == ["context", *names, "episode"]
        assert events.count("context") == 1
        assert events.count("episode") == 30
        monkeypatch.undo()
        serial, _ = run_monte_carlo(system, db, profiles, SimConfig(30, seed=5))
        assert report_to_dict(report) == report_to_dict(serial)

    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_jobs_reproduce_serial_under_start_method(self, cstr_paths,
                                                      monkeypatch, method):
        entered = []

        class Pool(ProcessPoolExecutor):
            def __enter__(self):
                entered.append(method)
                return super().__enter__()

        system, db, profiles = load_cstr(cstr_paths)
        serial = run_monte_carlo(system, db, profiles, SimConfig(400, seed=9))
        monkeypatch.setattr(harness, "ProcessPoolExecutor", functools.partial(
            Pool, mp_context=get_context(method)))
        # with one CPU the run would stay serial and never use the pool
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        report, traces = run_monte_carlo(
            system, db, profiles, SimConfig(400, seed=9, parallelism=2))
        assert entered == [method]
        assert report_to_dict(report) == report_to_dict(serial[0])
        assert ([trace_to_dict(t) for t in traces]
                == [trace_to_dict(t) for t in serial[1]])

    def test_system_validated_once_per_run(self, cstr_paths, monkeypatch):
        system, db, profiles = load_cstr(cstr_paths)
        calls = []
        real = model.validate_system
        monkeypatch.setattr(model, "validate_system",
                            lambda s: calls.append(s) or real(s))
        run_monte_carlo(system, db, profiles, SimConfig(50, seed=2))
        assert calls == [system]

    def test_unbounded_ranges_computed_once_per_database(self, cstr_paths,
                                                         monkeypatch):
        # validation, action scaling and every profile check share them
        calls = []
        real = ActionDatabase.unbounded_ranges.func
        monkeypatch.setattr(ActionDatabase.unbounded_ranges, "func",
                            lambda db: calls.append(db) or real(db))
        system, db, profiles = load_cstr(cstr_paths)
        run_monte_carlo(system, db, profiles, SimConfig(20, seed=2))
        assert calls == [db]

    def test_distances_computed_once_per_profile(self, cstr_paths,
                                                 monkeypatch):
        system, db, profiles = load_cstr(cstr_paths)
        calls = []
        real = _kernels.profile_distances
        monkeypatch.setattr(_kernels, "profile_distances",
                            lambda *a: calls.append(a) or real(*a))
        report, _ = run_monte_carlo(system, db, profiles,
                                    SimConfig(200, seed=2))
        sampled = [name for name, n in report.profile_counts.items() if n]
        assert len(sampled) > 1
        assert len(calls) == len(sampled)

    def test_trace_knowledge_replays_from_decisions(self, cstr_paths):
        system, db, profiles = load_cstr(cstr_paths)
        _, traces = run_monte_carlo(system, db, profiles,
                                    SimConfig(40, seed=11))
        for trace in traces:
            k = initial_knowledge(system)
            for rec in trace.records:
                if rec.outcome == "success":
                    k = reveal_on_compromise(k, system, rec.target)
            assert k == trace.knowledge


class TestAggregate:
    def test_entry_point_attribution(self):
        system, db, ps = one_shot_fixture()
        _, traces = run_monte_carlo(system, db, ps,
                                    SimConfig(5, seed=1, profile="solo"))
        report = aggregate(traces, system, db, ["solo"])
        assert report.entry_point_counts == {"E1": 5}
        assert report.entry_point_frequencies == {"E1": 1.0}

    def test_mean_median_steps(self):
        system, db, ps = one_shot_fixture()
        report, _ = run_monte_carlo(system, db, ps,
                                    SimConfig(3, seed=2, profile="solo"))
        assert report.mean_steps_to_success == 1
        assert report.median_steps_to_success == 1

    def test_no_successes_yields_null_steps(self):
        system, db, ps = one_shot_fixture(success=0.0)
        report, _ = run_monte_carlo(system, db, ps,
                                    SimConfig(3, seed=2, profile="solo"))
        assert report.successes == 0
        assert report.mean_steps_to_success is None
        assert report.median_steps_to_success is None

    def test_frequencies_in_unit_interval(self, cstr_paths):
        system, db, profiles = load_cstr(cstr_paths)
        report, _ = run_monte_carlo(system, db, profiles,
                                    SimConfig(100, seed=17))
        for table in (report.action_frequencies,
                      report.node_compromise_frequencies,
                      report.entry_point_frequencies):
            for v in table.values():
                assert 0.0 <= v <= 1.0

    def test_wilson_ci_brackets_estimate(self):
        lo, hi = wilson_ci95(50, 100)
        assert lo < 0.5 < hi
        assert wilson_ci95(0, 10)[0] == 0.0
        assert wilson_ci95(10, 10)[1] == 1.0
        assert wilson_ci95(0, 0) == (0.0, 1.0)


class TestEpisodeSeed:
    def test_stable_and_distinct(self):
        assert episode_seed(7, 0) == episode_seed(7, 0)
        assert episode_seed(7, 0) != episode_seed(7, 1)
        assert episode_seed(7, 0) != episode_seed(8, 0)


TEXT = st.text(st.characters(codec=None), max_size=6)


@st.composite
def decisions(draw):
    candidates = draw(st.lists(st.tuples(TEXT, st.floats()), max_size=4))
    ids, d = tuple(zip(*candidates)) or ((),) * 2
    return DecisionRecord(
        target=draw(TEXT), action_ids=ids, distances=d,
        chosen=draw(TEXT), chosen_name=draw(TEXT),
        probability=draw(st.floats()), outcome=draw(TEXT),
        source=draw(TEXT), via_edges=tuple(draw(st.lists(TEXT, max_size=3))))


TRACES = st.builds(
    harness.EpisodeTrace,
    index=st.integers(0, 10**6),
    profile=TEXT,
    records=st.lists(decisions(), max_size=3).map(tuple),
    status=TEXT,
    knowledge=st.builds(
        model.CpsKnowledge,
        **{key: st.frozensets(TEXT, max_size=3) for key in (
            "known_nodes", "known_edges", "compromised_nodes")}),
)


# a candidate that decision #0 of the fixture traces read back here can
# list: each chooses usb-drop, its only candidate, at probability 1.0
USB_DROP = {"action": "usb-drop", "distance": 1.0, "score": 1.0,
            "probability": 1.0}


def writer_trace(ids=("a1", "a2"), value=0.25, records=2, distances=None,
                 record_distances=None):
    """A trace of `records` decisions whose candidates are `ids`, every
    distance and probability `value` unless `distances` gives every
    decision's distances or `record_distances` gives one tuple of
    distances per decision (and so the number of decisions); via_edges
    and compromised_nodes are empty."""
    n = len(ids)
    if record_distances is None:
        record_distances = ((value,) * n if distances is None
                            else distances,) * records
    return harness.EpisodeTrace(
        index=3, profile="p", records=tuple(DecisionRecord(
            target="N1", action_ids=ids, distances=d,
            chosen="a1", chosen_name="A one",
            probability=value, outcome="failure", source=EXTERNAL_ORIGIN)
            for d in record_distances),
        status=EXHAUSTED,
        knowledge=model.CpsKnowledge(known_nodes=frozenset({"N1", "N2"}),
                                     known_edges=frozenset({"E1"}),
                                     compromised_nodes=frozenset()))


# wide-4x2000's size of decision: 2000 candidates, the second decision
# keeping half of the first one's distances, zeros among both; negative
# distances in the first pair, -0.0 as the only sign in the second
WIDE_IDS = tuple(f"a{i}" for i in range(2000))
WIDE_DISTANCES = (tuple(i % 7 / 3 for i in range(2000)),
                  tuple(i % 7 / 3 if i % 2 else -(i % 5 / 4)
                        for i in range(2000)))
WIDE_UNSIGNED = (WIDE_DISTANCES[0],
                 tuple(i % 7 / 3 if i % 2 else i % 5 / 4 or -0.0
                       for i in range(2000)))


class TestTraceSerialization:
    def test_round_trip(self, cstr_paths, tmp_path):
        system, db, profiles = load_cstr(cstr_paths)
        _, traces = run_monte_carlo(system, db, profiles,
                                    SimConfig(3, seed=21))
        for trace in traces:
            path = tmp_path / f"t{trace.index}.json"
            save_trace(trace, path)
            clone = load_trace(path)
            assert trace_to_dict(clone) == trace_to_dict(trace)

    def test_fixture_traces_save_and_load_unchanged(self, cstr_paths,
                                                    tmp_path):
        system, db, profiles = load_cstr(cstr_paths)
        _, traces = run_monte_carlo(system, db, profiles,
                                    SimConfig(50, seed=22))
        path = tmp_path / "trace.json"
        for trace in traces:
            save_trace(trace, path)
            assert path.read_bytes() == json.dumps(
                trace_to_dict(trace), indent=2).encode("ascii")
            assert load_trace(path) == trace

    @settings(max_examples=200, deadline=None)
    @given(trace=TRACES)
    @example(trace=writer_trace())
    @example(trace=writer_trace(ids=('a"b', "c\\d", "\u00e9\u4e2d\U0001f600",
                                     "\udc80", "\n\t")))
    @example(trace=writer_trace(records=0))
    @example(trace=writer_trace(ids=()))
    @example(trace=writer_trace(value=math.nan))
    @example(trace=writer_trace(value=math.inf))
    @example(trace=writer_trace(value=-math.inf))
    @example(trace=writer_trace(value=1e308))
    @example(trace=writer_trace(value=-1e308))
    @example(trace=writer_trace(ids=("a1", "a2", "a3"),
                                distances=(0.0, -0.0, 0.0)))
    @example(trace=writer_trace(distances=(1, 1.0)))
    # one action id in two decisions of a trace: two nonzero distances,
    # 0.0 then -0.0, 1.0 then 1, a decision of one candidate, and
    # decisions of 2000
    @example(trace=writer_trace(record_distances=((0.5, 2.0), (0.75, 2.0))))
    @example(trace=writer_trace(record_distances=((0.0, 0.5), (-0.0, 0.5))))
    @example(trace=writer_trace(record_distances=((1.0, 0.5), (1, 0.5))))
    @example(trace=writer_trace(ids=("a1",), record_distances=((0.5,),) * 2))
    @example(trace=writer_trace(ids=WIDE_IDS, record_distances=WIDE_DISTANCES))
    @example(trace=writer_trace(ids=WIDE_IDS, record_distances=WIDE_UNSIGNED))
    def test_writer_matches_json_dumps(self, tmp_path_factory, trace):
        """A trace of finite numbers and no negative distance is written as
        json.dumps lays it out, its scores and probabilities derived from
        its distances and all finite; one that json can only spell with
        NaN or Infinity, or that has a negative distance, which no loader
        accepts, raises, writing nothing. 1e308 overflows a sum of the
        values but is finite itself. The writer builds a candidate's text
        up to its score once per (action id, distance) pair, in one table
        that every call of the process shares, so the examples also meet
        heads that earlier ones left; yet an id whose distance is 0.0 in
        one decision and -0.0 in another, or 1.0 and then 1, which
        compare equal, keeps each decision's own spelling."""
        path = tmp_path_factory.getbasetemp() / "writer.json"
        path.unlink(missing_ok=True)
        numbers = [x for r in trace.records for x in (r.probability,
                                                      *r.distances)]
        if not all(map(math.isfinite, numbers)):
            problem = "non-finite number"
        elif any(x < 0.0 for r in trace.records for x in r.distances):
            problem = "negative distance"
        else:
            expected = json.dumps(trace_to_dict(trace), indent=2,
                                  allow_nan=False)
            save_trace(trace, path)
            assert path.read_bytes() == expected.encode("ascii")
            return
        with pytest.raises(ValueError, match=problem):
            save_trace(trace, path)
        assert not path.exists()

    def test_corrupt_trace_rejected(self):
        with pytest.raises(ValidationFailure, match="corrupt"):
            trace_from_dict({"episode": 1})

    @pytest.mark.parametrize("keys, value, message", [
        (("episode",), "x", "episode must be an integer"),
        (("episode",), 1.5, "episode must be an integer"),
        (("episode",), True, "episode must be an integer"),
        (("profile",), 3, "profile must be a string"),
        (("decisions",), {}, "decisions must be a list"),
        (("decisions", 0), [], "decision #0 must be an object"),
        (("decisions", 0, "target"), ["N1"],
         "decision #0: target must be a string"),
        (("decisions", 0, "probability"), "high",
         "decision #0: probability must be a finite number"),
        (("decisions", 0, "candidates"), None,
         "decision #0: candidates must be a list"),
        (("decisions", 0, "candidates", 0, "score"), None,
         "decision #0: candidate #0: score must be a finite number"),
        (("decisions", 0, "via_edges"), "E1",
         "decision #0: via_edges must be a list of strings"),
        (("knowledge", "known_nodes"), "N1",
         "knowledge: known_nodes must be a list of strings"),
        (("decisions", 0, "candidates", 0), 5,
         "decision #0: candidate #0 must be an object"),
        (("status",), "banana",
         "status must be one of target-reached, exhausted, step-capped"),
        (("status",), "\ud800", "status is not valid Unicode text"),
        (("decisions", 0, "outcome"), "maybe",
         "decision #0: outcome must be one of success, failure"),
        (("decisions", 0, "outcome"), 1,
         "decision #0: outcome must be a string"),
        (("decisions", 0, "probability"), 7.5,
         "decision #0: probability must be in [0, 1]"),
        (("decisions", 0, "probability"), -1e-9,
         "decision #0: probability must be in [0, 1]"),
        (("decisions", 0, "chosen"), "no-such-action",
         "decision #0: chosen is not among its candidates"),
        (("decisions", 0, "chosen"), None,
         "decision #0: chosen must be a string"),
        (("decisions", 0, "candidates", 0, "probability"), 7.5,
         "decision #0: candidate #0: probability must be in [0, 1]"),
        (("decisions", 0, "candidates"), [USB_DROP, USB_DROP],
         "decision #0: candidate #1: action 'usb-drop' is listed twice"),
        (("decisions", 0, "target"), "N5",
         "decision #0: target is not among the known nodes"),
        (("decisions", 0, "probability"), 0.5,
         "decision #0: probability differs from its chosen candidate's"),
        (("knowledge", "compromised_nodes"), ["N5"],
         "knowledge: compromised node 'N5' is not among the known nodes"),
        (("decisions", 0, "candidates"),
         [USB_DROP, {"action": "zz", "distance": 1.0, "score": 1.0,
                     "probability": 1.0}],
         "decision #0: scores and probabilities are not the ones its "
         "distances give"),
        (("decisions", 0, "via_edges"), ["ZZ"],
         "decision #0: via edge 'ZZ' is not among the known edges"),
        (("decisions", 1, "target"), "N6",
         "decision #1: target was compromised by an earlier decision"),
        (("knowledge", "compromised_nodes"), [],
         "knowledge: compromised nodes are not the targets of the successful "
         "decisions"),
        (("status",), "target-reached",
         "status target-reached needs a successful last decision"),
        (("episode",), -1, "episode must not be negative"),
        (("decisions", 0, "source"), "N5",
         "decision #0: source 'N5' is neither @external nor among the known "
         "nodes"),
        (("decisions", 0, "source"), "",
         "decision #0: source '' is neither @external nor among the known "
         "nodes"),
    ])
    def test_mistyped_field_rejected(self, cstr_paths, keys, value, message):
        system, db, profiles = load_cstr(cstr_paths)
        _, traces = run_monte_carlo(system, db, profiles,
                                    SimConfig(1, seed=21))
        doc = trace_to_dict(traces[0])
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        with pytest.raises(ValidationFailure, match="corrupt") as exc:
            trace_from_dict(doc)
        assert exc.value.errors == [message]

    def test_every_error_collected(self):
        with pytest.raises(ValidationFailure) as exc:
            trace_from_dict({"episode": 1})
        assert exc.value.errors == [
            "profile must be a string", "status must be a string",
            "decisions must be a list", "knowledge must be an object",
            "knowledge: known_nodes must be a list of strings",
            "knowledge: known_edges must be a list of strings",
            "knowledge: compromised_nodes must be a list of strings"]

    def test_engine_traces_keep_every_rule(self, cstr_paths):
        """Every trace the engine gives breaks no reader rule and reads back
        equal: on the fixture's PMF, and on generated instances, where
        failures, retries and dead ends are common."""
        system, db, profiles = load_cstr(cstr_paths)
        runs = [(system, db, profiles, SimConfig(100, seed=s))
                for s in range(3)]
        for s in range(100):
            system, db, attacker = random_instance(Random(s), max_actions=40)
            runs.append((system, db,
                         ProfileSet(db.schema, {attacker.name: attacker}),
                         SimConfig(20, seed=s, profile=attacker.name,
                                   max_steps=30)))
        for run in runs:
            for trace in run_monte_carlo(*run)[1]:
                listed = [(r.scores, r.probabilities) for r in trace.records]
                assert harness._trace_problems(trace, listed) == []
                doc = json.loads(json.dumps(trace_to_dict(trace)))
                assert trace_from_dict(doc) == trace


@pytest.fixture
def heads(monkeypatch):
    """An empty candidate-head table in place of the process's own."""
    table = harness._Heads()
    monkeypatch.setattr(harness, "_heads", table)
    return table


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """The loaded (system, db, profiles) of perfbench's grid-25x250
    instance, as its benchmark generates it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_instances", ROOT / "perfbench" / "instances.py")
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    paths = instances.write_instance(instances.generate("grid", 0),
                                     tmp_path_factory.mktemp("grid"))
    profiles = load_profiles(paths["profiles"])
    return (load_system(paths["system"]),
            load_action_db(paths["actions"], profiles.schema), profiles)


class TestSharedHeads:
    """Every save_trace call of a process reads and fills one table of
    candidate heads, and no call's bytes depend on what earlier calls
    left in it."""

    @pytest.mark.parametrize("first, second", [
        ((1.0, 0.5), (1, 0.5)),
        ((1, 0.5), (1.0, 0.5)),
        ((0.0, 0.5), (-0.0, 0.5)),
        ((-0.0, 0.5), (0.0, 0.5)),
    ])
    def test_equal_distances_keep_their_spelling_across_calls(
            self, heads, tmp_path, first, second):
        """1 == 1.0 and 0.0 == -0.0, yet a later trace is not spelled with
        the head an earlier one left."""
        for i, distances in enumerate((first, second)):
            trace = writer_trace(distances=distances)
            path = tmp_path / f"t{i}.json"
            save_trace(trace, path)
            assert path.read_bytes() == json.dumps(
                trace_to_dict(trace), indent=2).encode("ascii")
        assert ("a2", 0.5) in heads

    def test_order_of_writes_changes_no_byte(self, cstr_paths, heads,
                                             tmp_path):
        system, db, profiles = load_cstr(cstr_paths)
        _, traces = run_monte_carlo(system, db, profiles,
                                    SimConfig(50, seed=22))
        path = tmp_path / "trace.json"
        written = {}
        for trace in traces:
            save_trace(trace, path)
            written[trace.index] = path.read_bytes()
        for trace in reversed(traces):
            save_trace(trace, path)
            assert path.read_bytes() == written[trace.index]

    def test_a_full_table_is_emptied_and_changes_no_byte(
            self, cstr_paths, heads, monkeypatch, tmp_path):
        cap = 5
        monkeypatch.setattr(harness, "_HEADS_CAP", cap)
        system, db, profiles = load_cstr(cstr_paths)
        _, traces = run_monte_carlo(system, db, profiles,
                                    SimConfig(50, seed=22))
        pairs = {key for t in traces for r in t.records
                 for key in zip(r.action_ids, r.distances) if key[1]}
        assert len(pairs) > cap
        path = tmp_path / "trace.json"
        for trace in traces:
            save_trace(trace, path)
            assert len(heads) <= cap
            assert path.read_bytes() == json.dumps(
                trace_to_dict(trace), indent=2).encode("ascii")

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_grid_export_builds_each_head_once(self, grid, heads,
                                               monkeypatch, tmp_path, seed):
        """A grid-25x250 batch exports its first 10 traces, whose 236
        distinct (action id, distance) pairs recur across them: from an
        empty table each pair's head is built once for the export, not
        once per trace that holds it."""
        system, db, profiles = grid
        _, traces = run_monte_carlo(
            system, db, profiles,
            SimConfig(120, seed, profile="attacker", max_steps=16))
        calls = []
        build = harness._candidate_head

        def counting(key):
            calls.append(key)
            return build(key)

        monkeypatch.setattr(harness, "_candidate_head", counting)
        for trace in traces[:10]:
            save_trace(trace, tmp_path / f"trace_{trace.index}.json")
        pairs = {key for t in traces[:10] for r in t.records
                 for key in zip(r.action_ids, r.distances)}
        assert len(calls) == len(pairs) == 236


class TestReportExport:
    def test_json_round_trip(self, cstr_paths, tmp_path):
        system, db, profiles = load_cstr(cstr_paths)
        report, _ = run_monte_carlo(system, db, profiles,
                                    SimConfig(25, seed=31))
        path = export_report(report, tmp_path / "report.json", "json")
        clone = report_from_dict(json.loads(path.read_text()))
        assert clone == report

    def test_csv_row_arithmetic(self, cstr_paths, tmp_path):
        system, db, profiles = load_cstr(cstr_paths)
        report, _ = run_monte_carlo(system, db, profiles,
                                    SimConfig(10, seed=31))
        text = report_to_csv(report)
        rows = [r for r in text.strip().split("\n")]
        expected = (len(db.actions) + len(system.nodes)
                    + len(system.entry_edges) + len(profiles.profiles) + 1)
        assert len(rows) == expected + 1  # header
        assert rows[0] == "section,name,count,frequency"

    def test_zero_count_rows_present(self):
        system, db, ps = one_shot_fixture(success=0.0)
        report, _ = run_monte_carlo(system, db, ps,
                                    SimConfig(2, seed=1, profile="solo"))
        text = report_to_csv(report)
        assert "node,A,0," in text

    def test_csv_parses_back(self, cstr_paths, tmp_path):
        import csv
        system, db, profiles = load_cstr(cstr_paths)
        report, _ = run_monte_carlo(system, db, profiles,
                                    SimConfig(10, seed=31))
        path = export_report(report, tmp_path / "report.csv", "csv")
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        summary = [r for r in parsed if r["section"] == "summary"]
        assert len(summary) == 1
        assert float(summary[0]["frequency"]) == report.success_rate

    def test_unknown_format_rejected(self, tmp_path):
        system, db, ps = one_shot_fixture()
        report, _ = run_monte_carlo(system, db, ps,
                                    SimConfig(1, seed=1, profile="solo"))
        with pytest.raises(ValueError, match="format"):
            export_report(report, tmp_path / "x.bin", "parquet")


class TestDotExport:
    def test_zero_decision_trace_renders_entry_nodes_only(self, cstr_paths):
        system, _, profiles = load_cstr(cstr_paths)
        schema = profiles.schema
        db = ActionDatabase([Action(id="none", profile={
            p.name: ("Direct" if p.name == "Access"
                     else "Low" if p.kind == "ordered-set" else 1)
            for p in schema},
            target_criteria=TargetCriteria({"role": frozenset({"nothere"})}),
            channels=frozenset({"usb"}))], schema)
        trace = harness._run_one(DecisionContext(system, db),
                                 profiles.profiles["Insider"],
                                 SimConfig(1, seed=0), Random(0), 0)
        dot = export_trace_dot(trace, system)
        assert "->" not in dot
        for nid in ("N1", "N2", "N6", "N7"):
            assert f'"{nid}"' in dot
        assert '"N4"' not in dot

    def test_decision_edges_match_steps(self, cstr_paths):
        system, db, profiles = load_cstr(cstr_paths)
        _, traces = run_monte_carlo(system, db, profiles,
                                    SimConfig(5, seed=13))
        for trace in traces:
            dot = export_trace_dot(trace, system)
            assert dot.count("->") == trace.steps

    def test_probabilities_render_to_three_decimals(self, cstr_paths):
        import re
        system, db, profiles = load_cstr(cstr_paths)
        _, traces = run_monte_carlo(system, db, profiles,
                                    SimConfig(5, seed=13))
        trace = max(traces, key=lambda t: t.steps)
        dot = export_trace_dot(trace, system)
        rendered = [float(m) for m in re.findall(r"p=(\d\.\d{3})", dot)]
        assert len(rendered) == trace.steps
        for shown, rec in zip(rendered, trace.records):
            assert shown == pytest.approx(rec.probability, abs=5e-4)

    def test_deterministic_output(self, cstr_paths):
        system, db, profiles = load_cstr(cstr_paths)
        _, traces = run_monte_carlo(system, db, profiles,
                                    SimConfig(2, seed=13))
        assert export_trace_dot(traces[0], system) == \
            export_trace_dot(traces[0], system)

    def test_renders_without_system(self, cstr_paths):
        system, db, profiles = load_cstr(cstr_paths)
        _, traces = run_monte_carlo(system, db, profiles,
                                    SimConfig(2, seed=13))
        dot = export_trace_dot(traces[0])
        assert dot.startswith("digraph trace {")
        assert dot.count("->") == traces[0].steps


class TestAnalyticFixtureSmoke:
    def test_exact_probability_in_plausible_range(self):
        from oracle_tree import exact_reach_probability
        system, db, ps = analytic_fixture()
        exact = exact_reach_probability(
            system, db, ps.profiles["analytic"].values, max_steps=3)
        assert 0.05 < exact < 0.95

    def test_monte_carlo_tracks_oracle_roughly(self):
        from analytic_fixture import MAX_STEPS
        from oracle_tree import exact_reach_probability
        system, db, ps = analytic_fixture()
        exact = exact_reach_probability(
            system, db, ps.profiles["analytic"].values, max_steps=MAX_STEPS)
        report, _ = run_monte_carlo(
            system, db, ps,
            SimConfig(4000, seed=51, profile="analytic",
                      max_steps=MAX_STEPS))
        assert report.success_rate == pytest.approx(exact, abs=0.03)
