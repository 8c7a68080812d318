import json
import math
from concurrent.futures import Future
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from attacksim import _kernels, harness, model
from attacksim.actions import Action, ActionDatabase, TargetCriteria, load_action_db
from attacksim.engine import (
    CandidateScore,
    DecisionContext,
    DecisionRecord,
    distance,
    filter_valid,
    initial_state,
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
    run_episode,
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
        trace = run_episode(system, db, ps.profiles["solo"],
                            SimConfig(1, seed=0), Random(0))
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
        trace = run_episode(system, db, ps.profiles["solo"],
                            SimConfig(1, seed=0), Random(0))
        assert trace.status == EXHAUSTED
        assert trace.steps == 0

    def test_step_cap_reported(self):
        system, db, ps = one_shot_fixture(success=0.0)
        config = SimConfig(1, seed=0, max_steps=1)
        trace = run_episode(system, db, ps.profiles["solo"], config, Random(0))
        assert trace.status == STEP_CAPPED
        assert trace.steps == 1

    def test_case_study_trace_matches_scripted_replay(self, cstr_paths):
        system, db, profiles = load_cstr(cstr_paths)
        seed = 2024
        trace = run_episode(system, db, profiles.pmf, SimConfig(1, seed=seed),
                            Random(episode_seed(seed, 0)))
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
    state = initial_state(system, db, attacker)
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
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        system, db, profiles = load_cstr(cstr_paths)
        wide = run_monte_carlo(system, db, profiles,
                               SimConfig(60, seed=5, parallelism=5000))
        assert sizes == [3]
        serial = run_monte_carlo(system, db, profiles, SimConfig(60, seed=5))
        assert report_to_dict(wide[0]) == report_to_dict(serial[0])

    def test_system_validated_once_per_run(self, cstr_paths, monkeypatch):
        system, db, profiles = load_cstr(cstr_paths)
        calls = []
        real = model.validate_system
        monkeypatch.setattr(model, "validate_system",
                            lambda s: calls.append(s) or real(s))
        run_monte_carlo(system, db, profiles, SimConfig(50, seed=2))
        assert calls == [system]

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


class TestEpisodeSeed:
    def test_stable_and_distinct(self):
        assert episode_seed(7, 0) == episode_seed(7, 0)
        assert episode_seed(7, 0) != episode_seed(7, 1)
        assert episode_seed(7, 0) != episode_seed(8, 0)


TEXT = st.text(st.characters(codec=None), max_size=6)


@st.composite
def decisions(draw):
    candidates = draw(st.lists(st.tuples(TEXT, st.floats(), st.floats(),
                                         st.floats()), max_size=4))
    ids, d, s, p = tuple(zip(*candidates)) or ((),) * 4
    return DecisionRecord(
        target=draw(TEXT), action_ids=ids, distances=d, scores=s,
        probabilities=p, chosen=draw(TEXT), chosen_name=draw(TEXT),
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


def writer_trace(ids=("a1", "a2"), value=0.25, records=2):
    """A trace of `records` identical decisions whose candidates are `ids`,
    every number `value`; via_edges and compromised_nodes are empty."""
    n = len(ids)
    rec = DecisionRecord(
        target="N1", action_ids=ids, distances=(value,) * n,
        scores=(value,) * n, probabilities=(value,) * n, chosen="a1",
        chosen_name="A one", probability=value, outcome="failure",
        source=EXTERNAL_ORIGIN)
    return harness.EpisodeTrace(
        index=3, profile="p", records=(rec,) * records, status=EXHAUSTED,
        knowledge=model.CpsKnowledge(known_nodes=frozenset({"N1", "N2"}),
                                     known_edges=frozenset({"E1"}),
                                     compromised_nodes=frozenset()))


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
    def test_writer_matches_json_dumps(self, tmp_path_factory, trace):
        path = tmp_path_factory.getbasetemp() / "writer.json"
        save_trace(trace, path)
        assert path.read_bytes() == json.dumps(
            trace_to_dict(trace), indent=2).encode("ascii")

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
        trace = run_episode(system, db, profiles.profiles["Insider"],
                            SimConfig(1, seed=0), Random(0))
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
