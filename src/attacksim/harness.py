"""Monte Carlo episode runner, trace capture, aggregation, and export.

Reproducibility contract: every episode owns a private random stream
derived by hashing (master seed, episode index), so a run is fully
determined by its seed and inputs regardless of worker count or
scheduling. Aggregation folds traces in episode order. The process pool
(`ProcessPoolExecutor`, and with it multiprocessing) loads only when a
run uses more than one worker.

Per-episode stream consumption order: one `random()` to sample the
attacker profile (PMF mode only), then per decision: one `randrange` only
when the target is drawn rather than kept, one `random()` for the action
choice and one for the success outcome. The `step` call that ends the
episode draws nothing.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import statistics
import sys
from dataclasses import dataclass, fields
from itertools import chain
from math import isfinite, sqrt
from pathlib import Path
from random import Random

from attacksim import _kernels
from attacksim.actions import ActionDatabase
from attacksim.engine import (
    FAILURE,
    SUCCESS,
    AttackState,
    DecisionContext,
    DecisionRecord,
    step,
)
from attacksim.errors import (
    ValidationFailure,
    container,
    number,
    read_json,
    string,
    string_list,
)
from attacksim.model import EXTERNAL_ORIGIN, CpsKnowledge, CpsSystem
from attacksim.profiles import AttackerProfile, ProfilePmf, ProfileSet, sample_profile

TARGET_REACHED = "target-reached"
EXHAUSTED = "exhausted"
STEP_CAPPED = "step-capped"


@dataclass(frozen=True)
class SimConfig:
    """Run parameters. `profile` names a static attacker profile; None
    means the profiles document's PMF is sampled once per episode."""

    episode_count: int
    seed: int
    profile: str | None = None
    max_steps: int | None = None
    parallelism: int = 1

    def validate(self) -> list[str]:
        v = []
        if self.episode_count < 1:
            v.append("episode_count must be >= 1")
        if self.max_steps is not None and self.max_steps < 1:
            v.append("max_steps must be >= 1 when set")
        if self.parallelism < 1:
            v.append("parallelism must be >= 1")
        return v


@dataclass(frozen=True, slots=True)
class EpisodeTrace:
    index: int
    profile: str
    records: tuple[DecisionRecord, ...]
    status: str
    knowledge: CpsKnowledge

    @property
    def steps(self) -> int:
        return len(self.records)


def episode_seed(master_seed: int, index: int) -> int:
    """Counter-based stream split: stable across platforms and runs."""
    digest = hashlib.sha256(f"{master_seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def _run_one(ctx: DecisionContext,
             profile_or_pmf: AttackerProfile | ProfilePmf,
             config: SimConfig, rng: Random, index: int) -> EpisodeTrace:
    """Run one episode to termination with the given stream."""
    if isinstance(profile_or_pmf, ProfilePmf):
        attacker = sample_profile(profile_or_pmf, rng)
    else:
        attacker = profile_or_pmf
    state = AttackState(ctx, attacker)
    records: list[DecisionRecord] = []
    while True:
        if config.max_steps is not None and len(records) >= config.max_steps:
            status = STEP_CAPPED
            break
        rec = step(state, rng)
        if rec is None:
            status = EXHAUSTED
            break
        records.append(rec)
        if rec.outcome == SUCCESS and ctx.system.node_by_id[rec.target].is_target:
            status = TARGET_REACHED
            break
    return EpisodeTrace(index, attacker.name, tuple(records), status,
                        state.knowledge)


def resolve_mode(profiles: ProfileSet,
                 config: SimConfig) -> AttackerProfile | ProfilePmf:
    """The static profile or the PMF a run of `config` draws its attackers
    from. An invalid config or an unknown profile name raises
    ValidationFailure."""
    errs = config.validate()
    if errs:
        raise ValidationFailure("invalid simulation config", errs)
    if config.profile is not None:
        prof = profiles.profiles.get(config.profile)
        if prof is None:
            raise ValidationFailure(
                f"unknown attacker profile {config.profile!r}")
        return prof
    if profiles.pmf is None:
        raise ValidationFailure(
            "no PMF in the profiles document; pass a static profile name")
    return profiles.pmf


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def __getattr__(name):
    # `harness.ProcessPoolExecutor` imports the pool, and with it
    # multiprocessing, on first access, so a serial run never loads it
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _episode_batch(ctx, profile_or_pmf, config, start, stop):
    return [
        _run_one(ctx, profile_or_pmf, config,
                 Random(episode_seed(config.seed, i)), i)
        for i in range(start, stop)
    ]


def run_monte_carlo(system: CpsSystem, db: ActionDatabase,
                    profiles: ProfileSet, config: SimConfig,
                    ) -> tuple["AggregateReport", list[EpisodeTrace]]:
    """Run `episode_count` independent episodes and aggregate them.

    Identical seeds give identical traces and reports at any parallelism:
    episode streams derive from (seed, index) and aggregation is a pure
    fold in index order. One DecisionContext, built here and sent to the
    workers, checks every profile the run can draw before the first
    episode.
    """
    mode = resolve_mode(profiles, config)
    drawable = ([p for p, _ in mode.entries] if isinstance(mode, ProfilePmf)
                else [mode])
    ctx = DecisionContext(system, db)
    for attacker in drawable:
        ctx.attacker_theta(attacker)
    n = config.episode_count
    jobs = min(config.parallelism, n, _usable_cpus())
    if jobs <= 1:
        traces = _episode_batch(ctx, mode, config, 0, n)
    else:
        bounds = [(n * j) // jobs for j in range(jobs + 1)]
        chunks = [(bounds[j], bounds[j + 1]) for j in range(jobs)]
        # read off the module, so a class set on it runs, and the real
        # pool loads here through __getattr__
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=jobs) as pool:
            futures = [
                pool.submit(_episode_batch, ctx, mode, config, a, b)
                for a, b in chunks
            ]
            traces = [t for f in futures for t in f.result()]
    report = aggregate(traces, system, db, [p.name for p in drawable])
    return report, traces


@dataclass(frozen=True)
class AggregateReport:
    """Distributional summary of a Monte Carlo run."""

    episodes: int
    successes: int
    success_rate: float
    ci95: tuple[float, float]
    total_decisions: int
    action_counts: dict[str, int]
    action_frequencies: dict[str, float]
    node_compromise_counts: dict[str, int]
    node_compromise_frequencies: dict[str, float]
    entry_point_counts: dict[str, int]
    entry_point_frequencies: dict[str, float]
    profile_counts: dict[str, int]
    mean_steps_to_success: float | None
    median_steps_to_success: float | None


def wilson_ci95(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    z = 1.959963984540054
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return (lo, hi)


def aggregate(traces: list[EpisodeTrace], system: CpsSystem,
              db: ActionDatabase, profile_names: list[str]) -> AggregateReport:
    """Pure fold over traces, in episode order.

    Entry-point usage counts an episode toward each entry edge that could
    have carried its first successful action (before any compromise, every
    viable path is an entry path).
    """
    n = len(traces)
    entry_ids = {e.id for e in system.entry_edges}
    action_counts = {a.id: 0 for a in db.actions}
    node_counts = {nd.id: 0 for nd in system.nodes}
    entry_counts = {eid: 0 for eid in sorted(entry_ids)}
    profile_counts = {name: 0 for name in profile_names}
    successes = 0
    total_decisions = 0
    steps_to_success: list[int] = []
    for trace in traces:
        profile_counts[trace.profile] = profile_counts.get(trace.profile, 0) + 1
        if trace.status == TARGET_REACHED:
            successes += 1
            steps_to_success.append(trace.steps)
        for nid in trace.knowledge.compromised_nodes:
            node_counts[nid] += 1
        first_success = None
        for rec in trace.records:
            total_decisions += 1
            action_counts[rec.chosen] += 1
            if first_success is None and rec.outcome == SUCCESS:
                first_success = rec
        if first_success is not None:
            for eid in first_success.via_edges:
                if eid in entry_ids:
                    entry_counts[eid] += 1
    def freq(counts, denom):
        return {k: (c / denom if denom else 0.0) for k, c in counts.items()}
    return AggregateReport(
        episodes=n,
        successes=successes,
        success_rate=successes / n if n else 0.0,
        ci95=wilson_ci95(successes, n),
        total_decisions=total_decisions,
        action_counts=action_counts,
        action_frequencies=freq(action_counts, total_decisions),
        node_compromise_counts=node_counts,
        node_compromise_frequencies=freq(node_counts, n),
        entry_point_counts=entry_counts,
        entry_point_frequencies=freq(entry_counts, n),
        profile_counts=profile_counts,
        mean_steps_to_success=(statistics.mean(steps_to_success)
                               if steps_to_success else None),
        median_steps_to_success=(statistics.median(steps_to_success)
                                 if steps_to_success else None),
    )


# ---------------------------------------------------------------------------
# serialization


def trace_to_dict(trace: EpisodeTrace) -> dict:
    return {
        "episode": trace.index,
        "profile": trace.profile,
        "status": trace.status,
        "decisions": [
            {
                "target": r.target,
                "candidates": [
                    {"action": c.action_id, "distance": c.distance,
                     "score": c.score, "probability": c.probability}
                    for c in r.candidates
                ],
                "chosen": r.chosen,
                "chosen_name": r.chosen_name,
                "probability": r.probability,
                "outcome": r.outcome,
                "source": r.source,
                "via_edges": list(r.via_edges),
            }
            for r in trace.records
        ],
        "knowledge": {
            "known_nodes": sorted(trace.knowledge.known_nodes),
            "known_edges": sorted(trace.knowledge.known_edges),
            "compromised_nodes": sorted(trace.knowledge.compromised_nodes),
        },
    }


def trace_from_dict(doc: dict) -> EpisodeTrace:
    """Rebuild a trace from its document form, in two passes: the type pass
    collects every missing or mistyped field; once every field has the
    right type, `_trace_problems` checks the typed trace, with each
    decision's scores and probabilities as the document lists them. So a
    document with a type error reports only its type errors. Either pass
    raises ValidationFailure("corrupt trace document", errors). The
    records keep no score or probability: a trace that passes lists the
    ones its distances give, which the records derive."""
    if not isinstance(doc, dict):
        raise ValidationFailure("trace document must be a JSON object")
    errors: list[str] = []
    index = doc.get("episode")
    if isinstance(index, bool) or not isinstance(index, int):
        errors.append("episode must be an integer")
    profile = string(doc.get("profile"), "profile", errors)
    status = string(doc.get("status"), "status", errors)
    records = []
    listed = []  # each decision's (scores, probabilities), for the checks
    for i, r in enumerate(container(doc.get("decisions"), list, "decisions",
                                    errors)):
        owner = f"decision #{i}"
        if not isinstance(r, dict):
            errors.append(f"{owner} must be an object")
            continue
        ids, d, s, p = [], [], [], []
        for j, c in enumerate(container(r.get("candidates"), list,
                                        f"{owner}: candidates", errors)):
            if not isinstance(c, dict):
                errors.append(f"{owner}: candidate #{j} must be an object")
                continue
            ids.append(string(c.get("action"),
                              f"{owner}: candidate #{j}: action", errors))
            for key, column in (("distance", d), ("score", s),
                                ("probability", p)):
                column.append(number(c.get(key), 0.0, errors,
                                     "{}: candidate #{}: {}", owner, j, key))
        chosen = string(r.get("chosen"), f"{owner}: chosen", errors)
        listed.append((s, p))
        records.append(DecisionRecord(
            target=string(r.get("target"), f"{owner}: target", errors),
            action_ids=tuple(ids), distances=tuple(d),
            chosen=chosen,
            chosen_name=string(r.get("chosen_name", chosen),
                               f"{owner}: chosen_name", errors),
            probability=number(r.get("probability"), 0.0, errors,
                               "{}: probability", owner),
            outcome=string(r.get("outcome"), f"{owner}: outcome", errors),
            source=string(r.get("source", EXTERNAL_ORIGIN), f"{owner}: source",
                          errors),
            via_edges=tuple(string_list(r.get("via_edges", []),
                                        f"{owner}: via_edges", errors)),
        ))
    known = container(doc.get("knowledge"), dict, "knowledge", errors)
    nodes, edges, owned = (
        frozenset(string_list(known.get(key), f"knowledge: {key}", errors))
        for key in ("known_nodes", "known_edges", "compromised_nodes"))
    if not errors:
        trace = EpisodeTrace(index, profile, tuple(records), status,
                             CpsKnowledge(nodes, edges, owned))
        errors = _trace_problems(trace, listed)
    if errors:
        raise ValidationFailure("corrupt trace document", errors)
    return trace


def _trace_problems(trace: EpisodeTrace, listed) -> list[str]:
    """The writer's rules that the typed `trace` breaks: an episode index
    not negative, a status and outcomes it writes, probabilities in
    [0, 1], no action listed twice among a decision's candidates, a chosen
    action among them at its candidate's probability, via edges known, a
    source that is the external origin or a known node, no target
    compromised by an earlier decision, and targets and compromised nodes
    known. A decision that broke none of these must have the scores and
    probabilities the kernels give from its distances, none negative. A
    trace that broke none must have the successful decisions' targets as
    its compromised nodes, and a successful last decision if its target
    was reached.

    `listed` gives each decision's (scores, probabilities) as a document
    lists them, in decision order."""
    problems = []
    if trace.index < 0:
        problems.append("episode must not be negative")
    if trace.status not in (TARGET_REACHED, EXHAUSTED, STEP_CAPPED):
        problems.append("status must be one of target-reached, exhausted, "
                        "step-capped")
    k = trace.knowledge
    won = set()  # the targets of the successful decisions so far
    for i, rec in enumerate(trace.records):
        owner = f"decision #{i}"
        clean = len(problems)
        if rec.outcome not in (SUCCESS, FAILURE):
            problems.append(f"{owner}: outcome must be one of success, "
                            "failure")
        s, p = listed[i]
        ids = rec.action_ids
        seen = set()
        for j, (aid, pj) in enumerate(zip(ids, p)):
            if not 0.0 <= pj <= 1.0:
                problems.append(f"{owner}: candidate #{j}: probability "
                                "must be in [0, 1]")
            if aid in seen:
                problems.append(f"{owner}: candidate #{j}: action {aid!r} "
                                "is listed twice")
            seen.add(aid)
        q = rec.probability
        if not 0.0 <= q <= 1.0:
            problems.append(f"{owner}: probability must be in [0, 1]")
        if rec.chosen not in seen:
            problems.append(f"{owner}: chosen is not among its candidates")
        elif 0.0 <= q <= 1.0:
            pc = p[ids.index(rec.chosen)]  # out of range, it has its error
            if q != pc and 0.0 <= pc <= 1.0:
                problems.append(f"{owner}: probability differs from its "
                                "chosen candidate's")
        problems.extend(f"{owner}: via edge {eid!r} is not among the known "
                        "edges" for eid in rec.via_edges
                        if eid not in k.known_edges)
        if rec.source != EXTERNAL_ORIGIN and rec.source not in k.known_nodes:
            problems.append(f"{owner}: source {rec.source!r} is neither "
                            f"{EXTERNAL_ORIGIN} nor among the known nodes")
        if rec.target in won:
            problems.append(f"{owner}: target was compromised by an earlier "
                            "decision")
        if rec.outcome == SUCCESS:
            won.add(rec.target)
        # scores first, so the probabilities come from kernel-made scores,
        # which never sum to zero
        if len(problems) == clean and (
                min(rec.distances) < 0.0
                or list(s) != _kernels.scores_from_distances(rec.distances)
                or list(p) != _kernels.probabilities_from_scores(s)):
            problems.append(f"{owner}: scores and probabilities are not the "
                            "ones its distances give")
    problems.extend(f"decision #{i}: target is not among the known nodes"
                    for i, rec in enumerate(trace.records)
                    if rec.target not in k.known_nodes)
    problems.extend(f"knowledge: compromised node {nid!r} is not among the "
                    "known nodes"
                    for nid in sorted(k.compromised_nodes - k.known_nodes))
    if problems:
        return problems
    if k.compromised_nodes != won:
        problems.append("knowledge: compromised nodes are not the targets of "
                        "the successful decisions")
    if trace.status == TARGET_REACHED and not (
            trace.records and trace.records[-1].outcome == SUCCESS):
        problems.append("status target-reached needs a successful last "
                        "decision")
    return problems


_quote = json.encoder.encode_basestring_ascii  # the C escaper json uses

# the fixed layout json.dumps(trace_to_dict(t), indent=2) gives a trace
_TRACE_HEAD = ('{\n  "episode": %r,\n  "profile": %s,\n  "status": %s,\n'
               '  "decisions": ')
_TRACE_TAIL = (',\n  "knowledge": {\n    "known_nodes": %s,\n'
               '    "known_edges": %s,\n    "compromised_nodes": %s\n  }\n}')
_DECISION_HEAD = '%s    {\n      "target": %s,\n      "candidates": '
_DECISION_TAIL = (',\n      "chosen": %s,\n      "chosen_name": %s,\n'
                  '      "probability": %r,\n      "outcome": %s,\n'
                  '      "source": %s,\n      "via_edges": %s\n    }')
# a candidate is its head (up to the score), its score, _TO_PROBABILITY,
# its probability and _NEXT, or _LAST after the decision's last candidate
_CANDIDATE_HEAD = ('        {\n          "action": %s,\n'
                   '          "distance": %r,\n          "score": ')
_TO_PROBABILITY = ',\n          "probability": '
_NEXT = '\n        },\n'
_LAST = '\n        }\n      ]'


def _candidate_head(key) -> str:
    """The head of a candidate whose (action id, distance) is `key`."""
    return _CANDIDATE_HEAD % (_quote(key[0]), key[1])


_HEADS_CAP = 1 << 14


class _Heads(dict):
    """Each candidate head looked up, kept once per (action id, distance)
    pair. ``0.0 == -0.0``, but their reprs differ, so a head with a zero
    distance is never kept. Likewise ``1 == 1.0``, so only float distances
    may be looked up. The process keeps one table, `_heads`, which every
    `save_trace` call reads and fills. A table holding `_HEADS_CAP`
    (2**14) heads is emptied before it keeps another, so it never holds
    more: about 3.3 MB at about 200 B an entry (by tracemalloc, for ids
    of a few characters)."""

    __slots__ = ()

    def __missing__(self, key):
        head = _candidate_head(key)
        if key[1]:
            if len(self) >= _HEADS_CAP:
                self.clear()
            self[key] = head
        return head


# a head depends on its key alone, so what one trace leaves in the table
# serves the next and changes no byte of it
_heads = _Heads()


def _quoted_list(items, indent: str) -> str:
    """A list of strings as indent=2 lays it out, closing at `indent`."""
    if not items:
        return "[]"
    return ("[\n  " + indent + (",\n  " + indent).join(map(_quote, items))
            + "\n" + indent + "]")


def _candidates_json(rec: DecisionRecord, head) -> str:
    """A decision's candidates as indent=2 lays them out, from five parts
    a candidate, joined once; `head` gives each (id, distance) its head.
    The scores and probabilities are derived here, once."""
    n = len(rec.action_ids)
    if not n:
        return "[]"
    parts = [None, None, _TO_PROBABILITY, None, _NEXT] * n
    parts[0::5] = map(head, zip(rec.action_ids, rec.distances))
    s = _kernels.scores_from_distances(rec.distances)
    parts[1::5] = map(repr, s)
    parts[3::5] = map(repr, _kernels.probabilities_from_scores(s))
    parts[0] = "[\n" + parts[0]
    parts[-1] = _LAST
    return "".join(parts)


def save_trace(trace: EpisodeTrace, path: str | Path):
    """Write a trace as JSON, byte-identical to
    ``json.dumps(trace_to_dict(trace), indent=2)``.

    The fixed layout is written directly, one decision at a time, in
    three writes: its head up to the candidates, its candidates' text and
    the rest. Strings go through json's C escaper and numbers through
    ``repr``. A candidate's text up to its score depends only on its
    action id and distance, which recur across a trace's decisions and
    across the traces of a run, drawn from the same attackers, so when
    the distances are all floats, as the engine and `trace_from_dict`
    give them, each pair's head is built once per process, in one table
    that every call shares and that is emptied when it holds 2**14 heads
    (``_HEADS_CAP``; about 3.3 MB for ids of a few characters).
    Each decision's scores and probabilities are derived from its
    distances as it is written. A trace holding a non-finite number or a
    negative distance, which no loader accepts, raises ValueError before
    the file is opened; finite distances that are not negative give
    finite scores and probabilities.
    """
    # a finite sum proves each value finite; else check value by value
    if not all(isfinite(r.probability + sum(r.distances))
               or all(map(isfinite, (r.probability, *r.distances)))
               for r in trace.records):
        raise ValueError(f"trace {trace.index} holds a non-finite number")
    if any(min(r.distances, default=0.0) < 0.0 for r in trace.records):
        raise ValueError(f"trace {trace.index} holds a negative distance")
    path = Path(path)
    k = trace.knowledge
    # 1 == 1.0, yet json spells them apart, so a trace holding a
    # non-float distance builds each head on its own
    distances = chain.from_iterable(r.distances for r in trace.records)
    head = (_heads.__getitem__ if set(map(type, distances)) <= {float}
            else _candidate_head)
    with path.open("w", encoding="utf-8") as f:
        f.write(_TRACE_HEAD % (trace.index, _quote(trace.profile),
                               _quote(trace.status)))
        sep = "[\n"
        for r in trace.records:
            f.write(_DECISION_HEAD % (sep, _quote(r.target)))
            f.write(_candidates_json(r, head))
            f.write(_DECISION_TAIL % (
                _quote(r.chosen), _quote(r.chosen_name), r.probability,
                _quote(r.outcome), _quote(r.source),
                _quoted_list(r.via_edges, "      ")))
            sep = ",\n"
        f.write("[]" if sep == "[\n" else "\n  ]")
        f.write(_TRACE_TAIL % tuple(
            _quoted_list(sorted(nodes), "    ") for nodes in (
                k.known_nodes, k.known_edges, k.compromised_nodes)))


def load_trace(path: str | Path) -> EpisodeTrace:
    return trace_from_dict(read_json(path))


def report_to_dict(report: AggregateReport) -> dict:
    """The report's fields by name. The dict shares the report's frequency
    tables; it copies none of them."""
    return {f.name: getattr(report, f.name) for f in fields(report)}


def report_from_dict(doc: dict) -> AggregateReport:
    return AggregateReport(**{**doc, "ci95": tuple(doc["ci95"])})


REPORT_CSV_HEADER = ["section", "name", "count", "frequency"]


def report_to_csv(report: AggregateReport) -> str:
    """Flatten the frequency tables: one row per action, node, entry point
    and profile, plus one summary row."""
    profile_frequencies = {
        name: count / report.episodes if report.episodes else 0.0
        for name, count in report.profile_counts.items()}
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(REPORT_CSV_HEADER)
    for section, counts, frequencies in (
            ("action", report.action_counts, report.action_frequencies),
            ("node", report.node_compromise_counts,
             report.node_compromise_frequencies),
            ("entry_point", report.entry_point_counts,
             report.entry_point_frequencies),
            ("profile", report.profile_counts, profile_frequencies)):
        for name in sorted(counts):
            w.writerow([section, name, counts[name], repr(frequencies[name])])
    w.writerow(["summary", "success_rate", report.successes,
                repr(report.success_rate)])
    return buf.getvalue()


def export_report(report: AggregateReport, path: str | Path,
                  fmt: str = "json") -> Path:
    """Write the report as lossless JSON or flattened CSV."""
    path = Path(path)
    if fmt == "json":
        path.write_text(json.dumps(report_to_dict(report), indent=2),
                        encoding="utf-8")
    elif fmt == "csv":
        path.write_text(report_to_csv(report), encoding="utf-8")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return path


# ---------------------------------------------------------------------------
# GraphViz rendering


def _dot_label(*parts: str) -> str:
    escaped = (p.replace("\\", "\\\\").replace('"', '\\"') for p in parts if p)
    return '"' + "\\n".join(escaped) + '"'


def export_trace_dot(trace: EpisodeTrace,
                     system: CpsSystem | None = None) -> str:
    """Render a trace as GraphViz DOT.

    Nodes are the CPS nodes known at episode end (compromised ones filled,
    the attack goal double-bordered); edges are the decisions in order,
    labelled with step number, action name and selection probability, and
    drawn from the decision's propagation source. Output ordering is
    deterministic. Without a system, node display names and the goal
    marker are omitted; everything else comes from the trace itself.
    """
    lines = [
        "digraph trace {",
        "  rankdir=LR;",
        '  node [shape=box, fontname="Helvetica"];',
        '  edge [fontname="Helvetica"];',
    ]
    if any(r.source == EXTERNAL_ORIGIN for r in trace.records):
        lines.append(f"  {_dot_label(EXTERNAL_ORIGIN)} "
                     "[shape=ellipse, style=dashed];")
    for nid in sorted(trace.knowledge.known_nodes):
        node = system.node_by_id.get(nid) if system is not None else None
        name = "" if node is None else node.name
        attrs = [f"label={_dot_label(nid, name)}"]
        if nid in trace.knowledge.compromised_nodes:
            attrs.append("style=filled")
            attrs.append('fillcolor="#f8cecc"')
        if node is not None and node.is_target:
            attrs.append("peripheries=2")
        lines.append(f"  {_dot_label(nid)} [{', '.join(attrs)}];")
    for i, rec in enumerate(trace.records, start=1):
        style = "solid" if rec.outcome == SUCCESS else "dashed"
        text = f"{i}. {rec.chosen_name} p={rec.probability:.3f}"
        if rec.outcome != SUCCESS:
            text += " (failed)"
        lines.append(f"  {_dot_label(rec.source)} -> {_dot_label(rec.target)} "
                     f"[label={_dot_label(text)}, style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
