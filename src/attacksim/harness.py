"""Monte Carlo episode runner, trace capture, aggregation, and export.

Reproducibility contract: every episode owns a private random stream
derived by hashing (master seed, episode index), so a run is fully
determined by its seed and inputs regardless of worker count or
scheduling. Aggregation folds traces in episode order.

Per-episode stream consumption order: one draw to sample the attacker
profile (PMF mode only), then per step: one draw when a fresh target is
selected, one for the action choice, one for the success outcome.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from math import isfinite, sqrt
from pathlib import Path
from random import Random

from attacksim.actions import ActionDatabase
from attacksim.engine import (
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


def run_episode(system: CpsSystem, db: ActionDatabase,
                profile_or_pmf: AttackerProfile | ProfilePmf,
                config: SimConfig, rng: Random,
                index: int = 0) -> EpisodeTrace:
    """Run a single episode to termination with the given stream."""
    ctx = DecisionContext(system, db)
    return _run_one(ctx, profile_or_pmf, config, rng, index)


def _run_one(ctx: DecisionContext,
             profile_or_pmf: AttackerProfile | ProfilePmf,
             config: SimConfig, rng: Random, index: int) -> EpisodeTrace:
    if isinstance(profile_or_pmf, ProfilePmf):
        attacker = sample_profile(profile_or_pmf, rng)
    else:
        attacker = profile_or_pmf
    state = AttackState(ctx, attacker)
    records: list[DecisionRecord] = []
    status = EXHAUSTED
    while True:
        if config.max_steps is not None and len(records) >= config.max_steps:
            status = STEP_CAPPED
            break
        result = step(state, rng)
        if result is None:
            status = EXHAUSTED
            break
        records.append(result[1])
        rec = records[-1]
        if rec.outcome == SUCCESS and ctx.system.node_by_id[rec.target].is_target:
            status = TARGET_REACHED
            break
    return EpisodeTrace(index=index, profile=attacker.name,
                        records=tuple(records), status=status,
                        knowledge=state.knowledge)


def _resolve_mode(profiles: ProfileSet,
                  config: SimConfig) -> AttackerProfile | ProfilePmf:
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


def _episode_batch(system, db, profile_or_pmf, config, start, stop):
    ctx = DecisionContext(system, db)
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
    fold in index order.
    """
    errs = config.validate()
    if errs:
        raise ValidationFailure("invalid simulation config", errs)
    mode = _resolve_mode(profiles, config)
    n = config.episode_count
    jobs = min(config.parallelism, n, os.cpu_count() or 1)
    if jobs <= 1:
        traces = _episode_batch(system, db, mode, config, 0, n)
    else:
        bounds = [(n * j) // jobs for j in range(jobs + 1)]
        chunks = [(bounds[j], bounds[j + 1]) for j in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_episode_batch, system, db, mode, config, a, b)
                for a, b in chunks
            ]
            traces = [t for f in futures for t in f.result()]
    profile_names = ([config.profile] if config.profile is not None
                     else [p.name for p, _ in profiles.pmf.entries])
    report = aggregate(traces, system, db, profile_names)
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
    """Rebuild a trace from its document form.

    A missing or mistyped field is collected; any raises
    ValidationFailure("corrupt trace document", errors).
    """
    if not isinstance(doc, dict):
        raise ValidationFailure("trace document must be a JSON object")
    errors: list[str] = []
    index = doc.get("episode")
    if isinstance(index, bool) or not isinstance(index, int):
        errors.append("episode must be an integer")
        index = 0
    profile = string(doc.get("profile"), "profile", errors)
    status = string(doc.get("status"), "status", errors)
    records = []
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
        records.append(DecisionRecord(
            target=string(r.get("target"), f"{owner}: target", errors),
            action_ids=tuple(ids),
            distances=tuple(d),
            scores=tuple(s),
            probabilities=tuple(p),
            chosen=chosen,
            chosen_name=string(r.get("chosen_name", chosen),
                               f"{owner}: chosen_name", errors),
            probability=number(r.get("probability"), 0.0, errors,
                               "{}: probability", owner),
            outcome=string(r.get("outcome"), f"{owner}: outcome", errors),
            source=string(r.get("source", ""), f"{owner}: source", errors),
            via_edges=tuple(string_list(r.get("via_edges", []),
                                        f"{owner}: via_edges", errors)),
        ))
    known = container(doc.get("knowledge"), dict, "knowledge", errors)
    knowledge = CpsKnowledge(**{
        key: frozenset(string_list(known.get(key), f"knowledge: {key}",
                                   errors))
        for key in ("known_nodes", "known_edges", "compromised_nodes")})
    if errors:
        raise ValidationFailure("corrupt trace document", errors)
    return EpisodeTrace(index=index, profile=profile, records=tuple(records),
                        status=status, knowledge=knowledge)


_quote = json.encoder.encode_basestring_ascii  # the C escaper json uses

# the fixed layout json.dumps(trace_to_dict(t), indent=2) gives a trace
_TRACE_HEAD = ('{\n  "episode": %r,\n  "profile": %s,\n  "status": %s,\n'
               '  "decisions": ')
_TRACE_TAIL = (',\n  "knowledge": {\n    "known_nodes": %s,\n'
               '    "known_edges": %s,\n    "compromised_nodes": %s\n  }\n}')
_DECISION = ('    {\n      "target": %s,\n      "candidates": %s,\n'
             '      "chosen": %s,\n      "chosen_name": %s,\n'
             '      "probability": %r,\n      "outcome": %s,\n'
             '      "source": %s,\n      "via_edges": %s\n    }')
_CANDIDATE = ('        {\n          "action": %s,\n          "distance": %r,\n'
              '          "score": %r,\n          "probability": %r\n        }')


def _quoted_list(items, indent: str) -> str:
    """A list of strings as indent=2 lays it out, closing at `indent`."""
    if not items:
        return "[]"
    return ("[\n  " + indent + (",\n  " + indent).join(map(_quote, items))
            + "\n" + indent + "]")


def _candidates_json(rec: DecisionRecord) -> str:
    n = len(rec.action_ids)
    if not n:
        return "[]"
    args = [None] * (4 * n)
    args[0::4] = map(_quote, rec.action_ids)
    args[1::4] = rec.distances
    args[2::4] = rec.scores
    args[3::4] = rec.probabilities
    return ("[\n" + ",\n".join([_CANDIDATE] * n) % tuple(args)
            + "\n      ]")


def save_trace(trace: EpisodeTrace, path: str | Path):
    """Write a trace as JSON, byte-identical to
    ``json.dumps(trace_to_dict(trace), indent=2)``.

    The fixed layout is written directly, one decision at a time: strings
    go through json's C escaper, numbers through ``repr``, and each
    decision's candidates through one ``%`` over a repeated template.
    json spells a non-finite float ``NaN`` or ``Infinity`` where ``repr``
    gives ``nan`` or ``inf``, so a trace holding one is written with
    ``json.dumps`` instead.
    """
    path = Path(path)
    if not all(isfinite(r.probability + sum(r.distances) + sum(r.scores)
                        + sum(r.probabilities)) for r in trace.records):
        path.write_text(json.dumps(trace_to_dict(trace), indent=2),
                        encoding="utf-8")
        return
    k = trace.knowledge
    with path.open("w", encoding="utf-8") as f:
        f.write(_TRACE_HEAD % (trace.index, _quote(trace.profile),
                               _quote(trace.status)))
        sep = "[\n"
        for r in trace.records:
            f.write(sep)
            f.write(_DECISION % (
                _quote(r.target), _candidates_json(r), _quote(r.chosen),
                _quote(r.chosen_name), r.probability, _quote(r.outcome),
                _quote(r.source), _quoted_list(r.via_edges, "      ")))
            sep = ",\n"
        f.write("[]" if sep == "[\n" else "\n  ]")
        f.write(_TRACE_TAIL % tuple(
            _quoted_list(sorted(nodes), "    ") for nodes in (
                k.known_nodes, k.known_edges, k.compromised_nodes)))


def load_trace(path: str | Path) -> EpisodeTrace:
    return trace_from_dict(read_json(path))


def report_to_dict(report: AggregateReport) -> dict:
    return asdict(report)


def report_from_dict(doc: dict) -> AggregateReport:
    return AggregateReport(**{**doc, "ci95": tuple(doc["ci95"])})


REPORT_CSV_HEADER = ["section", "name", "count", "frequency"]


def report_to_csv(report: AggregateReport) -> str:
    """Flatten the frequency tables: one row per action, node, entry point
    and profile, plus one summary row."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(REPORT_CSV_HEADER)
    for name in sorted(report.action_counts):
        w.writerow(["action", name, report.action_counts[name],
                    repr(report.action_frequencies[name])])
    for name in sorted(report.node_compromise_counts):
        w.writerow(["node", name, report.node_compromise_counts[name],
                    repr(report.node_compromise_frequencies[name])])
    for name in sorted(report.entry_point_counts):
        w.writerow(["entry_point", name, report.entry_point_counts[name],
                    repr(report.entry_point_frequencies[name])])
    for name in sorted(report.profile_counts):
        count = report.profile_counts[name]
        w.writerow(["profile", name, count,
                    repr(count / report.episodes if report.episodes else 0.0)])
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


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


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
    origin = system.external_origin if system is not None else EXTERNAL_ORIGIN
    lines = [
        "digraph trace {",
        "  rankdir=LR;",
        '  node [shape=box, fontname="Helvetica"];',
        '  edge [fontname="Helvetica"];',
    ]
    if any(r.source == origin for r in trace.records):
        lines.append(f"  {_dot_quote(origin)} [shape=ellipse, style=dashed];")
    for nid in sorted(trace.knowledge.known_nodes):
        node = system.node_by_id.get(nid) if system is not None else None
        name = "" if node is None else node.name
        attrs = [f"label={_dot_label(nid, name)}"]
        if nid in trace.knowledge.compromised_nodes:
            attrs.append("style=filled")
            attrs.append('fillcolor="#f8cecc"')
        if node is not None and node.is_target:
            attrs.append("peripheries=2")
        lines.append(f"  {_dot_quote(nid)} [{', '.join(attrs)}];")
    for i, rec in enumerate(trace.records, start=1):
        src = rec.source or origin
        style = "solid" if rec.outcome == SUCCESS else "dashed"
        text = f"{i}. {rec.chosen_name} p={rec.probability:.3f}"
        if rec.outcome != SUCCESS:
            text += " (failed)"
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(rec.target)} "
                     f"[label={_dot_label(text)}, style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
