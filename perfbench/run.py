#!/usr/bin/env python3
"""attacksim benchmark: Monte Carlo throughput, memory, set-up and export
time on four workloads, and a traced run that splits the time by layer.

Run from the repository root. No build step: the package is imported from
``src/`` of the same checkout.

    python3 perfbench/run.py                        # every workload, table
    python3 perfbench/run.py --trace 1              # traced run of every workload
    python3 perfbench/run.py --workload grid-25x250 --seed 3 --seconds 45
    python3 perfbench/run.py --workload wide-4x2000 --trace 1   # traced run only
    python3 perfbench/run.py --record               # re-record report digests

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` with the metrics that
BENCHMARK.json lists; the lines above it give the environment, the
instance statistics and a table of every metric. Each result, with the
environment, is also written to ``perfbench/out/``.

Workloads (closed batches from one process). Seed n runs the batch for
the Monte Carlo seeds ("cases") 8n .. 8n+7 mod 64 in turn; the traced
run uses the first of them:

    fixture-pmf    bundled 7-node CSTR fixture, PMF-sampled attacker,
                   1000 episodes, serial
    fixture-jobs   the same batch with one worker process per CPU
    grid-25x250    generated 25 nodes in 5 layers / 203 edges / 250
                   actions, static profile, 120 episodes capped at 16 steps
    wide-4x2000    generated 4-node chain / 2000 broad actions, static
                   profile, 4 episodes capped at 16 steps

BENCHMARK.json lists grid-25x250 and wide-4x2000, which load opposite
layers. The fixture workloads run here and in the smoke test but carry no
bounds: their run_monte_carlo times were as steady as the others', but
their 4 ms export is mostly file creation, which the calibration does
not track, and it varied by 22-28% between runs.

The generated instances come from ``instances.py`` with a fixed instance
seed and are written as JSON before any timing. A batch is what
``attacksim simulate --out`` does: ``run_monte_carlo``, then export of
report.json, report.csv and the first 10 traces as JSON and DOT. A run
repeats batches for ``--seconds`` (at least three).

Steadiness. On a shared 2-core VM the same batch ran up to twice as slow
in phases lasting from seconds to minutes, in user CPU time as well as
wall time, so the fastest or the median wall time of a run moved by
20-35% from run to run. Each timed part is therefore measured against a
fixed calibration loop timed just before and after it (see
``measure``), which slows down with the machine; across such phases the
calibrated time of one batch stayed within +-2%. The benchmark also
runs itself with a fixed PYTHONHASHSEED (HASH_SEED), because dict and set
layout follow the hash seed and moved one batch's time by +-5%.

End-to-end metrics (``--trace 0``). Times are the median, over the
run's batches, of the wall time divided by the calibration loop's time
next to it, times REFERENCE_LOOP_S: the wall time on an undisturbed
CPU of the VM the bounds were set on. The wall-clock medians are printed
as well.

    episodes_per_s   1/s    episodes / calibrated time of run_monte_carlo
    decisions_per_s  1/s    report.total_decisions / the same time
    setup_s          s      load_profiles + load_system + load_action_db
                            on the workload's JSON files (timed three
                            times before each batch)
    export_s         s      writing what simulate --out writes by default
    peak_rss_mb      MB     peak resident memory of the run, plus its
                            largest worker for fixture-jobs

A batch fails if it raises or if its report.json digest differs from the
one recorded for its case in ``perfbench/digests.json``; failed_frac
(failed / attempted) is printed with the table and is the ``failed`` and
``attempted`` of the JSON line. If every batch fails, the JSON line has
``"correct": false`` and no metrics, and the exit status is 1.

Per-layer metrics (``--trace 1``). For every traced stage S the run gives
``S.calls`` (count), ``S.s`` (inclusive seconds) and ``S.self_s`` (seconds
minus child spans), totals over the fastest traced batch, which includes
one set-up and one export. Layer -> the end-to-end metric it should move
-> on which workload:

    engine.filter_valid.{calls,s,calls_per_decision,actions_scanned,yield}
                             decisions_per_s  grid-25x250 (less on fixture-*)
    engine.select_target.self_s, engine.viable_edges.s
                             decisions_per_s  grid-25x250
    engine.step.{calls,self_s}  decisions_per_s, peak_rss_mb  wide-4x2000
    engine.candidates_per_decision  context count
    engine.DecisionContext.s  episodes_per_s (per-run precompute)
                             wide-4x2000
    kernels.profile_distances.{s,rows}, kernels.scores_from_distances.s,
    kernels.probabilities_from_scores.s, kernels.weighted_index.s
                             decisions_per_s  wide-4x2000; none on grid-25x250
    model.initial_knowledge.{calls,s}, model.validate_system.calls,
    model.reveal_on_compromise.{calls,s}
                             episodes_per_s   fixture-pmf
    profiles.sample_profile.{calls,s}  episodes_per_s  fixture-* only
                             (calls reads 0 and s is left out for
                             static-profile workloads)
    harness.aggregate.s, harness.run_monte_carlo.self_s
                             episodes_per_s   fixture-pmf
    harness.trace_bytes_per_episode  episodes_per_s fixture-jobs, peak_rss_mb
                             wide-4x2000 (pickled size of the traces)
    harness.parallel_speedup  serial / parallel run_monte_carlo time
                             fixture-jobs (reported there only)
    harness.export_report.s, harness.save_trace.s, harness.export_trace_dot.s,
    harness.trace_json_bytes  export_s  wide-4x2000
    model.load_system.s, actions.load_action_db.s, profiles.load_profiles.s
                             setup_s          wide-4x2000
    trace.overhead_frac      traced / untraced run_monte_carlo time - 1

The traced run alternates untraced and traced batches, and counts a
traced batch whose report digest differs as failed, so the wrappers are
shown not to change the RNG order. fixture-jobs traces only the parent
side (run_monte_carlo, aggregate); stages that run in the workers read 0
there. A stage missing from the package is listed as absent and reads 0.
Spans of the fastest traced batch are written to
``perfbench/out/spans-<workload>.json``.

Tests: ``python -m pytest -q perfbench/test_smoke.py`` runs the workloads
for three batches each (``--seconds 0``) against the recorded digests.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import instances
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
# The JSON result line carries the metrics BENCHMARK.json lists, by
# section; the printed table and the result file carry every metric.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LISTED = {section: [m["name"] for m in SPEC[section]]
          for section in ("end_to_end", "per_layer")}

CASES = 64          # Monte Carlo seeds with a recorded report digest
# A timed run cycles through CASES_PER_RUN cases, so that the cost and
# trace sizes of one seed's episodes (+-5% and more for the exported
# traces of grid-25x250) weigh less; seed n runs cases 8n .. 8n+7 mod 64.
CASES_PER_RUN = 8
# Generated workloads run one fixed instance per shape and take the case as
# the Monte Carlo seed: per-decision cost differed up to 1.7x between
# random 25-node instances, more than a change under test would move it.
INSTANCE_SEED = 0
MIN_BATCHES = 3
SETUPS_PER_BATCH = 3  # set-up is cheap next to a batch; more samples
# Fastest time of calibration_loop() on the 2-core VM (Python 3.11.7) the
# bounds in BENCHMARK.json were set on; it turns calibrated ratios into
# seconds. Changing it rescales every time the benchmark reports.
REFERENCE_LOOP_S = 0.0182
# String hashing, and with it the layout of every dict and set, follows
# the hash seed; one grid-25x250 batch varied by +-5% across hash seeds.
HASH_SEED = "0"
EXPORT_TRACES = 10  # simulate --out default --traces


@dataclass(frozen=True)
class Workload:
    shape: str | None        # generated instance shape; None = fixture
    episodes: int            # per batch
    profile: str | None      # static attacker; None samples the PMF
    max_steps: int | None = None
    parallel: bool = False

    @property
    def digest_key(self) -> str:
        return self.shape or "fixture"


# A batch takes about a second of simulation or less, so a run repeats it
# often enough for the median of its calibrated times to be stable. The
# generated workloads cap episodes: uncapped, grid-25x250 episodes last 6
# to 40 decisions and wide-4x2000 ones take a geometric number of attempts
# per node, so the work in a batch, its traces and its memory would follow
# the seed. Capped, 85% of grid-25x250 and nearly all wide-4x2000
# episodes run to the cap. The cost of a grid-25x250 decision still
# follows its episode's path, and a batch of 30 episodes varied by about
# +-5% from one seed to the next; 120 episodes average that out.
WORKLOADS = {
    "fixture-pmf": Workload(None, 1000, None),
    "fixture-jobs": Workload(None, 1000, None, parallel=True),
    "grid-25x250": Workload("grid", 120, "attacker", max_steps=16),
    "wide-4x2000": Workload("wide", 4, "attacker", max_steps=16),
}

END_TO_END = {
    "episodes_per_s": "1/s",
    "decisions_per_s": "1/s",
    "setup_s": "s",
    "export_s": "s",
    "peak_rss_mb": "MB",
}


PER_LAYER = {f"{name}.{field}": unit
             for name in tracing.SPAN_NAMES
             for field, unit in (("calls", "count"), ("s", "s"),
                                 ("self_s", "s"))}
PER_LAYER.update({
    "engine.filter_valid.calls_per_decision": "ratio",
    "engine.filter_valid.actions_scanned": "count",
    "engine.filter_valid.yield": "ratio",
    "engine.candidates_per_decision": "ratio",
    "kernels.profile_distances.rows": "count",
    "harness.trace_bytes_per_episode": "B",
    "harness.trace_json_bytes": "B",
    "harness.parallel_speedup": "ratio",
    "trace.overhead_frac": "ratio",
})


def import_package():
    """Import attacksim from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "attacksim" / "__init__.py").is_file():
        print(f"error: no attacksim package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import attacksim
    if Path(attacksim.__file__).resolve().parent != (src / "attacksim").resolve():
        print(f"error: attacksim imported from {attacksim.__file__}, "
              f"not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return attacksim


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(attacksim) -> dict:
    return {
        "python": platform.python_version(),
        "kernel_backend": attacksim.KERNEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "attacksim_version": attacksim.__version__,
        "git_commit": git_commit(),
    }


def calibration_loop() -> float:
    """Wall time of a fixed pure-Python loop (dict stores, small lists,
    str()), about 18 ms on an undisturbed CPU."""
    start = perf_counter()
    d = {}
    for i in range(120_000):
        d[i % 977] = [i, str(i)]
    return perf_counter() - start


class Bench:
    """One workload: its inputs, loaded once, and its batches."""

    def __init__(self, name: str, wl: Workload, work: Path):
        from attacksim.data import fixture_path
        self.name, self.wl, self.work = name, wl, work
        self.export_dir = work / "export"
        if wl.shape is None:
            self.inputs = {key: fixture_path(f"cstr_{key}.json")
                           for key in ("system", "actions", "profiles")}
        else:
            self.inputs = instances.write_instance(
                instances.generate(wl.shape, INSTANCE_SEED), work / "instance")
        self.profiles, self.system, self.db = self.load()

    def load(self, call=None):
        from attacksim import actions, model, profiles
        call = call or (lambda name, fn, *args: fn(*args))
        p = call("profiles.load_profiles", profiles.load_profiles,
                 self.inputs["profiles"])
        s = call("model.load_system", model.load_system, self.inputs["system"])
        d = call("actions.load_action_db", actions.load_action_db,
                 self.inputs["actions"], p.schema)
        return p, s, d

    def setup_time(self) -> float:
        start = perf_counter()
        self.load()
        return perf_counter() - start

    def config(self, seed: int, parallel: bool):
        from attacksim.harness import SimConfig
        jobs = len(os.sched_getaffinity(0)) if parallel else 1
        return SimConfig(episode_count=self.wl.episodes, seed=seed,
                         profile=self.wl.profile,
                         max_steps=self.wl.max_steps, parallelism=jobs)

    def batch(self, seed: int, tracer=None, parallel=None) -> dict:
        """One simulate --out: run, export, digest of report.json."""
        from attacksim import harness
        parallel = self.wl.parallel if parallel is None else parallel
        # Export into an emptied directory, as simulate --out into a new
        # directory does. Rewriting the files in place instead made the
        # fixture's export about twice as slow and much less steady on
        # ext4, which starts write-back when a truncated file is closed.
        out = self.export_dir
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        gc.collect()
        calibration = [calibration_loop()]
        if tracer is None:
            call = lambda name, fn, *args: fn(*args)
            profiles, system, db = self.profiles, self.system, self.db
            start = perf_counter()
            report, traces = harness.run_monte_carlo(
                system, db, profiles, self.config(seed, parallel))
            run_s = perf_counter() - start
        else:
            call = tracer.call
            profiles, system, db = self.load(call)
            stages = tracing.PARENT_STAGES if parallel else tracing.RUN_STAGES
            with tracer.patched(stages):
                start = perf_counter()
                report, traces = call("harness.run_monte_carlo",
                                      harness.run_monte_carlo, system, db,
                                      profiles, self.config(seed, parallel))
                run_s = perf_counter() - start
        trace_files = [out / f"trace_{t.index}.json"
                       for t in traces[:EXPORT_TRACES]]
        gc.collect()
        calibration.append(calibration_loop())
        start = perf_counter()
        call("harness.export_report", harness.export_report, report,
             out / "report.json", "json")
        call("harness.export_report", harness.export_report, report,
             out / "report.csv", "csv")
        for trace, path in zip(traces, trace_files):
            call("harness.save_trace", harness.save_trace, trace, path)
            path.with_suffix(".dot").write_text(
                call("harness.export_trace_dot", harness.export_trace_dot,
                     trace, system), encoding="utf-8")
        export_s = perf_counter() - start
        calibration.append(calibration_loop())
        result = {
            "run_s": run_s,
            "export_s": export_s,
            "calibration_s": calibration,
            "report": report,
            "traces": traces,
            "digest": hashlib.sha256(
                (out / "report.json").read_bytes()).hexdigest(),
            "trace_json_bytes": sum(p.stat().st_size for p in trace_files),
        }
        return result


def describe(bench: Bench, traces) -> str:
    from attacksim import harness
    return instances.describe(
        bench.system, bench.db, traces,
        (harness.TARGET_REACHED, harness.EXHAUSTED, harness.STEP_CAPPED))


class Gate:
    """Counts attempted and failed batches against the recorded digests of
    report.json, one per case."""

    def __init__(self, expected: list[str]):
        self.expected = expected
        self.checked: dict[int, str] = {}  # case -> digest it matched
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, bench: Bench, case: int, **kwargs) -> dict | None:
        self.attempted += 1
        try:
            batch = bench.batch(case, **kwargs)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if batch["digest"] != self.expected[case]:
            self.fail(f"case {case}: report digest {batch['digest']} != "
                      f"{self.expected[case]}")
            return None
        self.checked[case] = batch["digest"]
        return batch

    def fail(self, problem: str):
        print(f"FAILED: {problem}", file=sys.stderr)
        self.failed += 1
        self.problems.append(problem)


def peak_rss_mb(parallel: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if parallel:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def measure(bench: Bench, gate: Gate, cases: list[int],
            seconds: float) -> dict:
    """End-to-end metrics of batches repeated for `seconds`.

    Each timed part of a batch (set-up, run_monte_carlo, export) is
    divided by the mean of calibration_loop() timed just before and just
    after it; the median of these ratios over the run, times
    REFERENCE_LOOP_S, is the reported time (see "Steadiness" in the
    module docstring). Set-up is timed several times before each batch.
    The batches take the cases in turn.
    """
    deadline = perf_counter() + seconds
    run_r, decisions_r, export_r, setup_r, wall = [], [], [], [], []
    last = 0.0
    while gate.attempted < MIN_BATCHES or perf_counter() + last < deadline:
        start = perf_counter()
        before = calibration_loop()
        setup = [bench.setup_time() for _ in range(SETUPS_PER_BATCH)]
        batch = gate.run(bench, cases[gate.attempted % len(cases)])
        last = perf_counter() - start
        if batch is None:
            continue
        if not run_r:
            print("instance:", describe(bench, batch["traces"]))
        c0, c1, c2 = batch["calibration_s"]
        setup_r.extend(s / ((before + c0) / 2) for s in setup)
        run_r.append(batch["run_s"] / ((c0 + c1) / 2))
        decisions_r.append(batch["report"].total_decisions / run_r[-1])
        export_r.append(batch["export_s"] / ((c1 + c2) / 2))
        wall.append((batch["run_s"], batch["export_s"], before, c0, c1, c2))
        del batch
    if not run_r:
        return {}
    run_s = statistics.median(run_r) * REFERENCE_LOOP_S
    print("wall-clock medians: run_monte_carlo {:.6g} s, export {:.6g} s, "
          "calibration loop {:.6g} s".format(
              statistics.median(w[0] for w in wall),
              statistics.median(w[1] for w in wall),
              statistics.median(c for w in wall for c in w[2:])))
    return {
        "episodes_per_s": bench.wl.episodes / run_s,
        "decisions_per_s": statistics.median(decisions_r) / REFERENCE_LOOP_S,
        "setup_s": statistics.median(setup_r) * REFERENCE_LOOP_S,
        "export_s": statistics.median(export_r) * REFERENCE_LOOP_S,
        "peak_rss_mb": peak_rss_mb(bench.wl.parallel),
    }


def layer_metrics(bench: Bench, tracer, batch: dict) -> dict[str, float]:
    """Per-layer values of one traced batch (speed-up and overhead are
    filled in by the caller)."""
    stats = tracer.summary()
    out: dict[str, float] = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s") and span in stats:
            calls, total, own = stats[span]
            out[name] = {"calls": calls, "s": total, "self_s": own}[field]
        else:
            out[name] = 0
    if bench.wl.profile is not None:  # a static profile skips the PMF:
        for field in ("s", "self_s"):   # 0 calls, and no time to report
            del out[f"profiles.sample_profile.{field}"]
    report, traces = batch["report"], batch["traces"]
    decisions = max(1, report.total_decisions)
    fv_calls = out["engine.filter_valid.calls"]
    scanned = fv_calls * len(bench.db.actions)
    out["engine.filter_valid.calls_per_decision"] = fv_calls / decisions
    out["engine.filter_valid.actions_scanned"] = scanned
    out["engine.filter_valid.yield"] = (
        tracer.counts.get("engine.filter_valid", 0) / scanned if scanned else 0)
    out["engine.candidates_per_decision"] = sum(
        len(r.candidates) for t in traces for r in t.records) / decisions
    out["kernels.profile_distances.rows"] = tracer.counts.get(
        "kernels.profile_distances", 0)
    out["harness.trace_bytes_per_episode"] = len(
        pickle.dumps(traces, pickle.HIGHEST_PROTOCOL)) / len(traces)
    out["harness.trace_json_bytes"] = batch["trace_json_bytes"]
    return out


def measure_traced(bench: Bench, gate: Gate, case: int,
                   seconds: float) -> dict:
    """Per-layer metrics of the fastest traced batch of one case; untraced
    (and, for a parallel workload, serial) batches alternate with the
    traced ones for the overhead and the speed-up."""
    deadline = perf_counter() + seconds
    untraced, serial, best, counts = [], [], None, None
    rounds, last = 0, 0.0
    while rounds < MIN_BATCHES or perf_counter() + last < deadline:
        rounds += 1
        start = perf_counter()
        batch = gate.run(bench, case)
        if batch is not None:
            untraced.append(batch["run_s"])
        if bench.wl.parallel:
            batch = gate.run(bench, case, parallel=False)
            if batch is not None:
                serial.append(batch["run_s"])
        tracer = tracing.Tracer()
        batch = gate.run(bench, case, tracer=tracer)
        last = perf_counter() - start
        if batch is None:
            continue
        for problem in tracing.nesting_problems(tracer.spans):
            gate.fail(problem)
        metrics = layer_metrics(bench, tracer, batch)
        exact = {k: v for k, v in metrics.items()
                 if PER_LAYER[k] in ("count", "B")}
        if counts is None:
            counts = exact
            print("instance:", describe(bench, batch["traces"]))
        elif exact != counts:
            gate.fail("traced counts differ between identical batches")
        if best is None or batch["run_s"] < best[0]:
            best = (batch["run_s"], metrics, tracer)
        del batch
    if best is None or not untraced:
        return {}
    traced_s, out, tracer = best
    if tracer.absent:
        print("absent:", " ".join(sorted(tracer.absent)))
    if bench.wl.parallel:
        print("worker-side stages not traced: only harness.run_monte_carlo "
              "and harness.aggregate are recorded")
    tracer.write(OUT / f"spans-{bench.name}.json")
    if serial:
        out["harness.parallel_speedup"] = min(serial) / min(untraced)
    else:
        del out["harness.parallel_speedup"]
    out["trace.overhead_frac"] = traced_s / min(untraced) - 1.0
    return out


def table(metrics: dict, units: dict[str, str]) -> str:
    return "\n".join(f"  {name:<44} {metrics[name]:>16.6g} {units[name]}"
                     for name in units if name in metrics)


def run_one(args) -> int:
    attacksim = import_package()
    env = environment(attacksim)
    wl = WORKLOADS[args.workload]
    cases = [(args.seed * CASES_PER_RUN + k) % CASES
             for k in range(CASES_PER_RUN)]
    gate = Gate(json.loads(DIGESTS.read_text())[wl.digest_key])
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        bench = Bench(args.workload, wl, work)
        if args.trace:
            metrics = measure_traced(bench, gate, cases[0], args.seconds)
            units, listed = PER_LAYER, LISTED["per_layer"]
        else:
            metrics = measure(bench, gate, cases, args.seconds)
            units, listed = END_TO_END, LISTED["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("env:", json.dumps(env, sort_keys=True))
    print(f"workload={args.workload} seed={args.seed} "
          f"cases={','.join(map(str, sorted(gate.checked)))} "
          f"episodes={wl.episodes} "
          f"failed_frac={gate.failed / gate.attempted:.6g} "
          f"({gate.failed}/{gate.attempted})")
    if metrics:
        print(table(metrics, units))
    else:
        print(f"error: every batch of {args.workload} failed", file=sys.stderr)
    result = {
        "correct": gate.failed == 0 and bool(metrics),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in listed if k in metrics},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"env": env, "workload": args.workload,
                              "seed": args.seed,
                              "digests": gate.checked,
                              "problems": gate.problems,
                              **result, "all_metrics": metrics},
                             indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if metrics else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} failed_frac="
              f"{result['failed'] / result['attempted']:.6g} "
              f"({result['failed']}/{result['attempted']})")
        print(table({k: m["value"] for k, m in result["metrics"].items()},
                    {k: m["unit"] for k, m in result["metrics"].items()}))
        status |= not result["correct"]
    return status


def record(args) -> int:
    """Re-record the digest of report.json for every case.

    Run only when a change to the workloads is intended: the digests pin
    the reports of the commit that recorded them.
    """
    import_package()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    table_ = {"cases": CASES}
    try:
        for name, wl in WORKLOADS.items():
            if wl.digest_key in table_:
                continue  # fixture-jobs must reproduce fixture-pmf
            bench = Bench(name, wl, work / name)
            digests = []
            for seed in range(CASES):
                digests.append(bench.batch(seed)["digest"])
                print(name, seed, digests[-1], flush=True)
            table_[wl.digest_key] = digests
    finally:
        shutil.rmtree(work, ignore_errors=True)
    DIGESTS.write_text(json.dumps(table_, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="attacksim benchmark (see the module docstring)")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload; default: all, as a table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record perfbench/digests.json")
    args = parser.parse_args(argv)
    if args.record:
        return record(args)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # The hash seed is read at interpreter start: run again with it.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    raise SystemExit(main())
