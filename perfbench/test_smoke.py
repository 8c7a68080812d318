"""Smoke test of the benchmark: each workload for the minimum number of
batches (``--seconds 0``), checked against the recorded report digests.
Run with: python -m pytest -q perfbench/test_smoke.py"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DIGESTS = json.loads((HERE / "digests.json").read_text())

REQUIRED_METRICS = {"episodes_per_s", "decisions_per_s", "setup_s", "export_s",
                 "peak_rss_mb"}


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout + proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    summary = next(l for l in lines if l.startswith("workload="))
    assert "failed_frac=0 " in summary
    saved = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace"
                        f"{trace}.json").read_text())
    for key in ("python", "kernel_backend", "nproc", "attacksim_version",
                "git_commit"):
        assert key in saved["env"]
    return result, saved["digests"]


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def recorded(key, seed):
    """The recorded digests of the cases a --seconds 0 run of `seed`
    covers: its first three."""
    return {str(case): DIGESTS[key][case]
            for case in range(seed * 8, seed * 8 + 3)}


def test_repeated_invocations_give_the_recorded_digests():
    _, first = bench("fixture-pmf", 5, 0)
    _, second = bench("fixture-pmf", 5, 0)
    assert first == second == recorded("fixture", 5)


def test_jobs_reproduce_the_serial_report():
    _, serial = bench("fixture-pmf", 6, 0)
    _, jobs = bench("fixture-jobs", 6, 0)
    assert jobs == serial == recorded("fixture", 6)


@pytest.mark.parametrize("workload", ["grid-25x250", "wide-4x2000"])
def test_end_to_end_metrics_have_names_and_units(workload):
    result, _ = bench(workload, 1, 0)
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == units("end_to_end")
    assert REQUIRED_METRICS <= set(got)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_spans_nest_and_metrics_have_units():
    result, _ = bench("grid-25x250", 2, 1)
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == units("per_layer")
    assert result["metrics"]["engine.filter_valid.calls"]["value"] > 0
    doc = json.loads((HERE / "out" / "spans-grid-25x250.json").read_text())
    spans = doc["spans"]
    assert spans and doc["absent"] == []
    children = [0.0] * len(spans)
    for name, start, end, parent in spans:
        assert end >= start, name
        if parent >= 0:
            children[parent] += end - start
    for (name, start, end, _), covered in zip(spans, children):
        assert covered <= end - start, name  # self time is non-negative


def test_missing_stage_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from tracer import Tracer
    import attacksim.engine

    tracer = Tracer()
    stages = [("attacksim.engine", "no_such_stage", "engine.no_such_stage"),
              ("attacksim.no_such_module", "f", "gone.f"),
              ("attacksim.engine", "viable_edges", "engine.viable_edges")]
    original = attacksim.engine.viable_edges
    with tracer.patched(stages):
        assert attacksim.engine.viable_edges is not original
    assert attacksim.engine.viable_edges is original
    assert tracer.absent == {"engine.no_such_stage", "gone.f"}


def test_wrong_digest_fails_every_batch(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(HERE))
    import run

    wrong = dict(DIGESTS, fixture=["0" * 64] * DIGESTS["cases"])
    monkeypatch.setattr(run, "DIGESTS", tmp_path / "digests.json")
    run.DIGESTS.write_text(json.dumps(wrong))
    status = run.main(["--workload", "fixture-pmf", "--seed", "3",
                       "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 1
    assert result["correct"] is False and result["metrics"] == {}
    assert result["failed"] == result["attempted"] >= 1
