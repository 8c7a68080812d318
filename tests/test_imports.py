"""The process pool and the XML parser load only where they run.

One fresh interpreter imports attacksim and runs the CLI's `validate`,
a serial `simulate` and `trace --summary` on the bundled fixture, then
asks the harness for a name it lacks; after each step none of the heavy
modules is loaded. Then `simulate --jobs 2` must load the pool and write
the serial run's report, and `harness.ProcessPoolExecutor` must be
concurrent.futures' class.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import attacksim

SRC = Path(attacksim.__file__).resolve().parents[1]

CHILD = r"""
import json, sys
from pathlib import Path

HEAVY = ("multiprocessing", "concurrent.futures.process",
         "xml.etree.ElementTree")
seen = {}

def after(step, code=0):
    seen[step] = {"code": code,
                  "loaded": [m for m in HEAVY if m in sys.modules]}

import attacksim
after("import")
from attacksim import harness
from attacksim.cli import main
from attacksim.data import fixture_path

out = Path(sys.argv[1])
fixture = [str(fixture_path(f"cstr_{name}.json"))
           for name in ("system", "actions", "profiles")]
run = [*fixture, "--episodes", "40", "--seed", "7", "--traces", "1"]
after("validate", main(["validate", *fixture]))
after("simulate", main(["simulate", *run, "--out", str(out / "jobs1")]))
after("trace", main(["trace", str(out / "jobs1" / "trace_0.json"),
                     "--summary"]))

unknown = hasattr(harness, "no_such_name")
after("hasattr")
# with one CPU the run would stay serial and never use the pool
harness._usable_cpus = lambda: 2
jobs2 = main(["simulate", *run, "--jobs", "2", "--out", str(out / "jobs2")])
jobs2_pool_loaded = "concurrent.futures.process" in sys.modules
import concurrent.futures
pool_is_real = (harness.ProcessPoolExecutor
                is concurrent.futures.ProcessPoolExecutor)
print(json.dumps({
    "steps": seen,
    "pool_is_real": pool_is_real,
    "unknown_attribute": unknown,
    "jobs2": jobs2,
    "jobs2_pool_loaded": jobs2_pool_loaded,
    "same_report": ((out / "jobs1" / "report.json").read_bytes()
                    == (out / "jobs2" / "report.json").read_bytes()),
}))
"""


@pytest.fixture(scope="module")
def child(tmp_path_factory):
    out = tmp_path_factory.mktemp("imports")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("step", ["import", "validate", "simulate", "trace",
                                  "hasattr"])
def test_no_pool_or_xml_parser_after(child, step):
    assert child["steps"][step] == {"code": 0, "loaded": []}


def test_pool_attribute_is_the_real_class(child):
    assert child["pool_is_real"] is True


def test_unknown_attribute_is_absent(child):
    assert child["unknown_attribute"] is False


def test_jobs_two_loads_the_pool_and_matches_serial(child):
    assert child["jobs2"] == 0
    assert child["jobs2_pool_loaded"] is True
    assert child["same_report"] is True
