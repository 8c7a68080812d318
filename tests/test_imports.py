"""The process pool and the XML parser load only where they run.

tests/import_probe.py runs the checks in a fresh interpreter; each test
here reads one of its rules from what the probe saw.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import attacksim

SRC = Path(attacksim.__file__).resolve().parents[1]
PROBE = Path(__file__).with_name("import_probe.py")


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    out = tmp_path_factory.mktemp("imports")
    proc = subprocess.run(
        [sys.executable, str(PROBE), str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    # a crash prints no report; a broken rule still does
    assert proc.stdout.endswith("}\n"), proc.stderr
    return proc, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("step", ["import", "validate", "simulate", "trace"])
def test_no_pool_or_xml_parser_after(probe, step):
    assert probe[1][step] == {"code": 0, "loaded": []}


def test_jobs_two_loads_the_pool_and_matches_serial(probe):
    jobs2 = probe[1]["jobs2"]
    assert jobs2["code"] == 0
    assert "concurrent.futures.process" in jobs2["loaded"]
    assert jobs2["same_report"] is True


def test_ingest_loads_the_xml_parser(probe):
    ingest = probe[1]["ingest"]
    assert ingest["code"] == 0
    assert "xml.etree.ElementTree" in ingest["loaded"]


def test_probe_exits_zero_with_no_broken_rule(probe):
    assert probe[0].returncode == 0, probe[0].stderr
