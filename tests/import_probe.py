"""The process pool and the XML parser load only where they run.

    PYTHONPATH=src python tests/import_probe.py [OUT_DIR]

Uses only the standard library, so it runs without the test
dependencies. One interpreter imports attacksim and runs the CLI's
`validate`, a serial `simulate` and `trace --summary` on the bundled
fixture; after each, none of multiprocessing, concurrent.futures.process
and xml.etree.ElementTree may be loaded. Then `simulate --jobs 2` must
load the pool and write the serial run's report.json byte for byte, and
`ingest` of the CAPEC sample must load the XML parser: these two show
that the probe sees each kind of load. The runs write under OUT_DIR, or
under a temporary directory when none is given.

Prints what each step exited with and left loaded as one JSON object on
the last line of stdout, names each broken rule on stderr, and exits 1
when any rule breaks.
"""

import json
import sys
import tempfile
from pathlib import Path

POOL = "concurrent.futures.process"
XML_PARSER = "xml.etree.ElementTree"
HEAVY = ("multiprocessing", POOL, XML_PARSER)
SERIAL_STEPS = ("import", "validate", "simulate", "trace")
CAPEC = Path(__file__).resolve().parent / "data" / "capec_sample.xml"


def probe(out: Path) -> dict:
    """Each step's exit code and the heavy modules loaded after it."""
    seen = {}

    def after(step, code):
        seen[step] = {"code": code,
                      "loaded": [m for m in HEAVY if m in sys.modules]}

    import attacksim  # noqa: F401
    after("import", 0)
    from attacksim import harness
    from attacksim.cli import main
    from attacksim.data import fixture_path

    fixture = [str(fixture_path(f"cstr_{name}.json"))
               for name in ("system", "actions", "profiles")]
    run = [*fixture, "--episodes", "40", "--seed", "7", "--traces", "1"]
    after("validate", main(["validate", *fixture]))
    after("simulate", main(["simulate", *run, "--out", str(out / "jobs1")]))
    after("trace", main(["trace", str(out / "jobs1" / "trace_0.json"),
                         "--summary"]))
    # with one CPU the run would stay serial and never use the pool
    harness._usable_cpus = lambda: 2
    after("jobs2", main(["simulate", *run, "--jobs", "2",
                         "--out", str(out / "jobs2")]))
    reports = [out / run_dir / "report.json" for run_dir in ("jobs1", "jobs2")]
    seen["jobs2"]["same_report"] = (
        all(p.exists() for p in reports)
        and reports[0].read_bytes() == reports[1].read_bytes())
    after("ingest", main(["ingest", "--capec", str(CAPEC),
                          "--out", str(out / "ingest" / "skeletons.json")]))
    return seen


def broken_rules(seen: dict) -> list[str]:
    broken = [f"{step} exited {s['code']}"
              for step, s in seen.items() if s["code"]]
    broken += [f"{', '.join(seen[step]['loaded'])} loaded after {step}"
               for step in SERIAL_STEPS if seen[step]["loaded"]]
    if POOL not in seen["jobs2"]["loaded"]:
        broken.append(f"--jobs 2 did not load {POOL}")
    if not seen["jobs2"]["same_report"]:
        broken.append("--jobs 2 did not write the serial run's report.json")
    if XML_PARSER not in seen["ingest"]["loaded"]:
        broken.append(f"ingest did not load {XML_PARSER}")
    return broken


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        seen = probe(Path(argv[0]) if argv else Path(tmp))
    print(json.dumps(seen))
    broken = broken_rules(seen)
    for rule in broken:
        print(f"broken: {rule}", file=sys.stderr)
    return 1 if broken else 0


# the guard keeps a spawned or forkserver pool worker, which imports this
# file as its main module, from running the probe again
if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
