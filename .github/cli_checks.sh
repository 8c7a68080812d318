#!/usr/bin/env bash
# CLI checks shared by the CI jobs. Run from the repository root, with
# RUNNER_TEMP naming a scratch directory for the runs' output:
#
#   bash .github/cli_checks.sh traces FILE...
#       every trace FILE equals json.dumps(json.load(f), indent=2) of what
#       it holds, byte for byte, and `attacksim trace FILE --summary` reads
#       it back, which checks the writer against the reader's rules
#   bash .github/cli_checks.sh wide
#       a 2000-action database through the CLI's load path: the benchmark's
#       wide instance, written by perfbench/instances.py (only read here,
#       never edited), must validate, and its seeded run must write the
#       same files at --jobs 1 and 2, and again at --jobs 1 in a process
#       that has just run the fixture's seeded simulate. Every trace it
#       writes, of about 1600 candidates a decision, goes through
#       `traces`, so the reader checks the scores and probabilities the
#       writer derived from the distances
#   bash .github/cli_checks.sh scale
#       a 100-node / 2000-action grid, perfbench/instances.py's grid
#       generator (only read here, never edited) with its shape widened
#       in the writing process to 100 nodes in layers of 10, 5 entry
#       edges and 2000 actions, must validate, and its seeded run of 16
#       episodes must write the same files at --jobs 1 and 2; its traces
#       go through `traces`. Unlike the fixture's and wide's runs, it
#       fills fresh-node memo entries that no decision draws from, so
#       only the decisions that draw from an entry score it
#   bash .github/cli_checks.sh ingest
#       the bundled CAPEC and NVD samples through `python -m attacksim
#       ingest`, the real entry point, which loads the ingest module and
#       its XML parser only for this command: writing into a directory
#       that does not exist yet, which ingest creates, it must exit 0 and
#       print imported=6 annotated=0 skipped=0
#   bash .github/cli_checks.sh imports
#       tests/import_probe.py, which uses only the standard library, so
#       it runs without the test dependencies: no process pool or XML
#       parser after importing attacksim, `validate`, a serial `simulate`
#       and `trace`; `--jobs 2` loads the pool and writes the serial run's
#       report, and `ingest` loads the XML parser. Exits 1 when a rule
#       breaks
#   bash .github/cli_checks.sh seeded
#       the fixture's seeded run, with the args and each --jobs value
#       recorded in tests/data/seeded_output_sha256.json, must write
#       exactly the recorded files; it uses only the standard library, so
#       it runs without the test dependencies, and exits 1 when a file
#       differs, is missing or is extra
#
# Exits non-zero on the first failed check.
set -euo pipefail
export PYTHONPATH=src

traces() {
  python -c 'import json, sys; sys.exit([f for f in sys.argv[1:] if open(f, "rb").read() != json.dumps(json.load(open(f)), indent=2).encode()] or None)' "$@"
  for f in "$@"; do
    python -m attacksim trace "$f" --summary > /dev/null
  done
}

wide() {
  local out="$RUNNER_TEMP/wide"
  python -c 'import sys; from pathlib import Path; sys.path.insert(0, "perfbench"); import instances; instances.write_instance(instances.generate("wide", 0), Path(sys.argv[1]))' "$out/instance"
  local inputs=("$out/instance/system.json" "$out/instance/actions.json"
                "$out/instance/profiles.json")
  test "$(python -m attacksim validate "${inputs[@]}")" = OK
  for jobs in 1 2; do
    python -m attacksim simulate "${inputs[@]}" --profile attacker \
      --episodes 8 --max-steps 16 --seed 42 --jobs $jobs \
      --out "$out/jobs$jobs"
  done
  diff -r "$out/jobs1" "$out/jobs2"
  # one process runs the fixture's seeded simulate and then the wide one
  # again at --jobs 1: the second must write jobs1's files, so no writer
  # state carries from one run to the next in a process
  python - "$out/shared" "${inputs[@]}" > /dev/null <<'EOF'
import json, sys
from pathlib import Path
from attacksim.cli import main

out, inputs = sys.argv[1], sys.argv[2:]
golden = json.loads(Path("tests/data/seeded_output_sha256.json")
                    .read_text(encoding="utf-8"))["fixture"]
fixture = [f"src/attacksim/data/cstr_{name}.json"
           for name in ("system", "actions", "profiles")]
for argv in ([*fixture, *golden["args"], "--out", f"{out}-fixture"],
             [*inputs, "--profile", "attacker", "--episodes", "8",
              "--max-steps", "16", "--seed", "42", "--jobs", "1",
              "--out", out]):
    code = main(["simulate", *argv])
    if code:
        sys.exit(code)
EOF
  diff -r "$out/jobs1" "$out/shared"
  traces "$out"/jobs*/trace_*.json
}

scale() {
  local out="$RUNNER_TEMP/scale"
  python - "$out/instance" <<'EOF'
import sys
from pathlib import Path
sys.path.insert(0, "perfbench")
import instances

grid = instances.SHAPES["grid"]
instances.SHAPES["grid"] = dict(nodes=100, width=10, entries=5, actions=2000,
                                success=grid["success"])
instances.write_instance(instances.generate("grid", 0), Path(sys.argv[1]))
EOF
  local inputs=("$out/instance/system.json" "$out/instance/actions.json"
                "$out/instance/profiles.json")
  test "$(python -m attacksim validate "${inputs[@]}")" = OK
  for jobs in 1 2; do
    python -m attacksim simulate "${inputs[@]}" --profile attacker \
      --episodes 16 --seed 42 --traces 2 --jobs $jobs --out "$out/jobs$jobs"
  done
  diff -r "$out/jobs1" "$out/jobs2"
  traces "$out"/jobs*/trace_*.json
}

ingest() {
  local out="$RUNNER_TEMP/ingest"
  local summary
  summary="$(python -m attacksim ingest --capec tests/data/capec_sample.xml \
    --cve tests/data/nvd_sample.json --out "$out/skeletons.json")"
  test "$summary" = "imported=6 annotated=0 skipped=0"
}

imports() {
  python tests/import_probe.py "$RUNNER_TEMP/imports"
}

seeded() {
  python - "$RUNNER_TEMP" <<'EOF'
import hashlib, json, subprocess, sys
from pathlib import Path

golden = json.loads(Path("tests/data/seeded_output_sha256.json")
                    .read_text(encoding="utf-8"))["fixture"]
data = Path("src/attacksim/data")
inputs = [str(data / f"cstr_{name}.json")
          for name in ("system", "actions", "profiles")]
failed = False
for jobs in golden["jobs"]:
    out = Path(sys.argv[1]) / f"seeded-jobs{jobs}"
    subprocess.run([sys.executable, "-m", "attacksim", "simulate", *inputs,
                    *golden["args"], "--jobs", str(jobs), "--out", str(out)],
                   check=True, stdout=subprocess.DEVNULL)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    bad = sorted(n for n in got.keys() | golden["sha256"].keys()
                 if got.get(n) != golden["sha256"].get(n))
    print(f"--jobs {jobs}: {len(got)} files, {len(bad)} differ", *bad)
    failed = failed or bool(bad)
sys.exit(failed)
EOF
}

case "${1-}" in
  traces) shift; traces "$@" ;;
  wide) wide ;;
  scale) scale ;;
  ingest) ingest ;;
  imports) imports ;;
  seeded) seeded ;;
  *) echo "usage: $0 traces FILE... | wide | scale | ingest | imports | seeded" >&2; exit 2 ;;
esac
