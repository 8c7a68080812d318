#!/usr/bin/env bash
# CLI checks shared by the CI jobs. Run from the repository root, with
# RUNNER_TEMP naming a scratch directory for the wide run's output:
#
#   bash .github/cli_checks.sh traces FILE...
#       every trace FILE equals json.dumps(json.load(f), indent=2) of what
#       it holds, byte for byte, and `attacksim trace FILE --summary` reads
#       it back, which checks the writer against the reader's rules
#   bash .github/cli_checks.sh wide
#       a 2000-action database through the CLI's load path: the benchmark's
#       wide instance, written by perfbench/instances.py (only read here,
#       never edited), must validate, and its seeded run must write the
#       same files at --jobs 1 and 2. Every trace it writes, of about 1600
#       candidates a decision, goes through `traces`, so the reader checks
#       the scores and probabilities the writer derived from the distances
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
  traces "$out"/jobs*/trace_*.json
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
  seeded) seeded ;;
  *) echo "usage: $0 traces FILE... | wide | seeded" >&2; exit 2 ;;
esac
