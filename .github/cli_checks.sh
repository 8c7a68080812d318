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

case "${1-}" in
  traces) shift; traces "$@" ;;
  wide) wide ;;
  *) echo "usage: $0 traces FILE... | wide" >&2; exit 2 ;;
esac
