"""Command-line interface.

Subcommands: validate, simulate, ingest, trace. Exit codes: 0 success,
1 validation failure, 2 usage error, 3 I/O error. Summary output is
machine-parseable (key=value pairs on one line). `main` alone maps an
error to its exit code; only `validate` prints its problems, to stdout.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from pathlib import Path

from attacksim.actions import load_action_db
from attacksim.errors import ValidationFailure, document, read_json
from attacksim.harness import (
    SimConfig,
    export_report,
    export_trace_dot,
    load_trace,
    resolve_mode,
    run_monte_carlo,
    save_trace,
)
from attacksim.model import load_system
from attacksim.profiles import load_profiles, schema_from_list

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_IO = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attacksim",
        description="Simulate attacker behavior against a modeled system.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structurally validate input files")
    p.add_argument("system", help="system description JSON")
    p.add_argument("actions", help="action database JSON")
    p.add_argument("profiles", help="profiles document JSON")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="run seeded Monte Carlo episodes")
    p.add_argument("system")
    p.add_argument("actions")
    p.add_argument("profiles")
    p.add_argument("--episodes", type=int, default=1000, metavar="N")
    p.add_argument("--seed", type=int, default=None, metavar="S",
                   help="master seed; drawn from entropy and printed if omitted")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="output directory (created if missing)")
    p.add_argument("--profile", metavar="NAME",
                   help="static attacker profile name (default: the PMF)")
    p.add_argument("--max-steps", type=int, default=None, metavar="K")
    p.add_argument("--jobs", type=int, default=1, metavar="J",
                   help="episode workers")
    p.add_argument("--traces", type=int, default=10, metavar="T",
                   help="number of full per-episode trace files to write")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ingest", help="compile catalog exports into actions")
    p.add_argument("--capec", action="append", default=[], metavar="FILE",
                   help="CAPEC XML catalog export (repeatable)")
    p.add_argument("--cve", action="append", default=[], metavar="FILE",
                   help="NVD CVE JSON feed (repeatable)")
    p.add_argument("--annotations", metavar="FILE",
                   help="profile annotations to merge (contains the schema)")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("trace", help="render a saved episode trace")
    p.add_argument("trace", help="trace JSON file")
    how = p.add_mutually_exclusive_group()
    how.add_argument("--dot", action="store_true", help="GraphViz DOT output")
    how.add_argument("--summary", action="store_true",
                     help="step table (default)")
    p.set_defaults(func=cmd_trace)

    return parser


def load_inputs(system_path, actions_path, profiles_path):
    """The system, action database and profile set in three input files,
    or one ValidationFailure("invalid inputs") listing the problems of every
    document and every profile (`ActionDatabase.attacker_ranges`)."""
    problems: list[str] = []

    def read(load, *args):
        try:
            return load(*args)
        except ValidationFailure as exc:
            problems.extend(exc.errors or [str(exc)])

    profile_set = read(load_profiles, profiles_path)
    system = read(load_system, system_path)
    db = None
    if profile_set is None:
        Path(actions_path).stat()  # a missing actions file still exits 3
        problems.append("actions not validated: profiles document is invalid")
    else:
        db = read(load_action_db, actions_path, profile_set.schema)
    if db is not None:  # an empty database is falsy
        for profile in profile_set.profiles.values():
            read(db.attacker_ranges, profile)
    if problems:
        raise ValidationFailure("invalid inputs", problems)
    return system, db, profile_set


def cmd_validate(args) -> int:
    try:
        load_inputs(args.system, args.actions, args.profiles)
    except ValidationFailure as exc:
        print(*exc.errors, sep="\n")
        return EXIT_INVALID
    print("OK")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.traces < 0:
        print("error: --traces must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    system, db, profile_set = load_inputs(args.system, args.actions,
                                          args.profiles)

    if args.profile is not None:
        profile_name = args.profile
    elif profile_set.pmf is not None:
        profile_name = None
    elif len(profile_set.profiles) == 1:
        profile_name = next(iter(profile_set.profiles))
    else:
        print("error: no PMF in profiles document; pass --profile NAME",
              file=sys.stderr)
        return EXIT_USAGE

    seed = args.seed if args.seed is not None else secrets.randbits(63)
    config = SimConfig(
        episode_count=args.episodes,
        seed=seed,
        profile=profile_name,
        max_steps=args.max_steps,
        parallelism=args.jobs,
    )
    resolve_mode(profile_set, config)  # a bad config creates no --out
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report, traces = run_monte_carlo(system, db, profile_set, config)
    export_report(report, out_dir / "report.json", "json")
    export_report(report, out_dir / "report.csv", "csv")
    for trace in traces[:args.traces]:
        save_trace(trace, out_dir / f"trace_{trace.index}.json")
        (out_dir / f"trace_{trace.index}.dot").write_text(
            export_trace_dot(trace, system), encoding="utf-8")
    print(f"episodes={report.episodes} seed={seed} "
          f"success_rate={report.success_rate:.6f} "
          f"ci95_low={report.ci95[0]:.6f} ci95_high={report.ci95[1]:.6f} "
          f"out={out_dir}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    # ingest, and with it the XML parser, loads only for this command
    from attacksim.ingest import (
        actions_fragment_to_dict,
        dedupe_skeletons,
        import_capec,
        import_cve_feed,
        merge_annotations,
        skeletons_to_dict,
    )

    if not args.capec and not args.cve:
        print("error: at least one --capec or --cve source file is required",
              file=sys.stderr)
        return EXIT_USAGE
    skeletons = []
    for f in args.capec:
        skeletons.extend(import_capec(f))
    for f in args.cve:
        skeletons.extend(import_cve_feed(f))
    skeletons = dedupe_skeletons(skeletons)

    if args.annotations:
        ann_doc = read_json(args.annotations)
        errors = document(ann_doc, {"schema", "annotations"},
                          "annotations document")
        schema = schema_from_list(ann_doc.get("schema", []), errors)
        if errors:
            raise ValidationFailure("invalid annotations document", errors)
        actions, unannotated = merge_annotations(
            skeletons, ann_doc.get("annotations", {}), schema)
        doc = actions_fragment_to_dict(actions)
        annotated, skipped = len(actions), len(unannotated)
        for aid in unannotated:
            print(f"unannotated: {aid}", file=sys.stderr)
    else:
        doc = skeletons_to_dict(skeletons)
        annotated, skipped = 0, 0
    Path(args.out).write_text(json.dumps(doc, indent=2), encoding="utf-8")
    print(f"imported={len(skeletons)} annotated={annotated} skipped={skipped}")
    return EXIT_OK


def cmd_trace(args) -> int:
    trace = load_trace(args.trace)
    if args.dot:
        print(export_trace_dot(trace), end="")
        return EXIT_OK
    print(f"episode={trace.index} profile={trace.profile} "
          f"status={trace.status}")
    print(f"{'step':>4}  {'target':<12} {'action':<24} "
          f"{'probability':>11}  outcome")
    for i, rec in enumerate(trace.records, start=1):
        print(f"{i:>4}  {rec.target:<12} {rec.chosen:<24} "
              f"{rec.probability:>11.3f}  {rec.outcome}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationFailure as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
