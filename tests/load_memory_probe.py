"""Memory and time of loading a catalog-sized action database.

    PYTHONPATH=src python tests/load_memory_probe.py ACTIONS [OUT_DIR]

Uses only the standard library, so it runs without the test
dependencies. A child process writes perfbench/instances.py's wide
instance (only read here, never edited) with its action count raised to
ACTIONS, under OUT_DIR or under a temporary directory when none is
given, so that building the document leaves no mark on this process's
resident memory. This process then reads the instance's actions.json
with `actions.load_action_db`:

- once untraced: the load's time, the collections the cyclic collector
  ran in it by generation and their time (`gc.callbacks`), and the
  process's peak resident memory (`ru_maxrss`) before and after it;
- then under tracemalloc: the peak of parsing the file alone
  (`errors.read_json`, the document then dropped), the peak of the
  whole load, and the memory the database keeps.

Prints them as one JSON object on the last line of stdout, and exits 1
when the load's peak exceeds the parse's by more than 2%: the load then
holds more than the parsed document at some point while it builds the
database.
"""

import gc
import json
import platform
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
# the most the load's tracemalloc peak may exceed the parse's by
PEAK_RATIO = 1.02
FILES = ("system", "actions", "profiles")


def write_wide(actions: int, out: Path) -> dict[str, Path]:
    """The paths of perfbench's wide instance with `actions` actions,
    written under `out`."""
    spec = spec_from_file_location("perfbench_instances",
                                   ROOT / "perfbench" / "instances.py")
    instances = module_from_spec(spec)
    spec.loader.exec_module(instances)
    # the shapes of this module object only; the file is not changed
    instances.SHAPES["wide"] = dict(instances.SHAPES["wide"], actions=actions)
    return instances.write_instance(instances.generate("wide", 0), out)


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(paths: dict[str, Path]) -> dict:
    """One load's time, its collections by generation and their time, and
    the process's peak resident memory before and after it."""
    from attacksim.actions import load_action_db
    from attacksim.profiles import load_profiles

    schema = load_profiles(paths["profiles"]).schema
    counts = {"0": 0, "1": 0, "2": 0}
    pause = [0.0, 0.0]  # the running total, the current collection's start

    def collection(phase, info):
        if phase == "start":
            counts[str(info["generation"])] += 1
            pause[1] = perf_counter()
        else:
            pause[0] += perf_counter() - pause[1]

    before = rss_mb()
    gc.callbacks.append(collection)
    try:
        start = perf_counter()
        db = load_action_db(paths["actions"], schema)
        load_s = perf_counter() - start
    finally:
        gc.callbacks.remove(collection)
    return {"loaded": len(db), "load_s": load_s, "collections": counts,
            "collector_s": pause[0], "ru_maxrss_before_mb": before,
            "ru_maxrss_mb": rss_mb()}


def traced(paths: dict[str, Path]) -> dict:
    """tracemalloc's view, in KB: the peak of parsing the actions file
    alone, the peak of loading it, and what the loaded database keeps;
    each counted from the memory traced just before it."""
    from attacksim.actions import load_action_db
    from attacksim.errors import read_json
    from attacksim.profiles import load_profiles

    schema = load_profiles(paths["profiles"]).schema
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        read_json(paths["actions"])  # the document, dropped at once
        parse_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        db = load_action_db(paths["actions"], schema)
        # read while the database is held
        kept, load_peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return {"loaded": len(db), "parse_peak_kb": parse_peak / 1024,
            "load_peak_kb": load_peak / 1024, "kept_kb": kept / 1024}


def broken_rules(seen: dict) -> list[str]:
    if seen["load_peak_kb"] > PEAK_RATIO * seen["parse_peak_kb"]:
        return [f"the load peaks at {seen['load_peak_kb']:.0f} KB, more than "
                f"{PEAK_RATIO} x the parse's {seen['parse_peak_kb']:.0f} KB"]
    return []


def main(argv: list[str]) -> int:
    if argv[:1] == ["--write"]:  # the child that writes the instance
        write_wide(int(argv[1]), Path(argv[2]))
        return 0
    actions = int(argv[0])
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(argv[1]) if len(argv) > 1 else Path(tmp)
        subprocess.run([sys.executable, __file__, "--write", str(actions),
                        str(out)], check=True)
        paths = {key: out / f"{key}.json" for key in FILES}
        seen = {"actions": actions, "python": platform.python_version(),
                **untraced(paths), **traced(paths)}
    print(json.dumps(seen))
    broken = broken_rules(seen)
    for rule in broken:
        print(f"broken: {rule}", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
