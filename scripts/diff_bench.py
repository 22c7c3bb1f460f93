#!/usr/bin/env python3
"""List every changed leaf between two directories of BENCH_*.json files.

Usage:
    scripts/diff_bench.py OLD_DIR NEW_DIR

Both directories hold bench_runner output (BENCH_<name>.json). For
every file present in either directory, prints one line per changed
JSON leaf:

    BENCH_online_batching.json arms[1].p99_latency_s 26.37 -> 26.98

A leaf present on one side only prints `<absent>` on the other; a file
present in one directory only prints one line with the path `$`.
BENCH_harness.json is skipped: it records the simulator's own wall
time, which differs on every run.

Exit status: 0 when no leaf changed, 1 otherwise, 2 on bad input.
"""

import json
import os
import sys

SKIPPED = {"BENCH_harness.json"}
ABSENT = object()  # A leaf missing on one side.


def bench_files(directory):
    try:
        names = os.listdir(directory)
    except OSError as err:
        print(f"diff_bench: cannot list {directory}: {err}", file=sys.stderr)
        sys.exit(2)
    return {
        name
        for name in names
        if name.startswith("BENCH_") and name.endswith(".json")
        and name not in SKIPPED
    }


def load(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as err:
        print(f"diff_bench: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def leaves(value, path, out):
    """Flatten a JSON document into {json.path: leaf}; an empty object
    or array is a leaf of its own."""
    if isinstance(value, dict) and value:
        for key, child in value.items():
            leaves(child, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list) and value:
        for i, child in enumerate(value):
            leaves(child, f"{path}[{i}]", out)
    else:
        out[path or "$"] = value
    return out


def show(value):
    return "<absent>" if value is ABSENT else json.dumps(value)


def diff_file(name, old_dir, new_dir):
    old_path = os.path.join(old_dir, name)
    new_path = os.path.join(new_dir, name)
    if not os.path.exists(old_path):
        return [f"{name} $ <absent> -> present"]
    if not os.path.exists(new_path):
        return [f"{name} $ present -> <absent>"]
    old = leaves(load(old_path), "", {})
    new = leaves(load(new_path), "", {})
    lines = []
    for path in list(old) + [p for p in new if p not in old]:
        before = old.get(path, ABSENT)
        after = new.get(path, ABSENT)
        # Compare types too: JSON 1 and 1.0 print differently.
        if type(before) is not type(after) or before != after:
            lines.append(f"{name} {path} {show(before)} -> {show(after)}")
    return lines


def main(argv):
    if len(argv) != 3:
        print("usage: diff_bench.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    old_dir, new_dir = argv[1], argv[2]
    changed = 0
    for name in sorted(bench_files(old_dir) | bench_files(new_dir)):
        for line in diff_file(name, old_dir, new_dir):
            print(line)
            changed += 1
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
