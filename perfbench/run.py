#!/usr/bin/env python3
"""Seeded benchmark of slidingsuffix: sliding, querying and auditing.

Run from the root of a checkout; the library is imported from its ``src``:

    python3 perfbench/run.py --workload noise4 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in the
library; ``--trace 1`` reports the per-layer metrics from a traced run and
writes its spans to ``perfbench/out``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"
MODULES = ("window", "tree", "plp", "credit", "matching", "checks", "oracle", "verify")


def import_library():
    """The checkout's own slidingsuffix package, never an installed copy."""
    if not (SRC / "slidingsuffix" / "__init__.py").is_file():
        raise SystemExit(f"error: no slidingsuffix sources under {SRC}")
    sys.path.insert(0, str(SRC))
    lib = importlib.import_module("slidingsuffix")
    if Path(lib.__file__).resolve().parent != SRC / "slidingsuffix":
        raise SystemExit(f"error: imported slidingsuffix from {lib.__file__}, not {SRC}")
    for name in MODULES:
        try:
            importlib.import_module(f"slidingsuffix.{name}")
        except ModuleNotFoundError:
            pass  # a module a later version folds away is simply not traced
    return lib


def spec_metrics(trace: bool) -> dict:
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    expected = spec_metrics(bool(args.trace))
    lib = import_library()
    res = workloads.WORKLOADS[args.workload](lib, args.seed, args.seconds, bool(args.trace))

    units = {name: workloads.unit_of(name) for name in res.metrics}
    if units != expected:
        missing = sorted(set(expected) - set(units))
        extra = sorted(set(units) - set(expected))
        wrong = sorted(n for n in set(units) & set(expected) if units[n] != expected[n])
        raise SystemExit(f"error: metrics differ from {SPEC.name}: missing {missing}, "
                         f"extra {extra}, unit mismatch {wrong}")

    correct = not res.problems
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in res.notes:
        print(f"  {line}")
    for name, value in res.metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  attempted {res.attempted} failed {res.failed}")
    for problem in res.problems[:20]:
        print(f"  CHECK FAILED: {problem}")

    summary = {"correct": correct, "attempted": res.attempted, "failed": res.failed,
               "metrics": {name: {"value": value, "unit": units[name]}
                           for name, value in res.metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
    if res.tracer is not None:
        res.tracer.write(OUT_DIR / f"spans-{args.workload}.bin")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
