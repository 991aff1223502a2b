#!/usr/bin/env python3
"""Reference figures for the README, printed as JSON lines.

1. The paper's separation in wall time: the critical front deletion of the
   ``a^n b`` construction (`verify.run_worstcase`'s "delete" variant) at
   n = 10^3 and 10^4 in both modes, with its exact chain / write count.
2. Where per-slide tails on run-heavy input come from: the slowest slides
   of an ``(a^1000 b)*`` stream in both modes, by CPU time and without
   collector pauses, with the tree's counter changes during each.

Run from the root of a checkout:  python3 perfbench/reference.py
"""

from __future__ import annotations

import gc
import json
import statistics
import time

from run import import_library

REPEATS = 5
RUN_WINDOW = 65536
RUN_SLIDES = 200_000
COUNTERS = ("explicit_extensions", "leaves_created", "plp_field_writes_total",
            "credit_update_calls_total")


def critical_delete(lib, n: int, mode: str) -> dict:
    times = []
    for _ in range(REPEATS):
        tree = lib.verify.build_deletion_worstcase(n, mode)
        gc.collect()
        t0 = time.perf_counter_ns()
        tree.delete_front()
        times.append(time.perf_counter_ns() - t0)
    counts = lib.run_worstcase(n, mode, "delete")
    return {"figure": "critical_delete", "n": n, "mode": mode,
            "median_us": statistics.median(times) / 1e3,
            counts["metric"]: counts["critical_event_value"]}


def slowest_slides(lib, mode: str, keep: int = 5) -> dict:
    """Slowest slides by the thread's CPU time, leaving out those during
    which the collector ran, with the tree's counter changes in each."""
    data = (b"a" * 1000 + b"b") * (RUN_SLIDES // 1001 + 1)
    tree = lib.SlidingSuffixTree(RUN_WINDOW, mode=mode)
    for sym in data[:RUN_WINDOW]:
        tree.slide(sym)
    collections = [0]

    def count(phase, info):
        collections[0] += phase == "stop"

    worst = []
    with_gc = 0
    cpu = time.thread_time_ns
    gc.callbacks.append(count)
    try:
        for sym in data[RUN_WINDOW:RUN_WINDOW + RUN_SLIDES]:
            before = tree.stats()
            seen = collections[0]
            t0 = cpu()
            tree.slide(sym)
            dt = cpu() - t0
            if collections[0] != seen:
                with_gc += 1
                continue
            if len(worst) < keep or dt > worst[0][0]:
                after = tree.stats()
                change = {k: after[k] - before[k] for k in COUNTERS}
                worst.append((dt, chr(sym), change))
                worst.sort(key=lambda w: w[0])
                worst = worst[-keep:]
    finally:
        gc.callbacks.remove(count)
    return {"figure": "slowest_slides", "mode": mode, "stream": "(a^1000 b)*",
            "window": RUN_WINDOW, "slides": RUN_SLIDES, "left_out_with_gc": with_gc,
            "slowest": [{"cpu_us": dt / 1e3, "symbol": sym, **change}
                        for dt, sym, change in reversed(worst)]}


def main():
    lib = import_library()
    for n in (1000, 10000):
        for mode in ("plp", "credit"):
            print(json.dumps(critical_delete(lib, n, mode)))
    for mode in ("plp", "credit"):
        print(json.dumps(slowest_slides(lib, mode)))


if __name__ == "__main__":
    main()
