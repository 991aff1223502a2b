"""The four workloads: one closed-loop caller, one thread.

Each workload function takes the library, the seed, the measuring time and
whether to trace, and returns a `Result`.  Input generation, output checks
and span bookkeeping run outside every timed region.

End-to-end metrics (``trace=False``; no wrapper and no ``gc`` callback):

* ``setup_s``: median of several set-ups, each from building the tree(s)
  to the point where the first timed operation could start.
* ``throughput``: the workload's unit of work per second of timed wall time.
* ``p50_us``: median latency of the workload's timed call.  The tail (p99,
  and p99.9 where a run makes ten thousand calls or more) is printed with
  the sample count but not gated: its spread over ten runs reached 0.22 to
  0.27 on a host whose speed swings.
* ``tree_bytes_per_symbol``: tracemalloc bytes of one tree filled to
  capacity, divided by the capacity, from an untimed pass of its own.

Latencies are service times (`Latencies`), and every time and rate is
reported as at the nominal host speed (`speed.py`); the unscaled wall-clock
figures go to the report's notes.

The traced run (``trace=True``) repeats a fixed amount of work untraced and
then traced, so its counts repeat exactly for a seed, and reports the
per-layer metrics listed in `PER_LAYER` plus the tracing overhead.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
import tracemalloc
from array import array
from dataclasses import dataclass, field

import expect
from inputs import CorpusStream, Lcg, NoiseStream, RunStream, load_corpus
from speed import NOMINAL, SpeedProbe
from tracer import Tracer

SETUP_REPEATS = 3         # fills of a 65536-symbol window, ~0.4 s each
TEXT_SETUP_REPEATS = 7    # fills of a 16384-symbol window, ~0.07 s each
CHUNK = 8192              # slides between two reads of the clock budget
CHECK_EVERY = 16          # chunks between two untimed checkpoints
CHECK_PATTERNS = 12       # sampled find_all checks per checkpoint
AUDIT_SLIDES = 512        # slides per checkpoint with pointer writes observed
TRACE_SLIDES = 40_000     # per phase of a traced slide run
TRACE_ROUNDS = 1_500      # per phase of a traced text-query run
CHECK_SALT = 0x5EED_C0DE  # separates the checking draws from the input draws
LAT_WINDOW = 64           # slides per off-CPU check, see `Latencies`
OFF_CPU_NS = 20_000

LAYERS = ("window", "tree", "plp", "credit", "matching", "checks", "oracle",
          "verify", "gc")

# span name -> (module attribute path, attribute); see `trace_targets`
TIMED_CALLS = (
    ("window.push", "window.TextWindow", "push"),
    ("window.substring", "window.TextWindow", "substring"),
    ("tree.slide", "tree.SlidingSuffixTree", "slide"),
    ("tree.append", "tree.SlidingSuffixTree", "append"),
    ("tree.delete_front", "tree.SlidingSuffixTree", "delete_front"),
    ("tree.canonize", "tree.SlidingSuffixTree", "canonize"),
    ("tree.edge_label", "tree.SlidingSuffixTree", "edge_label"),
    ("plp.on_leaf_inserted", "plp.PlpMaintenance", "on_leaf_inserted"),
    ("plp.on_leaf_deleting", "plp.PlpMaintenance", "on_leaf_deleting"),
    ("plp.leaf_for", "plp.PlpMaintenance", "leaf_for"),
    ("credit.update", "credit.CreditMaintenance", "update"),
    ("credit.leaf_for", "credit.CreditMaintenance", "leaf_for"),
    ("matching.find_all", "matching", "find_all"),
    ("matching.locate", "matching", "locate"),
    ("matching.collect", "matching", "collect_subtree_leaves"),
    # the audit calls find_all_counted through its own import of the name
    ("matching.find_all_counted", "checks", "find_all_counted"),
    ("checks.structural_violations", "checks", "structural_violations"),
    ("checks.sketch", "checks", "sketch"),
    ("checks.pointer_violations", "checks", "pointer_violations"),
    ("checks.counter_violations", "checks", "counter_violations"),
    ("checks.matching_violations", "checks", "matching_violations"),
    ("oracle.naive_suffix_tree", "oracle", "naive_suffix_tree"),
    ("oracle.naive_occurrences", "oracle", "naive_occurrences"),
    ("verify.sample_patterns", "verify", "sample_patterns"),
    ("verify.run_verify", "verify", "run_verify"),
)
# spans traced for structure (self time, parents) but not reported per call
UNREPORTED = {"tree.slide", "verify.run_verify"}

PER_LAYER = (
    [f"{name}.{kind}" for name, _, _ in TIMED_CALLS if name not in UNREPORTED
     for kind in ("ns", "calls")]
    + ["window.substring.calls_per_query",
       "tree.canonize.calls_per_symbol", "tree.explicit_extensions_per_symbol",
       "tree.nodes_created_per_symbol", "tree.leaves_created_per_symbol",
       "plp.leaf_for.calls_per_symbol", "plp.field_writes_per_event",
       "plp.field_writes_max_event",
       "credit.update_calls_per_event", "credit.update_calls_max_event",
       "matching.lrs_derive.ns", "matching.edges_per_query", "matching.occ_per_query",
       "gc.collections", "gc.collections_gen2", "gc.pause_total_ms", "gc.pause_max_ms", "slide_max_us",
       "trace.slide_rate_overhead", "trace.query_p50_overhead",
       "trace.verify_rate_overhead", "trace.spans"]
    + [f"{layer}.self_ms" for layer in LAYERS]
)


UNITS = {"setup_s": "s", "throughput": "1/s", "p50_us": "us",
         "tree_bytes_per_symbol": "B/symbol"}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    for suffix, unit in ((".ns", "ns"), ("_ms", "ms"), ("_us", "us"), ("_overhead", "x")):
        if metric.endswith(suffix):
            return unit
    return "count"


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)   # name -> value
    notes: list = field(default_factory=list)     # report lines
    tracer: Tracer = None
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    wall: dict = field(default_factory=dict)      # wall-clock figures before scaling
    scaled: dict = field(default_factory=dict)    # figures scaled sample by sample

    def put(self, name, value):
        self.metrics[name] = value

    def put_wall(self, name, value, scaled=None):
        """A wall-clock figure; ``scaled`` if it was scaled sample by sample."""
        self.wall[name] = value
        if scaled is not None:
            self.scaled[name] = scaled

    def put_setup(self, times):
        """``setup_s`` from (wall s, host speed just before) pairs."""
        self.put_wall("setup_s", statistics.median(t for t, _ in times),
                      statistics.median(t * speed / NOMINAL for t, speed in times))

    def scale_to_nominal(self):
        """Report the wall-clock figures as at the nominal host speed."""
        scale = self.probe.scale
        for name, value in self.wall.items():
            if name in self.scaled:
                value = self.scaled[name]
            elif name == "throughput":
                value /= scale
            else:
                value *= scale
            self.put(name, value)
        self.notes.append(f"host speed {self.probe.speed:.1f} (nominal {NOMINAL:g}) from "
                          f"{len(self.probe.samples)} probes; wall-clock figures: "
                          + ", ".join(f"{k} {v:.6g}" for k, v in self.wall.items()))


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    return sorted_values[max(0, math.ceil(q * n) - 1)]


class Latencies:
    """Service-time samples in ns, and how many were left out.

    A slide takes ~10 us and reading the thread's CPU clock ~0.5 us, so
    slides are timed by the wall clock in windows of `LAT_WINDOW`, and a
    window in which the thread was off the CPU for more than `OFF_CPU_NS`
    (another process ran) is left out.  Calls of a millisecond or more are
    timed by the thread's CPU clock, which leaves out time off the CPU
    without dropping the sample.
    """

    def __init__(self):
        self.ns = array("q")
        self.left_out = 0


def put_latency(res: Result, label: str, lat: Latencies):
    """``p50_us``, and the tail percentiles with ten or more samples beyond
    them as a report line (unscaled service times)."""
    s = sorted(lat.ns)
    res.put_wall("p50_us", percentile(s, 0.5) / 1e3)
    parts = [f"p{q * 100:g} {percentile(s, q) / 1e3:.1f} us"
             for q in (0.99, 0.999) if len(s) * (1 - q) >= 10]
    res.notes.append(f"{label} latency: {len(s)} samples ({lat.left_out} left out as off the "
                     f"CPU); " + ", ".join(parts + [f"max {s[-1] / 1e3:.1f} us"]))


def fill(lib, capacity: int, mode: str, data: bytes):
    tree = lib.SlidingSuffixTree(capacity, mode=mode)
    for sym in data:
        tree.slide(sym)
    return tree


def timed_setups(build, probe: SpeedProbe, repeats: int):
    """Time ``repeats`` calls of ``build``, each after a host-speed sample.

    Returns [(wall s, host speed)] and the last call's result.
    """
    times = []
    built = None
    for _ in range(repeats):
        built = None
        gc.collect()  # free the previous tree's node cycles outside the timing
        probe.sample()
        t0 = time.perf_counter()
        built = build()
        times.append((time.perf_counter() - t0, probe.samples[-1]))
    return times, built


def traced_bytes(build) -> int:
    """Bytes tracemalloc attributes to what ``build`` returns, kept alive."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        built = build()
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    del built
    gc.collect()
    return used


# -- slide workloads ---------------------------------------------------------


@dataclass(frozen=True)
class SlideSpec:
    mode: str
    window: int
    stream: type
    stream_arg: int
    alphabet: bytes


SLIDE_SPECS = {
    "noise4": SlideSpec("plp", 65536, NoiseStream, 4, b"abcd"),
    "runs-credit": SlideSpec("credit", 65536, RunStream, 1024, b"ab"),
}


class SlideState:
    """A full tree plus the benchmark's own copy of what it was fed."""

    def __init__(self, spec: SlideSpec, seed: int, res: Result):
        self.spec = spec
        self.res = res
        self.stream = spec.stream(seed, spec.stream_arg)
        self.fill_data = self.stream.take(spec.window)
        self.sent = bytearray(self.fill_data)
        self.check_rng = Lcg(seed ^ CHECK_SALT)
        self.tree = None
        self.max_observed_writes = 0

    def take(self, n: int) -> bytes:
        data = self.stream.take(n)
        self.sent += data
        if len(self.sent) > 4 * self.spec.window:
            del self.sent[:-self.spec.window]
        return data

    def window(self) -> bytes:
        return bytes(self.sent[-self.spec.window:])

    def checkpoint(self):
        """Untimed: compare with the own copy, then in plp mode observe the
        pointer writes of `AUDIT_SLIDES` further slides."""
        spec, tree, res = self.spec, self.tree, self.res
        res.problems += expect.window_problems(tree, self.window(), self.check_rng,
                                               spec.alphabet, CHECK_PATTERNS)
        if spec.mode != "plp":
            return
        obs = expect.WriteObserver(tree)
        with obs.installed():
            for sym in self.take(AUDIT_SLIDES):
                tree.slide(sym)
        res.attempted += AUDIT_SLIDES
        if obs.fields_observed == 0 or obs.events == 0:
            res.problems.append("no plp pointer field or leaf event could be observed")
        if obs.max_event > expect.PLP_BOUND:
            res.problems.append(f"a leaf event made {obs.max_event} pointer writes "
                                f"(bound {expect.PLP_BOUND})")
        self.max_observed_writes = max(self.max_observed_writes, obs.max_event)


def slide_timed(tree, data, lat: Latencies) -> float:
    """Slide ``data`` through ``tree``, one latency sample per slide; returns wall s."""
    clock = time.perf_counter_ns
    cpu = time.thread_time_ns
    slide = tree.slide
    t0 = time.perf_counter()
    for k in range(0, len(data), LAT_WINDOW):
        window = []
        append = window.append
        c0 = cpu()
        w0 = clock()
        for sym in data[k:k + LAT_WINDOW]:
            a = clock()
            slide(sym)
            append(clock() - a)
        if (clock() - w0) - (cpu() - c0) > OFF_CPU_NS:
            lat.left_out += len(window)
        else:
            lat.ns.extend(window)
    return time.perf_counter() - t0


def run_slides(lib, name: str, seed: int, seconds: float, trace: bool) -> Result:
    spec = SLIDE_SPECS[name]
    res = Result()
    st = SlideState(spec, seed, res)
    build = lambda: fill(lib, spec.window, spec.mode, st.fill_data)  # noqa: E731
    if trace:
        st.tree = build()
        return traced_slides(lib, st, res)
    res.put("tree_bytes_per_symbol", traced_bytes(build) / spec.window)
    times, st.tree = timed_setups(build, res.probe, SETUP_REPEATS)
    res.put_setup(times)
    lat = Latencies()
    busy = 0.0
    chunks = 0
    while busy < seconds:
        busy += slide_timed(st.tree, st.take(CHUNK), lat)
        chunks += 1
        res.probe.sample()
        if chunks % CHECK_EVERY == 0:
            st.checkpoint()
    st.checkpoint()
    res.attempted += chunks * CHUNK
    res.put_wall("throughput", chunks * CHUNK / busy)
    put_latency(res, "slide", lat)
    res.scale_to_nominal()
    stats = st.tree.stats()
    res.notes.append(f"max credit update chain {stats.get('credit_update_calls_max_event', 0)}, "
                     f"max observed plp writes per leaf event {st.max_observed_writes}")
    return res


def traced_slides(lib, st: SlideState, res: Result) -> Result:
    tree = st.tree
    lat = Latencies()
    untraced_s = slide_timed(tree, st.take(TRACE_SLIDES), lat)
    before = tree.stats()
    tracer = Tracer()
    with tracer.installed(trace_targets(lib)):
        traced_s = slide_timed(tree, st.take(TRACE_SLIDES), Latencies())
    after = tree.stats()
    st.checkpoint()
    res.attempted += 2 * TRACE_SLIDES
    layer_metrics(res, tracer, TRACE_SLIDES, delta(before, after), after)
    res.put("slide_max_us", max(lat.ns) / 1e3)
    res.put("trace.slide_rate_overhead", traced_s / untraced_s)
    return res


# -- text-query ----------------------------------------------------------------

TEXT_WINDOW = 16384
SLIDES_PER_QUERY = 16
PROBE_EVERY_ROUNDS = 256


def run_text_query(lib, seed: int, seconds: float, trace: bool) -> Result:
    res = Result()
    corpus = load_corpus()
    alphabet = bytes(sorted(set(corpus)))
    spec = SlideSpec("plp", TEXT_WINDOW, CorpusStream, TEXT_WINDOW, alphabet)
    st = SlideState(spec, seed, res)
    rng = Lcg(seed ^ CHECK_SALT)
    build = lambda: fill(lib, TEXT_WINDOW, "plp", st.fill_data)  # noqa: E731
    if not trace:
        res.put("tree_bytes_per_symbol", traced_bytes(build) / TEXT_WINDOW)
        times, st.tree = timed_setups(build, res.probe, TEXT_SETUP_REPEATS)
        res.put_setup(times)
    else:
        st.tree = build()
    tree = st.tree
    clock = time.perf_counter_ns
    cpu = time.thread_time_ns
    slide_lat = Latencies()

    def rounds(budget_s=None, count=None, extra=None):
        """Closed loop of (slide SLIDES_PER_QUERY symbols, one find_all)."""
        qlat = Latencies()
        busy = 0.0
        done = 0
        while (busy < budget_s) if budget_s is not None else (done < count):
            busy += slide_timed(tree, st.take(SLIDES_PER_QUERY), slide_lat)
            window = st.window()
            # the pattern lengths follow the tree's own lrs; checkpoints
            # compare it with a binary search, and any error in it shows up
            # in the find_all answers checked below
            p = expect.draw_pattern(rng, window, tree.lrs_len(), alphabet)
            c0 = cpu()
            a = clock()
            got = tree.find_all(p)
            b = clock()
            qlat.ns.append(cpu() - c0)
            busy += (b - a) / 1e9
            done += 1
            if extra is not None:
                extra(p, got)
            if got != expect.scan(window, p):
                res.problems.append(f"find_all({p[:40]!r}) disagrees with the scan")
            if budget_s is not None and done % PROBE_EVERY_ROUNDS == 0:
                res.probe.sample()
            if budget_s is not None and done % (CHECK_EVERY * 64) == 0:
                st.checkpoint()
        res.attempted += done * (SLIDES_PER_QUERY + 1)
        return qlat, busy, done

    if not trace:
        qlat, busy, done = rounds(budget_s=seconds)
        st.checkpoint()
        res.put_wall("throughput", done * SLIDES_PER_QUERY / busy)
        put_latency(res, "find_all", qlat)
        res.scale_to_nominal()
        return res

    qlat_a, busy_a, _ = rounds(count=TRACE_ROUNDS)
    slide_max = max(slide_lat.ns)
    before = tree.stats()
    tracer = Tracer()
    edges = occ = 0
    matching = lib.matching

    def phases(p, got):
        # locate and collect on the same pattern: find_all minus both is the
        # lrs derivation, which has no public entry point of its own
        nonlocal edges, occ
        located = matching.locate(tree, p) if hasattr(matching, "locate") else None
        if located is not None and hasattr(matching, "collect_subtree_leaves"):
            matching.collect_subtree_leaves(tree, located[0])
        counted = getattr(matching, "find_all_counted", None)
        if counted is not None:
            with tracer.pause():
                edges += counted(tree, p)[1]
        occ += len(got)

    with tracer.installed(trace_targets(lib)):
        qlat_b, busy_b, _ = rounds(count=TRACE_ROUNDS, extra=phases)
    after = tree.stats()
    st.checkpoint()
    symbols = TRACE_ROUNDS * SLIDES_PER_QUERY
    summary = layer_metrics(res, tracer, symbols, delta(before, after), after)
    per = summary["per_name"]
    find_ns = per.get("matching.find_all", {}).get("total_ns", 0)
    part_ns = sum(per.get(n, {}).get("total_ns", 0) for n in ("matching.locate", "matching.collect"))
    res.put("matching.lrs_derive.ns", (find_ns - part_ns) / TRACE_ROUNDS)
    res.put("matching.edges_per_query", edges / TRACE_ROUNDS)
    res.put("matching.occ_per_query", occ / TRACE_ROUNDS)
    res.put("window.substring.calls_per_query",
            tracer.children_named("matching.find_all", "window.substring") / TRACE_ROUNDS)
    res.put("slide_max_us", slide_max / 1e3)
    res.put("trace.slide_rate_overhead", busy_b / busy_a)
    res.put("trace.query_p50_overhead",
            statistics.median(qlat_b.ns) / statistics.median(qlat_a.ns))
    return res


# -- verify-small ----------------------------------------------------------------

VERIFY_CONFIGS = tuple((sigma, window) for sigma in (1, 2, 3, 4) for window in (5, 10, 15, 20))
FAULT_CONFIG = dict(seed=7, iters=200, sigma=2, window=8)
FAULT_NTH = 5  # drop the fifth value-changing write to a leaf's inverse pointer
MEM_TREES = 64
SMALL_SETUP_REPEATS = 31
VERIFY_TRACE_ROUNDS = 4


def verify_round(lib, seed: int, round_no: int, res: Result, lat=None):
    """One run_verify call per config; returns (events, wall s)."""
    events = 0
    busy = 0.0
    for i, (sigma, window) in enumerate(VERIFY_CONFIGS):
        cfg = lib.VerifyConfig(seed=(seed << 20) + round_no * len(VERIFY_CONFIGS) + i,
                               iters=2 * window, sigma=sigma, window=window)
        c0 = time.thread_time_ns()
        t0 = time.perf_counter_ns()
        out = lib.verify.run_verify(cfg)
        busy += (time.perf_counter_ns() - t0) / 1e9
        if lat is not None:
            lat.ns.append(time.thread_time_ns() - c0)
        if not out.ok or out.events != cfg.iters:
            res.problems.append(f"run_verify seed {cfg.seed}: ok={out.ok} events={out.events} "
                                f"{out.violations[:1]}")
        events += cfg.iters
    res.attempted += events
    return events, busy


def fault_is_caught(lib, res: Result) -> None:
    """Drop one pointer write inside a plp hook; run_verify must notice."""
    probe = lib.SlidingSuffixTree(4, mode="plp")
    probe.append(97)
    obs = expect.WriteObserver(probe, drop_field="plp_inv", drop_nth=FAULT_NTH)
    with obs.installed():
        out = lib.verify.run_verify(lib.VerifyConfig(**FAULT_CONFIG))
    if not obs.dropped:
        res.problems.append("fault injection found no pointer write to drop")
    elif out.ok:
        res.problems.append("run_verify missed a dropped plp pointer write")
    else:
        res.notes.append(f"injected fault caught by run_verify after {out.events} events: "
                         f"{out.violations[0]}")


def run_verify_small(lib, seed: int, seconds: float, trace: bool) -> Result:
    res = Result()
    if trace:
        return traced_verify(lib, seed, res)
    # one 20-symbol tree is mostly fixed overhead and varies with its text,
    # so the figure is taken over many of them
    window = VERIFY_CONFIGS[-1][1]
    texts = [NoiseStream((seed << 8) + k, 1 + k % 4).take(window) for k in range(MEM_TREES)]
    used = traced_bytes(lambda: [fill(lib, window, "plp", t) for t in texts])
    res.put("tree_bytes_per_symbol", used / (MEM_TREES * window))
    # the trees of the first round, both modes for each config
    windows = [w for _, w in VERIFY_CONFIGS]
    times, _ = timed_setups(lambda: [lib.SlidingSuffixTree(w, mode=m) for w in windows
                                     for m in ("plp", "credit")],
                            res.probe, SMALL_SETUP_REPEATS)
    res.put_setup(times)
    lat = Latencies()
    events = 0
    busy = 0.0
    round_no = 0
    while busy < seconds:
        e, b = verify_round(lib, seed, round_no, res, lat)
        events += e
        busy += b
        round_no += 1
        res.probe.sample()
    res.put_wall("throughput", events / busy)
    put_latency(res, "run_verify call", lat)
    res.scale_to_nominal()
    fault_is_caught(lib, res)
    return res


def traced_verify(lib, seed: int, res: Result) -> Result:
    untraced_s = traced_s = 0.0
    for round_no in range(VERIFY_TRACE_ROUNDS):
        untraced_s += verify_round(lib, seed, round_no, res)[1]
    tracer = Tracer()
    with tracer.installed(trace_targets(lib)):
        for round_no in range(VERIFY_TRACE_ROUNDS):
            traced_s += verify_round(lib, seed, round_no, res)[1]
    fault_is_caught(lib, res)
    summary = tracer.summary()
    symbols = summary["per_name"].get("tree.append", {}).get("calls", 0)
    layer_metrics(res, tracer, symbols, summary=summary)
    res.put("trace.verify_rate_overhead", traced_s / untraced_s)
    return res


# -- per-layer metrics ---------------------------------------------------------------


def trace_targets(lib):
    targets = []
    for name, owner_path, attr in TIMED_CALLS:
        module, _, cls = owner_path.partition(".")
        owner = getattr(lib, module, None)
        if cls and owner is not None:
            owner = getattr(owner, cls, None)
        if owner is not None:
            targets.append((owner, attr, name))
    return targets


def delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def layer_metrics(res: Result, tracer: Tracer, symbols: int, counts=None, stats=None,
                  summary=None):
    """Fill every per-layer metric; a layer the workload does not use reads 0.

    ``counts`` holds the traced phase's change of ``tree.stats()`` and
    ``stats`` the values at its end (for the lifetime maxima); both are
    empty where the workload's trees are out of reach.
    """
    counts = counts or {}
    stats = stats or {}
    res.tracer = tracer
    summary = summary or tracer.summary()
    per = summary["per_name"]
    for metric in PER_LAYER:
        res.put(metric, 0)
    for name, _, _ in TIMED_CALLS:
        rec = per.get(name)
        if rec is None or name in UNREPORTED:
            continue
        res.put(f"{name}.calls", rec["calls"])
        res.put(f"{name}.ns", rec["total_ns"] / rec["calls"] if rec["calls"] else 0)
    for layer in LAYERS:
        res.put(f"{layer}.self_ms", summary["layer_self_ns"].get(layer, 0) / 1e6)

    def per_symbol(n):
        return n / symbols if symbols else 0

    for metric, span in (("tree.canonize.calls_per_symbol", "tree.canonize"),
                         ("plp.leaf_for.calls_per_symbol", "plp.leaf_for")):
        res.put(metric, per_symbol(per.get(span, {}).get("under_update", 0)))
    for metric, key in (("tree.explicit_extensions_per_symbol", "explicit_extensions"),
                        ("tree.nodes_created_per_symbol", "nodes_created"),
                        ("tree.leaves_created_per_symbol", "leaves_created")):
        res.put(metric, per_symbol(counts.get(key, 0)))
    # every slide of a full window makes one front deletion, a leaf event
    # whether the leaf goes or is shortened
    events = counts.get("leaves_created", 0) + (symbols if counts else 0)
    per_event = (lambda n: n / events) if events else (lambda n: 0)
    res.put("plp.field_writes_per_event", per_event(counts.get("plp_field_writes_total", 0)))
    res.put("credit.update_calls_per_event",
            per_event(counts.get("credit_update_calls_total", 0)))
    res.put("plp.field_writes_max_event", stats.get("plp_field_writes_max_event", 0))
    res.put("credit.update_calls_max_event", stats.get("credit_update_calls_max_event", 0))
    gc_spans = [tracer.end[s] - tracer.start[s] for s in range(len(tracer))
                if tracer.names[tracer.name_id[s]] == "gc.collect"]
    res.put("gc.collections", tracer.gc_collections)
    res.put("gc.collections_gen2", tracer.gc_gen2)
    res.put("gc.pause_total_ms", sum(gc_spans) / 1e6)
    res.put("gc.pause_max_ms", max(gc_spans, default=0) / 1e6)
    res.put("trace.spans", len(tracer))
    return summary


WORKLOADS = {
    "noise4": lambda lib, seed, seconds, trace: run_slides(lib, "noise4", seed, seconds, trace),
    "runs-credit": lambda lib, seed, seconds, trace: run_slides(lib, "runs-credit", seed,
                                                                seconds, trace),
    "text-query": run_text_query,
    "verify-small": run_verify_small,
}
