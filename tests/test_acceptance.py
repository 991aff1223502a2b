"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Criteria 1-8 share a single randomized sweep: 1000 seeded streams (alphabet
size cycling 1..4, stream length <= 200, window <= 20) with the brute-force
oracle consulted after every append/delete event.  Criteria 5 and 6 add the
analytic worst-case constructions at n in {10, 100, 1000}; criterion 9 is a
scaling run over 2.5/5/10 MB files, timed against the host's speed.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import gc
import time
from dataclasses import dataclass, field

import pytest

from slidingsuffix import SlidingSuffixTree, run_worstcase
from slidingsuffix.cli import main as cli_main
from slidingsuffix.verify import Lcg, check, drive

from conftest import load_perfbench

SEEDS = 1000
WORSTCASE_SIZES = (10, 100, 1000)
LEG_CHUNK = 500_000  # criterion 9: bytes slid between two host-speed samples


def _report(name: str, ok: bool, detail: str = ""):
    print(f"\n{name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))


@dataclass
class SweepOutcome:
    seeds: int = 0
    events: int = 0
    queries: int = 0
    elapsed_s: float = 0.0
    topology_bad: list = field(default_factory=list)
    plp_bad: list = field(default_factory=list)
    fresh_bad: list = field(default_factory=list)
    match_bad: list = field(default_factory=list)
    credit_bad: list = field(default_factory=list)
    churn_bad: list = field(default_factory=list)
    max_plp_writes: int = 0
    case_coverage: set = field(default_factory=set)


def _drive_seed(seed: int, out: SweepOutcome):
    rng = Lcg(seed)
    sigma = 1 + (seed - 1) % 4
    window = 1 + rng.draw(20)
    total = 10 + rng.draw(191)  # stream length <= 200
    plp = SlidingSuffixTree(window, mode="plp")
    credit = SlidingSuffixTree(window, mode="credit")
    trees = [plp, credit]
    appended = 0
    for entry in drive(rng, trees, sigma):
        out.events += 1
        tag = f"seed {seed} event {out.events}: "
        found = check(rng, trees, 10)
        for tree, audit, pointer_bad in zip(trees, found.audits,
                                            (out.plp_bad, out.credit_bad)):
            mode = f"[{tree.mode}] "
            out.topology_bad.extend(tag + mode + m for m in audit.structure + audit.topology)
            out.fresh_bad.extend(tag + mode + m for m in audit.freshness)
            pointer_bad.extend(tag + m for m in audit.pointers)
            out.churn_bad.extend(tag + mode + m for m in audit.counters)
        out.match_bad.extend(tag + m for m in found.matching)
        if plp.counters.plp_field_writes_max_event > out.max_plp_writes:
            out.max_plp_writes = plp.counters.plp_field_writes_max_event
        out.queries += len(found.patterns)
        lrs = plp.lrs_len()
        for p in found.patterns:
            m = len(p)
            if m > lrs:
                out.case_coverage.add("long")
            elif m == lrs:
                out.case_coverage.add("equal")
            else:
                below = plp.below
                lead = below if below.children is None else plp.leafptr(below)
                p2 = lead.spos - plp.tail + 1
                overlap = p2 + lrs - 1 >= len(plp) - lrs + 1
                out.case_coverage.add("short-overlap" if overlap else "short-clear")
        if entry != "-":
            appended += 1
            if appended == total:
                break


@pytest.fixture(scope="session")
def sweep() -> SweepOutcome:
    out = SweepOutcome(seeds=SEEDS)
    start = time.perf_counter()
    for seed in range(1, SEEDS + 1):
        _drive_seed(seed, out)
    out.elapsed_s = time.perf_counter() - start
    return out


@pytest.fixture(scope="session")
def worstcases() -> dict:
    return {(n, mode, variant): run_worstcase(n, mode, variant)
            for n in WORSTCASE_SIZES
            for mode in ("plp", "credit")
            for variant in ("insert", "delete")}


def test_criterion_1_oracle_topology_equivalence(sweep):
    ok = not sweep.topology_bad and sweep.elapsed_s < 60
    _report("criterion 1 (oracle topology equivalence)", ok,
            f"{sweep.seeds} streams, {sweep.events} events, {sweep.elapsed_s:.1f}s")
    assert not sweep.topology_bad, sweep.topology_bad[:5]
    assert sweep.elapsed_s < 60


def test_criterion_2_plp_invariant_suite(sweep):
    _report("criterion 2 (primary-pointer invariants)", not sweep.plp_bad,
            f"checked after all {sweep.events} events")
    assert not sweep.plp_bad, sweep.plp_bad[:5]


def test_criterion_3_strong_freshness(sweep):
    # label content equality rides on criterion 1: the sketches are built by
    # reading every edge label through its derived pair, so a wrong label
    # would break topology equality; the interval bounds are pinned here
    _report("criterion 3 (strongly fresh edge pairs)", not sweep.fresh_bad,
            "bounds on every edge after every event")
    assert not sweep.fresh_bad, sweep.fresh_bad[:5]


def test_criterion_4_matching_equivalence(sweep):
    required = {"long", "equal", "short-clear", "short-overlap"}
    covered = required <= sweep.case_coverage
    ok = not sweep.match_bad and covered
    _report("criterion 4 (matching equivalence)", ok,
            f"{sweep.queries} queries, geometries {sorted(sweep.case_coverage)}")
    assert not sweep.match_bad, sweep.match_bad[:5]
    assert covered, sweep.case_coverage


def test_criterion_5_constant_pointer_cost(sweep, worstcases):
    wc_max = max(worstcases[(n, "plp", v)]["critical_event_value"]
                 for n in WORSTCASE_SIZES for v in ("insert", "delete"))
    ok = sweep.max_plp_writes <= 4 and wc_max <= 4
    _report("criterion 5 (O(1) pointer writes)", ok,
            f"max {sweep.max_plp_writes} in sweep, {wc_max} in worst cases")
    assert sweep.max_plp_writes <= 4
    assert wc_max <= 4


def test_criterion_6_credit_worstcase_separation(worstcases):
    inserts = {n: worstcases[(n, "credit", "insert")]["critical_event_value"]
               for n in WORSTCASE_SIZES}
    deletes = {n: worstcases[(n, "credit", "delete")]["critical_event_value"]
               for n in WORSTCASE_SIZES}
    ok = all(inserts[n] >= n for n in WORSTCASE_SIZES) and \
        all(deletes[n] >= n - 1 for n in WORSTCASE_SIZES)
    _report("criterion 6 (credit update chains scale with the window)", ok,
            f"insert {inserts}, delete {deletes}")
    for n in WORSTCASE_SIZES:
        assert inserts[n] >= n
        assert deletes[n] >= n - 1
        # frozen regression values measured from the constructions
        assert inserts[n] == n
        assert deletes[n] == n - 1


def test_criterion_7_credit_liveness(sweep):
    _report("criterion 7 (credit pointer liveness)", not sweep.credit_bad,
            f"checked after all {sweep.events} events")
    assert not sweep.credit_bad, sweep.credit_bad[:5]


def test_criterion_8_linear_churn(sweep):
    _report("criterion 8 (node churn within 4x stream length)",
            not sweep.churn_bad, f"{sweep.seeds} runs")
    assert not sweep.churn_bad, sweep.churn_bad[:5]


@pytest.mark.slow
def test_criterion_9_throughput_scaling(tmp_path, capsys):
    """Streaming 2.5/5/10 MB of sigma=4 noise with a 65536 window must look
    linear: each doubling may cost at most ~2.2x the previous leg's time.

    The host's speed for the same Python code drifts by tens of percent
    over the length of a leg, so each leg is scored by its time scaled to
    the benchmark's nominal host speed.  A leg slides its file through one
    tree in `LEG_CHUNK`-byte chunks, and `perfbench/speed.py`'s probe is
    sampled before the first chunk and after each one; each chunk's wall
    time is multiplied by the geometric mean of the samples on either side
    of it and divided by the nominal speed, and the leg's scaled time is
    the sum.  Outside interference can only inflate a time, so each size
    is scored by its minimum over up to three passes (stopping as soon as
    the bound holds); the algorithmic scaling itself is deterministic.
    The passes run the legs in alternating order (small to large, then
    large to small), so a drift that the probe misses reaches both sides
    of each ratio."""
    speed = load_perfbench("speed")
    probe = speed.SpeedProbe()
    rng = Lcg(2024)
    data = bytes(97 + (rng.next() >> 33) % 4 for _ in range(10_000_000))
    sizes = (2_500_000, 5_000_000, 10_000_000)
    paths = []
    for size in sizes:
        path = tmp_path / f"noise-{size}.bin"
        path.write_bytes(data[:size])
        paths.append(path)

    def measure(path):
        """(wall s, wall s scaled to the nominal host speed) of one leg."""
        gc.collect()  # the last leg's tree, outside the timed region
        tree = SlidingSuffixTree(65536, mode="plp")
        elapsed = scaled = 0.0
        probe.sample()
        with open(path, "rb") as fh:
            while chunk := fh.read(LEG_CHUNK):
                start = time.perf_counter()
                tree.extend(chunk)
                dt = time.perf_counter() - start
                probe.sample()
                elapsed += dt
                scaled += dt * (probe.samples[-2] * probe.samples[-1]) ** 0.5 / speed.NOMINAL
        assert tree.head == path.stat().st_size and len(tree) == 65536
        return elapsed, scaled

    # warm caches and the allocator before the timed legs, through the CLI
    warm = tmp_path / "warmup.bin"
    warm.write_bytes(data[:500_000])
    code = cli_main(["stream", str(warm), "--window", "65536", "--mode", "plp"])
    capsys.readouterr()
    assert code == 0
    raw = best = None
    for attempt in range(3):
        times = [None] * len(paths)
        for i in (range(len(paths)) if attempt % 2 == 0 else reversed(range(len(paths)))):
            times[i] = measure(paths[i])
        pass_raw = [t[0] for t in times]
        pass_scaled = [t[1] for t in times]
        raw = pass_raw if raw is None else [min(a, b) for a, b in zip(raw, pass_raw)]
        best = pass_scaled if best is None else [min(a, b) for a, b in zip(best, pass_scaled)]
        r1 = best[1] / best[0]
        r2 = best[2] / best[1]
        ok = r1 <= 2.2 and r2 <= 2.2
        if ok:
            break
    with capsys.disabled():
        _report("criterion 9 (throughput scaling)", ok,
                f"best raw times {[round(t, 1) for t in raw]}s, raw ratios "
                f"{raw[1] / raw[0]:.2f}, {raw[2] / raw[1]:.2f}; best scaled times "
                f"{[round(t, 1) for t in best]}s, ratios {r1:.2f}, {r2:.2f}; "
                f"{attempt + 1} pass(es)")
    assert ok, (raw, best, r1, r2)
