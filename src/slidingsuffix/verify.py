"""Randomized differential verification and worst-case reproductions.

The event stream is generated by a fixed 64-bit linear congruential
generator so failures reproduce bit-for-bit across machines and across
independent implementations:

    state' = (state * 6364136223846793005 + 1442695040888963407) mod 2^64
    draw(n) = (state' >> 33) mod n

Symbols are ``ord('a') + draw(sigma)``.  Each step draws r = draw(8) and
then: appends when the window is empty, deletes when it is full, deletes
when r == 0, and appends otherwise.  Pattern samples for the matching check
are drawn from the same generator (see `sample_patterns`).  `drive` is the
one implementation of this policy, and `check` the one per-state sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice

from . import checks, oracle
from .tree import SlidingSuffixTree


class Lcg:
    """Deterministic 64-bit LCG (MMIX multiplier/increment)."""

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next(self) -> int:
        self.state = (self.state * self.MULT + self.INC) & self.MASK
        return self.state

    def draw(self, n: int) -> int:
        """Uniform-ish draw in [0, n)."""
        return (self.next() >> 33) % n


@dataclass
class VerifyConfig:
    seed: int = 1
    iters: int = 1000
    sigma: int = 2
    window: int = 8
    patterns_per_state: int = 4


@dataclass
class VerifyResult:
    ok: bool
    events: int
    violations: list = field(default_factory=list)
    event_log: list = field(default_factory=list)
    elapsed_s: float = 0.0

    def as_dict(self) -> dict:
        return {"ok": self.ok, "events": self.events,
                "violations": self.violations,
                "event_log": self.event_log if not self.ok else [],
                "elapsed_s": round(self.elapsed_s, 3)}


def sample_patterns(rng: Lcg, text: bytes, lrs: int, count: int) -> list:
    """Deterministic pattern mix: window substrings biased toward the
    lengths that exercise each matching branch, plus mutated non-substrings."""
    n = len(text)
    if n == 0 or count <= 0:
        return []
    pats = []
    # pin the three length regimes around the repeating-suffix boundary
    if lrs > 0:
        pats.append(text[n - lrs:])        # length == lrs
    if lrs > 1:
        pats.append(text[n - lrs:n - 1])   # length < lrs
    pats.append(text[: min(lrs + 1, n)])   # length > lrs when the window allows
    while len(pats) < count:
        i = rng.draw(n)
        length = 1 + rng.draw(n - i)
        p = text[i:i + length]
        if rng.draw(4) == 0:
            # mutate one symbol to probe absent patterns too
            j = rng.draw(len(p))
            q = bytearray(p)
            q[j] = ord('a') + rng.draw(26)
            p = bytes(q)
        pats.append(p)
    return pats[:count]


def drive(rng: Lcg, trees: list, sigma: int):
    """Apply the seeded op policy to every tree, one event per step, forever.

    Yields each event's log entry, ``"+a"`` for an append of ``a`` or
    ``"-"`` for a front deletion, after the event; the caller stops it.
    Emptiness and fullness are read from the first tree.
    """
    first = trees[0]
    while True:
        size = len(first)
        r = rng.draw(8)
        if size == 0 or (size < first.capacity and r != 0):
            sym = ord('a') + rng.draw(sigma)
            for tree in trees:
                tree.append(sym)
            yield "+" + chr(sym)
        else:
            for tree in trees:
                tree.delete_front()
            yield "-"


@dataclass
class Check:
    """Findings of one `check`: one audit per tree, then the matching
    findings of the first tree on the sampled patterns."""

    trees: list
    audits: list
    patterns: list
    matching: list

    def violations(self) -> list:
        """Every finding, tagged with its tree's mode."""
        bad = [f"[{tree.mode}] " + msg
               for tree, found in zip(self.trees, self.audits)
               for msg in found.violations()]
        bad += [f"[{self.trees[0].mode}] " + msg for msg in self.matching]
        return bad


def check(rng: Lcg, trees: list, patterns: int) -> Check:
    """Audit every tree against one oracle sketch of the window, and query
    the first tree with ``patterns`` samples drawn from ``rng``."""
    text = trees[0].window_bytes()
    expected = oracle.naive_suffix_tree(text)
    pats = sample_patterns(rng, text, trees[0].lrs_len(), patterns)
    audits = [checks.audit(tree, expected) for tree in trees]
    return Check(trees, audits, pats, checks.matching_violations(trees[0], pats, text))


def run_verify(cfg: VerifyConfig) -> VerifyResult:
    """Drive a random op stream, sweeping all invariants after every event.

    Both maintenance modes run side by side on the same stream; their
    topologies must agree with the brute-force oracle (and hence each
    other) at every step.
    """
    rng = Lcg(cfg.seed)
    trees = [SlidingSuffixTree(cfg.window, mode="plp"),
             SlidingSuffixTree(cfg.window, mode="credit")]
    log = []
    start = time.perf_counter()
    for entry in islice(drive(rng, trees, cfg.sigma), cfg.iters):
        log.append(entry)
        bad = check(rng, trees, cfg.patterns_per_state).violations()
        if bad:
            return VerifyResult(ok=False, events=len(log), violations=bad,
                                event_log=log,
                                elapsed_s=time.perf_counter() - start)
    return VerifyResult(ok=True, events=len(log),
                        elapsed_s=time.perf_counter() - start)


def build_insertion_worstcase(n: int, mode: str) -> SlidingSuffixTree:
    """Window a^n b a^(n-1), one append of c away from the costly event."""
    if n < 2:
        raise ValueError("n must be >= 2")
    tree = SlidingSuffixTree(2 * n + 1, mode=mode)
    tree.extend(b"a" * n + b"b" + b"a" * (n - 1))
    return tree


def build_deletion_worstcase(n: int, mode: str) -> SlidingSuffixTree:
    """Window a^n b, one delete_front away from the costly event."""
    if n < 2:
        raise ValueError("n must be >= 2")
    tree = SlidingSuffixTree(n + 1, mode=mode)
    tree.extend(b"a" * n + b"b")
    return tree


def run_worstcase(n: int, mode: str, variant: str) -> dict:
    """Build a construction, run its critical event, report per-event costs.

    The reported value is the maximum per-event counter observed during the
    critical operation: the update-chain length in credit mode, the number
    of pointer field writes in plp mode.
    """
    if variant == "insert":
        tree = build_insertion_worstcase(n, mode)
        tree.counters.reset_event_maxima()
        tree.append(ord('c'))
    elif variant == "delete":
        tree = build_deletion_worstcase(n, mode)
        tree.counters.reset_event_maxima()
        tree.delete_front()
    else:
        raise ValueError("variant must be 'insert' or 'delete'")
    c = tree.counters
    critical = (c.credit_update_calls_max_event if mode == "credit"
                else c.plp_field_writes_max_event)
    return {
        "n": n,
        "mode": mode,
        "variant": variant,
        "metric": ("credit_update_calls" if mode == "credit"
                   else "plp_field_writes"),
        "critical_event_value": critical,
        "counters": tree.stats(),
    }
