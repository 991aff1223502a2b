"""Complete small-space sweeps: every binary string, not random samples."""

import itertools

from slidingsuffix import SlidingSuffixTree
from slidingsuffix import checks
from slidingsuffix.oracle import naive_occurrences


def test_all_binary_streams_match_oracle_in_both_modes():
    for n in range(1, 10):
        for bits in itertools.product(b"ab", repeat=n):
            for cap in (2, n):
                if cap > n:
                    continue
                plp = SlidingSuffixTree(cap, "plp")
                credit = SlidingSuffixTree(cap, "credit")
                for sym in bits:
                    plp.slide(sym)
                    credit.slide(sym)
                    for tree in (plp, credit):
                        bad = checks.audit(tree).violations()
                        assert not bad, (bytes(bits), cap, tree.mode, bad[:3])


def test_all_binary_windows_answer_every_short_pattern():
    # each stream also slides through every shorter window, so the window
    # starts at every slot of the ring and a query's one comparison reads
    # across the ring's seam
    pats = [bytes(p) for length in (1, 2, 3, 4)
            for p in itertools.product(b"ab", repeat=length)]
    for n in range(1, 9):
        for bits in itertools.product(b"ab", repeat=n):
            for cap, mode in itertools.product(range(1, n + 1), ("plp", "credit")):
                tree = SlidingSuffixTree(cap, mode)
                for sym in bits:
                    tree.slide(sym)
                w = bytes(bits[n - cap:])
                for p in pats:
                    assert tree.find_all(p) == naive_occurrences(w, p), (bits, cap, mode, p)


def test_fibonacci_and_periodic_streams():
    a, b = b"a", b"ab"
    while len(b) < 200:
        a, b = b, b + a
    streams = (b[:200], (b"abcbdca" * 30)[:200], b"a" * 150)
    for stream in streams:
        for cap in (5, 16):
            tree = SlidingSuffixTree(cap, "plp")
            for sym in stream:
                tree.slide(sym)
                assert checks.audit(tree).violations() == []
