"""Brute-force reference implementations used for differential testing.

Everything here is pure, slow, and independent of the incremental tree:
results are computed directly from the window text by scanning it or
sorting its suffixes.
"""

from __future__ import annotations

from typing import NamedTuple


class TreeSketch(NamedTuple):
    """Canonical, representation-independent description of a suffix tree.

    `internal_strings` lists the full root-to-node string of every internal
    node (the root contributes the empty string); `leaf_starts` lists the
    1-based start of each suffix represented by a leaf.  Both are sorted,
    so sketches compare with plain equality.
    """

    internal_strings: tuple
    leaf_starts: tuple


def naive_suffix_tree(w) -> TreeSketch:
    """Sketch of the implicit suffix tree of w, read off its sorted suffixes.

    Suffixes with a common prefix sort next to each other, so comparing
    each suffix with the next one in sorted order is enough (as in suffix
    arrays with neighbour LCPs, Manber & Myers 1993; Kasai et al. 2001).
    When both continue past their common prefix, they continue with two
    distinct symbols, so that prefix is an internal node; every branching
    substring shows up this way.  When one is a prefix of the next, it
    occurs twice.  The longest such suffix is the longest repeating suffix,
    and leaves are exactly the suffixes longer than it.
    """
    n = len(w)
    internal = {w[:0]}
    lrs = 0
    suffixes = sorted(w[i:] for i in range(n))
    for a, b in zip(suffixes, suffixes[1:]):
        m = len(a)
        k = 0
        while k < m and a[k] == b[k]:
            k += 1
        if k < m:
            internal.add(a[:k])
        elif m > lrs:
            lrs = m
    return TreeSketch(tuple(sorted(internal)), tuple(range(1, n - lrs + 1)))


def naive_occurrences(w, p) -> list:
    """Sorted 1-based start positions of every occurrence of bytes p in bytes w."""
    out = []
    if not p:
        return out
    i = w.find(p)
    while i != -1:
        out.append(i + 1)
        i = w.find(p, i + 1)
    return out
