"""Edge-count regression: the edges `find_all_counted` touches on fixed queries.

`checks.matching_violations` bounds these counts, so a change to how the
query path walks the tree must leave the occurrence and query sums exactly
as they were, and may move an edge sum only with a stated reason.  The edge
sums count every edge the blind descent follows, down to its one
comparison: on an absent pattern that includes the edges past the first
differing symbol.
"""

import pytest

from slidingsuffix import SlidingSuffixTree
from slidingsuffix.matching import find_all_counted
from slidingsuffix.oracle import naive_occurrences
from slidingsuffix.verify import Lcg, sample_patterns

SLIDES = 3_000
QUERY_EVERY = 25
PATTERNS = 8

# (sigma, window) -> (edges touched, occurrences reported, queries made);
# edge counts depend on the topology alone, which both modes share
GOLDEN = {
    (2, 64): (8568, 3168, 960),
    (3, 7): (2002, 1530, 960),
    (4, 1000): (8559, 3370, 960),
}


@pytest.mark.parametrize("mode", ["plp", "credit"])
@pytest.mark.parametrize("sigma,window", sorted(GOLDEN))
def test_edges_touched_by_seeded_queries_are_pinned(mode, sigma, window):
    rng = Lcg(4242)
    tree = SlidingSuffixTree(window, mode=mode)
    edges = occ = queries = 0
    for step in range(1, SLIDES + 1):
        tree.slide(97 + (rng.next() >> 33) % sigma)
        if step % QUERY_EVERY:
            continue
        w = tree.window_bytes()
        for p in sample_patterns(rng, w, tree.lrs_len(), PATTERNS):
            got, touched = find_all_counted(tree, p)
            assert got == naive_occurrences(w, p)
            edges += touched
            occ += len(got)
            queries += 1
    assert (edges, occ, queries) == GOLDEN[sigma, window]
