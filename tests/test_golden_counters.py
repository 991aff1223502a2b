"""Counter regression: the lifetime counters of fixed LCG streams.

The values are pinned, so a change to how the tree or its hooks count
must leave every total and every per-event maximum exactly as it was.
"""

import pytest

from slidingsuffix import SlidingSuffixTree
from slidingsuffix.verify import Lcg

SLIDES = 20_000

TOPOLOGY = {
    (2, 64): dict(explicit_extensions=39453, nodes_created=19453, nodes_deleted=19397,
                  leaves_created=19455, leaves_deleted=19397),
    (4, 1000): dict(explicit_extensions=39974, nodes_created=12332, nodes_deleted=11721,
                    leaves_created=19978, leaves_deleted=18982),
}
MAINTENANCE = {
    ("plp", 2, 64): dict(plp_field_writes_total=95417, plp_field_writes_max_event=4),
    ("plp", 4, 1000): dict(plp_field_writes_total=79717, plp_field_writes_max_event=4),
    ("credit", 2, 64): dict(credit_update_calls_total=53086,
                            credit_update_calls_max_event=11),
    ("credit", 4, 1000): dict(credit_update_calls_total=47527,
                              credit_update_calls_max_event=7),
}


@pytest.mark.parametrize("mode,sigma,window", sorted(MAINTENANCE))
def test_counters_of_a_seeded_stream_are_pinned(mode, sigma, window):
    rng = Lcg(99)
    tree = SlidingSuffixTree(window, mode=mode)
    for _ in range(SLIDES):
        tree.slide(97 + (rng.next() >> 33) % sigma)
    want = dict(TOPOLOGY[sigma, window], plp_field_writes_total=0,
                plp_field_writes_max_event=0, credit_update_calls_total=0,
                credit_update_calls_max_event=0)
    want.update(MAINTENANCE[mode, sigma, window])
    assert tree.stats() == want
