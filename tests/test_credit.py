from hypothesis import given, settings, strategies as st

from slidingsuffix import SlidingSuffixTree
from slidingsuffix import checks
from slidingsuffix.verify import (Lcg, build_deletion_worstcase,
                                  build_insertion_worstcase, run_worstcase)

from conftest import build


def test_update_on_missing_parent_is_free():
    tree = SlidingSuffixTree(4, mode="credit")
    before = tree.counters.credit_update_calls_total
    tree.maint.update(None, 7)
    assert tree.counters.credit_update_calls_total == before


def test_update_without_credit_stops_immediately():
    tree = SlidingSuffixTree(4, mode="credit")
    root = tree.root
    root.cred = 0
    root.lp = 3
    tree.counters.reset_event_maxima()
    tree.maint.update(root, 5)
    assert root.lp == 5 and root.cred == 1
    assert tree.counters.credit_update_calls_max_event == 1


def test_update_keeps_larger_stored_start():
    tree = SlidingSuffixTree(4, mode="credit")
    root = tree.root
    root.cred = 0
    root.lp = 9
    tree.maint.update(root, 5)
    assert root.lp == 9


def test_new_split_node_starts_without_credit_then_receives_one():
    tree = build("aa", capacity=4, mode="credit")
    tree.append("b")  # splits the 'a' edge
    node = tree.root.children[ord("a")]
    assert node.children is not None
    # the split initialized lp to the incoming leaf and the leaf's credit
    # arrived right after, leaving exactly one credit on the node
    assert node.cred == 1
    assert tree.leaf_at(node.lp) is not None


def test_deleted_node_without_credit_stays_silent():
    tree = build("axazaz", mode="credit")
    node = tree.root.children[ord("a")]
    node.cred = 0  # spend it artificially; deletion must not cascade
    before = tree.counters.credit_update_calls_total
    tree.delete_front()  # merges the node away
    assert tree.counters.credit_update_calls_total == before


def test_deleted_node_with_credit_passes_its_pointer_up():
    tree = build("axazaz", mode="credit")
    node = tree.root.children[ord("a")]
    assert len(node.children) == 2
    root = tree.root
    root.cred = 0
    node.cred = 1  # the merge must hand this credit, and node.lp, to the root
    root.lp = 0
    lp = node.lp
    assert tree.leaf_at(lp) is not None
    before = tree.counters.credit_update_calls_total
    tree.counters.reset_event_maxima()
    tree.delete_front()  # merges the node away
    assert node.parent is None
    assert root.lp == lp and root.cred == 1
    assert tree.counters.credit_update_calls_total == before + 1
    assert tree.counters.credit_update_calls_max_event == 1
    assert checks.audit(tree).pointers == []


def test_insertion_chain_reaches_every_ancestor():
    # window a^3 b a^2: the next append pays one update per tree level
    tree = build_insertion_worstcase(3, "credit")
    assert tree.window_bytes() == b"aaabaa"
    tree.counters.reset_event_maxima()
    tree.append("c")
    assert tree.counters.credit_update_calls_max_event >= 3


def test_deletion_chain_reaches_every_ancestor():
    tree = build_deletion_worstcase(3, "credit")
    assert tree.window_bytes() == b"aaab"
    tree.counters.reset_event_maxima()
    tree.delete_front()
    assert tree.counters.credit_update_calls_max_event >= 2


def test_worstcase_chain_lengths_exact():
    # regression values measured from the construction itself: the critical
    # append touches n nodes, the critical delete n - 1
    for n in (2, 3, 10, 50):
        assert run_worstcase(n, "credit", "insert")["critical_event_value"] == n
        assert run_worstcase(n, "credit", "delete")["critical_event_value"] == n - 1


def test_stored_starts_stay_live_over_random_stream():
    rng = Lcg(31)
    tree = SlidingSuffixTree(12, mode="credit")
    for _ in range(5000):
        tree.slide(ord("a") + rng.draw(3))
        assert checks.audit(tree).pointers == []


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="abc", min_size=1, max_size=60).map(str.encode),
       st.integers(1, 9))
def test_modes_agree_on_topology_and_leaves(stream, cap):
    plp = SlidingSuffixTree(cap, mode="plp")
    credit = SlidingSuffixTree(cap, mode="credit")
    for sym in stream:
        plp.slide(sym)
        credit.slide(sym)
        found = checks.audit(credit)
        assert checks.audit(plp).sketch == found.sketch
        assert plp.lrs_len() == credit.lrs_len()
        assert found.pointers == []
