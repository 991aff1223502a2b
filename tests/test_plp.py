from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from slidingsuffix import SlidingSuffixTree
from slidingsuffix import checks
from slidingsuffix.tree import InternalNode, LeafNode
from slidingsuffix.verify import (Lcg, build_deletion_worstcase,
                                  build_insertion_worstcase, drive)

from conftest import build, is_primary, load_perfbench, node_by_string


# -- insertion case behavior ---------------------------------------------------

def test_first_leaf_becomes_primary_root_target():
    tree = SlidingSuffixTree(4)
    tree.counters.reset_event_maxima()
    tree.append("a")
    leaf = tree.root.children[ord("a")]
    assert is_primary(leaf)
    assert tree.root.plp is leaf
    assert leaf.plp_inv is tree.root
    assert tree.counters.plp_field_writes_max_event <= 4


def test_second_leaf_under_root_stays_secondary():
    tree = build("a", capacity=2)
    tree.counters.reset_event_maxima()
    tree.append("b")
    second = tree.root.children[ord("b")]
    assert not is_primary(second)
    assert second.plp_inv is None  # self-pointer kept implicit
    assert tree.counters.plp_field_writes_max_event <= 4


def test_split_of_primary_edge_keeps_new_node_primary():
    tree = build("ba", capacity=8)
    # the first leaf ('b' branch) is primary; repeat it and split its edge
    tree.append("b")
    tree.append("c")
    node_b = node_by_string(tree, "b")
    assert node_b is not None and is_primary(node_b)
    new_leaf = node_b.children[ord("c")]
    assert not is_primary(new_leaf) and new_leaf.plp_inv is None
    assert checks.audit(tree).pointers == []


def test_split_of_secondary_edge_points_new_node_at_new_leaf():
    tree = build("ba", capacity=8)
    # the second leaf ('a' branch) is secondary; repeat it and split its edge
    tree.append("a")
    tree.append("c")
    node_a = node_by_string(tree, "a")
    assert node_a is not None and not is_primary(node_a)
    new_leaf = node_a.children[ord("c")]
    assert is_primary(new_leaf) and node_a.plp is new_leaf and new_leaf.plp_inv is node_a
    assert checks.audit(tree).pointers == []


# -- deletion case behavior ------------------------------------------------------

def test_root_points_at_itself_when_tree_empties():
    tree = build("a", capacity=2)
    tree.delete_front()
    assert tree.root.plp is tree.root
    assert checks.audit(tree).pointers == []


def test_deleting_primary_leaf_under_root_promotes_sibling():
    tree = build("ab")
    first = tree.root.children[ord("a")]
    second = tree.root.children[ord("b")]
    assert is_primary(first) and not is_primary(second)
    tree.delete_front()
    assert is_primary(second)
    assert tree.root.plp is second
    assert second.plp_inv is tree.root
    assert checks.audit(tree).pointers == []


def test_deleting_primary_leaf_under_branching_node_rewires_pointer():
    # the node spelling "a" keeps three children so it survives the deletion
    tree = build("abacada")
    node_a = node_by_string(tree, "a")
    assert node_a is not None and len(node_a.children) == 3
    victim = tree.leaf_at(tree.tail)
    assert victim.parent is node_a and is_primary(victim)
    z = victim.plp_inv
    tree.delete_front()
    assert len(node_a.children) == 2
    target = z.plp
    assert target.children is None and target.plp_inv is z
    assert checks.audit(tree).pointers == []


def test_merge_of_secondary_parent_restarts_path_at_survivor():
    # "axazaz": deleting the front leaf merges away the secondary-or-primary
    # node "a"; whatever the flags were, the invariants must hold after
    tree = build("axazaz")
    tree.delete_front()
    assert checks.audit(tree).pointers == []
    assert checks.audit(tree).structure == []


# -- queries ---------------------------------------------------------------------

def test_pointer_queries_across_two_iterations():
    # two sliding iterations over abacabaca with a 5-wide window: the
    # branching node queries resolve to leaves 1 and 3, then 3 and 5
    tree = build("abaca", capacity=5)
    node_a = node_by_string(tree, "a")
    assert tree.leafptr(tree.root).spos == 1
    assert tree.leafptr(node_a).spos == 3
    tree.delete_front()
    tree.append("b")
    node_a2 = node_by_string(tree, "a")
    assert tree.leafptr(tree.root).spos == 3
    assert tree.leafptr(node_a2).spos == 5


def test_secondary_leaf_answers_itself():
    tree = build("ab")
    second = tree.root.children[ord("b")]
    assert tree.leafptr(second) is second


class CountingSlot:
    """Stands in for a slot descriptor and counts the reads through it."""

    def __init__(self, slot):
        self.slot = slot
        self.reads = 0

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        self.reads += 1
        return self.slot.__get__(obj, cls)

    def __set__(self, obj, value):
        self.slot.__set__(obj, value)


def count_sibling_reads(monkeypatch):
    """Put a `CountingSlot` in place of both node classes' ``sibling`` slot
    and return a function that gives the reads counted so far."""
    slots = [CountingSlot(cls.__dict__["sibling"]) for cls in (InternalNode, LeafNode)]
    for cls, slot in zip((InternalNode, LeafNode), slots):
        monkeypatch.setattr(cls, "sibling", slot)
    return lambda: sum(slot.reads for slot in slots)


def test_primary_node_answers_from_at_most_two_children(monkeypatch):
    # "a" splits the root's primary leaf, so its node is primary, and it
    # gains one child per symbol that follows an "a"
    tree = build("".join("a" + chr(c) for c in range(ord("b"), ord("z"))))
    node = node_by_string(tree, "a")
    assert is_primary(node) and len(node.children) == 24
    sibling_reads = count_sibling_reads(monkeypatch)
    leaf = tree.leafptr(node)
    reads = sibling_reads()
    assert len(node.children) == 24  # the counting sees a full scan
    scan = sibling_reads() - reads
    monkeypatch.undo()
    assert reads <= 1 and scan == 24
    assert leaf.children is None and leaf.parent is node


def test_deleting_a_primary_leaf_reads_at_most_one_sibling(monkeypatch):
    # in a window of 24 distinct bytes the first leaf is the root's primary
    # child; deleting it promotes one of the 23 others onto the root's path
    tree = SlidingSuffixTree(24)
    tree.extend(bytes(range(24)))
    victim = tree.leaf_at(tree.tail)
    assert is_primary(victim) and len(tree.root.children) == 24
    sibling_reads = count_sibling_reads(monkeypatch)
    hook = tree.maint.on_leaf_deleting
    reads = []

    def counted_hook(*args):
        before = sibling_reads()
        hook(*args)
        reads.append(sibling_reads() - before)

    tree.maint.on_leaf_deleting = counted_hook
    tree.slide(24)
    monkeypatch.undo()
    assert len(reads) == 1 and reads[0] <= 1, reads
    assert is_primary(tree.root.plp) and checks.audit(tree).pointers == []


def test_query_returns_in_window_descendant_over_long_stream():
    rng = Lcg(99)
    tree = SlidingSuffixTree(16)
    for step in range(10_000):
        tree.slide(ord("a") + rng.draw(3))
        for node in tree.iter_nodes():
            if node.children is None or not node.children:
                continue
            leaf = tree.leafptr(node)
            assert tree.tail <= leaf.spos <= tree.head
            cur = leaf
            while cur is not None and cur is not node:
                cur = cur.parent
            assert cur is node


# -- fresh index pairs -------------------------------------------------------------

def test_fresh_pair_for_deep_edge():
    tree = build("abczabcyyabcyyz")
    u = node_by_string(tree, "abc")
    v = node_by_string(tree, "abcyy")
    assert u is not None and v is not None and v.parent is u
    lo, hi = tree.edge_label(v)
    k = tree.leafptr(v).spos
    assert (lo, hi) == (k + 3, k + 4)
    assert tree.substring(lo, hi) == b"yy"
    assert lo - u.depth >= tree.tail and hi <= tree.head
    # both occurrences of "abcyy" start leaves, so the pair is one of two
    assert (lo - tree.tail, hi - tree.tail) in {(7, 8), (12, 13)}


def test_fresh_pair_below_root_starts_at_leaf():
    tree = build("abxaby")
    v = node_by_string(tree, "ab")
    assert v is not None and v.parent is tree.root
    lo, hi = tree.edge_label(v)
    assert lo == tree.leafptr(v).spos
    assert tree.substring(lo, hi) == b"ab"


def test_fresh_pair_requires_edge():
    tree = build("abxaby")
    with pytest.raises(ValueError):
        tree.edge_label(tree.root)


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="abc", min_size=2, max_size=48).map(str.encode),
       st.integers(2, 9))
def test_fresh_pairs_strongly_fresh_over_sliding_runs(stream, cap):
    tree = SlidingSuffixTree(cap)
    for sym in stream:
        tree.slide(sym)
        for node in tree.iter_nodes():
            if node.parent is None or node.children is None:
                continue
            lo, hi = tree.edge_label(node)
            assert lo - node.parent.depth >= tree.tail
            assert hi <= tree.head
            label = tree.substring(lo, hi)
            assert len(label) == node.depth - node.parent.depth


# -- cost bound ----------------------------------------------------------------------

ABSENT = object()  # a field the node's class does not have, or never set
# the stored fields only: ``prim`` is derived from them, so reading it as
# well would count each write that flips it twice
PLP_FIELDS = ("plp", "plp_inv")


def plp_fields(tree):
    """Every (node, field) of the live tree mapped to its value."""
    return {(node, name): getattr(node, name, ABSENT)
            for node in tree.iter_nodes() for name in PLP_FIELDS}


class WriteObserver:
    """Wraps the leaf-event hooks of plp trees and checks each call.

    Around every call it compares the pointer fields of every live node
    before and after, and counts the values that changed: the writes the
    call really made.  The call's own count is its change to
    ``plp_field_writes_total``.  Each call must declare exactly what it
    changes, and at most 4.  ``max_by_hook`` keeps the most writes
    observed in one call of each hook.
    """

    def __init__(self, *trees):
        self.calls = self.observed = self.declared = 0
        self.max_observed = self.max_declared = 0
        self.max_by_hook = {}
        for tree in trees:
            self.watch(tree)

    def watch(self, tree):
        for name in ("on_leaf_inserted", "on_leaf_deleting", "on_leaf_shortened"):
            hook = getattr(tree.maint, name)
            if hook is not None:
                setattr(tree.maint, name, self._wrap(tree, hook))
        return tree

    def _wrap(self, tree, hook):
        counters = tree.counters

        def observed_hook(*args):
            before = plp_fields(tree)
            total = counters.plp_field_writes_total
            hook(*args)
            declared = counters.plp_field_writes_total - total
            observed = sum(before.get(key, ABSENT) is not value
                           for key, value in plp_fields(tree).items())
            assert observed == declared <= 4, (hook.__name__, args, observed, declared)
            self.calls += 1
            self.observed += observed
            self.declared += declared
            self.max_observed = max(self.max_observed, observed)
            self.max_declared = max(self.max_declared, declared)
            name = hook.__name__
            self.max_by_hook[name] = max(self.max_by_hook.get(name, 0), observed)

        return observed_hook


@settings(max_examples=50, deadline=None)
@given(st.text(alphabet="abcd", min_size=1, max_size=80).map(str.encode),
       st.integers(1, 12))
def test_every_event_costs_at_most_four_writes(stream, cap):
    tree = SlidingSuffixTree(cap)
    WriteObserver(tree)
    for sym in stream:
        tree.slide(sym)
        assert tree.counters.plp_field_writes_max_event <= 4
    assert checks.audit(tree).pointers == []


def test_seeded_streams_observe_at_most_four_writes_per_event():
    obs = WriteObserver()
    for seed in range(1, 301):
        rng = Lcg(seed)
        tree = obs.watch(SlidingSuffixTree(1 + rng.draw(20)))
        for _ in islice(drive(rng, [tree], 1 + (seed - 1) % 4), 200):
            pass
    # a shortened leaf calls no plp hook, so these are insertions and deletions
    assert obs.calls > 35_000
    assert 0 < obs.observed == obs.declared
    assert (obs.max_observed, obs.max_declared) == (3, 3)
    # a new path costs 2 writes, a node promoted onto a path 3
    assert obs.max_by_hook["on_leaf_inserted"] <= 2
    assert obs.max_by_hook["on_leaf_deleting"] <= 3


@pytest.mark.parametrize("n", [10, 100])
def test_worst_case_events_observe_at_most_four_writes(n):
    # appending c inserts n leaves, each opening a path of its own as the
    # secondary leaf it was built as: no write at all
    tree = build_insertion_worstcase(n, "plp")
    obs = WriteObserver(tree)
    tree.append("c")
    assert (obs.calls, obs.observed, obs.declared) == (n, 0, 0)
    # deleting the primary leaf of a^n b reroutes the root's path to end
    # at the leaf promoted in its place: 2 writes
    tree = build_deletion_worstcase(n, "plp")
    obs = WriteObserver(tree)
    tree.delete_front()
    assert (obs.calls, obs.observed, obs.declared) == (1, 2, 2)


def test_benchmark_observer_sees_the_plp_pointer_fields():
    # the benchmark observes plp writes through the slots it finds in the
    # root's and a leaf's own class; a node layout that hides them would
    # leave its plp checkpoints blind and its injected fault nothing to drop
    expect = load_perfbench("expect")  # the benchmark's own checks
    data = b"bcabdabcabeabcabd"
    tree = SlidingSuffixTree(8)
    tree.append("a")
    obs = expect.WriteObserver(tree)
    with obs.installed():
        assert obs.fields_observed == 2  # the plp and plp_inv slots
        tree.extend(data)
    assert obs.events > len(data) // 2
    assert 0 < obs.max_event <= expect.PLP_BOUND
    # each value-changing write to either field carries part of the path
    # encoding, primary-ness included, so dropping any one of the stream's
    # writes leaves a pointer finding
    for field in ("plp_inv", "plp"):
        nth = 1
        while True:
            tree = SlidingSuffixTree(8)
            tree.append("a")
            obs = expect.WriteObserver(tree, drop_field=field, drop_nth=nth)
            with obs.installed():
                for sym in data:
                    tree.slide(sym)
                    if obs.dropped:
                        break
            if not obs.dropped:
                break
            assert checks.audit(tree).pointers, (field, nth)
            nth += 1
        assert nth > 4, (field, nth)
