import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import slidingsuffix
from slidingsuffix import SlidingSuffixTree
from slidingsuffix import checks
from slidingsuffix import tree as tree_module
from slidingsuffix.tree import WIDE, InternalNode, LeafNode
from slidingsuffix.oracle import naive_occurrences, naive_suffix_tree
from slidingsuffix.verify import Lcg

from conftest import build, naive_lrs, node_by_string, spare_problems


# -- construction ----------------------------------------------------------

def test_new_tree_is_root_only():
    tree = SlidingSuffixTree(5, mode="plp")
    assert tree.lrs_len() == 0
    assert sum(1 for _ in tree.iter_nodes()) == 1
    assert len(tree) == 0


def test_capacity_one_tree():
    tree = SlidingSuffixTree(1, mode="plp")
    tree.append("a")
    assert tree.window_bytes() == b"a"
    assert checks.audit(tree).sketch.leaf_starts == (1,)


def test_zero_capacity_rejected():
    with pytest.raises(ValueError):
        SlidingSuffixTree(0)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        SlidingSuffixTree(4, mode="bogus")


def test_modes_build_identical_topology():
    plp = SlidingSuffixTree(6, mode="plp")
    credit = SlidingSuffixTree(6, mode="credit")
    for step, ch in enumerate(b"abcabcababab"):
        if len(plp) == plp.capacity:
            plp.delete_front()
            credit.delete_front()
        plp.append(ch)
        credit.append(ch)
        assert checks.audit(plp).sketch == checks.audit(credit).sketch
        assert plp.lrs_len() == credit.lrs_len()


# -- append ------------------------------------------------------------------

def test_append_builds_abaca_tree():
    tree = build("abaca")
    sk = checks.audit(tree).sketch
    assert sk.internal_strings == (b"", b"a")
    assert sk.leaf_starts == (1, 2, 3, 4)
    assert tree.lrs_len() == 1


def test_append_to_empty_tree():
    tree = SlidingSuffixTree(3)
    tree.append("q")
    assert checks.audit(tree).sketch == naive_suffix_tree(b"q")
    assert (tree.ins is tree.root) and tree.proj == 0


def test_append_creating_several_leaves_at_once():
    tree = build("aaa", capacity=4)
    assert checks.audit(tree).sketch.leaf_starts == (1,)
    before = tree.counters.leaves_created
    tree.append("b")
    assert tree.counters.leaves_created - before == 3
    assert checks.audit(tree).sketch.leaf_starts == (1, 2, 3, 4)
    assert checks.audit(tree).sketch == naive_suffix_tree(b"aaab")


def test_append_on_full_window_rejected():
    tree = build("ab", capacity=2)
    with pytest.raises(ValueError):
        tree.append("c")


def test_bool_symbol_rejected():
    tree = build("ab", capacity=4)
    for bad in (True, False):
        with pytest.raises(ValueError):
            tree.append(bad)
    assert tree.window_bytes() == b"ab"
    assert tree.find_all(b"\x01") == []


@pytest.mark.parametrize("mode", ["plp", "credit"])
def test_rejected_slide_leaves_a_full_window_unchanged(mode):
    tree = build("abc", mode=mode)
    before = tree.stats()
    for bad in (300, -1, True, b"xy", b"", "xy", None):
        for feed in (tree.slide, lambda sym: tree.extend([sym])):
            with pytest.raises(ValueError):
                feed(bad)
            assert tree.window_bytes() == b"abc" and len(tree) == 3
            assert tree.stats() == before
    assert checks.audit(tree).violations() == []


@pytest.mark.parametrize("mode", ["plp", "credit"])
def test_children_keep_their_order(mode):
    # a new leaf is linked last; a split node and a lifted child take the
    # place of the child they replace
    def keys(node):
        return bytes(node.children)

    tree = build("abcdbe", capacity=6, mode=mode)
    node_b = tree.root.children[ord("b")]
    assert keys(tree.root) == b"abcde" and keys(node_b) == b"ce"
    tree.slide("f")  # leaf 1 leaves the root
    assert keys(tree.root) == b"bcdef"
    tree.slide("g")  # leaf 2 leaves node b, and leaf 5 takes b's place
    lifted = tree.root.first
    assert keys(tree.root) == b"bcdefg" and lifted.first is None and lifted.spos == 5
    assert list(tree.root.index.items()) == list(tree.root.children.items())
    assert checks.audit(tree).violations() == []


@pytest.mark.parametrize("mode", ["plp", "credit"])
def test_wide_nodes_keep_an_index(mode):
    # sigma = 12 through W = 200 makes nodes with more than WIDE children,
    # which index them; then two symbols only, so those nodes lose their
    # children and merge away, dropping their index
    rng = Lcg(12)
    data = bytes(97 + rng.draw(12) for _ in range(1500)) + \
        bytes(97 + rng.draw(2) for _ in range(1500))
    tree = SlidingSuffixTree(200, mode=mode)
    ever_indexed = []
    for i, sym in enumerate(data):
        tree.slide(sym)
        if i % 10:
            continue
        assert checks.audit(tree).violations() == [], i
        assert spare_problems(tree) == [], i
        for node in tree.iter_nodes():
            if node.first is not None and node is not tree.root:
                assert node.index is not None or len(node.children) <= WIDE
                if node.index is not None and node not in ever_indexed:
                    ever_indexed.append(node)
        window = tree.window_bytes()
        p = window[-1 - rng.draw(4):]
        assert tree.find_all(p) == naive_occurrences(window, p)
    merged = [node for node in ever_indexed if node.index is None]
    assert len(ever_indexed) > 10 and merged


def test_every_internal_node_gets_suffix_link():
    tree = build("mississippi")
    for node in tree.iter_nodes():
        if node.children is not None and node.parent is not None:
            assert node.suffix_link is not None


# -- canonize ----------------------------------------------------------------

def test_canonize_identity_when_on_node():
    tree = build("ab")
    assert tree.proj == 0
    assert tree.canonize() is tree.ins


def test_canonize_descends_to_existing_node():
    tree = build("abaca")
    # the tracked suffix "a" is spelled by an internal node one edge down
    assert tree.lrs_len() == 1
    got = tree.canonize()
    assert got is tree.ins
    assert got is node_by_string(tree, "a")
    assert tree.proj == 0


def test_canonize_stays_put_on_long_leaf_edge():
    tree = build("aaaa")
    assert tree.lrs_len() == 3
    got = tree.canonize()
    assert tree.ins is tree.root and tree.proj == 3
    assert got.children is None and got.spos == 1


# -- delete_front -------------------------------------------------------------

def test_delete_keeps_moved_locus_representation():
    tree = build("axazaz")
    assert tree.lrs_len() == 2  # "az"
    node_a = node_by_string(tree, "a")
    assert tree.canonize().children is None and tree.ins is node_a
    tree.delete_front()
    # same repeating suffix, but its locus is now counted from the root
    # because the edge it sat on was merged
    assert tree.window_bytes() == b"xazaz"
    assert tree.lrs_len() == 2
    assert tree.ins is tree.root and tree.proj == 2
    assert checks.audit(tree).sketch == naive_suffix_tree(b"xazaz")


def test_delete_then_append_reaches_bacab():
    tree = build("abaca")
    tree.delete_front()
    assert checks.audit(tree).sketch.leaf_starts == (1, 2, 3)
    assert checks.audit(tree).sketch == naive_suffix_tree(b"baca")
    tree.append("b")
    assert tree.window_bytes() == b"bacab"
    assert checks.audit(tree).sketch == naive_suffix_tree(b"bacab")


def test_delete_shortens_leaf_in_place():
    tree = build("aa")
    assert tree.lrs_len() == 1
    before = tree.counters.leaves_deleted
    tree.delete_front()
    assert tree.window_bytes() == b"a"
    assert checks.audit(tree).sketch.leaf_starts == (1,)  # relabeled, spos now 2
    assert tree.lrs_len() == 0
    assert tree.counters.leaves_deleted == before  # no structural churn
    assert tree.counters.leaves_created == 1  # the relabel created nothing
    assert tree.leaf_at(2) is not None  # the surviving leaf now starts at 2


def test_delete_to_empty_and_refill():
    tree = build("ab", capacity=4)
    tree.delete_front()
    tree.delete_front()
    assert len(tree) == 0
    assert sum(1 for _ in tree.iter_nodes()) == 1
    with pytest.raises(ValueError):
        tree.delete_front()
    tree.append("z")
    assert checks.audit(tree).sketch == naive_suffix_tree(b"z")


# -- queries -------------------------------------------------------------------

def test_lrs_len_matches_oracle_examples():
    assert SlidingSuffixTree(3).lrs_len() == 0
    assert build("abaca").lrs_len() == naive_lrs(b"abaca") == 1
    assert build("aaaa").lrs_len() == naive_lrs(b"aaaa") == 3


def test_edge_label_for_leaf_under_root():
    tree = build("ab")
    for leaf_key in (ord("a"), ord("b")):
        leaf = tree.root.children[leaf_key]
        lo, hi = tree.edge_label(leaf)
        assert (lo, hi) == (leaf.spos, tree.head)


def test_edge_label_rejects_root():
    tree = build("ab")
    with pytest.raises(ValueError):
        tree.edge_label(tree.root)


def test_edge_labels_reconstruct_every_edge():
    tree = build("abaab")
    expected = naive_suffix_tree(b"abaab")
    assert checks.audit(tree).sketch == expected
    for node in tree.iter_nodes():
        if node.parent is None:
            continue
        lo, hi = tree.edge_label(node)
        label = tree.substring(lo, hi)
        assert len(label) >= 1
        if node.children is not None:
            assert len(label) == node.depth - node.parent.depth


def test_leafptr_returns_leaf_itself():
    tree = build("abaca")
    leaf = tree.root.children[ord("b")]
    assert leaf.children is None
    assert tree.leafptr(leaf) is leaf


def test_leafptr_is_live_descendant_in_both_modes():
    for mode in ("plp", "credit"):
        tree = build("abcabcabadadc", capacity=8, mode=mode)
        for node in tree.iter_nodes():
            if node.children is None or not node.children:
                continue
            leaf = tree.leafptr(node)
            assert leaf.children is None
            cur = leaf
            while cur is not None and cur is not node:
                cur = cur.parent
            assert cur is node


# -- whole-tree invariants -----------------------------------------------------

def run_stream(mode, caps, stream, deletes_at):
    tree = SlidingSuffixTree(caps, mode=mode)
    for i, sym in enumerate(stream):
        if len(tree) == tree.capacity or i in deletes_at:
            if len(tree):
                tree.delete_front()
        tree.append(sym)
        yield tree


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abcd", min_size=1, max_size=60),
       st.integers(1, 10),
       st.sets(st.integers(0, 59)),
       st.sampled_from(["plp", "credit"]))
def test_tree_matches_oracle_after_every_event(text, cap, deletes_at, mode):
    stream = text.encode()
    for tree in run_stream(mode, cap, stream, deletes_at):
        assert checks.audit(tree).violations() == []


def test_leaf_set_is_exactly_the_long_suffixes():
    tree = build("abracadabra")
    sk = checks.audit(tree).sketch
    lrs = tree.lrs_len()
    assert sk.leaf_starts == tuple(range(1, len(tree) - lrs + 1))


def test_node_churn_stays_linear():
    tree = SlidingSuffixTree(16)
    stream = (b"abcd" * 64)[:256]
    for sym in stream:
        tree.slide(sym)
    assert tree.counters.churn() <= 4 * tree.head


def bursty_runs(rng, n, max_run):
    """n symbols of alternating runs of a and b, each 1 + draw(max_run) long:
    the symbol ending a run inserts a burst of leaves."""
    out = bytearray()
    sym = ord("a")
    while len(out) < n:
        out += bytes([sym]) * (1 + rng.draw(max_run))
        sym ^= ord("a") ^ ord("b")
    return bytes(out[:n])


def sliding_streams():
    """(label, capacity, symbols): seeded LCG noise, and a run stream."""
    for sigma, cap, slides in ((2, 64, 20000), (4, 1000, 20000),
                               (1, 50, 2000), (3, 7, 5000)):
        rng = Lcg(sigma * cap)
        yield (sigma, cap), cap, bytes(rng.draw(sigma) for _ in range(slides))
    yield "runs", 300, bursty_runs(Lcg(300), 20000, 100)


@pytest.mark.parametrize("mode", ["plp", "credit"])
def test_sliding_leaves_no_cyclic_garbage(mode):
    # departing leaves and merged nodes are recycled, or freed without cycle
    # collection: a cycle left behind would pile up until the collector runs
    gc.disable()
    try:
        for label, cap, data in sliding_streams():
            tree = SlidingSuffixTree(cap, mode=mode)
            gc.collect()  # earlier garbage: the previous tree's parent links are cycles
            tree.extend(data)
            assert gc.collect() == 0, label
    finally:
        gc.enable()


@pytest.mark.parametrize("mode", ["plp", "credit"])
def test_recycling_builds_only_the_peak_tree(mode, monkeypatch):
    # a node is allocated only when no spare is left, so live plus spare
    # objects always equal the peak live count, and that is all ever built;
    # a reused spare runs `__init__` again, so allocations are what count.
    # `__new__` is wrapped on subclasses the tree builds in place of its own
    # classes: CPython cannot restore a class's inherited `__new__`
    built = {LeafNode: 0, InternalNode: 0}
    for cls in built:
        def counting_new(klass, *args, _cls=cls, **kwargs):
            built[_cls] += 1
            return object.__new__(klass)
        counted = type(cls.__name__, (cls,), {"__slots__": (), "__new__": counting_new})
        monkeypatch.setattr(tree_module, cls.__name__, counted)
    for label, cap, data in sliding_streams():
        tree = SlidingSuffixTree(cap, mode=mode)
        built[LeafNode] = built[InternalNode] = 0  # not counting the root
        c = tree.counters
        peak_leaves = peak_nodes = 0
        for sym in data:
            tree.slide(sym)
            leaves = c.leaves_created - c.leaves_deleted
            nodes = c.nodes_created - c.nodes_deleted
            peak_leaves = max(peak_leaves, leaves)
            peak_nodes = max(peak_nodes, nodes)
            assert leaves + len(tree._spare_leaves) == peak_leaves == built[LeafNode], label
            assert nodes + len(tree._spare_nodes) == peak_nodes == built[InternalNode], label
        live = list(tree.iter_nodes())
        assert sum(n.children is None for n in live) == leaves, label
        assert sum(n.children is not None for n in live) == nodes + 1, label
        assert built[LeafNode] <= cap and built[InternalNode] <= cap, label
        assert spare_problems(tree) == [], label
        assert checks.audit(tree).violations() == [], label


def test_linked_children_keep_a_sigma_4_tree_small():
    # children are first-child / next-sibling links, not a dict per node;
    # with a dict per internal node this tree took about 314 bytes a symbol
    assert all("children" not in cls.__slots__ for cls in (InternalNode, LeafNode))
    rng = Lcg(1)
    data = bytes(97 + rng.draw(4) for _ in range(12_288))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tree = SlidingSuffixTree(4096)
        tree.extend(data)
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(tree) == 4096 and tree._spare_nodes and tree._spare_leaves
    assert used / 4096 <= 230, used / 4096


@pytest.mark.parametrize("mode", ["plp", "credit"])
def test_spare_problems_finds_linked_spares(mode):
    tree = build("abcabdabcabe", mode=mode)
    for _ in range(6):
        tree.delete_front()
    assert spare_problems(tree) == []
    leaf, node = tree._spare_leaves[0], tree._spare_nodes[0]
    live = tree.root.first
    leaf.sibling = live
    node.first = live
    assert spare_problems(tree) == [f"spare {leaf!r} still has a sibling",
                                    f"spare {node!r} still has a first child"]
    leaf.sibling = node.first = None
    tree.root.index[ord("z")] = leaf
    assert spare_problems(tree) == [f"spare {leaf!r} is reachable from the live tree"]


def _fields(obj, skip):
    return {name: getattr(obj, name) for name in type(obj).__slots__ if name not in skip}


@pytest.mark.parametrize("mode", ["plp", "credit"])
def test_recycled_objects_reach_the_hook_as_if_new(mode):
    # the hook of the leaf event that attaches a leaf, and a node split off
    # for it, sees exactly the fields their constructors give
    # fields that place the object in the tree: its parent, position, key
    # and links (a new node holds the child it split off, and the sibling
    # that child had)
    leaf_skip = ("parent", "spos", "key")
    node_skip = ("parent", "depth", "key", "first", "sibling")
    new_leaf = _fields(LeafNode(None, 1), leaf_skip)
    new_node = _fields(InternalNode(None, 1), node_skip)
    reused_leaves = reused_nodes = 0
    for label, cap, data in sliding_streams():
        tree = SlidingSuffixTree(cap, mode=mode)
        hook = tree.maint.on_leaf_inserted

        def checked_hook(u, w, split_child):
            assert _fields(u, leaf_skip) == new_leaf, (label, u)
            if split_child is not None:
                assert _fields(w, node_skip) == new_node, (label, w)
            hook(u, w, split_child)

        tree.maint.on_leaf_inserted = checked_hook
        tree.extend(data)
        c = tree.counters
        reused_leaves += c.leaves_deleted - len(tree._spare_leaves)
        reused_nodes += c.nodes_deleted - len(tree._spare_nodes)
    assert reused_leaves > 10_000 and reused_nodes > 10_000


def test_invariant_checks_survive_python_O():
    # a taken leaf slot must be refused even where asserts are stripped
    script = "\n".join([
        "from slidingsuffix import SlidingSuffixTree, InvariantError",
        "assert False, 'asserts must be stripped'",
        "tree = SlidingSuffixTree(8)",
        "tree.extend(b'abc')",
        "tree._leaf_slots[3] = tree.leaf_at(1)  # the slot of the next leaf, start 4",
        "try:",
        "    tree.append(ord('d'))",
        "except InvariantError as exc:",
        "    print('refused:', exc)",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(slidingsuffix.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "refused: leaf slot of start 4 is taken"
