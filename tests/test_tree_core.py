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
from slidingsuffix.tree import WIDE, InternalNode, LeafNode
from slidingsuffix.oracle import naive_occurrences, naive_suffix_tree
from slidingsuffix.verify import Lcg

from conftest import active_ins, build, naive_lrs, node_by_string


# -- construction ----------------------------------------------------------

def test_new_tree_is_root_only():
    tree = SlidingSuffixTree(5, mode="plp")
    assert tree.lrs_len() == 0
    assert tree.below is tree.root and tree.proj == 0
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
    assert tree.below is tree.root and tree.proj == 0


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
    # place of the child they replace, in the sibling list and in the
    # index of a node with more than WIDE children
    def keys(node):
        return bytes(node.children)

    tree = build("abcdbehijkl", capacity=11, mode=mode)
    node_b = tree.root.children[ord("b")]
    assert keys(tree.root) == b"abcdehijkl" and keys(node_b) == b"ce"
    assert tree.root.index is not None
    tree.slide("f")  # leaf 1 leaves the root
    assert keys(tree.root) == b"bcdehijklf"
    tree.slide("g")  # leaf 2 leaves node b, and leaf 5 takes b's place
    lifted = tree.root.first
    assert keys(tree.root) == b"bcdehijklfg" and lifted.first is None and lifted.spos == 5
    assert list(tree.root.index.items()) == list(tree.root.children.items())
    assert checks.audit(tree).violations() == []


@pytest.mark.parametrize("mode", ["plp", "credit"])
def test_wide_nodes_keep_an_index(mode):
    # sigma = 12 through W = 200 makes nodes with more than WIDE children,
    # the root among them, which index them; then two symbols only, so
    # those nodes lose their children and merge away, dropping their
    # index, except the root, which never merges and keeps its index
    rng = Lcg(12)
    data = bytes(97 + rng.draw(12) for _ in range(1500)) + \
        bytes(97 + rng.draw(2) for _ in range(1500))
    tree = SlidingSuffixTree(200, mode=mode)
    assert tree.root.index is None
    ever_indexed = []
    for i, sym in enumerate(data):
        tree.slide(sym)
        if i % 10:
            continue
        assert checks.audit(tree).violations() == [], i
        for node in tree.iter_nodes():
            if node.first is not None:
                assert node.index is not None or len(node.children) <= WIDE
                if node.index is not None and node not in ever_indexed:
                    ever_indexed.append(node)
        window = tree.window_bytes()
        p = window[-1 - rng.draw(4):]
        assert tree.find_all(p) == naive_occurrences(window, p)
    merged = [node for node in ever_indexed if node.index is None]
    assert len(ever_indexed) > 10 and merged
    assert tree.root in ever_indexed and len(tree.root.index) == 2


def test_every_internal_node_gets_suffix_link():
    tree = build("mississippi")
    for node in tree.iter_nodes():
        if node.children is not None and node.parent is not None:
            assert node.suffix_link is not None


# -- canonize ----------------------------------------------------------------

def test_canonize_identity_when_on_node():
    tree = build("ab")
    assert tree.proj == 0 and tree.below is tree.root
    assert tree.canonize(tree.root, 0) == (tree.root, 0, tree.root)


def test_canonize_descends_to_existing_node():
    tree = build("abaca")
    # the tracked suffix "a" is spelled by an internal node one edge down
    assert tree.lrs_len() == 1
    node_a = node_by_string(tree, "a")
    assert tree.canonize(tree.root, 1) == (node_a, 0, node_a)
    assert tree.below is node_a and tree.proj == 0


def test_canonize_stays_put_on_long_leaf_edge():
    tree = build("aaaa")
    assert tree.lrs_len() == 3
    ins, proj, below = tree.canonize(tree.root, 3)
    assert ins is tree.root and proj == 3
    assert below.children is None and below.spos == 1
    assert tree.below is below and tree.proj == 3


def test_canonize_writes_no_active_point_field():
    tree = build("abcabxab")
    below, proj = tree.below, tree.proj
    assert tree.canonize(tree.root, 1)[2] is not below
    assert tree.below is below and tree.proj == proj


# -- delete_front -------------------------------------------------------------

def test_delete_keeps_moved_locus_representation():
    tree = build("axazaz")
    assert tree.lrs_len() == 2  # "az"
    node_a = node_by_string(tree, "a")
    assert tree.below.children is None and active_ins(tree) is node_a
    tree.delete_front()
    # same repeating suffix, but its locus is now counted from the root
    # because the edge it sat on was merged
    assert tree.window_bytes() == b"xazaz"
    assert tree.lrs_len() == 2
    assert active_ins(tree) is tree.root and tree.proj == 2
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


@pytest.mark.parametrize("mode", ["plp", "credit"])
def test_slide_matches_delete_front_then_append(mode):
    # a slide starts from the node below the locus that the tree carries,
    # which each operation leaves for the next; the two trees must stay
    # alike, and after every operation the carried pair must be what a
    # descent from the root by the lrs length finds.  Binary runs as long
    # as the window end in leaf bursts that split several edges per phase
    def assert_carried(tree, where):
        assert tree.below is not None, where
        held = (active_ins(tree), tree.proj, tree.below)
        assert tree.canonize(tree.root, tree.lrs_len()) == held, where

    def streams():
        for seed in range(1, 81):
            rng = Lcg(seed)
            sigma = 1 + (seed - 1) % 4
            cap = 2 + rng.draw(19)
            yield seed, cap, bytes(97 + rng.draw(sigma) for _ in range(6 * cap))
        for seed in range(1, 41):
            rng = Lcg(seed)
            cap = 2 + rng.draw(39)
            yield ("runs", seed), cap, bursty_runs(rng, 6 * cap, cap)
        # longer windows of sigma = 4 noise.  On these two seeds of 1-200, a
        # symbol carried from one slide to the next goes wrong unless the
        # occurrence it was read from is checked to be live: a deletion
        # retires that occurrence, a match extends the locus past it, and the
        # symbol that follows the retired occurrence is not the tree's
        for seed in (76, 194):
            rng = Lcg(seed)
            cap = 32 + rng.draw(129)
            yield ("noise", seed), cap, bytes(97 + rng.draw(4) for _ in range(20 * cap))

    for label, cap, data in streams():
        slid = SlidingSuffixTree(cap, mode=mode)
        stepped = SlidingSuffixTree(cap, mode=mode)
        for step, sym in enumerate(data):
            slid.slide(sym)
            where = (label, step)
            assert_carried(slid, where)
            if len(stepped) == cap:
                stepped.delete_front()
                assert_carried(stepped, where)
            stepped.append(sym)
            assert_carried(stepped, where)
            assert slid.stats() == stepped.stats(), where
            assert slid.window_bytes() == stepped.window_bytes(), where
            assert checks.audit(slid).violations() == [], where


@pytest.mark.parametrize("mode", ["plp", "credit"])
def test_slide_deletes_through_the_class_attribute(mode, monkeypatch):
    # a tracer wraps `SlidingSuffixTree.delete_front` on the class, so each
    # front deletion a slide makes must go through that attribute
    tree = build("abcabdabcabe", capacity=8, mode=mode)
    real = SlidingSuffixTree.delete_front
    calls = 0

    def counted(self):
        nonlocal calls
        calls += 1
        return real(self)

    monkeypatch.setattr(SlidingSuffixTree, "delete_front", counted)
    data = b"abacabadabcab" * 3
    tree.extend(data)
    assert calls == len(data)
    assert checks.audit(tree).violations() == []


@pytest.mark.parametrize("mode", ["plp", "credit"])
def test_no_slide_starts_with_a_descent(mode, monkeypatch):
    # a slide's deletion and its first sub-iteration read the carried node,
    # so only sub-iterations after a suffix-link hop, and a shortening
    # deletion (which deletes no leaf), may descend
    cap = 4096
    tree = SlidingSuffixTree(cap, mode=mode)
    rng = Lcg(17)
    for _ in range(cap):
        tree.slide(97 + rng.draw(4))
    real = SlidingSuffixTree.canonize
    calls = 0

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return real(self, *args)

    monkeypatch.setattr(SlidingSuffixTree, "canonize", counted)
    c = tree.counters
    extensions, deleted = c.explicit_extensions, c.leaves_deleted
    for _ in range(cap):
        tree.slide(97 + rng.draw(4))
    assert 0 < calls <= (c.explicit_extensions - extensions) - (c.leaves_deleted - deleted)


@pytest.mark.parametrize("mode", ["plp", "credit"])
def test_a_slide_reads_at_most_one_leaf_pointer(mode, monkeypatch):
    # each mid-edge locus of a phase is the first one less leading symbols,
    # followed by the same window symbol, so a phase reads that symbol
    # through a leaf pointer once; a leaf burst at a run's end splits edges
    # in several of its sub-iterations
    cap = 256
    tree = SlidingSuffixTree(cap, mode=mode)
    real = type(tree.maint).leaf_for
    calls = 0

    def counted(self, node):
        nonlocal calls
        calls += 1
        return real(self, node)

    monkeypatch.setattr(type(tree.maint), "leaf_for", counted)
    c = tree.counters
    most_reads = most_splits = 0
    for sym in bursty_runs(Lcg(5), 4 * cap, cap // 2):
        calls = 0
        nodes = c.nodes_created
        tree.slide(sym)
        most_reads = max(most_reads, calls)
        most_splits = max(most_splits, c.nodes_created - nodes)
    assert most_reads <= 1
    assert most_splits >= 3


def test_tree_has_no_instance_dict():
    tree = build("abcab", capacity=4)
    assert not hasattr(tree, "__dict__")
    with pytest.raises(AttributeError):
        tree.scratch = 1


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
    # `__new__` is wrapped on subclasses the tree builds in place of its
    # mode's classes: CPython cannot restore a class's inherited `__new__`
    maint = type(SlidingSuffixTree(1, mode=mode).maint)
    built = {"leaf_class": 0, "node_class": 0}
    for attr in built:
        def counting_new(klass, *args, _attr=attr, **kwargs):
            built[_attr] += 1
            return object.__new__(klass)
        cls = getattr(maint, attr)
        counted = type(cls.__name__, (cls,), {"__slots__": (), "__new__": counting_new})
        monkeypatch.setattr(maint, attr, counted)
    for label, cap, data in sliding_streams():
        tree = SlidingSuffixTree(cap, mode=mode)
        built["leaf_class"] = built["node_class"] = 0  # not counting the root
        c = tree.counters
        peak_leaves = peak_nodes = 0
        for sym in data:
            tree.slide(sym)
            leaves = c.leaves_created - c.leaves_deleted
            nodes = c.nodes_created - c.nodes_deleted
            peak_leaves = max(peak_leaves, leaves)
            peak_nodes = max(peak_nodes, nodes)
            assert leaves + len(tree._spare_leaves) == peak_leaves == built["leaf_class"], label
            assert nodes + len(tree._spare_nodes) == peak_nodes == built["node_class"], label
        live = list(tree.iter_nodes())
        assert sum(n.children is None for n in live) == leaves, label
        assert sum(n.children is not None for n in live) == nodes + 1, label
        assert built["leaf_class"] <= cap and built["node_class"] <= cap, label
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


def _slots(cls):
    """Every slot of cls, its bases' included: ``__slots__`` lists only a
    class's own."""
    return [name for c in cls.__mro__ for name in getattr(c, "__slots__", ())]


def _fields(obj, skip):
    return {name: getattr(obj, name) for name in _slots(type(obj)) if name not in skip}


@pytest.mark.parametrize("mode", ["plp", "credit"])
def test_recycled_objects_reach_the_hook_as_if_new(mode):
    # the hook of the leaf event that attaches a leaf, and a node split off
    # for it, sees exactly the fields their constructors give
    # fields that place the object in the tree: its parent, position, key
    # and links (a new node holds the child it split off, and the sibling
    # that child had)
    leaf_skip = ("parent", "spos", "key")
    node_skip = ("parent", "depth", "key", "first", "sibling")
    maint = type(SlidingSuffixTree(1, mode=mode).maint)
    new_leaf = _fields(maint.leaf_class(None, 1), leaf_skip)
    new_node = _fields(maint.node_class(None, 1), node_skip)
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


@pytest.mark.parametrize("mode", ["plp", "credit"])
def test_constructors_reset_every_slot_of_a_recycled_object(mode):
    # a spare is reset by running its class's constructor again, so each
    # constructor must assign every slot over the MRO; one it leaves out
    # would keep the value the object held before
    maint = type(SlidingSuffixTree(1, mode=mode).maint)
    for cls in (maint.node_class, maint.leaf_class):
        fresh = cls(None, 3, 97)
        used = cls.__new__(cls)
        for name in _slots(cls):
            setattr(used, name, object())  # a stale value no constructor gives
        used.__init__(None, 3, 97)
        # an unset slot fails the read, a stale one the comparison
        assert _fields(used, ()) == _fields(fresh, ()), cls


def test_each_mode_owns_its_node_fields():
    # the shared classes hold the tree's shape; each mode's pointer fields
    # are on its own classes, and no object carries the other mode's
    plp_fields = {"plp", "plp_inv"}
    credit_fields = {"cred", "lp"}
    assert not (plp_fields | credit_fields) & set(InternalNode.__slots__ + LeafNode.__slots__)
    text = "abcabdabcabeabcabd"
    credit = build(text, mode="credit")
    plp = build(text, mode="plp")
    for tree in (credit, plp):
        live = list(tree.iter_nodes())
        assert any(n.children is None for n in live) and len(live) > 10
        for node in live:
            slots = set(_slots(type(node)))
            assert len(slots) == ((9 if tree is credit else 8) if node.children is not None
                                  else 4 if tree is credit else 5), node
            assert not slots & (plp_fields if tree is credit else credit_fields), node


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
