"""Corruption tests for `checks.audit`: each breaks one field of a sound
tree and expects the finding in the family that owns that invariant."""

import json

import pytest

from slidingsuffix import SlidingSuffixTree, checks, cli, oracle
from slidingsuffix.tree import WIDE, LeafNode
from slidingsuffix.verify import Lcg

from conftest import active_ins, build, is_primary

MODES = ("plp", "credit")


def sound_tree(mode):
    # slid past its capacity, so tail > 1 and stale starts exist
    tree = build("abcabdabcabeabcabdabc", capacity=16, mode=mode)
    assert checks.audit(tree).violations() == []
    return tree


def wide_tree(mode):
    # the root and node "x" have more than WIDE children, so both keep an
    # index; slid past its capacity and shrunk, so it holds spares of both
    # kinds
    tree = build("abxaxbxcxdxexfxgxhxixjxkxa", capacity=24, mode=mode)
    tree.delete_front()
    indexed = [n for n in tree.iter_nodes() if n.first and n.index is not None]
    assert len(indexed) == 2 and all(len(kids(n)) > WIDE for n in indexed)
    assert tree._spare_leaves and tree._spare_nodes
    assert checks.audit(tree).violations() == []
    return tree


def internals(tree):
    return [n for n in tree.iter_nodes() if n.first and n is not tree.root]


def leaves(tree):
    return [n for n in tree.iter_nodes() if isinstance(n, LeafNode)]


def kids(node):
    """node's children in sibling order."""
    out = []
    child = node.first
    while child is not None:
        out.append(child)
        child = child.sibling
    return out


def subtree_leaves(node):
    stack, out = [node], []
    while stack:
        n = stack.pop()
        if n.first is None:
            out.append(n)
        else:
            stack.extend(kids(n))
    return out


def assert_reported(tree, family, node, field, value, text=None):
    """Set node.field to value, audit, restore; the family must report it,
    as the finding ``text`` when one is given."""
    saved = getattr(node, field)
    setattr(node, field, value)
    try:
        found = checks.audit(tree)
    finally:
        setattr(node, field, saved)
    assert getattr(found, family), (field, node, found)
    assert text is None or text in getattr(found, family), (text, found)
    assert checks.audit(tree).violations() == []


def test_sound_trees_have_nodes_of_every_kind():
    for mode in MODES:
        tree = sound_tree(mode)
        assert tree.tail > 1
        assert any(n.suffix_link is not tree.root for n in internals(tree))
    tree = sound_tree("plp")
    assert any(not is_primary(n) for n in internals(tree))
    assert any(is_primary(n) for n in internals(tree))


def test_flipped_prim_is_a_pointer_finding():
    # primary-ness is stored in the pointers, so a flip rewrites one: a
    # secondary node (the root too) loses its pointer, a primary node gets
    # one, a primary leaf loses its inverse pointer, a secondary leaf gets one
    tree = sound_tree("plp")
    flipped = set()
    for node in tree.iter_nodes():
        prim = is_primary(node)
        if isinstance(node, LeafNode):
            field, value = "plp_inv", None if prim else node.parent
        else:
            field, value = "plp", tree.leafptr(node) if prim else None
        flipped.add((field, prim))
        assert_reported(tree, "pointers", node, field, value)
    assert len(flipped) == 4


def test_nulled_or_redirected_inverse_pointer_is_a_pointer_finding():
    tree = sound_tree("plp")
    primary = [leaf for leaf in leaves(tree) if is_primary(leaf)]
    assert len(primary) >= 2
    for leaf in primary:
        assert_reported(tree, "pointers", leaf, "plp_inv", None)
        for other in primary:
            if other.plp_inv is not leaf.plp_inv:
                assert_reported(tree, "pointers", leaf, "plp_inv", other.plp_inv)


def test_redirected_pointer_is_a_pointer_finding():
    tree = sound_tree("plp")
    heads = [tree.root] + [n for n in internals(tree) if not is_primary(n)]
    for node in heads:
        for leaf in leaves(tree):
            if leaf is not node.plp:
                assert_reported(tree, "pointers", node, "plp", leaf)


@pytest.mark.parametrize("mode", MODES)
def test_wrong_suffix_link_is_a_structure_finding(mode):
    tree = sound_tree(mode)
    nodes = internals(tree)
    for node in nodes:
        for target in [tree.root] + nodes:
            if target is not node.suffix_link:
                assert_reported(tree, "structure", node, "suffix_link", target)


@pytest.mark.parametrize("mode", MODES)
def test_child_under_the_wrong_key_is_a_structure_finding(mode):
    tree = sound_tree(mode)
    moved = 0
    for node in list(tree.iter_nodes()):
        if node is tree.root:
            continue
        assert_reported(tree, "structure", node, "key", ord("z"),
                        f"edge key {ord('z')} does not match label start {node.key}")
        moved += 1
    assert moved == len(internals(tree)) + len(leaves(tree))


@pytest.mark.parametrize("mode", MODES)
def test_broken_shape_is_a_structure_finding(mode):
    tree = sound_tree(mode)
    name = checks._name
    node = next(n for n in internals(tree) if len(kids(n)) == 2)
    assert_reported(tree, "structure", node.first, "sibling", None,
                    f"non-root {name(node)} has 1 children")
    leaf = next(n for n in leaves(tree) if n.parent is not tree.root)
    assert_reported(tree, "structure", leaf, "parent", tree.root,
                    f"parent link broken at {name(leaf)}")
    # an internal node also listed under the root (its own siblings follow
    # it there), whose depth is not its parent's
    deep = next(n for n in internals(tree) if n.parent is not tree.root)
    assert_reported(tree, "structure", kids(tree.root)[-1], "sibling", deep,
                    f"depth inconsistency at {name(deep)}")
    first = tree.leaf_at(tree.tail)
    assert_reported(tree, "structure", first, "spos", tree.tail - 1,
                    f"leaf start {tree.tail - 1} outside window")
    slots = list(tree._leaf_slots)
    slots[(tree.tail - 1) % tree.capacity] = None
    assert_reported(tree, "structure", tree, "_leaf_slots", slots,
                    f"leaf slot lookup broken for spos {tree.tail}")
    assert_reported(tree, "structure", node, "suffix_link", None,
                    f"{name(node)} lacks a suffix link")
    assert_reported(tree, "structure", node, "suffix_link", type(node)(None, node.depth - 1),
                    f"suffix link of {name(node)} targets a dead node")
    wlen = len(tree)
    assert tree.proj > 0
    assert_reported(tree, "structure", tree, "proj", wlen - active_ins(tree).depth,
                    f"lrs length {wlen} impossible for window of {wlen}")


@pytest.mark.parametrize("mode", MODES)
def test_broken_links_are_structure_findings(mode):
    tree = sound_tree(mode)
    name = checks._name
    node = next(n for n in internals(tree) if len(kids(n)) >= 2)
    first, second = kids(node)[:2]
    # a sibling list that loops back to its start never ends
    assert_reported(tree, "structure", kids(node)[-1], "sibling", first,
                    f"sibling list of {name(node)} does not end within "
                    f"{checks.MAX_CHILDREN} steps")
    assert_reported(tree, "structure", second, "key", first.key,
                    f"{name(node)} has two children keyed {first.key}")
    assert_reported(tree, "structure", node, "index", {first.key: first},
                    f"the index of {name(node)} does not list its children")
    tree = wide_tree(mode)
    for node in tree.iter_nodes():
        if node.first is None or node.index is None:
            continue
        top = node.first
        text = f"the index of {name(node)} does not list its children"
        assert_reported(tree, "structure", node, "index",
                        {k: c for k, c in node.index.items() if c is not top}, text)
        assert_reported(tree, "structure", node, "index",
                        {**node.index, top.key: top.sibling}, text)


@pytest.mark.parametrize("mode", MODES)
def test_linked_spares_are_structure_findings(mode):
    tree = wide_tree(mode)
    name = checks._name
    leaf, node = tree._spare_leaves[0], tree._spare_nodes[0]
    live = tree.root.first
    for field in ("parent", "sibling"):
        assert_reported(tree, "structure", leaf, field, live,
                        f"spare {name(leaf)} is still linked")
    for field in ("parent", "sibling", "first"):
        assert_reported(tree, "structure", node, field, live,
                        f"spare {name(node)} is still linked")
    assert_reported(tree, "structure", node, "index", {live.key: live},
                    f"spare {name(node)} is still linked")
    for attr in ("_spare_leaves", "_spare_nodes"):
        spares = getattr(tree, attr)
        assert_reported(tree, "structure", tree, attr, spares + spares[:1],
                        "a spare is listed twice")
    # a slot of no live leaf that holds a retired one
    slots = list(tree._leaf_slots)
    slots[slots.index(None)] = leaf
    live_leaves = len(leaves(tree))
    assert_reported(tree, "structure", tree, "_leaf_slots", slots,
                    f"{live_leaves + 1} leaf slots are taken for {live_leaves} live leaves")
    # a spare that the live tree reaches through an index
    root = tree.root
    assert_reported(tree, "structure", root, "index", {**root.index, ord("z"): leaf},
                    "the index of root does not list its children")


class CountingRing(bytearray):
    """A ring buffer that counts the bytes it hands out in slices."""

    sliced = 0

    def __getitem__(self, at):
        out = super().__getitem__(at)
        if isinstance(at, slice):
            self.sliced += len(out)
        return out


@pytest.mark.parametrize("mode", MODES)
def test_audit_slices_internal_labels_only(mode):
    # a leaf label runs to the head, so copying each one would read about
    # W^2 / 2 bytes; the audit reads one symbol of it, O(1) per leaf edge
    rng = Lcg(5)
    tree = SlidingSuffixTree(512, mode=mode)
    tree.extend(bytes(97 + rng.draw(4) for _ in range(768)))
    expected = oracle.naive_suffix_tree(tree.window_bytes())
    tree.buf = ring = CountingRing(tree.buf)
    assert checks.audit(tree, expected).violations() == []
    internal = sum(n.depth - n.parent.depth for n in internals(tree))
    assert 0 < ring.sliced <= internal, (ring.sliced, internal)


@pytest.mark.parametrize("mode", MODES)
def test_wrong_node_below_the_active_point_is_a_structure_finding(mode):
    def held(node, proj):
        name = "None" if node is None else checks._name(node)
        return f"the active point ({name}, {proj}) does not spell a suffix of the window"

    # slid so that the locus sits mid-edge below a node other than the root
    tree = build("xabcabdabcabeabcabdab", capacity=16, mode=mode)
    assert tree.tail > 1 and checks.audit(tree).violations() == []
    ins, below, proj = active_ins(tree), tree.below, tree.proj
    assert proj > 0 and ins is not tree.root and below.parent is ins
    sibling = next(k for k in kids(ins) if k is not below)
    for wrong in (sibling, ins.parent, None):
        assert_reported(tree, "structure", tree, "below", wrong, held(wrong, proj))
    # on a node, the held node is that node
    tree = build("abcabdabcabeabcabdabcabx", capacity=16, mode=mode)
    assert tree.proj == 0 and tree.below is tree.root
    for wrong in (*kids(tree.root)[:2], None):
        assert_reported(tree, "structure", tree, "below", wrong, held(wrong, 0))
    # a spare of either kind holds no place in the tree
    tree = wide_tree(mode)
    for wrong in (tree._spare_leaves[0], tree._spare_nodes[0]):
        assert_reported(tree, "structure", tree, "below", wrong, held(wrong, tree.proj))


@pytest.mark.parametrize("mode", MODES)
def test_labels_outside_the_window_are_freshness_findings(mode):
    tree = sound_tree(mode)
    tail, head = tree.tail, tree.head
    top = next(n for n in leaves(tree) if n.parent is tree.root)
    assert_reported(tree, "freshness", top, "spos", head + 1,
                    f"empty edge label <{head + 1},{head}> into leaf {head + 1}")
    assert_reported(tree, "freshness", top, "spos", tail - 1,
                    f"edge label <{tail - 1},{head}> into leaf {tail - 1} not fresh "
                    f"for window [{tail}..{head}]")
    # the label itself lies inside the window, the parent's string in front
    # of it does not
    low = next(n for n in leaves(tree) if n.parent is not tree.root)
    depth = low.parent.depth
    assert_reported(tree, "freshness", low, "spos", tail - 1,
                    f"edge label <{tail - 1 + depth},{head}> below depth {depth} not "
                    f"strongly fresh in [{tail}..{head}]")


def test_empty_root_pointing_elsewhere_is_a_pointer_finding():
    tree = build("a", capacity=2)
    tree.delete_front()
    assert checks.audit(tree).violations() == []
    assert_reported(tree, "pointers", tree.root, "plp", None,
                    "empty root must point at itself")


def test_credit_pointer_to_no_leaf_is_a_pointer_finding():
    tree = sound_tree("credit")
    # the suffix starting at head is no longer than the lrs, so no leaf has it
    assert tree.lrs_len() > 0 and tree.leaf_at(tree.head) is None
    node = internals(tree)[0]
    assert_reported(tree, "pointers", node, "lp", tree.head,
                    f"{checks._name(node)} stores start {tree.head} of no live leaf")


@pytest.mark.parametrize("mode", MODES)
def test_audit_against_another_window_is_a_topology_finding(mode):
    tree = sound_tree(mode)
    w = tree.window_bytes()
    other = oracle.naive_suffix_tree(w[:-1] + b"z")
    found = checks.audit(tree, other)
    got = found.sketch
    assert found.topology == [
        f"internal nodes {got.internal_strings!r} != oracle {other.internal_strings!r}",
        f"leaf starts {got.leaf_starts!r} != oracle {other.leaf_starts!r}",
        f"lrs length {tree.lrs_len()} != oracle {len(w) - len(other.leaf_starts)}"]
    assert found.violations() == found.topology
    assert checks.audit(tree).violations() == []


def test_counter_bounds_are_counter_findings():
    tree = sound_tree("plp")
    c = tree.counters
    assert_reported(tree, "counters", c, "plp_field_writes_max_event", 5,
                    "a leaf event performed 5 pointer writes")
    churn = c.churn() + 4 * tree.head
    assert_reported(tree, "counters", c, "nodes_created", c.nodes_created + 4 * tree.head,
                    f"node churn {churn} exceeds 4x pushed symbols ({tree.head})")


def test_wrong_answers_are_matching_findings(monkeypatch):
    tree = sound_tree("plp")
    w = tree.window_bytes()
    p = w[-3:]
    got = tree.find_all(p)
    assert checks.matching_violations(tree, [p]) == []
    other = w[:-1] + b"z"
    assert checks.matching_violations(tree, [p], other) == [
        f"find_all({p!r}) = {got} but scan says {oracle.naive_occurrences(other, p)}"]
    monkeypatch.setattr(checks, "find_all_counted", lambda t, q: (t.find_all(q), 100))
    assert checks.matching_violations(tree, [p]) == [
        f"find_all({p!r}) touched 100 edges for {len(got)} hits"]


def test_stale_credit_pointer_is_a_pointer_finding():
    tree = sound_tree("credit")
    for node in [tree.root] + internals(tree):
        assert_reported(tree, "pointers", node, "lp", tree.tail - 1)


def test_credit_pointer_outside_the_subtree_is_a_pointer_finding():
    tree = sound_tree("credit")
    checked = 0
    for node in internals(tree):
        inside = set(map(id, subtree_leaves(node)))
        for leaf in leaves(tree):
            if id(leaf) not in inside:
                assert_reported(tree, "pointers", node, "lp", leaf.spos)
                checked += 1
    assert checked


def capped_oracle(monkeypatch, cap):
    """Make the oracle fail for any window above ``cap``; returns the call log."""
    real = oracle.naive_suffix_tree
    calls = []

    def guarded(w):
        calls.append(len(w))
        if len(w) > cap:
            raise AssertionError(f"oracle built for a window of {len(w)} > {cap}")
        return real(w)

    monkeypatch.setattr(oracle, "naive_suffix_tree", guarded)
    return calls


def test_oracle_runs_up_to_the_cap_only(monkeypatch):
    monkeypatch.setattr(checks, "ORACLE_MAX_WINDOW", 8)
    calls = capped_oracle(monkeypatch, 8)
    at_cap = build("abcabdab", capacity=8)
    assert checks.audit(at_cap).violations() == [] and calls == [8]
    above = build("abcabdabc", capacity=9)
    found = checks.audit(above)
    assert calls == [8] and found.topology == [] and found.violations() == []


def test_corruption_above_the_cap_is_reported_without_the_oracle(monkeypatch):
    capped_oracle(monkeypatch, checks.ORACLE_MAX_WINDOW)
    window = checks.ORACLE_MAX_WINDOW + 8
    rng = Lcg(5)
    tree = build(bytes(97 + rng.draw(4) for _ in range(window + 100)), capacity=window)
    assert len(tree) > checks.ORACLE_MAX_WINDOW
    assert checks.audit(tree).violations() == []
    leaf = next(n for n in leaves(tree) if is_primary(n) and n.plp_inv is not tree.root)
    leaf.plp_inv = tree.root
    found = checks.audit(tree)
    assert found.topology == []
    assert f"stale inverse pointer on leaf {leaf.spos}" in found.pointers


def test_stream_checks_above_the_cap_without_the_oracle(monkeypatch, tmp_path, capsys):
    calls = capped_oracle(monkeypatch, checks.ORACLE_MAX_WINDOW)
    rng = Lcg(6)
    path = tmp_path / "noise.bin"
    path.write_bytes(bytes(97 + rng.draw(4) for _ in range(checks.ORACLE_MAX_WINDOW + 600)))
    code = cli.main(["stream", str(path), "--window", str(checks.ORACLE_MAX_WINDOW + 256),
                     "--check-every", "1536"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["bytes"] == checks.ORACLE_MAX_WINDOW + 600
    # the checks at 1536 and 3072 bytes build the oracle; the one at 4608,
    # with 4352 symbols in the window, does not
    assert calls == [1536, 3072]
