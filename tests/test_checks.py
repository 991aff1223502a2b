"""Corruption tests for `checks.audit`: each breaks one field of a sound
tree and expects the finding in the family that owns that invariant."""

import pytest

from slidingsuffix import checks

from conftest import build

MODES = ("plp", "credit")


def sound_tree(mode):
    # slid past its capacity, so tail > 1 and stale starts exist
    tree = build("abcabdabcabeabcabdabc", capacity=16, mode=mode)
    assert checks.audit(tree).violations() == []
    return tree


def internals(tree):
    return [n for n in tree.iter_nodes() if n.children and n is not tree.root]


def leaves(tree):
    return [n for n in tree.iter_nodes() if n.children is None]


def subtree_leaves(node):
    stack, out = [node], []
    while stack:
        n = stack.pop()
        if n.children is None:
            out.append(n)
        else:
            stack.extend(n.children.values())
    return out


def assert_reported(tree, family, node, field, value):
    """Set node.field to value, audit, restore; the family must report it."""
    saved = getattr(node, field)
    setattr(node, field, value)
    try:
        found = checks.audit(tree)
    finally:
        setattr(node, field, saved)
    assert getattr(found, family), (field, node, found)
    assert checks.audit(tree).violations() == []


def test_sound_trees_have_nodes_of_every_kind():
    for mode in MODES:
        tree = sound_tree(mode)
        assert tree.tail > 1
        assert any(n.suffix_link is not tree.root for n in internals(tree))
    tree = sound_tree("plp")
    assert any(not n.prim for n in internals(tree))
    assert any(n.prim for n in internals(tree))


def test_flipped_prim_is_a_pointer_finding():
    tree = sound_tree("plp")
    for node in tree.iter_nodes():
        assert_reported(tree, "pointers", node, "prim", not node.prim)


def test_nulled_or_redirected_inverse_pointer_is_a_pointer_finding():
    tree = sound_tree("plp")
    primary = [leaf for leaf in leaves(tree) if leaf.prim]
    assert len(primary) >= 2
    for leaf in primary:
        assert_reported(tree, "pointers", leaf, "plp_inv", None)
        for other in primary:
            if other.plp_inv is not leaf.plp_inv:
                assert_reported(tree, "pointers", leaf, "plp_inv", other.plp_inv)


def test_redirected_pointer_is_a_pointer_finding():
    tree = sound_tree("plp")
    heads = [tree.root] + [n for n in internals(tree) if not n.prim]
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
def test_wrong_in_key_is_a_structure_finding(mode):
    tree = sound_tree(mode)
    for node in tree.iter_nodes():
        if node is not tree.root:
            assert_reported(tree, "structure", node, "in_key", ord("z"))


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
