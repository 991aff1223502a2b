"""Corruption tests for `checks.audit`: each breaks one field of a sound
tree and expects the finding in the family that owns that invariant."""

import json

import pytest

from slidingsuffix import checks, cli, oracle
from slidingsuffix.verify import Lcg

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
def test_child_under_the_wrong_key_is_a_structure_finding(mode):
    tree = sound_tree(mode)
    moved = 0
    for node in list(tree.iter_nodes()):
        if node is tree.root:
            continue
        children = node.parent.children
        saved = list(children.items())
        key = next(k for k, child in saved if child is node)
        del children[key]
        children[ord("z")] = node
        try:
            found = checks.audit(tree)
        finally:
            children.clear()
            children.update(saved)
        assert any(f"edge key {ord('z')} does not match label start {key}" in v
                   for v in found.structure), (node, found)
        assert checks.audit(tree).violations() == []
        moved += 1
    assert moved == len(internals(tree)) + len(leaves(tree))


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
    leaf = next(n for n in leaves(tree) if n.prim and n.plp_inv is not tree.root)
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
