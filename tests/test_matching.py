import pytest
from hypothesis import given, settings, strategies as st

from slidingsuffix import SlidingSuffixTree
from slidingsuffix.matching import _locate, collect_subtree_leaves, find_all_counted, locate
from slidingsuffix.oracle import naive_occurrences
from slidingsuffix.verify import Lcg

from conftest import build, edgewise_locate, node_by_string


# -- find_all ------------------------------------------------------------------

def test_single_symbol_with_nonoverlapping_repeat():
    tree = build("abaab")
    assert tree.find_all("a") == [1, 3, 4]


def test_single_symbol_in_unary_window():
    tree = build("aaaa")
    assert tree.find_all("a") == [1, 2, 3, 4]


def test_pattern_longer_than_window():
    tree = build("abc")
    assert tree.find_all("abcd") == []


def test_absent_pattern():
    tree = build("abaca")
    assert tree.find_all("abacab") == []


def test_empty_pattern_rejected():
    tree = build("ab")
    with pytest.raises(ValueError):
        tree.find_all("")


def test_non_text_pattern_rejected():
    tree = build(b"ab\x00\x00ab\x00\x00")
    for bad in (2, [0, 0], None):
        with pytest.raises(TypeError):
            tree.find_all(bad)
    assert tree.find_all(b"\x00\x00") == [3, 7]


def test_query_on_empty_window():
    tree = SlidingSuffixTree(4)
    assert tree.find_all("a") == []


def test_pattern_equal_to_repeating_suffix():
    # lrs("abcab") == "ab"; its final occurrence is only reachable through
    # the direct comparison branch
    tree = build("abcab")
    assert tree.find_all("ab") == naive_occurrences(b"abcab", b"ab") == [1, 4]


def test_overlapping_repeat_emits_periodic_hits():
    tree = build("aaaa")
    assert tree.find_all("aa") == [1, 2, 3]
    assert tree.find_all("aaa") == [1, 2]


def test_derived_hit_must_fit_in_window():
    # "ba" occurs inside the early lrs occurrence but sticks out past it;
    # remapping it forward would fall off the window end
    tree = build("aabaXaab")
    assert tree.lrs_len() == 3
    assert tree.find_all("ba") == naive_occurrences(b"aabaXaab", b"ba") == [3]


def test_full_window_pattern():
    tree = build("bacab")
    assert tree.find_all("bacab") == [1]


# -- locate / collect ------------------------------------------------------------

def test_locate_lands_on_existing_node():
    tree = build("abaca")
    node, matched = locate(tree, "a")
    assert node is node_by_string(tree, "a")
    lo, hi = tree.edge_label(node)
    assert matched == hi - lo + 1  # exactly at the node


def test_locate_full_window_ends_on_longest_leaf():
    tree = build("abaca")
    node, _ = locate(tree, "abaca")
    assert node.children is None and node.spos == 1


def test_locate_missing_first_symbol():
    tree = build("abaca")
    assert locate(tree, "z") is None


def test_collect_at_leaf_edge():
    tree = build("abaca")
    node, _ = locate(tree, "ab")
    assert node.children is None
    assert collect_subtree_leaves(tree, node) == [1]


def test_collect_from_root_lists_all_leaves():
    tree = build("abaab")
    assert sorted(collect_subtree_leaves(tree, tree.root)) == [1, 2, 3]


def test_collect_counts_one_leaf_per_branch_at_least():
    tree = build("abcd")
    got = collect_subtree_leaves(tree, tree.root)
    assert len(got) >= len(tree.root.children)


# -- the blind descent's one comparison ------------------------------------------

MODES = ["plp", "credit"]


@pytest.mark.parametrize("mode", MODES)
def test_pattern_that_would_wrap_the_ring_is_absent(mode):
    # "c" occurs once, so the descent ends on the leaf at 3, whose suffix
    # "cab" is shorter than the pattern; the mirrored 4-byte slice there
    # runs on into the window's oldest symbol and reads "caba"
    tree = build("abcab", mode=mode)
    leaf, _ = locate(tree, "c")
    assert leaf.children is None and leaf.spos == 3
    assert bytes(tree.buf[2:6]) == b"caba"
    assert locate(tree, "caba") is None
    assert tree.find_all("caba") == []


@pytest.mark.parametrize("mode", MODES)
def test_symbol_inside_an_edge_differs(mode):
    # the keys "a" (edge "ab") and "d" (leaf edge) both match "azd"; only
    # the symbol inside the first edge differs
    tree = build("xabcyabd", mode=mode)
    node, _, edges = _locate(tree, b"azd")
    assert node is None and edges == 2
    ref_node, _, ref_edges = edgewise_locate(tree, b"azd")
    assert ref_node is None and ref_edges == 1
    assert tree.find_all("azd") == []


@pytest.mark.parametrize("mode", MODES)
def test_pattern_ending_exactly_on_a_node(mode):
    tree = build("xabcyabd", mode=mode)
    node, matched = locate(tree, "ab")
    assert node is node_by_string(tree, "ab")
    assert matched == 2
    assert tree.find_all("ab") == [2, 6]


@pytest.mark.parametrize("mode", MODES)
def test_pattern_ending_inside_a_leaf_edge(mode):
    tree = build("xabcyabd", mode=mode)
    node, matched = locate(tree, "abc")
    assert node.children is None and node.spos == 2
    assert matched == 1
    assert tree.find_all("abc") == [2]


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="abc", min_size=1, max_size=48).map(str.encode),
       st.integers(2, 12),
       st.lists(st.text(alphabet="abcz", min_size=1, max_size=14).map(str.encode),
                max_size=4))
def test_blind_descent_agrees_with_edgewise_reference(mode, stream, cap, extra):
    tree = SlidingSuffixTree(cap, mode=mode)
    for sym in stream:
        tree.slide(sym)
    w = tree.window_bytes()
    pats = {w[i:j] for i in range(len(w)) for j in range(i + 1, len(w) + 1)}
    pats |= {p[:k] + b"z" + p[k + 1:] for p in list(pats) for k in (0, len(p) // 2, len(p) - 1)}
    pats |= set(extra)
    for p in pats:
        got = _locate(tree, p)
        want = edgewise_locate(tree, p)
        if p in w:
            assert got[0] is not None and got == want, (w, p)
        else:
            assert got[0] is None and want[0] is None, (w, p)
            assert got[2] <= len(p), (w, p)


# -- properties --------------------------------------------------------------------

@st.composite
def window_and_patterns(draw):
    sigma = draw(st.integers(1, 4))
    alphabet = "abcd"[:sigma]
    text = draw(st.text(alphabet=alphabet, min_size=1, max_size=64))
    w = text.encode()
    pats = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()) and len(w) > 1:
            i = draw(st.integers(0, len(w) - 1))
            j = draw(st.integers(i + 1, len(w)))
            pats.append(w[i:j])
        else:
            pats.append(draw(st.text(alphabet=alphabet + "z", min_size=1,
                                     max_size=8)).encode())
    return w, pats


@settings(max_examples=150, deadline=None)
@given(window_and_patterns())
def test_matches_naive_scan(case):
    w, pats = case
    tree = build(w)
    for p in pats:
        got, edges = find_all_counted(tree, p)
        want = naive_occurrences(w, p)
        assert got == want
        assert edges <= len(p) + 2 * len(want) + 2


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abc", min_size=1, max_size=40).map(str.encode),
       st.integers(2, 8))
def test_both_modes_answer_queries_identically(stream, cap):
    plp = SlidingSuffixTree(cap, mode="plp")
    credit = SlidingSuffixTree(cap, mode="credit")
    for sym in stream:
        plp.slide(sym)
        credit.slide(sym)
    w = plp.window_bytes()
    pats = {w[-1:], w[:2], w[len(w) // 2:len(w) // 2 + 3], b"cz", w}
    for p in pats:
        if p:
            want = naive_occurrences(w, p)
            assert plp.find_all(p) == want
            assert credit.find_all(p) == want


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ab", min_size=2, max_size=48).map(str.encode),
       st.integers(2, 10))
def test_hit_partition_around_boundary(stream, cap):
    # subtree hits sit strictly before the final lrs stretch; derived hits
    # inside it; together they are duplicate-free without dedup
    tree = SlidingSuffixTree(cap)
    for sym in stream:
        tree.slide(sym)
    w = tree.window_bytes()
    lrs = tree.lrs_len()
    p1 = len(w) - lrs + 1
    for plen in range(1, min(len(w), 5) + 1):
        p = w[-plen:]
        occ = tree.find_all(p)
        assert occ == sorted(set(occ))
        direct = [k for k in occ if k < p1]
        node = locate(tree, p)
        if node is not None:
            tails = sorted(collect_subtree_leaves(tree, node[0]))
            assert direct == tails


# -- the ring-buffer seam ------------------------------------------------------------

def _compares_across_seam(tree, p):
    """Whether locating p compares it with buffer slots that wrap around.

    The locate step compares p once, with ``len(p)`` slots from the slot of
    the start of one leaf below the node it reaches.
    """
    found = locate(tree, p)
    if found is None:
        return False
    k = tree.leafptr(found[0]).spos
    return (k - 1) % tree.capacity + len(p) > tree.capacity


@pytest.mark.parametrize("mode", ["plp", "credit"])
@pytest.mark.parametrize("sigma", [2, 3])
def test_queries_across_the_ring_buffer_seam(mode, sigma):
    alphabet = b"abc"[:sigma]
    crossed = 0
    for cap in range(2, 10):
        rng = Lcg(1000 * sigma + cap)
        tree = SlidingSuffixTree(cap, mode=mode)
        for _ in range(5 * cap):
            tree.slide(alphabet[rng.draw(sigma)])
            w = tree.window_bytes()
            pats = {w[i:j] for i in range(len(w)) for j in range(i + 1, len(w) + 1)}
            pats |= {p[:k] + bytes([c]) + p[k + 1:]
                     for p in list(pats) for k in range(len(p)) for c in alphabet + b"z"}
            for p in pats:
                assert tree.find_all(p) == naive_occurrences(w, p), (cap, w, p)
                crossed += _compares_across_seam(tree, p)
    assert crossed > 0


@pytest.mark.parametrize("mode", ["plp", "credit"])
def test_queries_never_write_the_active_point(mode):
    # a deletion that shortens a leaf moves the active point; the queries
    # after it, as after any event, read the pair the tree holds and leave
    # it as they found it, whether the pattern is longer than, as long as
    # or shorter than the lrs
    shortenings = 0
    for seed in range(1, 41):
        rng = Lcg(seed)
        sigma = 1 + (seed - 1) % 3
        cap = 4 + rng.draw(9)
        tree = SlidingSuffixTree(cap, mode=mode)
        for step in range(8 * cap):
            if len(tree) and rng.draw(3) == 0:
                deleted = tree.counters.leaves_deleted
                tree.delete_front()
                shortenings += tree.counters.leaves_deleted == deleted
            else:
                tree.slide(97 + rng.draw(sigma))
            w = tree.window_bytes()
            lrs = tree.lrs_len()
            below, proj = tree.below, tree.proj
            for m in (lrs + 1, lrs, lrs - 1):
                if 0 < m <= len(w):
                    p = w[len(w) - m:]
                    assert tree.find_all(p) == naive_occurrences(w, p), (seed, step, p)
                    assert tree.below is below and tree.proj == proj, (seed, step, p)
    assert shortenings > 0
