import itertools

from hypothesis import given, strategies as st

from slidingsuffix.oracle import TreeSketch, naive_occurrences, naive_suffix_tree

from conftest import naive_lrs


def reference_suffix_tree(w) -> TreeSketch:
    """The sketch by definition: internal nodes are the root plus every
    substring followed by two or more distinct symbols; leaves are the
    suffixes longer than the longest repeating one."""
    ext = {}
    for i in range(len(w)):
        for j in range(i, len(w)):
            ext.setdefault(w[i:j], set()).add(w[j])
    internal = {s for s, nxt in ext.items() if len(nxt) >= 2} | {w[:0]}
    return TreeSketch(tuple(sorted(internal)),
                      tuple(range(1, len(w) - naive_lrs(w) + 1)))


def test_lrs_values():
    assert naive_lrs(b"abaca") == 1
    assert naive_lrs(b"") == 0
    assert naive_lrs(b"aaaa") == 3
    assert naive_lrs(b"abaab") == 2
    assert naive_lrs(b"aab") == 0


def test_suffix_tree_sketch_abaca():
    sk = naive_suffix_tree(b"abaca")
    assert sk.internal_strings == (b"", b"a")
    assert sk.leaf_starts == (1, 2, 3, 4)


def test_suffix_tree_sketch_single_symbol():
    sk = naive_suffix_tree(b"a")
    assert sk.internal_strings == (b"",)
    assert sk.leaf_starts == (1,)


def test_suffix_tree_sketch_abaab():
    sk = naive_suffix_tree(b"abaab")
    assert sk.internal_strings == (b"", b"a")
    assert sk.leaf_starts == (1, 2, 3)


def test_sorted_suffix_oracle_matches_definition_exhaustively():
    checked = 0
    for alphabet, longest in ((b"ab", 12), (b"abc", 8)):
        for n in range(longest + 1):
            for t in itertools.product(alphabet, repeat=n):
                w = bytes(t)
                assert naive_suffix_tree(w) == reference_suffix_tree(w), w
                checked += 1
    assert checked == 18032


@given(st.binary(max_size=40))
def test_sorted_suffix_oracle_matches_definition(w):
    assert naive_suffix_tree(w) == reference_suffix_tree(w)


def test_occurrences():
    assert naive_occurrences(b"abaab", b"a") == [1, 3, 4]
    assert naive_occurrences(b"abaab", b"abaab") == [1]
    assert naive_occurrences(b"aaaa", b"aa") == [1, 2, 3]
    assert naive_occurrences(b"abc", b"zz") == []
    assert naive_occurrences(b"ab", b"abc") == []


@given(st.binary(max_size=40))
def test_leaf_starts_complement_lrs(w):
    sk = naive_suffix_tree(w)
    assert len(sk.leaf_starts) == len(w) - naive_lrs(w)
    assert b"" in sk.internal_strings


@given(st.text(alphabet="ab", max_size=30).map(str.encode),
       st.text(alphabet="ab", min_size=1, max_size=6).map(str.encode))
def test_occurrences_are_real_matches(w, p):
    for k in naive_occurrences(w, p):
        assert w[k - 1:k - 1 + len(p)] == p
