"""The window's ring buffer, owned by the tree: absolute positions written by
`append`, retired by `delete_front`, read back by `substring` and
`window_bytes`."""

import pytest
from hypothesis import given, strategies as st

from slidingsuffix import SlidingSuffixTree


def test_first_push_lands_at_position_one():
    tree = SlidingSuffixTree(4)
    assert tree.tail == 1 and tree.head == 0
    tree.append(ord("a"))
    assert tree.head == 1
    assert tree.substring(1, 1) == b"a"


def test_absolute_positions_survive_filling():
    tree = SlidingSuffixTree(5)
    for i, ch in enumerate(b"abaca", start=1):
        tree.append(ch)
        assert tree.head == i
    assert tree.substring(3, 3) == b"a"
    assert tree.window_bytes() == b"abaca"


def test_wraparound_reuses_slots_without_aliasing():
    tree = SlidingSuffixTree(2)
    tree.append(ord("x"))
    tree.append(ord("y"))
    tree.delete_front()
    assert tree.tail == 2
    tree.append(ord("z"))
    assert tree.head == 3
    assert tree.substring(2, 2) == b"y"
    assert tree.substring(3, 3) == b"z"
    assert tree.substring(2, 3) == b"yz"  # runs across the end of the buffer
    assert tree.window_bytes() == b"yz"
    with pytest.raises(IndexError):
        tree.substring(1, 1)


def test_push_on_full_window_rejected():
    tree = SlidingSuffixTree(1)
    tree.append(0)
    with pytest.raises(ValueError):
        tree.append(1)
    assert tree.window_bytes() == b"\x00" and tree.head == 1


def test_pop_to_empty_and_again():
    tree = SlidingSuffixTree(3)
    tree.append(ord("q"))
    tree.delete_front()
    assert tree.tail == 2
    assert len(tree) == 0
    assert tree.window_bytes() == b""
    with pytest.raises(ValueError):
        tree.delete_front()
    assert tree.tail == 2


def test_pop_shrinks_accessible_range():
    tree = SlidingSuffixTree(4)
    for ch in b"abc":
        tree.append(ch)
    tree.delete_front()
    tree.delete_front()
    with pytest.raises(IndexError):
        tree.substring(2, 2)
    with pytest.raises(IndexError):
        tree.substring(3, 4)
    assert tree.substring(3, 3) == b"c"


def test_symbol_at_deep_offset_from_tail():
    tree = SlidingSuffixTree(15)
    for ch in b"abczabcyyabcyyz":
        tree.append(ch)
    assert tree.substring(tree.tail + 7, tree.tail + 7) == b"y"
    assert tree.substring(tree.tail + 7, tree.tail + 8) == b"yy"


def test_substring_reads_back_pushes():
    tree = SlidingSuffixTree(5)
    for ch in b"abaca":
        tree.append(ch)
    assert tree.substring(2, 4) == b"bac"
    assert tree.substring(4, 3) == b""


def test_single_symbol_window():
    tree = SlidingSuffixTree(3)
    tree.append(ord("k"))
    tree.delete_front()
    tree.append(ord("m"))
    assert tree.head == 2
    assert tree.substring(2, 2) == b"m"
    assert len(tree) == 1


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 255)), max_size=200),
       st.integers(1, 7))
def test_matches_append_only_shadow_log(ops, capacity):
    tree = SlidingSuffixTree(capacity)
    log = []  # every symbol ever appended, 1-indexed by position
    for is_push, sym in ops:
        if is_push:
            if len(tree) < capacity:
                tree.append(sym)
                log.append(sym)
        elif len(tree) > 0:
            tree.delete_front()
    assert tree.head == len(log) and len(tree.buf) == 2 * capacity
    for k in range(tree.tail, tree.head + 1):
        assert tree.substring(k, k) == bytes([log[k - 1]])
        # the ring is mirrored: each live symbol sits in both halves
        a = (k - 1) % capacity
        assert tree.buf[a] == tree.buf[a + capacity] == log[k - 1]
    assert tree.window_bytes() == bytes(log[tree.tail - 1:])
