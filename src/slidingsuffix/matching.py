"""Online pattern matching over the live window using leaf pointers.

The pattern is located by a blind descent, as in Patricia tries and String
B-trees: from the root, each step follows the child keyed by the pattern
symbol at the current node's depth, and compares nothing else.  The descent
stops at a leaf or at the first node at least as deep as the pattern.  Every
leaf below that node spells the descended path, so the pattern occurs iff it
is a prefix of that leaf's suffix.  One leaf pointer (``tree.leafptr``) names
such a leaf, and the pattern is compared once with one slice of the
window's mirrored ring buffer at the leaf's start.  A query therefore
derives one leaf and compares one label, however many edges it descends.

Leaves correspond exactly to the suffixes longer than the longest repeating
suffix (lrs), so a subtree traversal below the pattern's locus reports every
occurrence starting at or before ``|W| - |lrs|``.  Occurrences starting
inside the final lrs-sized stretch cannot be read off leaves; they are
recovered from one extra lrs occurrence, read through ``tree.below``, the
node at or below the lrs locus, so a query writes nothing to the tree:

* pattern longer than lrs: no such occurrence can fit;
* pattern exactly lrs-sized: the only candidate start is ``|W|-|lrs|+1``,
  a hit exactly when the pattern's locus is the lrs locus;
* pattern shorter than lrs: let the earlier lrs occurrence start at p2,
  and let the period be ``p1 - p2``, the distance to the final occurrence
  at p1.  A hit k at or after p2 repeats at k + period, k + 2*period, ...
  for as long as the pattern fits, that is up to ``|W| - |pattern| + 1``.
  When the two occurrences do not overlap, the period is at least the lrs
  length and only the first repeat fits; when they overlap, the stretch
  from p2 to the end is periodic and every repeat is a hit.  Only leaf hits
  (starts before p1) are repeated, which covers every hit inside one period.

Positions are window-relative and 1-based throughout.
"""

from __future__ import annotations

from . import tree as _tree


def _pattern(pattern) -> bytes:
    p = pattern if type(pattern) is bytes else _tree.as_pattern(pattern)
    if not p:
        raise ValueError("pattern must be non-empty")
    return p


def locate(tree, pattern):
    """Locus of pattern, or None if absent.

    Returns ``(node, matched)`` where node is the tree node at or below the
    locus (the subtree holding every leaf with the pattern as prefix) and
    ``matched`` counts pattern symbols consumed on node's incoming edge;
    the locus sits exactly on node when matched equals the edge length.
    The node is found by the blind descent of `_locate`, and the pattern is
    compared once, against the window at one leaf below it.
    """
    node, matched, _ = _locate(tree, _pattern(pattern))
    if node is None:
        return None
    return node, matched


def _locate(tree, p: bytes):
    """Blind descent; returns (node, matched_on_edge, edges_touched).

    From the root, each child is chosen by ``p[depth]`` alone, through a
    node's dict index where it has one and by scanning siblings' keys
    elsewhere, down to a leaf or to the first node of depth at least
    ``len(p)``.  Then one leaf below the node, the node itself or its leaf
    pointer (``tree.leafptr``'s rule, inline to save a call per query), is
    read: the pattern occurs iff the window holds it at that leaf's start.
    A start too late for the pattern to fit before the head is refused
    before the comparison, since the mirrored slice would wrap into the
    window's oldest symbols.
    """
    m = len(p)
    child = tree.root
    depth = edges = 0
    while True:
        key = p[depth]
        index = child.index
        if index is None:
            child = child.first
            while child is not None and child.key != key:
                child = child.sibling
        else:
            child = index.get(key)
        if child is None:
            return None, 0, edges
        edges += 1
        if child.first is None or child.depth >= m:
            leaf = child if child.first is None else tree.maint.leaf_for(child)
            break
        depth = child.depth
    k = leaf.spos
    if k + m - 1 > tree.head:
        return None, 0, edges
    a = (k - 1) % tree.capacity
    if tree.buf[a:a + m] != p:
        return None, 0, edges
    return child, m - depth, edges


def collect_subtree_leaves(tree, node):
    """Window-relative starts of all leaves at or below node (unsorted)."""
    return _collect(tree, node)[0]


def _collect(tree, node):
    """Leaf starts below node, and the edges of its subtree.

    Only internal nodes are pushed, so the subtree's edge count is one
    less than its leaves plus its internal nodes.
    """
    off = tree.tail - 1
    if node.first is None:
        return [node.spos - off], 0
    starts = []
    add = starts.append
    stack = [node]
    push = stack.append
    pop = stack.pop
    internal = 0
    while stack:
        internal += 1
        child = pop().first
        while child is not None:
            if child.first is None:
                add(child.spos - off)
            else:
                push(child)
            child = child.sibling
    return starts, len(starts) + internal - 1


def find_all(tree, pattern, counted=False):
    """Sorted window-relative starts of every occurrence of pattern.

    With ``counted``, returns ``(starts, edges)``, where edges is the
    number of tree edges touched.
    """
    p = _pattern(pattern)
    tail = tree.tail
    wlen = tree.head - tail + 1
    m = len(p)
    node = None
    edges = 0
    if m <= wlen:
        node, _, edges = _locate(tree, p)
    if node is None:
        out = []
    else:
        out, walk = _collect(tree, node)
        edges += walk
        lrs = tree.lrs_len()
        p1 = wlen - lrs + 1
        below = tree.below
        if m == lrs:
            # two strings of one length are equal iff their loci are, and
            # both searches stop at the node at or below the locus (on
            # text-query's input, seed 1711, the period rule below took 3,171
            # opcodes per such query, not 2,431; a bisect variant of it took
            # fewer per query on average but read a p50 of 10.9 us, not 10.0)
            if node is below:
                out.append(p1)
        elif m < lrs:
            p2 = tree.leafptr(below).spos - tail + 1
            if p2 >= p1:
                raise _tree.InvariantError(f"leaf {p2} below the lrs locus must "
                                           f"start before {p1}")
            period = p1 - p2
            last = wlen - m + 1  # the last start at which the pattern fits
            stop = last - period  # the last hit that repeats inside the window
            out += [pos for k in out if p2 <= k <= stop
                    for pos in range(k + period, last + 1, period)]
        out.sort()
    return (out, edges) if counted else out


def find_all_counted(tree, pattern):
    """Like `find_all`, also returning the number of tree edges touched."""
    return find_all(tree, pattern, counted=True)
