"""Online pattern matching over the live window using leaf pointers.

Leaves correspond exactly to the suffixes longer than the longest repeating
suffix (lrs), so a subtree traversal below the pattern's locus reports every
occurrence starting at or before ``|W| - |lrs|``.  Occurrences starting
inside the final lrs-sized stretch cannot be read off leaves; they are
recovered from one extra lrs occurrence found through a leaf pointer:

* pattern longer than lrs: no such occurrence can fit;
* pattern exactly lrs-sized: the only candidate start is ``|W|-|lrs|+1``,
  settled by direct comparison;
* pattern shorter than lrs: let the earlier lrs occurrence start at p2. If
  it does not overlap the final one, hits inside it shift forward by the
  distance between the two occurrences.  If it overlaps, the overlap makes
  the whole stretch periodic and hits inside one period repeat at every
  multiple of the period.  Either way a derived hit is kept only if the
  pattern fits inside the window.

Positions are window-relative and 1-based throughout.
"""

from __future__ import annotations


def locate(tree, pattern):
    """Locus of pattern, or None if absent.

    Returns ``(node, matched)`` where node is the tree node at or below the
    locus (the subtree holding every leaf with the pattern as prefix) and
    ``matched`` counts pattern symbols consumed on node's incoming edge;
    the locus sits exactly on node when matched equals the edge length.
    """
    from .tree import as_pattern

    p = as_pattern(pattern)
    if not p:
        raise ValueError("pattern must be non-empty")
    node, matched, _ = _locate(tree, p)
    if node is None:
        return None
    return node, matched


def _locate(tree, p: bytes):
    """Descend from the root; returns (node, matched_on_edge, edges_touched)."""
    win = tree.window
    node = tree.root
    i = 0
    n = len(p)
    edges = 0
    while i < n:
        if node.children is None:
            return None, 0, edges
        child = node.children.get(p[i])
        if child is None:
            return None, 0, edges
        edges += 1
        lo, hi = tree.edge_label(child)
        take = min(hi - lo + 1, n - i)
        if win.substring(lo, lo + take - 1) != p[i:i + take]:
            return None, 0, edges
        i += take
        node = child
    return node, take, edges


def collect_subtree_leaves(tree, node):
    """Window-relative starts of all leaves at or below node (unsorted)."""
    starts, _ = _collect(tree, node)
    return starts


def _collect(tree, node):
    tail = tree.window.tail
    starts = []
    edges = 0
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur.children is None:
            starts.append(cur.spos - tail + 1)
        else:
            for child in cur.children.values():
                edges += 1
                stack.append(child)
    return starts, edges


def find_all(tree, pattern):
    """Sorted window-relative starts of every occurrence of pattern."""
    occ, _ = find_all_counted(tree, pattern)
    return occ


def find_all_counted(tree, pattern):
    """Like `find_all`, also returning the number of tree edges touched."""
    from .tree import InvariantError, as_pattern

    p = as_pattern(pattern)
    if not p:
        raise ValueError("pattern must be non-empty")
    win = tree.window
    wlen = win.head - win.tail + 1
    m = len(p)
    if wlen <= 0 or m > wlen:
        return [], 0
    node, _, edges = _locate(tree, p)
    if node is None:
        return [], edges
    hits, walk_edges = _collect(tree, node)
    edges += walk_edges
    lrs = tree.lrs_len()
    p1 = wlen - lrs + 1
    out = list(hits)
    if m == lrs:
        lo = win.tail + p1 - 1
        if win.substring(lo, lo + m - 1) == p:
            out.append(p1)
    elif m < lrs:
        below = tree.canonize()
        lead = below if below.children is None else tree.leafptr(below)
        p2 = lead.spos - win.tail + 1
        q2 = p2 + lrs - 1
        if p2 >= p1:
            raise InvariantError(f"leaf {p2} below the lrs locus must start "
                                 f"before {p1}")
        if q2 < p1:
            shift = p1 - p2
            for k in hits:
                if p2 <= k <= q2 and k + shift + m - 1 <= wlen:
                    out.append(k + shift)
        else:
            period = p1 - p2
            for k in hits:
                if p2 <= k < p1:
                    pos = k + period
                    while pos + m - 1 <= wlen:
                        out.append(pos)
                        pos += period
    out.sort()
    return out, edges
