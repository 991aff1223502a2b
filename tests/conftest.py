import importlib.util
import os
from pathlib import Path

import slidingsuffix
from slidingsuffix import SlidingSuffixTree
from slidingsuffix.tree import LeafNode


def build(text, capacity=None, mode="plp"):
    """Tree fed `text` through the sliding window (capacity defaults to
    the full length, in which case nothing ever slides out)."""
    data = text.encode("latin-1") if isinstance(text, str) else bytes(text)
    tree = SlidingSuffixTree(capacity or max(len(data), 1), mode=mode)
    for sym in data:
        tree.slide(sym)
    return tree


def active_ins(tree):
    """The closest node at or above the tree's active point: ``below`` when
    the locus is on it (``proj == 0``), otherwise ``below``'s parent."""
    return tree.below if tree.proj == 0 else tree.below.parent


def is_primary(x) -> bool:
    """Whether a plp node or leaf is primary: a leaf holds an inverse
    pointer, an internal node (the root included) holds no pointer."""
    if isinstance(x, LeafNode):
        return x.plp_inv is not None
    return x.plp is None


def subprocess_env() -> dict:
    """``os.environ`` with the imported package's ``src`` first on
    ``PYTHONPATH``, so a child interpreter imports the package under test
    even where only pytest's own ``pythonpath`` setting put it in reach."""
    src = str(Path(slidingsuffix.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + rest if rest else src)


def load_perfbench(name: str):
    """The benchmark's module ``perfbench/<name>.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def naive_lrs(w) -> int:
    """Length of the longest suffix of w occurring at least twice in w."""
    n = len(w)
    for length in range(n - 1, 0, -1):
        suffix = w[n - length:]
        hits = 0
        for i in range(n - length + 1):
            if w[i:i + length] == suffix:
                hits += 1
                if hits >= 2:
                    return length
    return 0


def edgewise_locate(tree, p: bytes):
    """Reference for `matching._locate`: descend edge by edge, comparing
    each edge's label with the pattern as it goes.

    Each edge's start is derived from a leaf pointer, and its label after
    the key is compared with one slice of the mirrored ring.  Returns
    ``(node, matched_on_edge, edges_touched)``, with node None when the
    pattern is absent; the first mismatching edge ends the descent.
    """
    buf = tree.buf
    cap = tree.capacity
    head = tree.head
    leaf_for = tree.maint.leaf_for
    node = tree.root
    n = len(p)
    i = take = edges = 0
    while i < n:
        child = node.first
        while child is not None and child.key != p[i]:
            child = child.sibling
        if child is None:
            return None, 0, edges
        edges += 1
        depth = node.depth
        if child.first is None:
            lo = child.spos + depth
            take = head - lo + 1
        else:
            lo = leaf_for(child).spos + depth
            take = child.depth - depth
        j = i + take
        if j > n:
            j = n
            take = n - i
        # the key matched p[i]; positions lo+1 .. lo+take-1 start at slot a
        a = lo % cap
        if buf[a:a + take - 1] != p[i + 1:j]:
            return None, 0, edges
        i = j
        node = child
    return node, take, edges


def node_by_string(tree, s):
    """The internal node spelling s, or None."""
    target = s.encode("latin-1") if isinstance(s, str) else bytes(s)
    stack = [(tree.root, b"")]
    while stack:
        node, cur = stack.pop()
        if cur == target:
            return node
        if node.first is None or len(cur) >= len(target):
            continue
        child = node.first
        while child is not None:
            lo, hi = tree.edge_label(child)
            stack.append((child, cur + tree.substring(lo, hi)))
            child = child.sibling
    return None

