"""Suffix tree of a sliding byte window, maintained online.

Appending a symbol runs one phase of Ukkonen's construction; deleting the
front symbol removes (or shortens) the leaf of the longest suffix and merges
the parent edge when the parent stops branching.  Edge labels are never
stored: every edge's index-pair is derived on demand from a leaf pointer, so
labels stay inside the live window by construction.

Two interchangeable leaf-pointer maintenance modes exist:

* ``"plp"`` keeps one primary child per node and a pointer per secondary
  node, repaired with a bounded number of field writes per leaf event.
* ``"credit"`` is the classical baseline: each internal node stores the
  start of some descendant leaf plus a binary credit, refreshed by update
  chains that may climb the whole tree.

The active point (the locus of the longest repeating suffix) is represented
by ``(ins, proj)``: the closest node at or above the locus and the number of
symbols hanging below it.  The pending descent implied by ``proj`` is
normalized lazily by `canonize`.  Because the tracked locus is always a
suffix of the window, the first symbol of the edge below ``ins`` is the
window symbol at ``head - proj + 1`` and never needs storing.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Optional, Union

from .window import TextWindow
from .plp import PlpMaintenance
from .credit import CreditMaintenance
from . import matching

MODES = ("plp", "credit")

Symbol = Union[int, str, bytes]


def as_symbol(sym: Symbol) -> int:
    """Accept an int 0..255, a length-1 str, or a length-1 bytes."""
    if isinstance(sym, int) and not isinstance(sym, bool):
        if not 0 <= sym <= 255:
            raise ValueError(f"symbol {sym} outside byte range")
        return sym
    if isinstance(sym, str):
        sym = sym.encode("latin-1")
    if isinstance(sym, (bytes, bytearray)) and len(sym) == 1:
        return sym[0]
    raise ValueError(f"expected a single byte, got {sym!r}")


def as_pattern(pattern) -> bytes:
    """Accept a str (latin-1), bytes or bytearray; anything else is refused,
    since ``bytes(n)`` of an int would silently search n zero bytes."""
    if isinstance(pattern, str):
        return pattern.encode("latin-1")
    if isinstance(pattern, (bytes, bytearray)):
        return bytes(pattern)
    raise TypeError(f"pattern must be str, bytes or bytearray, "
                    f"not {type(pattern).__name__}")


class InternalNode:
    """Branching node.  ``children`` maps edge first symbol -> child."""

    __slots__ = ("parent", "children", "suffix_link", "depth", "in_key",
                 "prim", "plp", "cred", "lp", "uid")

    def __init__(self, parent, depth, in_key, uid):
        self.parent = parent
        self.children = {}
        self.suffix_link = None
        self.depth = depth
        self.in_key = in_key  # key of this node in parent.children
        self.prim = False
        self.plp = None       # leaf reached along primary edges; secondary nodes only
        self.cred = 0
        self.lp = 0           # start of a descendant leaf; credit mode only
        self.uid = uid

    def __repr__(self):
        return f"<node {self.uid} depth={self.depth}>"


class LeafNode:
    """Leaf for the suffix starting at ``spos``; its label runs to the window head."""

    __slots__ = ("parent", "spos", "in_key", "prim", "plp_inv", "uid")

    children = None  # shared marker so `node.children is None` tests leafness

    def __init__(self, parent, spos, in_key, uid):
        self.parent = parent
        self.spos = spos
        self.in_key = in_key
        self.prim = False
        self.plp_inv = None   # secondary node whose pointer targets this leaf
        self.uid = uid

    def __repr__(self):
        return f"<leaf {self.uid} spos={self.spos}>"


@dataclass
class Counters:
    """Instrumentation.  ``*_last_event`` fields reset at the start of each
    single leaf insertion or deletion; ``*_total``/``*_max_event`` accumulate
    over the tree's lifetime (see `reset_event_maxima`)."""

    explicit_extensions: int = 0
    nodes_created: int = 0
    nodes_deleted: int = 0
    leaves_created: int = 0
    leaves_deleted: int = 0
    plp_field_writes_last_event: int = 0
    plp_field_writes_total: int = 0
    plp_field_writes_max_event: int = 0
    credit_update_calls_last_event: int = 0
    credit_update_calls_total: int = 0
    credit_update_calls_max_event: int = 0

    def begin_leaf_event(self):
        self.plp_field_writes_last_event = 0
        self.credit_update_calls_last_event = 0

    def bump_plp_writes(self, n: int):
        self.plp_field_writes_last_event += n
        self.plp_field_writes_total += n
        if self.plp_field_writes_last_event > self.plp_field_writes_max_event:
            self.plp_field_writes_max_event = self.plp_field_writes_last_event

    def bump_credit_call(self):
        self.credit_update_calls_last_event += 1
        self.credit_update_calls_total += 1
        if self.credit_update_calls_last_event > self.credit_update_calls_max_event:
            self.credit_update_calls_max_event = self.credit_update_calls_last_event

    def reset_event_maxima(self):
        """Forget per-event maxima (used to isolate a critical event)."""
        self.plp_field_writes_max_event = 0
        self.credit_update_calls_max_event = 0

    def churn(self) -> int:
        return (self.nodes_created + self.nodes_deleted
                + self.leaves_created + self.leaves_deleted)

    def as_dict(self) -> dict:
        return asdict(self)


class SlidingSuffixTree:
    """Implicit suffix tree of the live window of a byte stream."""

    def __init__(self, capacity: int, mode: str = "plp"):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        self.window = TextWindow(capacity)
        self.mode = mode
        self.counters = Counters()
        self._uid = 0
        self.root = InternalNode(parent=None, depth=0, in_key=None, uid=self._next_uid())
        self.ins = self.root
        self.proj = 0
        self._leaf_slots: list = [None] * capacity
        if mode == "plp":
            self.maint = PlpMaintenance(self)
            self.root.plp = self.root  # empty-tree sentinel; the root stays secondary
        else:
            self.maint = CreditMaintenance(self)

    # -- introspection ----------------------------------------------------

    @property
    def capacity(self) -> int:
        return self.window.capacity

    @property
    def tail(self) -> int:
        return self.window.tail

    @property
    def head(self) -> int:
        return self.window.head

    def __len__(self) -> int:
        return len(self.window)

    def lrs_len(self) -> int:
        """Length of the longest repeating suffix of the current window."""
        return self.ins.depth + self.proj

    def window_bytes(self) -> bytes:
        return self.window.to_bytes()

    def leaf_at(self, spos: int) -> Optional[LeafNode]:
        """The live leaf whose suffix starts at absolute position spos, if any."""
        leaf = self._leaf_slots[(spos - 1) % self.window.capacity]
        if leaf is not None and leaf.spos == spos:
            return leaf
        return None

    def iter_nodes(self):
        """Yield every live node, root first (depth-first)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if node.children:
                stack.extend(node.children.values())

    def leafptr(self, node):
        """Some live leaf in node's subtree, in O(1) (a leaf returns itself)."""
        if node.children is None:
            return node
        return self.maint.leaf_for(node)

    def edge_label(self, node):
        """Absolute index pair <l, r> spelling the label of the edge entering node.

        Derived from a leaf pointer, so the pair is strongly fresh: the
        whole occurrence, including the parent's string in front of it,
        lies inside the live window.
        """
        parent = node.parent
        if parent is None:
            raise ValueError("the root has no incoming edge")
        if node.children is None:
            return node.spos + parent.depth, self.window.head
        k = self.leafptr(node).spos
        return k + parent.depth, k + node.depth - 1

    def stats(self) -> dict:
        return self.counters.as_dict()

    # -- active point -----------------------------------------------------

    def canonize(self):
        """Normalize ``(ins, proj)`` and return the node at or below the locus.

        Returns ``ins`` itself when the active point rests on a node,
        otherwise the child at the far end of the edge the locus sits on.
        Descends by edge lengths alone: the tracked string is known to
        exist, so only first symbols are examined.
        """
        proj = self.proj
        if proj == 0:
            return self.ins
        win = self.window
        buf = win.buf
        cap = win.capacity
        head = win.head
        ins = self.ins
        while True:
            child = ins.children[buf[(head - proj) % cap]]
            if child.children is None:
                edge_len = head - child.spos + 1 - ins.depth
            else:
                edge_len = child.depth - ins.depth
            if proj < edge_len:
                self.ins = ins
                self.proj = proj
                return child
            # landing exactly on a leaf end would make the tracked suffix
            # non-repeating, so a full descent always enters an internal node
            assert child.children is not None
            ins = child
            proj -= edge_len
            if proj == 0:
                self.ins = ins
                self.proj = 0
                return ins

    # -- mutation ---------------------------------------------------------

    def append(self, sym: Symbol) -> None:
        """Extend the window by one symbol, updating the tree online.

        Runs sub-iterations from the current active point: each one either
        finds the extended suffix already present (and stops) or inserts a
        new leaf, splitting an edge when the locus is mid-edge, then drops
        to the next shorter suffix via a suffix link.
        """
        if type(sym) is not int or not 0 <= sym <= 255:
            sym = as_symbol(sym)
        win = self.window
        if win.head - win.tail + 1 >= win.capacity:
            raise ValueError("window is full; delete_front before appending")
        counters = self.counters
        maint = self.maint
        buf = win.buf
        cap = win.capacity
        old_head = win.head
        v = None  # node created/used last sub-iteration, owed a suffix link
        while True:
            counters.explicit_extensions += 1
            below = self.canonize() if self.proj else self.ins
            if self.proj == 0:
                target = self.ins
                if sym in target.children:
                    if v is not None:
                        v.suffix_link = target
                    self.proj = 1
                    break
                counters.begin_leaf_event()
                w = target
                split_child = None
            else:
                edge_start = self._edge_start(below)
                if buf[(edge_start + self.proj - 1) % cap] == sym:
                    # extended suffix already present mid-edge; had a node
                    # been created last sub-iteration this locus would be a
                    # node, so no suffix link can be pending
                    assert v is None
                    self.proj += 1
                    break
                counters.begin_leaf_event()
                w = self._split_edge(below, edge_start)
                split_child = below
            u = self._new_leaf(old_head + 1 - w.depth, w, sym)
            maint.on_leaf_inserted(u, w, split_child)
            if v is not None:
                v.suffix_link = w
            if w is self.root:
                break
            v = w
            if self.ins is self.root:
                self.proj -= 1  # shed the first symbol of the tracked suffix
            else:
                self.ins = self.ins.suffix_link
        win.push(sym)

    def delete_front(self) -> None:
        """Remove the oldest window symbol, updating the tree online.

        When the longest repeating suffix sits on the edge of the departing
        leaf, the leaf is shortened in place (its start index moves to the
        rightmost occurrence) and the active point drops one symbol.
        Otherwise the leaf is detached and, if its parent is left
        non-branching, the two surrounding edges merge.
        """
        win = self.window
        if win.head < win.tail:
            raise ValueError("window is empty")
        self.counters.begin_leaf_event()
        below = self.canonize()
        u = self._leaf_slots[(win.tail - 1) % win.capacity]
        w = u.parent
        if u is below:
            # the departing prefix and the repeating suffix share this edge
            new_spos = win.head - (self.ins.depth + self.proj) + 1
            self._relabel_leaf(u, new_spos)
            self.maint.on_leaf_shortened(u, w)
            if self.ins is self.root:
                self.proj -= 1
            else:
                self.ins = self.ins.suffix_link
        else:
            self.maint.on_leaf_deleting(u, w)
            del w.children[u.in_key]
            self._drop_leaf(u)
            if w is not self.root and len(w.children) == 1:
                y = next(iter(w.children.values()))
                x = w.parent
                self.maint.on_internal_deleting(w)
                if self.ins is w:
                    # the locus representation counted from w; re-anchor it
                    self.proj += w.depth - x.depth
                    self.ins = x
                x.children[w.in_key] = y
                y.in_key = w.in_key
                y.parent = x
                # every live reference into w was repaired above; severing its
                # own references frees it immediately, without cycle collection
                w.children.clear()
                w.parent = None
                w.suffix_link = None
                w.plp = None
                self.counters.nodes_deleted += 1
        win.pop()

    def slide(self, sym: Symbol) -> None:
        """Append, first deleting the front symbol if the window is full."""
        if self.window.full:
            self.delete_front()
        self.append(sym)

    def extend(self, data) -> None:
        for sym in data:
            self.slide(sym)

    # -- queries ----------------------------------------------------------

    def find_all(self, pattern) -> list:
        """All window-relative start positions of pattern in the window."""
        return matching.find_all(self, pattern)

    # -- internals ----------------------------------------------------------

    def _next_uid(self) -> int:
        self._uid += 1
        return self._uid

    def _edge_start(self, node) -> int:
        """Absolute start of the label of the edge entering node (its pos)."""
        if node.children is None:
            return node.spos + node.parent.depth
        return self.leafptr(node).spos + node.parent.depth

    def _split_edge(self, below, edge_start: int) -> InternalNode:
        """Split the edge ins -> below at the active point; returns the new node."""
        ins = self.ins
        w = InternalNode(parent=ins, depth=ins.depth + self.proj,
                         in_key=below.in_key, uid=self._next_uid())
        ins.children[w.in_key] = w
        mid = self.window.symbol_at(edge_start + self.proj)
        w.children[mid] = below
        below.in_key = mid
        below.parent = w
        self.counters.nodes_created += 1
        self.maint.on_internal_created(w, self.window.head + 1 - w.depth)
        return w

    def _new_leaf(self, spos: int, parent: InternalNode, key: int) -> LeafNode:
        u = LeafNode(parent=parent, spos=spos, in_key=key, uid=self._next_uid())
        parent.children[key] = u
        slot = (spos - 1) % self.window.capacity
        assert self._leaf_slots[slot] is None
        self._leaf_slots[slot] = u
        self.counters.leaves_created += 1
        return u

    def _relabel_leaf(self, u: LeafNode, new_spos: int) -> None:
        cap = self.window.capacity
        self._leaf_slots[(u.spos - 1) % cap] = None
        slot = (new_spos - 1) % cap
        assert self._leaf_slots[slot] is None
        self._leaf_slots[slot] = u
        u.spos = new_spos

    def _drop_leaf(self, u: LeafNode) -> None:
        self._leaf_slots[(u.spos - 1) % self.window.capacity] = None
        u.parent = None
        u.plp_inv = None
        self.counters.leaves_deleted += 1
