"""Suffix tree of a sliding byte window, maintained online.

Appending a symbol runs one phase of Ukkonen's construction; deleting the
front symbol removes (or shortens) the leaf of the longest suffix and merges
the parent edge when the parent stops branching.  Edge labels are never
stored: every edge's index-pair is derived on demand from a leaf pointer, so
labels stay inside the live window by construction.

Children are linked, not mapped (Kurtz 1999): an internal node holds its
``first`` child, and every node its next ``sibling`` and its ``key``, the
first symbol of the label of the edge entering it.  A node lists its
children in the order they came: a new leaf is linked last, and a node that
splits an edge, or a child that a merge lifts, takes the place of the child
it replaces, under the same key.  Most nodes have two children, so a lookup
scans a step or two, where a dict would cost 224 bytes per node.  Keys are
stored because the scan compares one per sibling: reading each from the
window instead would cost a leaf-pointer derivation per step.  A node that
branches widely (text, near the root) would make every lookup a long scan,
so the root, and a node once it has more than `WIDE` children, also keeps
``index``, a ``{key: child}`` dict in sibling order that lookups use in
place of the scan; every other node's ``index`` is None.  A node keeps its
index until it merges away.  ``InternalNode.children`` builds a
``{key: child}`` view of any node on demand; no slide or query reads it.

The tree owns the window's ring buffer.  Positions are absolute and 1-based:
the k-th symbol ever appended lives at position k until `delete_front`
retires it, and the live range is ``tail..head`` (empty when ``head < tail``).
``buf`` is mirrored: it holds ``2 * capacity`` bytes, and each live position
k lives in slot ``a = (k - 1) % capacity`` and again in slot ``a + capacity``.
So a run of n <= capacity positions starting at slot a is ``buf[a:a + n]``,
one slice with no wrap-around.

Two interchangeable leaf-pointer maintenance modes exist:

* ``"plp"`` keeps one primary child per node and a pointer per secondary
  node, repaired with a bounded number of field writes per leaf event.
* ``"credit"`` is the classical baseline: each internal node stores the
  start of some descendant leaf plus a binary credit, refreshed by update
  chains that may climb the whole tree.

Departed objects are recycled.  `delete_front` puts each leaf it detaches
and each node it merges away on a spare list, unlinked, and `append` takes
an object from the list when one is there and resets it by running its
constructor again, so the fields each mode keeps are reset in one place;
it constructs a new object only when the list is empty.
So the leaves ever constructed number the peak of live leaves, and live
plus spare leaves equal that peak at every moment; the same holds for
internal nodes.  Both peaks are at most ``capacity``, so space stays O(W)
and never exceeds the largest tree this window has held.  A steady slide
then allocates and frees no node, so it gives the cyclic collector no
cause to run.

The active point (the locus of the longest repeating suffix) is represented
by ``(ins, proj)``: the closest node at or above the locus and the number of
symbols hanging below it.  The pending descent implied by ``proj`` is
normalized lazily by `canonize`.  Because the tracked locus is always a
suffix of the window, the first symbol of the edge below ``ins`` is the
window symbol at ``head - proj + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Optional, Union

from . import credit, matching, plp

MODES = ("plp", "credit")

# a node that gains a child beyond this many builds its dict index (98% of
# the text corpus's nodes have at most 8 children; sigma = 4 noise at most 4)
WIDE = 8

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


class InvariantError(AssertionError):
    """An internal invariant of the tree broke.

    Raised explicitly rather than by ``assert``, so the check survives
    ``python -O``; it subclasses AssertionError so audits that treat a
    failed assertion as a finding keep catching it.
    """


class InternalNode:
    """Branching node; its children are ``first`` and that child's siblings."""

    __slots__ = ("parent", "first", "sibling", "key", "index", "suffix_link",
                 "depth", "prim", "plp", "cred", "lp")

    def __init__(self, parent, depth, key=None):
        self.parent = parent
        self.first = None
        self.sibling = None
        self.key = key
        self.index = None     # {key: child} of a wide node, else None
        self.suffix_link = None
        self.depth = depth
        self.prim = False
        self.plp = None       # leaf reached along primary edges; secondary nodes only
        self.cred = 0
        self.lp = 0           # start of a descendant leaf; credit mode only

    @property
    def children(self) -> dict:
        """A new ``{key: child}`` dict in sibling order, for inspection."""
        out = {}
        child = self.first
        while child is not None:
            out[child.key] = child
            child = child.sibling
        return out

    def __repr__(self):
        return f"<node depth={self.depth}>"


class LeafNode:
    """Leaf for the suffix starting at ``spos``; its label runs to the window head."""

    __slots__ = ("parent", "sibling", "key", "spos", "prim", "plp_inv")

    # shared markers: `node.first is None` tests leafness wherever the node
    # cannot be an empty root, and `node.children is None` everywhere
    first = None
    children = None

    def __init__(self, parent, spos, key=None):
        self.parent = parent
        self.sibling = None
        self.key = key
        self.spos = spos
        self.prim = False
        self.plp_inv = None   # secondary node whose pointer targets this leaf

    def __repr__(self):
        return f"<leaf spos={self.spos}>"


def _relink(parent, old, new):
    """Point the link that reaches ``old`` in parent's child list at ``new``."""
    prev = None
    child = parent.first
    while child is not old:
        prev = child
        child = child.sibling
    if prev is None:
        parent.first = new
    else:
        prev.sibling = new


@dataclass(slots=True)
class Counters:
    """Instrumentation, accumulated over the tree's lifetime.

    A leaf event (one leaf insertion, deletion or shortening) makes at most
    one maintenance hook call, and that call adds its own count to
    ``*_total`` and raises ``*_max_event`` (see `reset_event_maxima`).
    """

    explicit_extensions: int = 0
    nodes_created: int = 0
    nodes_deleted: int = 0
    leaves_created: int = 0
    leaves_deleted: int = 0
    plp_field_writes_total: int = 0
    plp_field_writes_max_event: int = 0
    credit_update_calls_total: int = 0
    credit_update_calls_max_event: int = 0

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
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        self.capacity = capacity
        self.tail = 1  # position of the oldest live symbol
        self.head = 0  # position of the newest
        self.buf = bytearray(2 * capacity)
        self.mode = mode
        self.counters = Counters()
        self.root = InternalNode(parent=None, depth=0)
        self.root.index = {}
        self.ins = self.root
        self.proj = 0
        self._leaf_slots: list = [None] * capacity
        self._spare_leaves: list = []  # detached leaves, reused by `append`
        self._spare_nodes: list = []   # merged internal nodes, likewise
        self.maint = (plp.PlpMaintenance if mode == "plp" else credit.CreditMaintenance)(self)

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return self.head - self.tail + 1

    def lrs_len(self) -> int:
        """Length of the longest repeating suffix of the current window."""
        return self.ins.depth + self.proj

    def substring(self, lo: int, hi: int) -> bytes:
        """Window bytes at absolute positions lo..hi inclusive (empty if lo > hi)."""
        if lo > hi:
            return b""
        if not (self.tail <= lo and hi <= self.head):
            raise IndexError(f"range [{lo}..{hi}] outside window [{self.tail}..{self.head}]")
        a = (lo - 1) % self.capacity
        return bytes(self.buf[a:a + hi - lo + 1])

    def window_bytes(self) -> bytes:
        """The whole live window, oldest symbol first."""
        return self.substring(self.tail, self.head)

    def leaf_at(self, spos: int) -> Optional[LeafNode]:
        """The live leaf whose suffix starts at absolute position spos, if any."""
        leaf = self._leaf_slots[(spos - 1) % self.capacity]
        if leaf is not None and leaf.spos == spos:
            return leaf
        return None

    def iter_nodes(self):
        """Yield every live node, root first (depth-first)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            child = node.first
            while child is not None:
                stack.append(child)
                child = child.sibling

    def leafptr(self, node):
        """Some live leaf in node's subtree, in O(1) (a leaf returns itself)."""
        if node.first is None and node is not self.root:
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
        if node.first is None:
            return node.spos + parent.depth, self.head
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
        exist, so only the keys of siblings are examined.
        """
        proj = self.proj
        ins = self.ins
        if proj == 0:
            return ins
        buf = self.buf
        cap = self.capacity
        head = self.head
        while True:
            key = buf[(head - proj) % cap]
            index = ins.index
            if index is None:
                child = ins.first
                while child.key != key:
                    child = child.sibling
            else:
                child = index[key]
            if child.first is None:
                # landing on or past a leaf end would make the tracked suffix
                # non-repeating, so the locus must lie inside the leaf edge
                if proj < head - child.spos + 1 - ins.depth:
                    break
                raise InvariantError(f"active point descends past the end of "
                                     f"leaf {child.spos}")
            edge_len = child.depth - ins.depth
            if proj < edge_len:
                break
            ins = child
            proj -= edge_len
            if proj == 0:
                child = ins
                break
        self.ins = ins
        self.proj = proj
        return child

    # -- mutation ---------------------------------------------------------

    def append(self, sym: Symbol) -> None:
        """Extend the window by one symbol, updating the tree online."""
        if type(sym) is not int or not 0 <= sym <= 255:
            sym = as_symbol(sym)
        if self.head - self.tail + 1 >= self.capacity:
            raise ValueError("window is full; delete_front before appending")
        self._append(sym)

    def _append(self, sym: int) -> None:
        """`append` of a checked symbol into a window with room for it.

        Runs sub-iterations from the current active point: each one either
        finds the extended suffix already present (and stops) or inserts a
        new leaf, splitting an edge when the locus is mid-edge, then drops
        to the next shorter suffix via a suffix link.  The active point
        lives in locals and is stored back only around `canonize` and at
        the end.
        """
        head = self.head
        cap = self.capacity
        buf = self.buf
        slots = self._leaf_slots
        maint = self.maint
        root = self.root
        spare_leaves = self._spare_leaves
        spare_nodes = self._spare_nodes
        ins = self.ins
        proj = self.proj
        extensions = nodes = leaves = 0
        v = None  # node created/used last sub-iteration, owed a suffix link
        while True:
            extensions += 1
            if proj:
                self.ins = ins
                self.proj = proj
                below = self.canonize()
                ins = self.ins
                proj = self.proj
            if proj == 0:
                # a miss stops at the last child, which the new leaf follows
                last = None
                index = ins.index
                if index is None:
                    scanned = 0
                    child = ins.first
                    while child is not None and child.key != sym:
                        last = child
                        child = child.sibling
                        scanned += 1
                else:
                    child = index.get(sym)
                    if child is None:
                        last = next(reversed(index.values()), None)
                if child is not None:
                    if v is not None:
                        v.suffix_link = ins
                    proj = 1
                    break
                w = ins
                split_child = None
            else:
                if below.first is None:
                    edge_start = below.spos + ins.depth
                else:
                    edge_start = maint.leaf_for(below).spos + ins.depth
                mid = buf[(edge_start + proj - 1) % cap]
                if mid == sym:
                    # extended suffix already present mid-edge; had a node
                    # been created last sub-iteration this locus would be a
                    # node, so no suffix link can be pending
                    if v is not None:
                        raise InvariantError("suffix link pending at a mid-edge locus")
                    proj += 1
                    break
                # split the edge ins -> below at the locus: w takes below's
                # place and key among ins's children, and below hangs from
                # w under the symbol at the locus
                key = below.key
                if spare_nodes:
                    w = spare_nodes.pop()
                    w.__init__(ins, ins.depth + proj, key)
                else:
                    w = InternalNode(ins, ins.depth + proj, key)
                w.sibling = below.sibling
                _relink(ins, below, w)
                if ins.index is not None:
                    ins.index[key] = w
                w.first = last = below
                below.parent = w
                below.key = mid
                nodes += 1
                split_child = below
            spos = head + 1 - w.depth
            if spare_leaves:
                u = spare_leaves.pop()
                u.__init__(w, spos, sym)
            else:
                u = LeafNode(w, spos, sym)
            if last is None:
                w.first = u
            else:
                last.sibling = u
            if w.index is not None:
                w.index[sym] = u
            elif split_child is None and scanned >= WIDE:
                w.index = w.children
            slot = (spos - 1) % cap
            if slots[slot] is not None:
                raise InvariantError(f"leaf slot of start {spos} is taken")
            slots[slot] = u
            leaves += 1
            maint.on_leaf_inserted(u, w, split_child)
            if v is not None:
                v.suffix_link = w
            if w is root:
                break
            v = w
            if ins is root:
                proj -= 1  # shed the first symbol of the tracked suffix
            else:
                ins = ins.suffix_link
        self.ins = ins
        self.proj = proj
        counters = self.counters
        counters.explicit_extensions += extensions
        counters.nodes_created += nodes
        counters.leaves_created += leaves
        at = head % cap
        buf[at] = buf[at + cap] = sym
        self.head = head + 1

    def delete_front(self) -> None:
        """Remove the oldest window symbol, updating the tree online.

        When the longest repeating suffix sits on the edge of the departing
        leaf, the leaf is shortened in place (its start index moves to the
        rightmost occurrence) and the active point drops one symbol.
        Otherwise the leaf is detached and, if its parent is left
        non-branching, the two surrounding edges merge.  The detached leaf
        and the merged node go on the spare lists that `append` draws from;
        a shortened leaf keeps its place in the tree.
        """
        tail = self.tail
        if self.head < tail:
            raise ValueError("window is empty")
        below = self.canonize() if self.proj else None
        cap = self.capacity
        slots = self._leaf_slots
        slot = (tail - 1) % cap
        u = slots[slot]
        w = u.parent
        if u is below:
            # the departing prefix and the repeating suffix share this edge:
            # move the leaf, keeping its identity, to the lrs occurrence
            ins = self.ins
            new_spos = self.head - (ins.depth + self.proj) + 1
            new_slot = (new_spos - 1) % cap
            if slots[new_slot] is not None:
                raise InvariantError(f"leaf slot of start {new_spos} is taken")
            slots[slot] = None
            slots[new_slot] = u
            u.spos = new_spos
            self.maint.on_leaf_shortened(u, w)
            if ins is self.root:
                self.proj -= 1
            else:
                self.ins = ins.suffix_link
        else:
            # a non-root node merges away when u is one of its two children
            merges = w is not self.root and w.first.sibling.sibling is None
            self.maint.on_leaf_deleting(u, w, merges)
            _relink(w, u, u.sibling)
            if w.index is not None:
                del w.index[u.key]
            u.sibling = None
            slots[slot] = None
            u.parent = None
            self._spare_leaves.append(u)
            counters = self.counters
            counters.leaves_deleted += 1
            if merges:
                # w no longer branches: its one child y takes w's place and
                # key among x's children
                y = w.first
                x = w.parent
                if self.ins is w:
                    # the locus representation counted from w; re-anchor it
                    self.proj += w.depth - x.depth
                    self.ins = x
                y.key = w.key
                y.sibling = w.sibling
                _relink(x, w, y)
                if x.index is not None:
                    x.index[y.key] = y
                y.parent = x
                # every live reference into w was repaired above; the spare
                # keeps no place in the tree, and `append` resets the rest
                w.first = w.sibling = w.index = None
                w.parent = None
                self._spare_nodes.append(w)
                counters.nodes_deleted += 1
        self.tail = tail + 1

    def slide(self, sym: Symbol) -> None:
        """Append, first deleting the front symbol if the window is full;
        a symbol `append` would refuse is refused before the deletion."""
        if type(sym) is not int or not 0 <= sym <= 255:
            sym = as_symbol(sym)
        if self.head - self.tail + 1 >= self.capacity:
            self.delete_front()
        self._append(sym)

    def extend(self, data) -> None:
        for sym in data:
            self.slide(sym)

    # -- queries ----------------------------------------------------------

    def find_all(self, pattern) -> list:
        """All window-relative start positions of pattern in the window."""
        return matching.find_all(self, pattern)
