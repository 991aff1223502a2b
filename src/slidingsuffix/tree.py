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
so a node, the root included, keeps ``index``, a ``{key: child}`` dict in
sibling order that lookups use in place of the scan, once it has more than
`WIDE` children; every other node's ``index`` is None.  A node keeps its
index until it merges away, and the root, which never merges, for good.
``InternalNode.children`` builds a ``{key: child}`` dict of any node on
demand; a slide reads it only to build the index of a node that has just
grown wide, and no query reads it.

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

`InternalNode` and `LeafNode` hold the tree's shape only.  Each mode keeps
its pointer fields in subclasses of its own, which its maintenance class
names as ``node_class`` and ``leaf_class``; the tree builds its root,
split nodes and leaves from those two classes.

Departed objects are recycled.  `delete_front` puts each leaf it detaches
and each node it merges away on a spare list, unlinked, and `slide` takes
an object from the list when one is there and resets it by running its
constructor again, which sets every slot.  It constructs a new object only
when the list is empty.  `checks.audit` checks that each spare is listed
once, holds no parent, sibling, child or index, and that no leaf slot
holds one.
So the leaves ever constructed number the peak of live leaves, and live
plus spare leaves equal that peak at every moment; the same holds for
internal nodes.  Both peaks are at most ``capacity``, so space stays O(W)
and never exceeds the largest tree this window has held.  A steady slide
then allocates and frees no node, so it gives the cyclic collector no
cause to run.

The active point (the locus of the longest repeating suffix) is held as
``(below, proj)``: ``below`` is the node at or below the locus, and ``proj``
counts the symbols the locus lies down the edge into ``below``, 0 when the
locus is ``below`` itself.  Ukkonen's ``ins``, the closest node at or above
the locus, is derived into a local where needed: ``below`` when
``proj == 0``, else ``below.parent``.  ``below`` is never None and every
operation leaves the pair normal, so a slide's deletion and the first
sub-iteration of its append phase read it and do not descend.  `canonize`,
the descent from an explicit ``(ins, proj)``, runs only where the locus
moves: right after a suffix-link hop or a shed of the first symbol at the
root, and in a deletion that shortens a leaf.  So every sub-iteration of a
phase starts from a normal pair too, and one at a node reads only ``ins``.
The locus is a suffix of the window, so the first symbol of the edge it sits
on is the window symbol at ``head - proj + 1``.  The symbol after a
mid-edge locus of length ``l`` is read at ``k + l``, where ``k`` is an
occurrence of its string found through a leaf pointer; an append phase
does that at most once.  Its later mid-edge loci are that string less
leading symbols, which occur at ``k + 1``, ``k + 2``, ... and so are
followed by the same symbol, and nothing is deleted within a phase; a
mid-edge locus has one continuation, so that symbol is the tree's.  The
symbol is not kept from one slide to the next: the deletion in between
may retire occurrence ``k``, so keeping it would take a field on the tree
and a liveness check in every slide.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Union

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
    """Branching node; its children are ``first`` and that child's siblings.

    Each mode subclasses it with the pointer fields it keeps, and the
    subclass's constructor sets every slot.
    """

    __slots__ = ("parent", "first", "sibling", "key", "index", "suffix_link",
                 "depth")

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

    __slots__ = ("parent", "sibling", "key", "spos")

    # shared markers: `node.first is None` tests leafness wherever the node
    # cannot be an empty root, and `node.children is None` everywhere
    first = None
    children = None

    def __init__(self, parent, spos, key=None):
        self.parent = parent
        self.sibling = None
        self.key = key
        self.spos = spos

    def __repr__(self):
        return f"<leaf spos={self.spos}>"


# the modes subclass the node classes above, so they are imported below them
from . import credit, matching, plp  # noqa: E402


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


class SlidingSuffixTree:
    """Implicit suffix tree of the live window of a byte stream."""

    __slots__ = ("capacity", "tail", "head", "buf", "mode", "counters", "root",
                 "proj", "below", "_leaf_slots", "_spare_leaves", "_spare_nodes",
                 "maint")

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
        maint_class = plp.PlpMaintenance if mode == "plp" else credit.CreditMaintenance
        self.root = maint_class.node_class(None, 0)
        self.proj = 0
        self.below = self.root  # the node at or below the active point
        self._leaf_slots: list = [None] * capacity
        self._spare_leaves: list = []  # detached leaves, reused by `append`
        self._spare_nodes: list = []   # merged internal nodes, likewise
        self.maint = maint_class(self)

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return self.head - self.tail + 1

    def lrs_len(self) -> int:
        """Length of the longest repeating suffix of the current window."""
        proj = self.proj
        below = self.below
        return below.depth if proj == 0 else below.parent.depth + proj

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
        k = self.maint.leaf_for(node).spos
        return k + parent.depth, k + node.depth - 1

    def stats(self) -> dict:
        return asdict(self.counters)

    # -- active point -----------------------------------------------------

    def canonize(self, ins, proj):
        """Descend from node ``ins`` by ``proj`` symbols, the window's last.

        Returns the normal ``(ins, proj, below)``: ``below`` is the node at
        or below the locus, ``ins`` itself when the locus lands on a node
        (then ``proj == 0``), otherwise the child at the far end of the edge
        the locus sits on, with ``ins`` its parent.  It descends by edge
        lengths alone: the tracked string is known to exist, so only the
        keys of siblings are examined.  It reads and writes no active-point
        field of the tree.
        """
        if proj == 0:
            return ins, 0, ins
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
        return ins, proj, child

    # -- mutation ---------------------------------------------------------

    def append(self, sym: Symbol) -> None:
        """Extend the window by one symbol, updating the tree online."""
        if type(sym) is not int or not 0 <= sym <= 255:
            sym = as_symbol(sym)
        if self.head - self.tail + 1 >= self.capacity:
            raise ValueError("window is full; delete_front before appending")
        self.slide(sym)

    def slide(self, sym: Symbol) -> None:
        """Append, first deleting the front symbol if the window is full;
        a symbol `append` would refuse is refused before the deletion.

        The append is one phase of Ukkonen's construction.  It runs
        sub-iterations from the current active point: each one either finds
        the extended suffix already present (and stops) or inserts a new
        leaf, splitting an edge when the locus is mid-edge, then drops to
        the next shorter suffix via a suffix link.  The active point lives
        in locals, ``ins`` derived from ``below``, and is stored at the end.
        The first sub-iteration starts from the stored pair; each hop (a
        suffix link, or a shed symbol at the root) is followed at once by
        `canonize` when the locus is left mid-edge, so a mid-edge
        sub-iteration starts from the ``below`` that gives it, and one at a
        node reads only ``ins``.
        Every mid-edge sub-iteration comes before every node one, so only
        a phase that starts mid-edge has any; it reads the symbol after
        that first locus through a leaf pointer, once, and each mid-edge
        sub-iteration compares it with ``sym`` and, on a mismatch, hangs
        the split child under it.  The phase stores the node below
        its final locus: the child it matched, the node below a mid-edge
        match, or the root after a root insertion.  A match that ends
        exactly on an internal node moves the active point onto that node,
        so the pair stays normal.
        """
        if type(sym) is not int or not 0 <= sym <= 255:
            sym = as_symbol(sym)
        cap = self.capacity
        if self.head - self.tail + 1 >= cap:
            self.delete_front()
        below = self.below
        proj = self.proj
        head = self.head
        buf = self.buf
        slots = self._leaf_slots
        maint = self.maint
        root = self.root
        spare_leaves = self._spare_leaves
        spare_nodes = self._spare_nodes
        if proj == 0:
            ins = below
        else:
            ins = below.parent
            # the symbol after this locus follows every later mid-edge locus
            # of the phase too (see the module docstring): read it once
            lead = below if below.first is None else maint.leaf_for(below)
            mid = buf[(lead.spos + ins.depth + proj - 1) % cap]
        nodes = leaves = 0
        v = None  # node created/used last sub-iteration, owed a suffix link
        while True:
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
                    if child.first is None or child.depth != ins.depth + 1:
                        proj = 1  # else the locus is the child itself
                    below = child
                    break
                w = ins
                split_child = None
            else:
                if mid == sym:
                    # extended suffix already present mid-edge: a match ends
                    # the phase at its first mid-edge locus, which no other
                    # sub-iteration precedes, and at every later one the
                    # symbol has already mismatched, so no suffix link can
                    # be pending
                    if v is not None:
                        raise InvariantError("suffix link pending at a mid-edge locus")
                    proj += 1
                    if below.first is not None and below.depth == ins.depth + proj:
                        proj = 0  # the locus is below itself
                    break
                # split the edge ins -> below at the locus: w takes below's
                # place and key among ins's children, and below hangs from
                # w under the symbol at the locus
                key = below.key
                if spare_nodes:
                    w = spare_nodes.pop()
                    w.__init__(ins, ins.depth + proj, key)
                else:
                    w = maint.node_class(ins, ins.depth + proj, key)
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
                u = maint.leaf_class(w, spos, sym)
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
                below = root
                break
            v = w
            if ins is root:
                proj -= 1  # shed the first symbol of the tracked suffix
            else:
                ins = ins.suffix_link
            if proj:
                ins, proj, below = self.canonize(ins, proj)
        self.proj = proj
        self.below = below
        counters = self.counters
        # every sub-iteration inserts a leaf but a match, which ends the
        # phase below the root; a phase that ends at the root inserts there
        counters.explicit_extensions += leaves + (below is not root)
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
        and the merged node go on the spare lists that `slide` draws from;
        a shortened leaf keeps its place in the tree.

        The deletion reads ``below`` to find out whether the locus sits on
        the departing leaf's edge.  A shortening moves the locus to the
        next shorter suffix and descends to it through `canonize`.
        Otherwise the node at or below the locus stays there: when a merge
        removes that node, or the node the locus is counted from, the
        surviving child takes its place.  Either way ``below`` is left
        normal for the next operation.
        """
        tail = self.tail
        if self.head < tail:
            raise ValueError("window is empty")
        below = self.below
        proj = self.proj
        cap = self.capacity
        slots = self._leaf_slots
        slot = (tail - 1) % cap
        u = slots[slot]
        w = u.parent
        if u is below:
            # the departing prefix and the repeating suffix share this edge,
            # so the locus is proj symbols below w: move the leaf, keeping
            # its identity, to the lrs occurrence
            new_spos = self.head - (w.depth + proj) + 1
            new_slot = (new_spos - 1) % cap
            if slots[new_slot] is not None:
                raise InvariantError(f"leaf slot of start {new_spos} is taken")
            slots[slot] = None
            slots[new_slot] = u
            u.spos = new_spos
            if self.maint.on_leaf_shortened is not None:
                self.maint.on_leaf_shortened(u, w)
            ins = w
            if ins is self.root:
                proj -= 1
            else:
                ins = ins.suffix_link
            below = ins
            if proj:
                _, proj, below = self.canonize(ins, proj)
        else:
            # a non-root node merges away when u is one of its two children
            merges = w is not self.root and w.first.sibling.sibling is None
            self.maint.on_leaf_deleting(u, w, merges)
            if merges:
                # w no longer branches: its one child y takes w's place and
                # key among x's children; w's own links are cleared when it
                # is recycled, so u need not be unlinked from them
                y = w.first
                if y is u:
                    y = u.sibling
                x = w.parent
                if (below if proj == 0 else below.parent) is w:
                    # the locus was counted from w; count it from x
                    proj += w.depth - x.depth
                    below = y
                elif below is w:
                    below = y
                y.key = w.key
                y.sibling = w.sibling
                _relink(x, w, y)
                if x.index is not None:
                    x.index[y.key] = y
                y.parent = x
                # every live reference into w was repaired above; the spare
                # keeps no place in the tree, and `slide` resets the rest
                w.first = w.sibling = w.index = None
                w.parent = None
                self._spare_nodes.append(w)
                self.counters.nodes_deleted += 1
            else:
                _relink(w, u, u.sibling)
                if w.index is not None:
                    del w.index[u.key]
            u.sibling = None
            slots[slot] = None
            u.parent = None
            self._spare_leaves.append(u)
            self.counters.leaves_deleted += 1
        self.tail = tail + 1
        self.proj = proj
        self.below = below

    def extend(self, data) -> None:
        slide = self.slide
        for sym in data:
            slide(sym)

    # -- queries ----------------------------------------------------------

    def find_all(self, pattern) -> list:
        """All window-relative start positions of pattern in the window."""
        return matching.find_all(self, pattern)
