"""Primary-leaf-pointer maintenance: O(1) field writes per leaf event.

Every node with children designates exactly one child as *primary*; all
other children, and the root, are *secondary*.  Following primary edges
from a secondary node always ends at a leaf, and each secondary internal
node stores that leaf as its pointer.  Secondary leaves point at themselves
(kept implicit, no field).  The primary edges therefore decompose the tree
into disjoint paths, one per leaf, which is what makes every repair local:
a single leaf insertion or deletion disturbs at most one path, so at most a
handful of pointer writes restore the invariants.

Each leaf at the end of a primary path records the secondary node whose
pointer targets it (``plp_inv``), so the one pointer that must be rewired
on a primary-leaf deletion is found in O(1); any other child of the leaf's
parent may take over its path, and the first one at hand does, so every
hook reads and writes O(1) nodes whatever the fan-out.  The root needs no
case of its own: it is the secondary node at the top of its path, the leaf
ending that path names it in ``plp_inv``, and on an empty tree it points at
itself.

Primary-ness is not stored apart: the pointers carry it.  An internal node
is primary exactly when it holds no pointer (``plp is None``); the root
always holds one.  A leaf is primary exactly when it holds an inverse
pointer (``plp_inv is not None``).  So `PlpNode` adds only ``plp`` to the
tree's internal node and `PlpLeaf` only ``plp_inv`` to its leaf, and a
node or leaf starts primary and secondary respectively, until the
insertion hook of the event that attaches it decides.
"""

from __future__ import annotations

from .tree import InternalNode, LeafNode


class PlpNode(InternalNode):
    __slots__ = ("plp",)

    def __init__(self, parent, depth, key=None):
        # sets every slot, the shared ones too: building a node is one
        # call, and a recycled one keeps no stale field
        self.parent = parent
        self.first = None
        self.sibling = None
        self.key = key
        self.index = None
        self.suffix_link = None
        self.depth = depth
        self.plp = None       # leaf reached along primary edges; None on a primary node


class PlpLeaf(LeafNode):
    __slots__ = ("plp_inv",)

    def __init__(self, parent, spos, key=None):
        # sets every slot, the shared ones as in `LeafNode.__init__`: building a
        # leaf is one call, and a recycled one keeps no stale field
        self.parent = parent
        self.sibling = None
        self.key = key
        self.spos = spos
        self.plp_inv = None   # head of the path this leaf ends; None on a secondary leaf


class PlpMaintenance:
    """Hook implementation installed on trees in ``"plp"`` mode.

    Each leaf event calls at most one hook, and every pointer write of the
    scheme happens inside it.  The hook adds its own write count to the
    counters once, so that count is the event's count.  A shortened leaf
    keeps its place and identity, so every pointer stays valid and there is
    no hook for it.
    """

    node_class = PlpNode
    leaf_class = PlpLeaf
    on_leaf_shortened = None

    def __init__(self, tree):
        self.counters = tree.counters
        tree.root.plp = tree.root  # empty-tree sentinel; the root stays secondary

    # -- queries -----------------------------------------------------------

    def leaf_for(self, node):
        """A live descendant leaf of the internal node, in O(1).

        Secondary nodes answer from their stored pointer.  A primary
        internal node is never the first node of a primary path, but it
        branches, so some child is secondary, and that child answers: a
        leaf itself, a node from its pointer.  At most one child is
        primary, so the first child or its sibling is a secondary one.  On
        an empty tree the root returns itself.
        """
        v = node.plp
        if v is not None:
            return v
        y = node.first
        if y.first is None:
            if y.plp_inv is None:
                return y
        else:
            v = y.plp
            if v is not None:
                return v
        y = y.sibling
        return y if y.first is None else y.plp

    # -- leaf events ---------------------------------------------------------

    def on_leaf_inserted(self, u, w, split_child):
        """Restore the invariants after attaching leaf u under w.

        ``split_child`` is the old child that was pushed below w when w was
        created by splitting an edge (None when w already existed).  The new
        leaf starts secondary and a new w primary, so only a new path needs
        writes: w's pointer to u and u's inverse pointer, 2.  The count is
        exactly the writes made.
        """
        if split_child is None:
            if w.first is not u:
                # u opens a fresh path of its own, as a secondary leaf
                return
            # w had no child, which only happens at the root: u starts the
            # root's primary path
        elif (split_child.plp_inv is not None if split_child.first is None
              else split_child.plp is None):
            # w landed on a primary path and joins it as it was built; the
            # new leaf starts its own
            return
        # w heads a new path ending at the new leaf (a split-off secondary
        # child keeps its own)
        w.plp = u
        u.plp_inv = w
        c = self.counters
        c.plp_field_writes_total += 2
        if 2 > c.plp_field_writes_max_event:
            c.plp_field_writes_max_event = 2

    def on_leaf_deleting(self, u, w, merges):
        """Restore the invariants before leaf u detaches from w.

        Called while u is still attached; the caller afterwards removes u
        and, if ``merges``, merges w away, which needs no repair beyond the
        case analysis here.  The root is an ordinary secondary node that
        never merges: its primary leaf's ``plp_inv`` names it like any other
        path head.  The child y promoted in u's place, or left by a merge,
        is w's first child other than u: one sibling read at most.  A
        promotion writes 2 fields for a leaf y and 3 for a node, a merge 1
        or 2.  Every write changes a field, so the count is exactly the
        writes made.
        """
        y = w.first
        if y is u:
            y = u.sibling  # None when u is w's only child
        merges = merges and w.plp is not None  # a primary w's path goes on through y
        z = u.plp_inv
        if z is not None:
            if merges:
                # w is secondary with two children: the path started at w,
                # and both w and u disappear together
                return
            if y is None:
                # only the root loses its last child: it points at itself
                z.plp = z
                n = 1
            elif y.first is None:
                # the path through u survives above w (or above the merged
                # edge): reroute it to end at the promoted leaf y
                z.plp = y
                y.plp_inv = z
                n = 2
            else:
                # likewise through the promoted node y, whose own path it
                # takes over and which stops being a path head
                v = y.plp
                y.plp = None
                z.plp = v
                v.plp_inv = z
                n = 3
        elif merges:
            # w merges away and its path must restart at the surviving
            # child, which had been primary
            if y.first is None:
                y.plp_inv = None  # a secondary leaf points at itself
                n = 1
            else:
                v = w.plp
                v.plp_inv = y
                y.plp = v
                n = 2
        else:
            # a secondary leaf under a parent that survives (the root
            # always does) takes only its own path with it
            return
        c = self.counters
        c.plp_field_writes_total += n
        if n > c.plp_field_writes_max_event:
            c.plp_field_writes_max_event = n
