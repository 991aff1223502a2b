"""Primary-leaf-pointer maintenance: O(1) field writes per leaf event.

Every node with children designates exactly one child as *primary*; all
other children, and the root, are *secondary*.  Following primary edges
from a secondary node always ends at a leaf, and each secondary internal
node stores that leaf as its pointer.  Secondary leaves point at themselves
(kept implicit, no field).  The primary edges therefore decompose the tree
into disjoint paths, one per leaf, which is what makes every repair local:
a single leaf insertion or deletion disturbs at most one path, so at most a
handful of flag/pointer writes restore the invariants.

Each leaf also records the secondary node whose pointer targets it
(``plp_inv``), so the one pointer that must be rewired on a primary-leaf
deletion is found in O(1); any other child of the leaf's parent may take
over its path, and the first one at hand does, so every hook reads and
writes O(1) nodes whatever the fan-out.  The root needs no case of its own:
it is the secondary node at the top of its path, the leaf ending that path
names it in ``plp_inv``, and on an empty tree it points at itself.
"""

from __future__ import annotations


class PlpMaintenance:
    """Hook implementation installed on trees in ``"plp"`` mode.

    Each leaf event calls exactly one hook, and every pointer write of the
    scheme happens inside it.  The hook adds its own write count to the
    counters once, so that count is the event's count.
    """

    def __init__(self, tree):
        self.counters = tree.counters
        tree.root.plp = tree.root  # empty-tree sentinel; the root stays secondary

    # -- queries -----------------------------------------------------------

    def leaf_for(self, node):
        """A live descendant leaf of the internal node, in O(1).

        Secondary nodes answer from their stored pointer.  A primary
        internal node is never the first node of a primary path, but it
        branches, so some child is secondary and that child's pointer (or
        the child itself, if a leaf) answers.  At most one child is
        primary, so the first child or its sibling is a secondary one.  On
        an empty tree the root returns itself.
        """
        if not node.prim:
            return node.plp
        y = node.first
        if y.prim:
            y = y.sibling
        return y if y.first is None else y.plp

    # -- leaf events ---------------------------------------------------------

    def on_leaf_inserted(self, u, w, split_child):
        """Restore the invariants after attaching leaf u under w.

        ``split_child`` is the old child that was pushed below w when w was
        created by splitting an edge (None when w already existed).  A new
        node starts secondary and pointing nowhere, so its flags are decided
        here.
        """
        if split_child is None:
            if w.first is u:
                # w had no child, which only happens at the root: u starts
                # the root's primary path
                u.prim = True
                w.plp = u
                u.plp_inv = w
                n = 3
            else:
                # u opens a fresh path of its own
                u.prim = False
                n = 1
        elif split_child.prim:
            # w landed on a primary path; it joins that path and the new
            # leaf starts its own
            w.prim = True
            u.prim = False
            n = 2
        else:
            # w heads a new path ending at the new leaf; the old child keeps
            # its own
            w.prim = False
            u.prim = True
            w.plp = u
            u.plp_inv = w
            n = 4
        c = self.counters
        c.plp_field_writes_total += n
        if n > c.plp_field_writes_max_event:
            c.plp_field_writes_max_event = n

    def on_leaf_shortened(self, u, w):
        # an in-place relabel keeps tree shape and leaf identity, so every
        # pointer stays valid without a single write
        pass

    def on_leaf_deleting(self, u, w, merges):
        """Restore the invariants before leaf u detaches from w.

        Called while u is still attached; the caller afterwards removes u
        and, if ``merges``, merges w away, which needs no repair beyond the
        case analysis here.  The root is an ordinary secondary node that
        never merges: its primary leaf's ``plp_inv`` names it like any other
        path head.  The child y promoted in u's place, or left by a merge,
        is w's first child other than u: one sibling read at most.
        """
        y = w.first
        if y is u:
            y = u.sibling  # None when u is w's only child
        merges = merges and not w.prim  # a primary w's path goes on through y
        if u.prim:
            if merges:
                # w is secondary with two children: the path started at w,
                # and both w and u disappear together
                return
            z = u.plp_inv
            if y is None:
                # only the root loses its last child: it points at itself
                z.plp = z
                n = 1
            else:
                # the path through u survives above w (or above the merged
                # edge): reroute it through the promoted sibling y
                v = y if y.first is None else y.plp
                y.prim = True
                z.plp = v
                v.plp_inv = z
                n = 3
        elif merges:
            # w merges away and its path must restart at the surviving
            # child, which had been primary
            y.prim = False
            if y.first is None:
                y.plp_inv = None  # a secondary leaf points at itself
                n = 2
            else:
                v = w.plp
                y.plp = v
                v.plp_inv = y
                n = 3
        else:
            # a secondary leaf under a parent that survives (the root
            # always does) takes only its own path with it
            return
        c = self.counters
        c.plp_field_writes_total += n
        if n > c.plp_field_writes_max_event:
            c.plp_field_writes_max_event = n
