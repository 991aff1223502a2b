"""Credit-based leaf-pointer maintenance (the classical baseline).

Each internal node stores ``lp``, the start index of some descendant leaf,
plus a one-bit credit.  New leaves issue a credit to their parent; a node
receiving a credit while already holding one passes the refreshed pointer
up, which can cascade to the root.  A node deleted while holding a credit
hands it to its parent so no information is lost.  The cascades keep every
stored pointer aimed at a live leaf, but a single leaf event can trigger a
chain of updates as long as the window depth; the pointer scheme in
`slidingsuffix.plp` exists to avoid exactly that.

`CreditNode` adds the two fields, ``cred`` and ``lp``, to the tree's
internal node.  A leaf needs neither, so the mode's leaves are plain
`LeafNode` objects.
"""

from __future__ import annotations

from .tree import InternalNode, InvariantError, LeafNode


class CreditNode(InternalNode):
    __slots__ = ("cred", "lp")

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
        self.cred = 0
        self.lp = 0           # start of a descendant leaf


class CreditMaintenance:
    """Hook implementation installed on trees in ``"credit"`` mode.

    A new internal node starts with ``lp = 0`` and no credit, so the
    `update` for the leaf attached under it in the same event stores that
    leaf's start.
    """

    node_class = CreditNode
    leaf_class = LeafNode

    def __init__(self, tree):
        self.tree = tree
        self.counters = tree.counters

    def leaf_for(self, node):
        leaf = self.tree.leaf_at(node.lp)
        if leaf is None:
            raise InvariantError(f"stored leaf start {node.lp} went stale")
        return leaf

    def update(self, v, k):
        """Record that leaf(k) lives below v, cascading while credits allow.

        Each handled node counts as one update call; the terminating call
        on a missing parent is free.  A leaf event makes at most one
        `update`, so its count is the event's count.
        """
        n = 0
        while v is not None:
            n += 1
            if k > v.lp:
                v.lp = k
            if v.cred == 0:
                v.cred = 1
                break
            v.cred = 0
            k = v.lp
            v = v.parent
        if n:
            c = self.counters
            c.credit_update_calls_total += n
            if n > c.credit_update_calls_max_event:
                c.credit_update_calls_max_event = n

    # -- leaf events -----------------------------------------------------------

    def on_leaf_inserted(self, u, w, split_child):
        self.update(w, u.spos)

    def on_leaf_shortened(self, u, w):
        # the shortened leaf counts as newly created and credits its parent
        self.update(w, u.spos)

    def on_leaf_deleting(self, u, w, merges):
        # a credit held by a w that merges away passes to its parent, so no
        # information is lost
        if merges and w.cred:
            self.update(w.parent, w.lp)
