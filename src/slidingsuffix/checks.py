"""Invariant sweeps: structural, pointer, and differential checks.

`audit` walks the tree once, the spare lists and leaf slots included, and
returns its findings grouped by family; every family empty means the tree
is sound.  Findings are human-readable strings, so callers can aggregate
across events and report the first failure with context.  These checks
are deliberately written against the window text and the brute-force
oracle, not against the incremental machinery they are auditing, and
each leaf pointer is checked where it derives an edge, node by node.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oracle
from .matching import find_all_counted
from .oracle import TreeSketch
from .tree import InvariantError, LeafNode, as_pattern

# largest window the oracle is built for by default: it sorts copies of
# every suffix, O(W^2) bytes (about 9 MB at 4096, about 2 GB at 65536)
ORACLE_MAX_WINDOW = 4096

# a node has at most one child per byte value
MAX_CHILDREN = 256

def _name(node) -> str:
    """A leaf by its start, an internal node by depth and key: names that
    replaying the same events reproduces exactly."""
    if isinstance(node, LeafNode):
        return f"leaf {node.spos}"
    if node.depth == 0:
        return "root"
    return f"node at depth {node.depth} keyed {node.key}"


def _child_list(node, structure: list) -> list:
    """node's children in sibling order, each once.  A list that holds a
    key twice, or comes back to a child it listed and so never ends, is a
    structure finding: a sound list holds distinct keys and so ends within
    `MAX_CHILDREN` steps."""
    kids = []
    seen = 0  # bit k is set once a child keyed k is listed
    child = node.first
    while child is not None:
        bit = 1 << child.key
        if seen & bit:
            if child in kids:  # identity: nodes define no equality
                structure.append(f"sibling list of {_name(node)} does not end within "
                                 f"{MAX_CHILDREN} steps")
                break
            structure.append(f"{_name(node)} has two children keyed {child.key}")
        seen |= bit
        kids.append(child)
        child = child.sibling
    return kids


@dataclass
class Audit:
    """Findings of one `audit`, one list per family.

    * ``structure``: sibling lists, child indexes, and parent, key,
      depth, leaf-slot and suffix-link consistency, the bounds on the
      lrs length, the active point (``tree.below``, ``tree.proj``), whose
      locus must spell the window's last lrs symbols, and the spare lists:
      each spare listed once and unlinked, and no leaf slot holding one;
    * ``topology``: the tree read back through its edge labels (``sketch``)
      against the oracle, and the lrs length against the oracle's;
    * ``freshness``: every edge's derived index pair lies inside the window
      together with the parent's string in front of it;
    * ``pointers``: each internal edge's deriving leaf lies below it, plp
      path heads and their inverse pointers agree, one child per node is
      primary, and credit starts name live leaves;
    * ``counters``: the per-event write bound and the linear-churn bound.
    """

    sketch: TreeSketch
    structure: list
    topology: list
    freshness: list
    pointers: list
    counters: list

    def violations(self) -> list:
        """Every finding, family by family."""
        return (self.structure + self.topology + self.freshness
                + self.pointers + self.counters)


def audit(tree, expected: TreeSketch = None) -> Audit:
    """Check every invariant of the live tree in one depth-first walk.

    ``expected`` is the oracle's sketch of the window.  When not given it
    is computed here for windows of at most `ORACLE_MAX_WINDOW` symbols;
    above that the topology family is left unchecked (empty), and every
    other family still runs.  Each edge label is derived once through
    `tree.edge_label` and read from the mirrored ring: an internal edge
    as one slice, for its node's string, a leaf edge as the one symbol
    the key check needs, so a leaf costs O(1) however long its label.  A
    label that cannot be derived or lies outside the window is a
    freshness finding; the walk still descends below it, with the strings
    there left unknown, so the pointer checks cover the whole tree.  A
    spare the live tree still reaches is found through the link that
    reaches it: a broken parent link, an index that does not list its
    node's children, a dead suffix-link target, or a head's pointer to a
    leaf that no slot holds.

    Pointers are checked locally, with no walk bookkeeping.  (1) Each
    internal edge's ``<lo, hi>`` comes from the leaf ``maint.leaf_for``
    names for the child (credit: ``lp``; plp: the head's pointer, or a
    secondary child's); at ``k = lo - depth`` the window must spell the
    parent's string, then the child's key (through a memoryview of the
    ring), so that leaf lies below the child.  (2) In plp mode each path
    head v, a node with children holding a pointer, points at a live leaf
    (by its slot) whose ``plp_inv`` is v.  A node is primary when it holds
    no pointer, a leaf when it holds an inverse pointer; each node with
    children has exactly one primary child, and the root stays secondary.

    So each head names its own path end.  Heads and primary leaves are
    equally many, one path each, and the back pointers make the map from
    heads one to one, hence onto.  If a head v named a primary leaf not
    its own path end, by (1) the leaf would lie below v and end the path
    of a head w strictly below v, which cannot name it too: w is wrong as
    well, and so on down an endless chain of ever-deeper heads, which a
    finite tree cannot have.  Credit's root start need only be live.
    """
    tail = tree.tail
    head = tree.head
    wlen = head - tail + 1
    if expected is None and wlen <= ORACLE_MAX_WINDOW:
        expected = oracle.naive_suffix_tree(tree.window_bytes())
    edge_label = tree.edge_label
    leaf_at = tree.leaf_at
    buf = tree.buf
    ring = memoryview(buf)
    cap = tree.capacity
    slots = tree._leaf_slots
    plp = tree.mode == "plp"
    root = tree.root
    structure, freshness, pointers = [], [], []
    strings = {}          # internal node -> its string, None if unknown
    leaf_starts = []
    if plp:
        if root.plp is None:
            pointers.append("root must stay secondary")
        if root.first is None and root.plp is not root:
            pointers.append("empty root must point at itself")
    # entries: (internal node, its string); leaves are checked where their
    # parent is, without a stack entry
    stack = [(root, b"")]
    while stack:
        node, s = stack.pop()
        children = _child_list(node, structure)
        strings[node] = s
        depth = node.depth
        index = node.index
        if index is not None:
            if list(index.items()) != [(child.key, child) for child in children]:
                structure.append(f"the index of {_name(node)} does not list its children")
        if node is not root and len(children) < 2:
            structure.append(f"non-root {_name(node)} has {len(children)} children")
        if not children:
            pass
        elif plp:
            leaf = node.plp
            # a path head's leaf is live (its slot holds it) and names it back
            if leaf is not None and (slots[(getattr(leaf, "spos", 0) - 1) % cap] is not leaf
                                     or leaf.plp_inv is not node):
                pointers.append(f"pointer of {_name(node)} names no live leaf that "
                                f"names it back")
        elif node.lp < tail:
            pointers.append(f"{_name(node)} stores stale leaf start {node.lp} < {tail}")
        elif leaf_at(node.lp) is None:
            pointers.append(f"{_name(node)} stores start {node.lp} of no live leaf")
        prim_children = 0
        for child in children:
            if child.parent is not node:
                structure.append(f"parent link broken at {_name(child)}")
            if plp and (child.plp is None if child.first is not None
                        else child.plp_inv is not None):
                prim_children += 1
            label = None
            try:
                lo, hi = edge_label(child)
            except (AttributeError, InvariantError):
                # the pointer the pair is derived from is broken
                freshness.append(f"no live leaf derives the edge label into {_name(child)}")
            else:
                if lo > hi:
                    freshness.append(f"empty edge label <{lo},{hi}> into {_name(child)}")
                elif lo < tail or hi > head:
                    freshness.append(f"edge label <{lo},{hi}> into {_name(child)} not "
                                     f"fresh for window [{tail}..{head}]")
                else:
                    k = lo - depth  # where the deriving leaf's suffix starts
                    if k < tail:
                        freshness.append(f"edge label <{lo},{hi}> below depth {depth} not "
                                         f"strongly fresh in [{tail}..{head}]")
                    a = (lo - 1) % cap
                    if child.first is None:
                        key = buf[a]
                    else:
                        label = buf[a:a + hi - lo + 1]
                        key = label[0]
                        # the deriving leaf lies below child: its suffix
                        # spells the parent's string, then child's key
                        b = (k - 1) % cap
                        if key != child.key or (depth and k >= tail and s is not None
                                                and ring[b:b + depth] != s):
                            pointers.append(f"the leaf deriving <{lo},{hi}> does not lie "
                                            f"below {_name(child)}")
                    if key != child.key:
                        structure.append(f"edge key {child.key} does not match label "
                                         f"start {key}")
            if child.first is not None:
                if label is None or s is None:
                    stack.append((child, None))
                else:
                    if child.depth != depth + len(label):
                        structure.append(f"depth inconsistency at {_name(child)}")
                    stack.append((child, s + label))
                continue
            spos = child.spos
            leaf_starts.append(spos - tail + 1)
            if not tail <= spos <= head:
                structure.append(f"leaf start {spos} outside window")
            if slots[(spos - 1) % cap] is not child:
                structure.append(f"leaf slot lookup broken for spos {spos}")
        if plp and children and prim_children != 1:
            pointers.append(f"{_name(node)} has {prim_children} primary children")
    taken = cap - slots.count(None)
    if taken != len(leaf_starts):
        structure.append(f"{taken} leaf slots are taken for {len(leaf_starts)} live leaves")
    spares = tree._spare_leaves + tree._spare_nodes
    if len(set(spares)) != len(spares):
        structure.append("a spare is listed twice")
    for spare in spares:
        if (spare.parent is not None or spare.sibling is not None
                or spare.first is not None or getattr(spare, "index", None) is not None):
            structure.append(f"spare {_name(spare)} is still linked")
    for node, s in strings.items():
        if node is root:
            continue
        link = node.suffix_link
        if link is None:
            structure.append(f"{_name(node)} lacks a suffix link")
        elif link not in strings:
            structure.append(f"suffix link of {_name(node)} targets a dead node")
        elif s is not None and strings[link] is not None and strings[link] != s[1:]:
            structure.append(f"suffix link of {_name(node)} spells the wrong string")
    # the active point: the locus is below itself when proj is 0, else proj
    # symbols down the edge into below, counted from below's parent
    below, proj = tree.below, tree.proj
    ins = below if proj == 0 else getattr(below, "parent", None)
    lrs = ins.depth + proj if ins in strings else None
    if lrs is not None and not 0 <= lrs <= max(wlen - 1, 0):
        structure.append(f"lrs length {lrs} impossible for window of {wlen}")
    elif lrs is None or not _spells_window_suffix(tree, strings, below, proj, lrs):
        name = "None" if below is None else _name(below)
        structure.append(f"the active point ({name}, {proj}) does not spell a suffix "
                         f"of the window")

    got = TreeSketch(tuple(sorted(s for s in strings.values() if s is not None)),
                     tuple(sorted(leaf_starts)))
    topology = []
    if expected is not None:
        if got.internal_strings != expected.internal_strings:
            topology.append(f"internal nodes {got.internal_strings!r} != oracle "
                            f"{expected.internal_strings!r}")
        if got.leaf_starts != expected.leaf_starts:
            topology.append(f"leaf starts {got.leaf_starts!r} != oracle "
                            f"{expected.leaf_starts!r}")
        want_lrs = wlen - len(expected.leaf_starts)
        if lrs is not None and lrs != want_lrs:
            topology.append(f"lrs length {lrs} != oracle {want_lrs}")
    return Audit(got, structure, topology, freshness, pointers, counter_violations(tree))


def _spells_window_suffix(tree, strings, below, proj, lrs) -> bool:
    """Whether the locus proj symbols down the edge into below (below itself
    when proj is 0) spells the window's last lrs symbols: below's path
    starts with them and, when proj > 0, is longer.  A leaf's path is a
    memoryview of the ring from its start, which copies nothing; a node's
    is its string in ``strings`` (None when unknown)."""
    ring, cap, head = memoryview(tree.buf), tree.capacity, tree.head
    if isinstance(below, LeafNode):
        path, length = ring[(below.spos - 1) % cap:], head - below.spos + 1
    elif below in strings:
        path, length = strings[below], below.depth
        if path is None:
            return True
    else:
        return False
    if proj and length <= lrs:
        return False
    a = (head - lrs) % cap  # the ring is mirrored, so the slice needs no wrap
    return path[:lrs] == ring[a:a + lrs]


def counter_violations(tree) -> list:
    """Per-event write bound (plp) and the linear-churn bound."""
    bad = []
    c = tree.counters
    if tree.mode == "plp" and c.plp_field_writes_max_event > 4:
        bad.append(f"a leaf event performed {c.plp_field_writes_max_event} pointer writes")
    pushed = tree.head
    if c.churn() > 4 * pushed:
        bad.append(f"node churn {c.churn()} exceeds 4x pushed symbols ({pushed})")
    return bad


def matching_violations(tree, patterns, window_bytes=None) -> list:
    """Differential check of find_all against a direct scan."""
    bad = []
    text = tree.window_bytes() if window_bytes is None else window_bytes
    for p in patterns:
        p = as_pattern(p)
        got, edges = find_all_counted(tree, p)
        want = oracle.naive_occurrences(text, p)
        if got != want:
            bad.append(f"find_all({p!r}) = {got} but scan says {want}")
        occ = len(want)
        if edges > len(p) + 2 * occ + 2:
            bad.append(f"find_all({p!r}) touched {edges} edges for {occ} hits")
    return bad
