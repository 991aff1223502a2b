"""Output checks that do not trust the program under test.

Expected answers come from the benchmark's own copy of the input and from
``bytes.find``; pointer writes are observed on the tree's fields while a
``plp`` hook runs, not read from the counters the hooks declare.
"""

from __future__ import annotations

from contextlib import contextmanager

PLP_BOUND = 4  # the paper's bound on pointer writes per leaf event
POINTER_FIELDS = ("prim", "plp", "plp_inv")
LEAF_HOOKS = ("on_leaf_inserted", "on_leaf_deleting", "on_leaf_shortened")


def scan(text: bytes, pattern: bytes) -> list:
    """Sorted 1-based starts of every (overlapping) occurrence."""
    out = []
    i = text.find(pattern)
    while i != -1:
        out.append(i + 1)
        i = text.find(pattern, i + 1)
    return out


def lrs_by_search(text: bytes) -> int:
    """Longest suffix of text that also occurs earlier in it.

    Whether the suffix of length k repeats is monotone in k (a repeating
    suffix's own suffixes repeat too), so binary search over k holds.
    """
    n = len(text)
    lo, hi = 0, max(n - 1, 0)  # lo always repeats; the answer is <= hi
    while lo < hi:
        k = (lo + hi + 1) // 2
        if text.find(text[n - k:]) < n - k:
            lo = k
        else:
            hi = k - 1
    return lo


def draw_pattern(rng, text: bytes, lrs: int, alphabet: bytes) -> bytes:
    """A window substring whose length is at, below or above the lrs.

    One pattern in four has one symbol replaced by another symbol of the
    alphabet, which usually makes it absent.
    """
    n = len(text)
    kind = rng.draw(3)
    if kind == 0:
        m = lrs
    elif kind == 1:
        m = 1 + rng.draw(lrs - 1) if lrs > 1 else 1
    else:
        m = lrs + 1 + rng.draw(16)
    m = max(1, min(m, n))
    i = rng.draw(n - m + 1)
    pattern = text[i:i + m]
    if rng.draw(4) == 0 and len(alphabet) > 1:
        j = rng.draw(m)
        sym = alphabet[rng.draw(len(alphabet))]
        if sym == pattern[j]:
            sym = alphabet[(alphabet.index(sym) + 1) % len(alphabet)]
        pattern = pattern[:j] + bytes((sym,)) + pattern[j + 1:]
    return pattern


def window_problems(tree, window: bytes, rng, alphabet: bytes, patterns: int) -> list:
    """Compare a full tree with the benchmark's own copy of its window."""
    bad = []
    if tree.window_bytes() != window:
        bad.append("window_bytes() differs from the input slice")
    lrs = lrs_by_search(window)
    if tree.lrs_len() != lrs:
        bad.append(f"lrs_len() = {tree.lrs_len()}, binary search says {lrs}")
    stats = tree.stats()
    live = stats["leaves_created"] - stats["leaves_deleted"]
    if live != len(window) - lrs:
        bad.append(f"live leaves {live} != |W| - lrs = {len(window) - lrs}")
    for _ in range(patterns):
        p = draw_pattern(rng, window, lrs, alphabet)
        got = tree.find_all(p)
        want = scan(window, p)
        if got != want:
            bad.append(f"find_all({p[:40]!r}) returned {len(got)} hits, scan finds {len(want)}")
    return bad


class _ObservedField:
    """Data descriptor standing in for a node slot while writes are observed."""

    def __init__(self, slot, name, observer):
        self.slot = slot
        self.name = name
        self.observer = observer

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        return self.slot.__get__(obj, cls)

    def __set__(self, obj, value):
        obs = self.observer
        if obs.in_hook:
            try:
                old = self.slot.__get__(obj)
            except AttributeError:
                old = obs  # unset slot: any value is a change
            if old is not value and old != value:
                if self.name == obs.drop_field:
                    obs.drop_countdown -= 1
                    if obs.drop_countdown == 0:
                        obs.dropped = True
                        return
                obs.event_writes += 1
        self.slot.__set__(obj, value)


class WriteObserver:
    """Counts the pointer-field writes that change a value during each
    ``plp`` leaf event, and optionally drops one of them (fault injection).

    Installed on the node and hook classes of ``tree``; every tree of those
    classes is observed until the context exits.
    """

    def __init__(self, tree, drop_field=None, drop_nth=1):
        self.drop_field = drop_field
        self.drop_countdown = drop_nth  # the write to drop_field to skip, 1-based
        self.dropped = False
        self.in_hook = False
        self.event_writes = 0
        self.events = 0
        self.max_event = 0
        leaf = next(n for n in tree.iter_nodes() if n.children is None) \
            if tree.root.children else None
        self.node_classes = {type(tree.root)} | ({type(leaf)} if leaf else set())
        self.hook_class = type(tree.maint)
        self.fields_observed = 0
        self._saved = []

    @contextmanager
    def installed(self):
        try:
            for cls in self.node_classes:
                for name in POINTER_FIELDS:
                    slot = cls.__dict__.get(name)
                    if slot is not None and hasattr(slot, "__set__"):
                        self._patch(cls, name, _ObservedField(slot, name, self))
            self.fields_observed = len(self._saved)
            for name in LEAF_HOOKS:
                hook = self.hook_class.__dict__.get(name)
                if hook is not None:
                    self._patch(self.hook_class, name, self._hook(hook))
            yield self
        finally:
            while self._saved:
                cls, name, orig = self._saved.pop()
                setattr(cls, name, orig)

    def _patch(self, cls, name, value):
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, value)

    def _hook(self, fn):
        def observed(*args, **kwargs):
            self.in_hook = True
            self.event_writes = 0
            try:
                return fn(*args, **kwargs)
            finally:
                self.in_hook = False
                self.events += 1
                if self.event_writes > self.max_event:
                    self.max_event = self.event_writes
        return observed
