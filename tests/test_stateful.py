"""A plp tree and a credit tree driven through the same random events.

Hypothesis picks the events (append, delete_front, slide) and the queries,
audits both trees against the oracle after every step (the audit also
checks that the objects each tree keeps for reuse stay out of its live
tree), and shrinks a failing run to a short event sequence.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from slidingsuffix import MODES, SlidingSuffixTree, checks
from slidingsuffix.oracle import naive_occurrences, naive_suffix_tree

CAPACITY = 9
ALPHABET = b"abc"
symbols = st.sampled_from(ALPHABET)


class SlidingTrees(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.trees = [SlidingSuffixTree(CAPACITY, mode=mode) for mode in MODES]
        self.window = b""

    @precondition(lambda self: len(self.window) < CAPACITY)
    @rule(sym=symbols)
    def append(self, sym):
        for tree in self.trees:
            tree.append(sym)
        self.window += bytes([sym])

    @precondition(lambda self: self.window)
    @rule()
    def delete_front(self):
        for tree in self.trees:
            tree.delete_front()
        self.window = self.window[1:]

    @rule(sym=symbols)
    def slide(self, sym):
        for tree in self.trees:
            tree.slide(sym)
        self.window = (self.window + bytes([sym]))[-CAPACITY:]

    @rule(data=st.data())
    def query(self, data):
        w = self.window
        if w and data.draw(st.booleans(), label="from window"):
            i = data.draw(st.integers(0, len(w) - 1), label="start")
            j = data.draw(st.integers(i + 1, len(w)), label="end")
            pattern = w[i:j]
        else:
            pattern = data.draw(st.binary(min_size=1, max_size=4), label="pattern")
        expected = naive_occurrences(w, pattern)
        for tree in self.trees:
            assert tree.find_all(pattern) == expected, (tree.mode, w, pattern)

    @invariant()
    def trees_match_the_oracle(self):
        sketch = naive_suffix_tree(self.window)
        for tree in self.trees:
            assert checks.audit(tree, sketch).violations() == [], tree.mode


SlidingTrees.TestCase.settings = settings(
    max_examples=60, stateful_step_count=60, deadline=None)
test_sliding_trees = SlidingTrees.TestCase
