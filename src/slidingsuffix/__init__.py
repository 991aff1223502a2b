"""Suffix tree over a sliding byte window with O(1) leaf-pointer upkeep."""

from .tree import SlidingSuffixTree, Counters, InvariantError, MODES
from .matching import find_all
from .oracle import naive_suffix_tree, naive_occurrences, TreeSketch
from .verify import Lcg, VerifyConfig, run_verify, run_worstcase

__version__ = "0.1.0"

__all__ = [
    "SlidingSuffixTree",
    "Counters",
    "InvariantError",
    "MODES",
    "find_all",
    "naive_suffix_tree",
    "naive_occurrences",
    "TreeSketch",
    "Lcg",
    "VerifyConfig",
    "run_verify",
    "run_worstcase",
]
