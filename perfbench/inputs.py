"""Seeded inputs for the workloads, generated by the benchmark itself.

The generator is the benchmark's own copy of the 64-bit LCG the library
documents, so a change to the library cannot change the inputs:

    state' = (state * 6364136223846793005 + 1442695040888963407) mod 2^64
    draw(n) = (state' >> 33) mod n
"""

from __future__ import annotations

import hashlib
from pathlib import Path

MULT = 6364136223846793005
INC = 1442695040888963407
MASK = (1 << 64) - 1

CORPUS = Path(__file__).resolve().parent / "corpus" / "python-sources.txt"
CORPUS_SHA256 = "02c94725593f27b0ca397db304c3c3b54c10030f792f5cb58c4867e3caf1317c"


class Lcg:
    def __init__(self, seed: int):
        self.state = seed & MASK

    def draw(self, n: int) -> int:
        """Draw in [0, n)."""
        self.state = (self.state * MULT + INC) & MASK
        return (self.state >> 33) % n


class NoiseStream:
    """Uniform symbols from ``a`` .. ``a + sigma - 1``."""

    def __init__(self, seed: int, sigma: int):
        self.rng = Lcg(seed)
        self.sigma = sigma

    def take(self, n: int) -> bytes:
        rng = self.rng
        state = rng.state
        sigma = self.sigma
        out = bytearray(n)
        for i in range(n):
            state = (state * MULT + INC) & MASK
            out[i] = 97 + (state >> 33) % sigma
        rng.state = state
        return bytes(out)


class RunStream:
    """Alternating runs of ``a`` and ``b``, each 1 + draw(max_run) long.

    A run cut by a chunk boundary continues in the next chunk, so the
    stream does not depend on how it is chunked.
    """

    def __init__(self, seed: int, max_run: int):
        self.rng = Lcg(seed)
        self.max_run = max_run
        self.sym = 98  # the first run is of ``a``
        self.left = 0

    def take(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            if self.left == 0:
                self.sym ^= 3  # a <-> b
                self.left = 1 + self.rng.draw(self.max_run)
            k = min(self.left, n - len(out))
            out += bytes((self.sym,)) * k
            self.left -= k
        return bytes(out)


class CorpusStream:
    """The committed corpus, read cyclically from a seeded start offset.

    The corpus is longer than any window slid over it, so a window never
    holds the same corpus position twice.
    """

    def __init__(self, seed: int, window: int):
        text = load_corpus()
        if len(text) <= window:
            raise ValueError("corpus must be longer than the window")
        self.text = text
        self.pos = Lcg(seed).draw(len(text))

    def take(self, n: int) -> bytes:
        text = self.text
        out = bytearray()
        while len(out) < n:
            k = min(len(text) - self.pos, n - len(out))
            out += text[self.pos:self.pos + k]
            self.pos = (self.pos + k) % len(text)
        return bytes(out)


def load_corpus() -> bytes:
    data = CORPUS.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != CORPUS_SHA256:
        raise RuntimeError(f"corpus {CORPUS.name} has sha256 {digest}, "
                           f"expected {CORPUS_SHA256}")
    return data
