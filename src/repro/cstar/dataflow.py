"""The *reaching unstructured accesses* dataflow analysis (paper §4.3).

"Analogous to reaching definitions, we define the reaching unstructured
accesses property, which is true whenever cached copies of an Aggregate
element may exist on remote processors.  The compiler uses a forward-flow,
any-path data-flow analysis ... using a framework identical to the
reaching-definition problem."

Domain: one bit per Aggregate.  Transfer function of a parallel call, per
aggregate (the paper's three rules):

1. **Owner write accesses kill** reaching unstructured accesses (remote
   copies are invalidated by the write-invalidate protocol);
2. **Unstructured writes kill then generate** (the write invalidates old
   copies but leaves a new cached copy at the writer);
3. **Unstructured reads generate** and kill nothing (multiple readers).

Join is set union (any-path); the fixpoint iterates in reverse postorder
over the CFG using :class:`~repro.util.bitvec.BitVector` — or, for wide
lattices, its packed word-array twin :class:`PackedBitVector` at the end of
this module (see :func:`new_vector`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.cstar.cfg import CFG, BasicBlock, build_cfg
from repro.cstar.flow import FlowCall, FlowNode, collect_aggregates
from repro.util.bitvec import BitVector

#: programs with at least this many aggregates get the packed word-array
#: vector (O(width/64) whole-vector ops instead of big-int shifting);
#: below it the single-int BitVector wins on constant factors
PACKED_WIDTH_THRESHOLD = 256


def new_vector(width: int):
    """Pick the bit-vector representation for one analysis instance.

    All vectors of one :class:`ReachingUnstructured` share a width, so the
    choice is consistent per analysis — the two classes never mix (both
    reject foreign operands).
    """
    if width >= PACKED_WIDTH_THRESHOLD:
        return PackedBitVector(width)
    return BitVector(width)


@dataclass
class TransferFunction:
    """gen/kill bit vectors of one basic block (composed over its calls)."""

    gen: "BitVector | PackedBitVector"
    kill: "BitVector | PackedBitVector"

    def apply(self, in_):
        return (in_ - self.kill) | self.gen


class ReachingUnstructured:
    """Computes, for each call site, which aggregates may have remote cached
    copies when control reaches it."""

    def __init__(self, root: FlowNode):
        self.root = root
        self.aggregates = collect_aggregates(root)
        self.index = {name: i for i, name in enumerate(self.aggregates)}
        self.cfg, self.call_block = build_cfg(root)
        self.block_in: dict = {}
        self.block_out: dict = {}
        #: IN set *at each call site* (before the call executes)
        self.call_in: dict = {}
        self.iterations = 0
        self._solve()

    # -- transfer functions -----------------------------------------------------

    def _call_transfer(self, call: FlowCall) -> TransferFunction:
        width = len(self.aggregates)
        gen = new_vector(width)
        kill = new_vector(width)
        s = call.summary
        for agg in s.owner_writes():
            kill.set(self.index[agg])  # rule 1
        for agg in s.unstructured_writes():
            kill.set(self.index[agg])  # rule 2 (kill ...)
            gen.set(self.index[agg])   # ... then gen
        for agg in s.unstructured_reads():
            gen.set(self.index[agg])   # rule 3
        return TransferFunction(gen=gen, kill=kill)

    def _block_transfer(self, bb: BasicBlock) -> TransferFunction:
        """Compose call transfer functions left to right."""
        width = len(self.aggregates)
        tf = TransferFunction(gen=new_vector(width), kill=new_vector(width))
        for call in bb.calls:
            ct = self._call_transfer(call)
            # (x - K1 | G1) - K2 | G2  ==  x - (K1|K2) | ((G1 - K2) | G2)
            tf.kill |= ct.kill
            tf.gen = (tf.gen - ct.kill) | ct.gen
        return tf

    # -- fixpoint -----------------------------------------------------------------

    def _solve(self) -> None:
        width = len(self.aggregates)
        tfs = {bb.id: self._block_transfer(bb) for bb in self.cfg.blocks}
        for bb in self.cfg.blocks:
            self.block_in[bb.id] = new_vector(width)
            self.block_out[bb.id] = new_vector(width)
        order = self.cfg.reverse_postorder()
        changed = True
        while changed:
            changed = False
            self.iterations += 1
            for bb in order:
                in_ = new_vector(width)
                for p in bb.preds:
                    in_ |= self.block_out[p.id]
                out = tfs[bb.id].apply(in_)
                if in_ != self.block_in[bb.id] or out != self.block_out[bb.id]:
                    changed = True
                self.block_in[bb.id] = in_
                self.block_out[bb.id] = out
        # per-call IN sets: compose transfers of earlier calls in the block
        for bb in self.cfg.blocks:
            cur = self.block_in[bb.id]
            for call in bb.calls:
                self.call_in[call.site_id] = cur
                cur = self._call_transfer(call).apply(cur)

    # -- queries --------------------------------------------------------------------

    def reaches(self, call: FlowCall, aggregate: str) -> bool:
        """May remote cached copies of ``aggregate`` exist at this call?"""
        idx = self.index.get(aggregate)
        if idx is None:
            return False
        return self.call_in[call.site_id].test(idx)

    def reaching_set(self, call: FlowCall) -> set[str]:
        return {
            self.aggregates[i] for i in self.call_in[call.site_id].indices()
        }


# ---------------------------------------------------------------------------
# PackedBitVector
# ---------------------------------------------------------------------------

_WORD = 64


class PackedBitVector:
    """A :class:`~repro.util.bitvec.BitVector` drop-in over uint64 words.

    Same indexing, operator, and error semantics (width mismatch raises
    ``ValueError``, out-of-range bit access raises ``IndexError``); widths
    in the thousands cost O(width/64) per whole-vector op without big-int
    shifting.  Operations never mix with the reference class — data-flow
    lattices are built from one representation end to end.  Differentially
    property-tested against ``BitVector`` in
    ``tests/fastpath/test_properties.py``.
    """

    __slots__ = ("width", "_words")

    def __init__(self, width: int, bits: int = 0):
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        mask = (1 << width) - 1
        if bits & ~mask:
            raise ValueError("initial bits exceed width")
        self.width = width
        n_words = (width + _WORD - 1) // _WORD
        words = np.zeros(n_words, dtype=np.uint64)
        i = 0
        while bits:
            words[i] = bits & 0xFFFFFFFFFFFFFFFF
            bits >>= _WORD
            i += 1
        self._words = words

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_indices(cls, width: int, indices: Iterable[int]) -> "PackedBitVector":
        v = cls(width)
        for i in indices:
            v.set(i)
        return v

    @classmethod
    def full(cls, width: int) -> "PackedBitVector":
        v = cls(width)
        v._words[:] = np.uint64(0xFFFFFFFFFFFFFFFF)
        tail = width % _WORD
        if tail and len(v._words):
            v._words[-1] = np.uint64((1 << tail) - 1)
        return v

    def copy(self) -> "PackedBitVector":
        dup = PackedBitVector(self.width)
        dup._words[:] = self._words
        return dup

    # -- single-bit operations ------------------------------------------------

    def _check(self, i: int) -> None:
        if not (0 <= i < self.width):
            raise IndexError(f"bit {i} out of range for width {self.width}")

    def set(self, i: int) -> None:
        self._check(i)
        self._words[i // _WORD] |= np.uint64(1 << (i % _WORD))

    def clear(self, i: int) -> None:
        self._check(i)
        self._words[i // _WORD] &= np.uint64(~(1 << (i % _WORD)) & 0xFFFFFFFFFFFFFFFF)

    def test(self, i: int) -> bool:
        self._check(i)
        return bool((int(self._words[i // _WORD]) >> (i % _WORD)) & 1)

    __getitem__ = test

    # -- whole-vector operations ----------------------------------------------

    def _check_width(self, other: "PackedBitVector") -> None:
        if not isinstance(other, PackedBitVector):
            raise TypeError(
                f"expected PackedBitVector, got {type(other).__name__}"
            )
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")

    def _make(self, words) -> "PackedBitVector":
        dup = PackedBitVector(self.width)
        dup._words = words
        return dup

    def __or__(self, other: "PackedBitVector") -> "PackedBitVector":
        self._check_width(other)
        return self._make(self._words | other._words)

    def __and__(self, other: "PackedBitVector") -> "PackedBitVector":
        self._check_width(other)
        return self._make(self._words & other._words)

    def __sub__(self, other: "PackedBitVector") -> "PackedBitVector":
        """Set difference: bits in self and not in other."""
        self._check_width(other)
        return self._make(self._words & ~other._words)

    def __ior__(self, other: "PackedBitVector") -> "PackedBitVector":
        self._check_width(other)
        self._words |= other._words
        return self

    def __iand__(self, other: "PackedBitVector") -> "PackedBitVector":
        self._check_width(other)
        self._words &= other._words
        return self

    def __isub__(self, other: "PackedBitVector") -> "PackedBitVector":
        self._check_width(other)
        self._words &= ~other._words
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedBitVector):
            return NotImplemented
        return self.width == other.width and bool(
            np.array_equal(self._words, other._words)
        )

    def __hash__(self) -> int:
        return hash((self.width, self._words.tobytes()))

    def __bool__(self) -> bool:
        return bool(self._words.any())

    def __len__(self) -> int:
        return self.width

    def __iter__(self) -> Iterator[bool]:
        for i in range(self.width):
            yield bool((int(self._words[i // _WORD]) >> (i % _WORD)) & 1)

    def indices(self) -> Iterator[int]:
        """Yield the indices of set bits, ascending."""
        for w, word in enumerate(self._words):
            bits = int(word)
            base = w * _WORD
            while bits:
                low = bits & -bits
                yield base + low.bit_length() - 1
                bits ^= low

    def count(self) -> int:
        return int(np.bitwise_count(self._words).sum())

    def is_subset(self, other: "PackedBitVector") -> bool:
        self._check_width(other)
        return not bool((self._words & ~other._words).any())

    def __repr__(self) -> str:
        bits = 0
        for w in range(len(self._words) - 1, -1, -1):
            bits = (bits << _WORD) | int(self._words[w])
        return f"PackedBitVector({self.width}, 0b{bits:0{max(self.width, 1)}b})"
