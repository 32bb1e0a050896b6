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
over the CFG using :class:`~repro.util.bitvec.BitVector`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cstar.cfg import BasicBlock, build_cfg
from repro.cstar.flow import FlowCall, FlowNode, collect_aggregates
from repro.util.bitvec import BitVector


@dataclass
class TransferFunction:
    """gen/kill bit vectors of one basic block (composed over its calls)."""

    gen: BitVector
    kill: BitVector

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
        gen = BitVector(width)
        kill = BitVector(width)
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
        tf = TransferFunction(gen=BitVector(width), kill=BitVector(width))
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
            self.block_in[bb.id] = BitVector(width)
            self.block_out[bb.id] = BitVector(width)
        order = self.cfg.reverse_postorder()
        changed = True
        while changed:
            changed = False
            self.iterations += 1
            for bb in order:
                in_ = BitVector(width)
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

