"""The C** data-parallel runtime: the value pass, recorded machine-free.

Aggregates (paper §4.1) are global collections that look like arrays of
values.  The runtime:

* lays each aggregate out in a shared address space, with page homes
  aligned to the computation distribution (so an invocation's "own" element
  is home-local — the property the compiler's Home/Non-Home classification
  relies on);
* executes parallel calls as the *value pass* of DESIGN.md §5.1: one
  invocation per element under copy-in (phase-snapshot) semantics, capturing
  each processor's shared accesses and compute charges as typed columns —
  element-granular, so one recording serves every block size, protocol and
  cost table (:mod:`repro.cstar.recording` replays it on a machine);
* logs the compiler-placed directives (``begin_group`` / ``end_group``)
  around phase groups.

Invocation bodies receive an :class:`ElementContext` and use ``ctx.read`` /
``ctx.write`` for aggregate elements and ``ctx.charge`` for compute cost.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.tempest.addrspace import AddressSpace
from repro.util.config import MachineConfig
from repro.util.errors import ConfigError, SimulationError

# --------------------------------------------------------------------------- #
# computation distributions (paper §4.1: block, row-block, tiled)
# --------------------------------------------------------------------------- #


class Distribution:
    """Maps an element index to the processor that owns it."""

    def owner(self, idx: tuple[int, ...]) -> int:
        raise NotImplementedError

    def validate(self, shape: tuple[int, ...]) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class Block1D(Distribution):
    """Contiguous chunks of a 1-D aggregate."""

    n: int  # elements
    nodes: int

    def owner(self, idx: tuple[int, ...]) -> int:
        per = -(-self.n // self.nodes)
        return min(idx[0] // per, self.nodes - 1)

    def validate(self, shape: tuple[int, ...]) -> None:
        if len(shape) != 1 or shape[0] != self.n:
            raise ConfigError(f"Block1D({self.n}) does not match shape {shape}")


@dataclass(frozen=True)
class RowBlock2D(Distribution):
    """Contiguous row bands of a 2-D aggregate."""

    rows: int
    cols: int
    nodes: int

    def owner(self, idx: tuple[int, ...]) -> int:
        per = -(-self.rows // self.nodes)
        return min(idx[0] // per, self.nodes - 1)

    def validate(self, shape: tuple[int, ...]) -> None:
        if tuple(shape) != (self.rows, self.cols):
            raise ConfigError(f"RowBlock2D does not match shape {shape}")


@dataclass(frozen=True)
class Tiled2D(Distribution):
    """2-D tiles; the node grid is as square as the node count allows."""

    rows: int
    cols: int
    nodes: int

    def _grid(self) -> tuple[int, int]:
        r = int(np.sqrt(self.nodes))
        while self.nodes % r:
            r -= 1
        return r, self.nodes // r

    def owner(self, idx: tuple[int, ...]) -> int:
        gr, gc = self._grid()
        tr = min(idx[0] * gr // max(self.rows, 1), gr - 1)
        tc = min(idx[1] * gc // max(self.cols, 1), gc - 1)
        return tr * gc + tc

    def validate(self, shape: tuple[int, ...]) -> None:
        if tuple(shape) != (self.rows, self.cols):
            raise ConfigError(f"Tiled2D does not match shape {shape}")


# --------------------------------------------------------------------------- #
# aggregates
# --------------------------------------------------------------------------- #

_DTYPES = {"float": np.float64, "int": np.int64}
ELEMENT_SIZE = 8  # bytes, both element types

#: a captured access is one integer: ``flat << 16 | aggregate << 1 | write``
_FLAT_SHIFT = 16
_MAX_AGGREGATES = 1 << (_FLAT_SHIFT - 1)


class Aggregate:
    """One C** aggregate: data + layout + distribution."""

    def __init__(
        self,
        addr_space: AddressSpace,
        index: int,
        name: str,
        shape: tuple[int, ...],
        dtype: str,
        dist: Distribution,
        home: str = "owner",
        pad: int = 1,
    ):
        if dtype not in _DTYPES:
            raise ConfigError(f"aggregate dtype must be float or int, got {dtype!r}")
        if pad < 1:
            raise ConfigError(f"pad must be >= 1, got {pad}")
        if home not in ("owner", "round_robin"):
            raise ConfigError(f"home policy must be 'owner' or 'round_robin', got {home!r}")
        self.name = name
        self.shape = tuple(shape)
        self.dtype = dtype
        self.dist = dist
        dist.validate(self.shape)
        #: element values; always mutated in place (the value pass keeps flat
        #: and snapshot views of this array)
        self.data = np.zeros(self.shape, dtype=_DTYPES[dtype])
        #: bytes per element; C** aggregate elements are class instances, so
        #: an element may occupy more than one 8-byte value (pad models the
        #: object's other members)
        self.stride_bytes = ELEMENT_SIZE * pad
        nelems = int(np.prod(self.shape))
        page = addr_space.config.page_size

        if home == "owner":
            # Home pages where their first element's owner lives: aligns home
            # placement with the computation distribution.
            def home_policy(page_idx: int, _self=self) -> int:
                flat = min(page_idx * (page // _self.stride_bytes), nelems - 1)
                return _self.dist.owner(_self._unflatten(flat))

        else:
            # Stache's default policy (round-robin pages): what a program
            # "optimized for transparent shared memory" gets, with no
            # owner-alignment (the Splash baseline in Figure 7).
            def home_policy(page_idx: int, _n=addr_space.config.n_nodes) -> int:
                return page_idx % _n

        self.region = addr_space.allocate(name, nelems * self.stride_bytes, home_policy)
        # value-pass state: what reads observe this phase, packed read/write
        # op codes, and the element -> (position, owner) memo of par_call
        self._view = self.data
        self._rcode = index << 1
        self._wcode = self._rcode | 1
        self._owners: dict[tuple, tuple[tuple[int, ...], int]] = {}

    # -- layout ----------------------------------------------------------------

    def _unflatten(self, flat: int) -> tuple[int, ...]:
        return tuple(int(v) for v in np.unravel_index(flat, self.shape))

    def flatten(self, idx: tuple[int, ...]) -> int:
        """Row-major element number of ``idx``, bounds- and rank-checked."""
        shape = self.shape
        if len(idx) != len(shape):
            raise SimulationError(
                f"{self.name}: {len(shape)}-D aggregate indexed with {idx}"
            )
        if len(shape) == 2:
            i, j = idx
            if 0 <= i < shape[0] and 0 <= j < shape[1]:
                return i * shape[1] + j
        elif len(shape) == 1:
            if 0 <= idx[0] < shape[0]:
                return idx[0]
        elif all(0 <= v < dim for v, dim in zip(idx, shape)):
            return int(np.ravel_multi_index(idx, shape))
        raise SimulationError(f"{self.name}: index {idx} out of bounds {shape}")

    def addr(self, idx: tuple[int, ...]) -> int:
        return self.region.base + self.flatten(idx) * self.stride_bytes

    def owner(self, idx: tuple[int, ...]) -> int:
        return self.dist.owner(idx)

    def elements(self):
        """All element indices, row-major."""
        return np.ndindex(*self.shape)

    def __repr__(self) -> str:
        return f"<Aggregate {self.name}{list(self.shape)} {self.dtype}>"


# --------------------------------------------------------------------------- #
# element context (what a parallel-function invocation sees)
# --------------------------------------------------------------------------- #


class ElementContext:
    """Per-invocation view: position pseudo-variables, reads/writes, cost.

    Reads observe the phase-entry snapshot (C**'s copy-in semantics make
    parallel execution nearly deterministic); writes are buffered and applied
    at phase end.  Every access appends one packed integer to the owning
    processor's stream; a compute charge appends ``~k``, the (negative)
    marker of the processor's ``k``-th distinct charge.
    """

    __slots__ = ("pos", "node", "_ops", "_charges", "_writes", "_pending")

    def __init__(self, pos: tuple[int, ...], node: int, ops: array,
                 charges: dict[float, int], writes: list):
        self.pos = pos
        self.node = node
        self._ops = ops
        self._charges = charges
        self._writes = writes
        self._pending = 0.0

    def charge(self, cycles: float) -> None:
        """Model computation cost (cycles at full speed)."""
        if cycles > 0:
            self._pending += cycles

    def _flush_compute(self) -> None:
        if self._pending > 0:
            ids = self._charges
            self._ops.append(~ids.setdefault(self._pending, len(ids)))
            self._pending = 0.0

    def read(self, agg: Aggregate, idx: tuple[int, ...]) -> float:
        if self._pending > 0:
            self._flush_compute()
        self._ops.append(agg.flatten(idx) << _FLAT_SHIFT | agg._rcode)
        return agg._view[idx]

    def write(self, agg: Aggregate, idx: tuple[int, ...], value) -> None:
        if self._pending > 0:
            self._flush_compute()
        flat = agg.flatten(idx)
        self._ops.append(flat << _FLAT_SHIFT | agg._wcode)
        self._writes.append((agg, flat, value))

    def _row(self, agg: Aggregate, row: int, k: int) -> int:
        """Flat index of ``agg[row, 0]`` after one check covering fields 0..k-1."""
        shape = agg.shape
        if len(shape) != 2 or not (0 <= row < shape[0] and 0 <= k <= shape[1]):
            raise SimulationError(
                f"{agg.name}: fields 0..{k - 1} of row {row} out of bounds {shape}"
            )
        if self._pending > 0:
            self._flush_compute()
        return row * shape[1]

    def read_row(self, agg: Aggregate, row: int, k: int) -> tuple:
        """Read fields 0..k-1 of a row: k reads, one bounds check, one fetch."""
        first = self._row(agg, row, k) << _FLAT_SHIFT | agg._rcode
        self._ops.extend(range(first, first + (k << _FLAT_SHIFT), 1 << _FLAT_SHIFT))
        return tuple(agg._view[row, :k].tolist())

    def write_row(self, agg: Aggregate, row: int, values) -> None:
        """Write ``values`` to fields 0.. of a row (as floats)."""
        flat = self._row(agg, row, len(values))
        for v in values:
            self._ops.append(flat << _FLAT_SHIFT | agg._wcode)
            self._writes.append((agg, flat, float(v)))
            flat += 1


# --------------------------------------------------------------------------- #
# the recorded form of one phase
# --------------------------------------------------------------------------- #

_KIND = np.array(["r", "w"], dtype=object)


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class RecordedPhase:
    """One parallel phase's op streams, dictionary-encoded and immutable.

    Per node, ``sym[i]`` indexes ``table``, the node's sorted distinct ops: a
    non-negative entry is a packed access (``flat << 16 | aggregate << 1 |
    write`` — element-granular, so any block size can be derived), a
    negative entry ``~k`` is a compute charge of ``cval[k]`` cycles.
    ``compute`` is the node's total charge, summed left to right as the
    simulator's accumulators do.
    """

    name: str
    sym: tuple[np.ndarray, ...]
    table: tuple[np.ndarray, ...]
    cval: tuple[np.ndarray, ...]
    compute: tuple[float, ...]

    @classmethod
    def from_streams(cls, name: str, streams: list[array],
                     charges: list[dict[float, int]]) -> "RecordedPhase":
        cols: list[list] = [[], [], [], []]
        for stream, ids in zip(streams, charges):
            packed = np.array(stream, dtype=np.int64)
            table, sym = np.unique(packed, return_inverse=True)
            cval = np.array(list(ids), dtype=np.float64)
            # accumulate, not sum: numpy sums pairwise, the simulator adds
            # charges one by one
            charged = np.add.accumulate(cval[~packed[packed < 0]])
            for col, values in zip(cols, (
                # recordings stay resident: index with the narrowest type
                _frozen(sym, np.min_scalar_type(len(table))),
                _frozen(table, np.int64), _frozen(cval, np.float64),
                float(charged[-1]) if len(charged) else 0.0,
            )):
                col.append(values)
        return cls(name, *map(tuple, cols))

    def op_count(self) -> int:
        return sum(len(sym) for sym in self.sym)

    def nbytes(self) -> int:
        return sum(a.nbytes for col in (self.sym, self.table, self.cval)
                   for a in col)

    def accesses(self, node: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(agg, flat, kind)`` of the node's accesses in op order: aggregate
        index, row-major element number, 0=read / 1=write.  The position in
        these arrays doubles as the model's intra-phase time proxy."""
        packed = self.table[node][self.sym[node]]
        packed = packed[packed >= 0]
        return ((packed >> 1) & (_MAX_AGGREGATES - 1), packed >> _FLAT_SHIFT,
                packed & 1)

    def ops(self, node: int, blocks_of) -> list[tuple]:
        """The node's ``("r"|"w", block)`` / ``("c", cycles)`` op list for
        ``Machine.run_phase``; ``blocks_of(agg, flat)`` maps elements to the
        machine's blocks.  One tuple per distinct op, shared by its repeats."""
        table = self.table[node]
        n_charges = int(np.searchsorted(table, 0))
        access = table[n_charges:]
        blocks = blocks_of((access >> 1) & (_MAX_AGGREGATES - 1),
                           access >> _FLAT_SHIFT)
        distinct = np.fromiter(itertools.chain(
            (("c", c) for c in self.cval[node][~table[:n_charges]].tolist()),
            zip(_KIND[access & 1].tolist(), blocks.tolist()),
        ), dtype=object, count=len(table))
        return distinct[self.sym[node]].tolist()


# --------------------------------------------------------------------------- #
# the runtime
# --------------------------------------------------------------------------- #

#: Invocation body: body(ctx) — position available as ctx.pos.
Body = Callable[[ElementContext], None]


class CStarRuntime:
    """Executes the value pass of a data-parallel program, machine-free.

    ``config`` supplies what layout depends on (``n_nodes``, ``page_size``);
    ``events`` is the session the program issued, in order:
    ``("begin_group", id)`` | ``("end_group", None)`` |
    ``("phase", RecordedPhase)``.
    """

    def __init__(self, config: MachineConfig):
        self.config = config
        self.addr_space = AddressSpace(config)
        self.aggregates: dict[str, Aggregate] = {}
        self.events: list[tuple] = []
        self.phase_count = 0

    # -- aggregate management --------------------------------------------------

    def aggregate(
        self,
        name: str,
        shape: Sequence[int],
        dtype: str = "float",
        dist: Distribution | None = None,
        home: str = "owner",
        pad: int = 1,
    ) -> Aggregate:
        shape = tuple(int(s) for s in shape)
        if dist is None:
            n = self.config.n_nodes
            if len(shape) == 1:
                dist = Block1D(shape[0], n)
            elif len(shape) == 2:
                dist = RowBlock2D(shape[0], shape[1], n)
            else:
                raise ConfigError(
                    f"no default distribution for {len(shape)}-D aggregate {name!r}"
                )
        if len(self.aggregates) >= _MAX_AGGREGATES:
            raise ConfigError(f"more than {_MAX_AGGREGATES} aggregates")
        agg = Aggregate(self.addr_space, len(self.aggregates), name, shape,
                        dtype, dist, home=home, pad=pad)
        self.aggregates[name] = agg
        return agg

    # -- directives --------------------------------------------------------------

    def begin_group(self, directive_id: int) -> None:
        self.events.append(("begin_group", directive_id))

    def end_group(self) -> None:
        self.events.append(("end_group", None))

    # -- parallel invocation ---------------------------------------------------------

    def par_call(
        self,
        body: Body,
        over: Aggregate,
        snapshot_of: Sequence[Aggregate] = (),
        name: str = "parallel",
        elements=None,
    ) -> RecordedPhase:
        """Invoke ``body`` once per element of ``over`` and record the phase.

        ``snapshot_of`` lists the aggregates whose phase-entry values reads
        must observe; ``over`` is always included.  ``elements`` restricts
        the invocation set (used by applications with active-element lists,
        e.g. red-black sweeps).
        """
        n_nodes = self.config.n_nodes
        streams = [array("q") for _ in range(n_nodes)]
        charges: list[dict[float, int]] = [{} for _ in range(n_nodes)]
        writes: list[tuple[Aggregate, int, object]] = []
        for agg in (over, *snapshot_of):
            if agg._view is agg.data:
                agg._view = agg.data.copy()

        owners = over._owners
        try:
            for idx in (elements if elements is not None else over.elements()):
                idx = tuple(idx)
                hit = owners.get(idx)
                if hit is None:
                    pos = tuple(int(i) for i in idx)
                    hit = owners[idx] = (pos, over.dist.owner(pos))
                pos, node = hit
                ctx = ElementContext(pos, node, streams[node], charges[node],
                                     writes)
                body(ctx)
                ctx._flush_compute()
        finally:
            for agg in (over, *snapshot_of):
                agg._view = agg.data

        # apply buffered writes (phase-end visibility)
        for agg, flat, value in writes:
            agg.data.reshape(-1)[flat] = value

        self.phase_count += 1
        phase = RecordedPhase.from_streams(f"{name}#{self.phase_count}",
                                           streams, charges)
        self.events.append(("phase", phase))
        return phase
