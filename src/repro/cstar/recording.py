"""Record once, replay many: the one trace front end.

The value pass (:mod:`repro.cstar.runtime`) depends on the program and on
the two machine parameters that shape the address map — ``n_nodes`` and
``page_size`` — never on block size, protocol, cost table or whether the
directives are honoured; control flow follows computed *values*, not
timing.  So one :class:`ProgramRecording` per placement is exact for every
bar of a figure and every point of a sweep: :func:`replay` drives a real
machine from it (the simulator), :mod:`repro.model` walks the same columns
analytically.  :func:`record_program` keeps the most recently used
placements of the benchmark applications; anything else (ad-hoc programs,
compiled source, runs with ``params``) is recorded for the run that asked.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from collections import OrderedDict
from typing import Any, Callable, Iterator

import numpy as np

from repro.cstar.driver import Env
from repro.cstar.runtime import CStarRuntime
from repro.obs.events import EventKind
from repro.tempest.addrspace import AddressSpace
from repro.tempest.machine import Machine, PhaseTrace
from repro.tempest.tracefile import record_regions, replay_session
from repro.util.config import MachineConfig
from repro.util.errors import ConfigError


@dataclasses.dataclass
class ProgramRecording:
    """The full value-pass recording of one program run (immutable columns)."""

    #: cache identity (None for a recording made for one run only)
    key: tuple | None
    n_nodes: int
    page_size: int
    #: per-aggregate layout constants, indexed by declaration order
    agg_names: tuple[str, ...]
    agg_base: np.ndarray
    agg_stride: np.ndarray
    #: the value pass's address space (home-policy closures are valid for any
    #: block size: bases depend only on page_size) and its tracefile form
    addr_space: AddressSpace
    regions: list[dict]
    #: ("begin_group", id) | ("end_group", None) | ("phase", RecordedPhase)
    events: tuple[tuple, ...]
    #: the value pass's final environment (aggregate values, app state)
    env: Env
    replays: int = 0
    #: what consumers derive from the columns and want to live exactly as
    #: long as the recording does (``repro.model``: the access fold per block
    #: size; walks per block size, protocol, placement and warm start)
    folds: dict = dataclasses.field(default_factory=dict, repr=False)
    walks: dict = dataclasses.field(default_factory=dict, repr=False)

    def phases(self) -> list:
        return [ev[1] for ev in self.events if ev[0] == "phase"]

    def session(self, optimized: bool) -> Iterator[tuple]:
        """The events of one execution; ``optimized=False`` is the same
        program with no directives (placement only wraps phases in groups,
        so the phase sequence is identical)."""
        return (ev for ev in self.events if optimized or ev[0] == "phase")

    def check_placement(self, config: MachineConfig) -> None:
        if (config.n_nodes, config.page_size) != (self.n_nodes, self.page_size):
            raise ConfigError(
                f"recording is for n_nodes={self.n_nodes}, page_size="
                f"{self.page_size}; config has n_nodes={config.n_nodes}, "
                f"page_size={config.page_size}")

    def blocks(self, agg_idx: np.ndarray, flat: np.ndarray, shift: int,
               base: np.ndarray | None = None) -> np.ndarray:
        """Vectorized element→block map (first byte of each element; with
        pad > 1 an element may span blocks, the first is the faulting one)."""
        base = self.agg_base if base is None else base
        return (base[agg_idx] + flat * self.agg_stride[agg_idx]) >> shift

    @property
    def op_count(self) -> int:
        return sum(ph.op_count() for ph in self.phases())

    @property
    def nbytes(self) -> int:
        return sum(ph.nbytes() for ph in self.phases())


#: front-end counters (host-side; never part of a report)
_STATS = {"recordings": 0, "replays": 0, "ops_recorded": 0,
          "record_seconds": 0.0}


def record(config: MachineConfig, drive: Callable[[Env], None],
           params: dict[str, Any] | None = None,
           key: tuple | None = None) -> ProgramRecording:
    """Run one value pass: ``drive(env)`` declares aggregates and executes
    the program against a fresh machine-free runtime."""
    t0 = time.perf_counter()
    runtime = CStarRuntime(config)
    env = Env(runtime=runtime, params=dict(params or {}))
    drive(env)
    aggs = list(runtime.aggregates.values())
    for agg in aggs:
        agg._owners.clear()
    rec = ProgramRecording(
        key=key,
        n_nodes=config.n_nodes,
        page_size=config.page_size,
        agg_names=tuple(a.name for a in aggs),
        agg_base=np.array([a.region.base for a in aggs], dtype=np.int64),
        agg_stride=np.array([a.stride_bytes for a in aggs], dtype=np.int64),
        addr_space=runtime.addr_space,
        regions=record_regions(runtime),
        events=tuple(runtime.events),
        env=env,
    )
    _STATS["recordings"] += 1
    _STATS["ops_recorded"] += rec.op_count
    _STATS["record_seconds"] += time.perf_counter() - t0
    return rec


def replay(recording: ProgramRecording, machine: Machine,
           optimized: bool = True) -> Env:
    """The timing pass: recreate the regions and home tags on ``machine``,
    derive block ids for *its* block size and drive ``begin_group`` /
    ``run_phase`` / ``end_group``.  Returns the value pass's environment
    bound to ``machine``."""
    cfg = machine.config
    recording.check_placement(cfg)
    shift = cfg.block_size.bit_length() - 1

    def session() -> Iterator[tuple]:
        # runs after replay_session has restored the regions; columns become
        # op tuples one phase at a time
        base = np.array([machine.addr_space.region(name).base
                         for name in recording.agg_names], dtype=np.int64)
        blocks_of = functools.partial(recording.blocks, shift=shift, base=base)
        for ev in recording.session(optimized):
            if ev[0] == "phase":
                ph = ev[1]
                ev = ("phase", PhaseTrace(ph.name, [
                    ph.ops(node, blocks_of) for node in range(cfg.n_nodes)]))
            yield ev

    replay_session(session(), machine, recording.regions, finish=False)
    obs = machine.obs
    if obs.enabled:
        ops = recording.op_count
        if not recording.replays:
            obs.emit(EventKind.FRONTEND_RECORD, machine.clock, ops=ops,
                     column_bytes=recording.nbytes)
        obs.emit(EventKind.FRONTEND_REPLAY, machine.clock, ops=ops,
                 keyed=recording.key is not None, optimized=optimized)
    recording.replays += 1
    _STATS["replays"] += 1
    return dataclasses.replace(recording.env, machine=machine)


# --------------------------------------------------------------------------- #
# the keyed cache of application recordings
# --------------------------------------------------------------------------- #

#: placements kept; a figure needs at most two, the validation suite five
_CACHE_SLOTS = 8
_CACHE: OrderedDict[tuple, ProgramRecording] = OrderedDict()


def check_variant(app, variant: str) -> None:
    """Raise :class:`ConfigError` unless ``app`` (an application module)
    lists ``variant`` in its ``VARIANTS``."""
    if variant not in app.VARIANTS:
        raise ConfigError(
            f"{app.__name__} has no variant {variant!r}; expected one of "
            f"{', '.join(app.VARIANTS)}")


def recording_key(app, build_kwargs: dict | None, variant: str,
                  n_nodes: int, page_size: int) -> tuple:
    """The axes that change the value pass or the address map.

    Build kwargs are bound against ``app.build``'s signature with defaults
    applied, so spelling out a default does not make a second recording.
    """
    kwargs = dict(build_kwargs or {})
    if variant != "cstar":
        kwargs["variant"] = variant
    check_variant(app, kwargs.get("variant", "cstar"))
    bound = inspect.signature(app.build).bind(**kwargs)
    bound.apply_defaults()
    for name, value in bound.arguments.items():
        try:
            hash(value)
        except TypeError:
            raise ConfigError(
                f"{app.__name__}.build kwarg {name!r} is unhashable "
                f"({type(value).__name__}); recordings are keyed by build kwargs"
            ) from None
    return (app.__name__, tuple(sorted(bound.arguments.items())),
            n_nodes, page_size)


def record_program(app, build_kwargs: dict | None = None,
                   variant: str = "cstar", *, n_nodes: int,
                   page_size: int) -> ProgramRecording:
    """Run ``app``'s value pass once and return (or reuse) its recording.

    The compiled (placed) flow tree is recorded, so group boundaries and
    directive ids are those of the optimized program.  A cached recording
    is shared: its app state is dropped and its final aggregate values are
    read-only.
    """
    key = recording_key(app, build_kwargs, variant, n_nodes, page_size)
    rec = _CACHE.get(key)
    if rec is not None:
        _CACHE.move_to_end(key)
        return rec
    prog = app.build(**dict(key[1]))
    rec = record(MachineConfig(n_nodes=n_nodes, page_size=page_size),
                 prog.execute, key=key)
    rec.env.state.clear()
    for agg in rec.env.runtime.aggregates.values():
        agg.data.flags.writeable = False
    _CACHE[key] = rec
    if len(_CACHE) > _CACHE_SLOTS:
        _CACHE.popitem(last=False)
    return rec


def cache_info() -> dict:
    """How many value passes ran, how many replays they served, and what
    the cached columns cost."""
    return dict(_STATS, cached=len(_CACHE),
                column_bytes=sum(rec.nbytes for rec in _CACHE.values()))


def cached_recordings() -> list[ProgramRecording]:
    """The recordings currently held by the keyed table."""
    return list(_CACHE.values())


def clear_cache() -> None:
    """Drop cached recordings and zero the counters."""
    _CACHE.clear()
    _STATS.update(recordings=0, replays=0, ops_recorded=0, record_seconds=0.0)
