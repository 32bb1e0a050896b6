"""Dynamic coherence invariants, checked at every phase barrier.

The static audit (:mod:`repro.protocols.verify`) proves the transition
*table* is complete; this monitor checks that the *executed* protocol kept
its promises.  It is attached through ``machine.phase_hooks`` and inspects
the genuinely authoritative state — per-node tag tables
(:mod:`repro.tempest.tags`) against directory entries
(:mod:`repro.protocols.directory`) — at each point the machine claims
quiescence (a released phase barrier).

Invariants (all evaluated per cache block):

* **single-writer / multi-reader** — at most one node holds a READ_WRITE
  tag, and a writer excludes readers elsewhere.  The write-update protocol
  deliberately keeps the home writable while consumers hold read-only
  copies (it trades sequential consistency for push efficiency, paper
  §3.2), so its profile sets ``home_writer_may_coexist``.
* **directory–cache agreement** — every stable directory state implies an
  exact tag pattern: IDLE means only home holds the block; SHARED means
  home + sharers are readable and nobody writable; EXCLUSIVE means exactly
  the owner is writable.
* **no lost invalidations** — no non-home node retains a copy the
  directory does not account for (a stale copy is precisely what a dropped
  or unacknowledged invalidation leaves behind).
* **quiescence** — at a phase barrier nothing is in flight: no BUSY
  directory entries, no queued pending requests, no outstanding faults,
  no deferred cache messages.

A failure raises :class:`CoherenceViolation` carrying the protocol name,
the workload seed, and the tie-break schedule recorded so far — everything
needed to replay the exact interleaving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.protocols.directory import DirState
from repro.tempest.tags import AccessTag
from repro.util.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.tempest.machine import Machine


class CoherenceViolation(ReproError):
    """A dynamic coherence invariant failed.

    Structured: ``invariant`` names the broken rule, ``detail`` the exact
    states involved, and ``seed``/``schedule`` replay the interleaving
    (``repro verify --replay SEED`` / ``ReplayPolicy(schedule)``).
    """

    def __init__(self, invariant: str, detail: str, *, protocol: str = "?",
                 phase: str = "?", seed: int | None = None,
                 schedule: list[int] | None = None):
        self.invariant = invariant
        self.detail = detail
        self.protocol = protocol
        self.phase = phase
        self.seed = seed
        self.schedule = list(schedule) if schedule else []
        super().__init__(self.report())

    def report(self) -> str:
        lines = [
            f"coherence violation: {self.invariant}",
            f"  protocol: {self.protocol}",
            f"  phase:    {self.phase}",
            f"  detail:   {self.detail}",
        ]
        if self.seed is not None:
            lines.append(f"  seed:     {self.seed} (replay: repro verify --replay {self.seed})")
        lines.append(f"  schedule: {self.schedule or '(FIFO order)'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-safe form; :meth:`from_dict` rebuilds an equivalent violation.

        Includes the ``fault_events`` list that :func:`repro.verify.oracle.
        run_workload` attaches after construction, so a violation can cross
        a farm worker boundary without losing its injection record;
        :meth:`from_dict` leaves them encoded, and the fault campaign's
        ``FaultFailure.from_dict`` decodes them.
        """
        return {
            "invariant": self.invariant,
            "detail": self.detail,
            "protocol": self.protocol,
            "phase": self.phase,
            "seed": self.seed,
            "schedule": list(self.schedule),
            "fault_events": [ev.to_dict()
                             for ev in getattr(self, "fault_events", [])],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CoherenceViolation":
        return cls(
            data["invariant"], data["detail"],
            protocol=data["protocol"], phase=data["phase"],
            seed=data["seed"], schedule=data["schedule"],
        )


@dataclass
class InvariantProfile:
    """Which invariants apply to a protocol family."""

    #: write-update keeps the home writable next to registered readers
    home_writer_may_coexist: bool = False
    #: states treated as stable sharing (directory agreement checked)
    shared_states: frozenset = frozenset({DirState.SHARED})


PROFILES: dict[str, InvariantProfile] = {
    "stache": InvariantProfile(),
    "predictive": InvariantProfile(),
    "write-update": InvariantProfile(
        home_writer_may_coexist=True,
        shared_states=frozenset({"UPDATE_SHARED"}),
    ),
}


def profile_for(protocol_name: str) -> InvariantProfile:
    return PROFILES.get(protocol_name, InvariantProfile())


def dead_node_references(machine: "Machine", nodes=None) -> list[str]:
    """Every directory or schedule reference to a down node, as report lines.

    ``nodes`` defaults to the machine's currently-down set (empty without a
    crash controller).  Used two ways: the crash controller self-checks with
    the just-detected node right after recovery, and the invariant monitor
    asserts the set is empty at every phase barrier.
    """
    if nodes is None:
        ctl = getattr(machine, "crash_controller", None)
        nodes = set() if ctl is None else set(ctl.down)
    if not nodes:
        return []
    refs: list[str] = []
    directory = getattr(machine.protocol, "directory", None)
    if directory is not None:
        for entry in directory.known():
            if entry.home in nodes:
                refs.append(f"entry homed at dead node: {entry!r}")
            if entry.owner in nodes:
                refs.append(f"dead owner: {entry!r}")
            dead_sharers = entry.sharers & nodes
            if dead_sharers:
                refs.append(f"dead sharers {sorted(dead_sharers)}: {entry!r}")
            if entry.in_service in nodes:
                refs.append(f"dead requester in service: {entry!r}")
            dead_pending = sorted({p.requester for p in entry.pending} & nodes)
            if dead_pending:
                refs.append(f"dead pending requesters {dead_pending}: {entry!r}")
    schedules = getattr(machine.protocol, "schedules", None)
    if schedules is not None:
        for sched in schedules.values():
            for e in sched:
                where = f"schedule {sched.directive_id} block {e.block}"
                if machine.home(e.block) in nodes:
                    refs.append(f"{where}: homed at dead node")
                dead_readers = e.readers & nodes
                if dead_readers:
                    refs.append(f"{where}: dead readers {sorted(dead_readers)}")
                if e.writer in nodes:
                    refs.append(f"{where}: dead writer {e.writer}")
    return refs


@dataclass
class InvariantMonitor:
    """Checks coherence invariants at every phase barrier of one machine.

    Attach with :meth:`attach`; context for violation reports (seed, the
    live tie-break policy) can be set once and is sampled lazily at raise
    time.
    """

    seed: int | None = None
    policy: object | None = None  # TieBreakPolicy, for its recorded schedule
    checks_run: int = field(default=0)

    def attach(self, machine: "Machine") -> "InvariantMonitor":
        machine.phase_hooks.append(self._on_phase_end)
        return self

    # -- hook ---------------------------------------------------------------

    def _on_phase_end(self, machine: "Machine", trace) -> None:
        self.check(machine, phase=trace.name)

    def _raise(self, machine: "Machine", phase: str, invariant: str, detail: str):
        schedule = list(getattr(self.policy, "choices", []) or [])
        raise CoherenceViolation(
            invariant, detail,
            protocol=machine.protocol.name, phase=phase,
            seed=self.seed, schedule=schedule,
        )

    # -- the checks ---------------------------------------------------------

    def check(self, machine: "Machine", phase: str = "?") -> None:
        """Run every invariant against the machine's current state."""
        self.checks_run += 1
        prof = profile_for(machine.protocol.name)
        self._check_quiescence(machine, phase)
        self._check_dead_nodes(machine, phase)
        self._check_tags_vs_directory(machine, phase, prof)

    def _check_dead_nodes(self, machine: "Machine", phase: str) -> None:
        """No directory entry or schedule may reference a down node."""
        refs = dead_node_references(machine)
        if refs:
            shown = "; ".join(refs[:5])
            if len(refs) > 5:
                shown += f" (+{len(refs) - 5} more)"
            self._raise(machine, phase, "dead-node-reference", shown)

    def _check_quiescence(self, machine: "Machine", phase: str) -> None:
        if machine.engine.pending:
            self._raise(machine, phase, "quiescence",
                        f"{machine.engine.pending} events still queued at the barrier")
        outstanding = getattr(machine.protocol, "outstanding", {})
        if outstanding:
            self._raise(machine, phase, "quiescence",
                        f"outstanding faults never completed: {sorted(outstanding)}")
        deferred = getattr(machine.protocol, "_deferred", {})
        if deferred:
            self._raise(machine, phase, "quiescence",
                        f"deferred cache messages never serviced: {sorted(deferred)}")
        transport = getattr(machine, "_transport", None)
        if transport is not None:
            if transport.unacked:
                self._raise(machine, phase, "quiescence",
                            f"{transport.unacked} transport send(s) still "
                            f"unacknowledged at the barrier")
            if transport.held_back:
                self._raise(machine, phase, "quiescence",
                            f"{transport.held_back} out-of-order message(s) "
                            f"still held back at the barrier")
        directory = getattr(machine.protocol, "directory", None)
        if directory is None:
            return
        for entry in directory.known():
            if entry.state in DirState.BUSY:
                self._raise(machine, phase, "quiescence",
                            f"directory entry still busy at the barrier: {entry!r}")
            if entry.pending:
                self._raise(machine, phase, "quiescence",
                            f"requests still pending at the barrier: {entry!r}")

    def _check_tags_vs_directory(self, machine: "Machine", phase: str,
                                 prof: InvariantProfile) -> None:
        # Gather per-block holders from the authoritative tag tables.
        readers: dict[int, set[int]] = {}
        writers: dict[int, set[int]] = {}
        for node in machine.nodes:
            for block in node.tags.blocks_with_tag(AccessTag.READ_ONLY):
                readers.setdefault(block, set()).add(node.id)
            for block in node.tags.blocks_with_tag(AccessTag.READ_WRITE):
                writers.setdefault(block, set()).add(node.id)

        # single-writer / multi-reader
        for block in set(readers) | set(writers):
            ws = writers.get(block, set())
            rs = readers.get(block, set())
            home = machine.home(block)
            if len(ws) > 1:
                self._raise(machine, phase, "single-writer",
                            f"block {block}: multiple writable copies at nodes {sorted(ws)}")
            if ws and rs:
                coexist_ok = prof.home_writer_may_coexist and ws == {home}
                if not coexist_ok:
                    self._raise(
                        machine, phase, "single-writer",
                        f"block {block}: writable copy at {sorted(ws)} coexists "
                        f"with readable copies at {sorted(rs)}")

        directory = getattr(machine.protocol, "directory", None)
        if directory is None:
            return

        # directory state -> exact tag pattern
        tracked: set[int] = set()
        for entry in directory.known():
            block, home = entry.block, entry.home
            tracked.add(block)
            rs = readers.get(block, set())
            ws = writers.get(block, set())
            if entry.state == DirState.IDLE:
                if (rs | ws) - {home}:
                    self._raise(machine, phase, "directory-agreement",
                                f"{entry!r} is IDLE but remote copies exist: "
                                f"readers={sorted(rs)} writers={sorted(ws)}")
                if home not in ws:
                    self._raise(machine, phase, "directory-agreement",
                                f"{entry!r} is IDLE but home holds no writable copy")
            elif entry.state in prof.shared_states:
                stale = rs - entry.sharers - {home}
                if stale:
                    self._raise(machine, phase, "lost-invalidation",
                                f"{entry!r}: nodes {sorted(stale)} hold readable "
                                f"copies the directory does not list")
                missing = entry.sharers - rs - ws
                if missing:
                    self._raise(machine, phase, "directory-agreement",
                                f"{entry!r}: recorded sharers {sorted(missing)} "
                                f"hold no readable copy")
                if ws and not (prof.home_writer_may_coexist and ws == {home}):
                    self._raise(machine, phase, "directory-agreement",
                                f"{entry!r} is shared but nodes {sorted(ws)} hold "
                                f"writable copies")
            elif entry.state == DirState.EXCLUSIVE:
                if ws != {entry.owner}:
                    self._raise(machine, phase, "directory-agreement",
                                f"{entry!r}: owner should be the only writer, "
                                f"but writers={sorted(ws)}")
                if rs:
                    self._raise(machine, phase, "lost-invalidation",
                                f"{entry!r} is EXCLUSIVE but nodes {sorted(rs)} "
                                f"still hold readable copies")

        # no lost invalidations on untracked blocks: a non-home copy of a
        # block the directory has never seen can only come from a protocol
        # granting data without recording it
        for block in (set(readers) | set(writers)) - tracked:
            home = machine.home(block)
            holders = (readers.get(block, set()) | writers.get(block, set())) - {home}
            if holders:
                self._raise(machine, phase, "lost-invalidation",
                            f"block {block}: nodes {sorted(holders)} hold copies "
                            f"but the home directory has no entry")
