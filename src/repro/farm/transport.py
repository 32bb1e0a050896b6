"""The farm transport: how jobs reach workers and results come back.

The coordinator (:mod:`repro.farm.coordinator`) decides *what* runs
where; :class:`LocalProcessTransport` is the dumb pipe that moves
:class:`~repro.farm.jobs.FarmJob` records out and result messages back,
through ``start``/``send``/``recv``/``alive``/``respawn``/``stop``.

Wire protocol (one tuple shape both ways):

* coordinator -> worker: ``("job", FarmJob)`` or ``("stop",)``
* worker -> coordinator: ``(kind, worker_id, job_index, payload)`` with
  ``kind`` one of ``up`` / ``result`` / ``error``

The pool is made of multiprocessing workers (fork where available, spawn
otherwise) with one duplex pipe per worker.  No lock, queue or feeder
thread is shared between worker processes, so a worker that dies at any
instant — even halfway through writing a result — breaks only its own
channel, which the coordinator then reads as a crash.  Running jobs
in-process is not a transport:
:func:`repro.farm.coordinator.run_jobs` calls the job functions directly
when there is nothing to farm.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from multiprocessing.connection import wait
from typing import Callable

from repro.util.errors import SimulationError


class FarmError(SimulationError):
    """A farm-level failure (worker crash budget exhausted, job error)."""


def _mp_context():
    """Prefer fork (workers inherit module state — monkeypatches and caches
    included); fall back to spawn where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _child_main(worker_main: Callable, wid: int, conn,
                parent_ends: list) -> None:
    """Worker process entry: close the inherited coordinator ends of every
    pipe, so each one reads EOF in its worker once the coordinator's copy
    closes, then serve jobs."""
    for end in parent_ends:
        end.close()
    worker_main(wid, conn)


class LocalProcessTransport:
    """A local worker pool with one private pipe per worker.

    The coordinator holds the only other end of each pipe: a dead worker
    shows up as EOF (or a broken pipe) on its own channel, never as a
    blocked channel shared with the survivors, and nothing a dying worker
    can hold is ever waited on.

    :attr:`stop_grace`/:attr:`kill_grace` bound shutdown: a worker that
    ignores the stop message gets SIGTERM after ``stop_grace`` seconds,
    and one that ignores SIGTERM too gets SIGKILL after ``kill_grace``
    more — ``stop()`` never leaves a live child behind.
    """

    #: seconds ``stop()`` waits for a worker to obey the stop message
    stop_grace = 10.0
    #: seconds it then waits after each of SIGTERM and SIGKILL
    kill_grace = 5.0

    def __init__(self, n_workers: int):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self._ctx = _mp_context()
        self._procs: list = [None] * n_workers
        #: the coordinator's end of each worker's pipe; None once broken
        self._conns: list = [None] * n_workers
        #: channels the last wait() reported readable, served in turn
        self._ready: deque = deque()

    # -- lifecycle -------------------------------------------------------------

    def start(self, worker_main: Callable) -> None:
        self._worker_main = worker_main
        for wid in range(self.n_workers):
            self._spawn(wid)

    def _spawn(self, wid: int) -> None:
        conn, child_end = self._ctx.Pipe()
        parent_ends = [c for c in self._conns if c is not None] + [conn]
        proc = self._ctx.Process(
            target=_child_main,
            args=(self._worker_main, wid, child_end, parent_ends),
            daemon=True,
            name=f"repro-farm-{wid}",
        )
        proc.start()
        # the worker now holds the only copy of its end: its death is EOF
        child_end.close()
        self._procs[wid] = proc
        self._conns[wid] = conn

    def _close(self, wid: int) -> None:
        conn = self._conns[wid]
        if conn is not None:
            self._conns[wid] = None
            conn.close()

    def respawn(self, wid: int) -> None:
        """Replace a dead worker with a fresh process and a fresh pipe under
        the same id."""
        self._close(wid)
        proc = self._procs[wid]
        if proc is not None and proc.is_alive():
            # its channel broke but the process lingers: put it down first
            proc.kill()
            proc.join(timeout=self.kill_grace)  # bounded by the timeout
        self._spawn(wid)

    def stop(self) -> None:
        for wid in range(self.n_workers):
            if self._conns[wid] is not None:
                self.send(wid, ("stop",))
            # a stop message already sent stays readable after the close,
            # and the close ends a worker still writing a result no one
            # will read (its send raises once our end is gone)
            self._close(wid)
        # every join below has a timeout: stop() ends within stop_grace +
        # 2 * kill_grace per worker whatever the workers do
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=self.stop_grace)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=self.kill_grace)
                if proc.is_alive():
                    # SIGTERM ignored (masked handler, wedged in C code):
                    # escalate to SIGKILL rather than leak a zombie
                    proc.kill()
                    proc.join(timeout=self.kill_grace)

    # -- messaging -------------------------------------------------------------

    def send(self, wid: int, message: tuple) -> None:
        """Send to one worker; a broken pipe marks it dead (the coordinator's
        liveness sweep then requeues its job and respawns it)."""
        conn = self._conns[wid]
        if conn is None:
            return
        try:
            # a worker is sent one job at a time (then a stop), so its pipe
            # never fills; the send fails as soon as that worker dies
            conn.send(message)
        except OSError:
            self._close(wid)

    def recv(self, timeout: float) -> tuple | None:
        """The next worker message, or None after ``timeout`` seconds or
        when the only ready channels turned out to be dead workers'."""
        if not self._ready:
            live = [conn for conn in self._conns if conn is not None]
            # bounded by the timeout; a dead worker's pipe is ready at once
            self._ready.extend(wait(live, timeout))
        while self._ready:
            conn = self._ready.popleft()
            if conn.closed:
                continue  # broken or respawned since the wait
            try:
                # returns once a whole message is in, or raises as soon as
                # the writer dies (EOF, possibly mid-message)
                return conn.recv()
            except (EOFError, OSError):
                self._close(self._conns.index(conn))
        return None

    # -- liveness --------------------------------------------------------------

    def alive(self, wid: int) -> bool:
        proc = self._procs[wid]
        return (self._conns[wid] is not None and proc is not None
                and proc.is_alive())

