"""LocalProcessTransport.stop(): shutdown must never leak a live child.

The regression scenario from the seed: a worker that ignores both the
stop message and SIGTERM used to survive ``stop()`` as a zombie; the
kill() escalation now puts it down within the grace budget.
"""

import signal
import time

import pytest

from repro.farm.transport import LocalProcessTransport, _mp_context

pytestmark = pytest.mark.skipif(
    _mp_context().get_start_method() != "fork",
    reason="the stubborn worker relies on fork-visible module functions",
)


def stubborn_main(wid, conn):
    """Ignores the stop message (never reads its pipe) and SIGTERM."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.send(("up", wid, None, None))
    while True:
        time.sleep(60)


def obedient_main(wid, conn):
    conn.send(("up", wid, None, None))
    while True:
        if conn.recv()[0] == "stop":
            return


def test_sigterm_ignoring_worker_is_killed(monkeypatch):
    monkeypatch.setattr(LocalProcessTransport, "stop_grace", 0.3)
    monkeypatch.setattr(LocalProcessTransport, "kill_grace", 1.0)
    transport = LocalProcessTransport(1)
    transport.start(stubborn_main)
    assert transport.recv(timeout=5.0) == ("up", 0, None, None)
    assert transport.alive(0)
    t0 = time.monotonic()
    transport.stop()
    assert not transport.alive(0), "stop() left a live worker behind"
    # bounded: stop grace + SIGTERM grace + SIGKILL grace, with slack
    assert time.monotonic() - t0 < 10.0


def test_cooperative_worker_stops_without_escalation(monkeypatch):
    monkeypatch.setattr(LocalProcessTransport, "stop_grace", 5.0)
    monkeypatch.setattr(LocalProcessTransport, "kill_grace", 1.0)
    transport = LocalProcessTransport(1)
    transport.start(obedient_main)
    assert transport.recv(timeout=5.0) == ("up", 0, None, None)
    transport.stop()
    assert not transport.alive(0)
