"""Deterministic checkpoint/restart.

:mod:`repro.recovery.checkpoint` takes versioned whole-machine snapshots at
quiescent points, restorable into a fresh machine such that restore +
replay is bit-identical to the uninterrupted run, faults or not.  A
snapshot of a faulted machine re-arms its plan on restore, so this package
sits above :mod:`repro.faults`, which owns crash-stop failures and their
recovery (:mod:`repro.faults.crash`).
"""

from repro.recovery.checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    restore_machine,
    save_checkpoint,
    snapshot_machine,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "load_checkpoint",
    "restore_machine",
    "save_checkpoint",
    "snapshot_machine",
]
