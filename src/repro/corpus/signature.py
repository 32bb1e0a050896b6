"""Content-addressing for corpus entries.

A corpus key names *exactly one* learning context: the program (what runs
and therefore which directive sites exist and what they access), the
protocol (schedules learned under ``predictive`` mean nothing to
``stache``), and the placement (node count and block/page geometry — the
same program on 4 nodes learns different reader sets than on 8).  A
schedule warmed into any *other* context would merely mispredict — the
protocol tolerates that by construction — but the point of content
addressing is that it cannot happen silently: a changed program, protocol,
or placement derives a different key and simply misses.

Signatures are truncated SHA-256 of canonical JSON (:func:`canonical`,
:func:`checksum`), the same digest :mod:`repro.corpus.store` keeps with
every row.
"""

from __future__ import annotations

import hashlib
import json

from repro.util.config import MachineConfig

__all__ = ["canonical", "checksum", "program_signature",
           "placement_signature", "corpus_key", "workload_key", "bench_key",
           "supports_warm"]

#: hex digits kept from each sha256 (collision-safe at corpus scale and
#: short enough that keys stay readable in doctor output)
_SIG_LEN = 16


def canonical(body: dict) -> bytes:
    """The canonical JSON encoding signatures and checksums are taken over."""
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def checksum(payload: bytes) -> str:
    """Truncated SHA-256 hex digest of ``payload``."""
    return hashlib.sha256(payload).hexdigest()[:_SIG_LEN]


def program_signature(source: str | bytes) -> str:
    """Signature of the thing that runs: source text, trace bytes, or any
    stable identity string (``"fuzz/seed17"`` for generated workloads)."""
    if isinstance(source, str):
        source = source.encode("utf-8")
    return checksum(source)


def placement_signature(config: MachineConfig) -> str:
    """Signature of the machine geometry schedules were learned on."""
    return checksum(canonical({
        "n_nodes": config.n_nodes,
        "block_size": config.block_size,
        "page_size": config.page_size,
    }))


def corpus_key(program_sig: str, protocol: str, placement_sig: str) -> str:
    """The content address of one (program, protocol, placement) context."""
    return f"{program_sig}/{protocol}/{placement_sig}"


def workload_key(workload, protocol: str, name: str | None = None) -> str:
    """The corpus key for a :class:`repro.verify.workload.Workload`.

    Generated workloads are fully determined by their seed; bundled trace
    workloads carry ``seed == -1`` and are identified by ``name`` instead
    (the campaign embeds the trace file name in its transport-safe spec).
    """
    if name is None:
        name = getattr(workload, "name", None)
    ident = (f"fuzz/seed{workload.seed}" if workload.seed >= 0
             else f"trace/{name or 'anonymous'}")
    return corpus_key(program_signature(ident), protocol,
                      placement_signature(workload.config))


def bench_key(app: str, protocol: str, config: MachineConfig, *,
              optimized: bool, build_kwargs: dict,
              variant: str = "cstar") -> str:
    """The corpus key for one benchmark application version.

    ``app`` is the bare application name (``"water"``, not the dotted
    module path), so every caller derives the same key for the same
    workload and shares its learned schedules.
    """
    ident = "bench/" + json.dumps(
        {"app": app, "optimized": optimized, "variant": variant,
         "kwargs": build_kwargs},
        sort_keys=True, separators=(",", ":"),
    )
    return corpus_key(program_signature(ident), protocol,
                      placement_signature(config))


def supports_warm(protocol: str) -> bool:
    """Whether the named protocol learns schedules the corpus could warm.

    Consulting this before a lookup keeps schedule-free protocols (plain
    Stache, write-update) from registering a corpus miss per run.
    """
    from repro.core.factory import PROTOCOLS

    cls = PROTOCOLS.get(protocol)
    return cls is not None and hasattr(cls, "warm_seed")
