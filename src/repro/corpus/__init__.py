"""The durable schedule corpus: persist learned communication schedules and
warm-start later runs so pre-sends begin at iteration 1.

See :mod:`repro.corpus.store` for the robustness contract and
``docs/CORPUS.md`` for the format and operational workflow.
"""

from repro.corpus.signature import (
    bench_key,
    corpus_key,
    placement_signature,
    program_signature,
    supports_warm,
    workload_key,
)
from repro.corpus.store import (
    CORPUS_VERSION,
    NullCorpus,
    ScheduleCorpus,
    open_corpus,
    validate_entry,
)

__all__ = [
    "CORPUS_VERSION",
    "NullCorpus",
    "ScheduleCorpus",
    "bench_key",
    "corpus_key",
    "open_corpus",
    "placement_signature",
    "program_signature",
    "supports_warm",
    "validate_entry",
    "workload_key",
]
