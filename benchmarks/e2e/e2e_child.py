"""One fresh process = one sample: set up a workload, run its body, report.

``run.py`` starts this file once per repeat (one child at a time) and reads
the single JSON line it prints last.  ``setup_s`` runs from the moment the
parent spawned the interpreter (``t_spawn``, same host clock) to the first
bound-surface call; ``wall_s`` covers the body up to its last check.  A
traced child additionally installs the span wrappers before set-up, runs
the layer probes after the body and dumps its spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"


def peak_rss_mb() -> tuple[float, float]:
    """(own, largest waited-for child) peak resident set, in MB (Linux KB)."""
    return tuple(resource.getrusage(who).ru_maxrss / 1024.0
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    from e2e_spans import NULL, ROOT_SPAN, Tracer
    from e2e_workloads import WORKLOADS

    tracer = NULL
    if job["traced"]:
        import e2e_layers

        tracer = Tracer()
        e2e_layers.install(tracer)

    spec = WORKLOADS[job["workload"]]
    size = spec.sizes[job["profile"]]
    inputs = spec.setup(job["seed"], size)
    setup_s = time.time() - job["t_spawn"]
    if job.get("setup_only"):
        print(json.dumps({"setup_s": setup_s}))
        return 0

    t0 = time.perf_counter()
    with tracer.span(ROOT_SPAN):
        outcome = spec.body(inputs, tracer)
    wall_s = time.perf_counter() - t0
    if spec.post is not None:
        tracer.run = "post"  # untimed: keep its spans out of the body's layers
        spec.post(inputs, outcome)

    own_rss, child_rss = peak_rss_mb()
    result = {
        "wall_s": wall_s, "setup_s": setup_s,
        "peak_rss_mb": max(own_rss, child_rss),
        "engine_path": inputs["engine_path"],
        **outcome.to_dict(),
    }
    if job["traced"]:
        e2e_layers.run_probes(tracer, spec.name, RESULTS / "tmp")
        layers = e2e_layers.layer_metrics(tracer, result)
        layers["farm.worker_rss_mb"] = child_rss
        result["per_layer"] = layers
        result["boundaries_missing"] = tracer.missing
        RESULTS.mkdir(exist_ok=True)
        dump = RESULTS / f"spans-{spec.name}-{job['profile']}.json"
        dump.write_text(json.dumps(
            {"workload": spec.name, "seed": job["seed"],
             "fields": ["name", "start", "end", "parent", "run"],
             "spans": tracer.spans()}))
        result["spans_file"] = dump.name
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
