#!/usr/bin/env python3
"""End-to-end host-time benchmark with outside-in layer attribution.

    python3 benchmarks/e2e/run.py                      # all six workloads
    python3 benchmarks/e2e/run.py --workload figures --seed 3 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py compare A.json B.json

Every sample is one fresh child process (``e2e_child.py``), one child at a
time, tracing off; host metrics are medians over the children.  ``--trace 1``
adds one traced child whose spans — installed from these files around the
calls that cross each layer boundary — yield the per-layer numbers.  The
last line of standard output is the machine-readable result; README.md
explains every metric, workload and derived number.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from e2e_layers import PER_LAYER  # noqa: E402
from e2e_workloads import CALIBRATION, ROOT, WORKLOADS  # noqa: E402

SCHEMA = "repro.e2e/v1"
RESULTS = HERE / "results"
CHILD = HERE / "e2e_child.py"

#: (name, unit, better, bound): bound is the share of the baseline median by
#: which the metric may worsen before ``compare`` calls it a regression;
#: ``None`` marks a simulated metric that must repeat exactly
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("sim_cycles", "cycles", "lower", None),
    ("remote_misses", "count", "lower", None),
    ("failed_share", "ratio", "lower", None),
)
HOST_METRICS = tuple(name for name, _, _, bound in END_TO_END if bound)

#: a suite run takes exactly this many body samples per workload
SUITE_REPEATS = 5
#: a time-boxed run (``--workload ... --seconds``) takes at least this many
MIN_REPEATS = 2
#: set-up is cheap and import-dominated: sample it this many times per run
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


# -- children ------------------------------------------------------------------


def spawn(workload: str, seed: int, profile: str, *, traced: bool = False,
          setup_only: bool = False) -> dict | None:
    """Run one child to completion; its result, or None if it crashed."""
    job = {"workload": workload, "seed": seed, "profile": profile,
           "traced": traced, "setup_only": setup_only, "t_spawn": time.time()}
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(job)], cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"[e2e] {workload}: child timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
        print(f"[e2e] {workload}: child exited {proc.returncode}\n{tail}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def summarize(samples: list[float], unit: str) -> dict:
    """Median, quartiles and sample count of one host metric.

    The median is the *low* median (the lower middle sample of an even
    count): host noise on a shared machine is one-sided — a neighbour's
    burst only ever slows a child down — so with two samples the undisturbed
    one is reported instead of a mean that half-contains the burst.
    """
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0] if samples else None
    return {"unit": unit, "n": len(samples),
            "median": statistics.median_low(samples) if samples else None,
            "q1": q1, "q3": q3, "samples": samples}


def measure(workload: str, seed: int, profile: str, *, repeats: int | None,
            seconds: float, traced: bool, reference: dict | None = None) -> dict:
    """All samples of one workload, folded into its result block.

    ``repeats`` (the suite's SUITE_REPEATS) fixes the number of body
    children; with None children run until ``seconds`` of measuring have
    passed (at least MIN_REPEATS).  ``setup_s`` is topped up to
    SETUP_SAMPLES with set-up-only children, counted apart in its summary.
    ``reference`` carries the sequential campaign's digests and wall for a
    farmed (``jobs > 1``) workload, which must reproduce them; when absent
    one untimed ``campaign`` child supplies it.
    """
    spec = WORKLOADS[workload]
    nominal = spec.nominal_ops[profile]
    farmed = spec.sizes[profile].get("jobs", 1) > 1
    ops = failed = crashed = 0
    failures: list[str] = []
    good: list[dict] = []

    if farmed and reference is None:
        ref = spawn("campaign", seed, profile)
        reference = ref and {"digests": ref["extra"]["digests"],
                             "wall_s": ref["wall_s"]}

    def fold(sample: dict | None) -> None:
        nonlocal ops, failed, crashed
        if sample is None:  # a crashed child fails all its ops, no wall sample
            crashed += 1
            ops += nominal
            failed += nominal
            failures.append("child crashed")
            return
        good.append(sample)
        ops += sample["ops"]
        failed += sample["failed_ops"]
        failures.extend(sample["failures"])
        if farmed:
            for label, digest in sorted(sample["extra"]["digests"].items()):
                ops += 1
                if not reference or reference["digests"].get(label) != digest:
                    failed += 1
                    failures.append(f"{label} report digest differs from the "
                                    f"sequential campaign's")

    began = time.perf_counter()
    done = 0
    while (done < repeats if repeats
           else done < MIN_REPEATS or time.perf_counter() - began < seconds):
        fold(spawn(workload, seed, profile))
        done += 1
    setup = [s["setup_s"] for s in good]
    while len(setup) < SETUP_SAMPLES and good:
        extra = spawn(workload, seed, profile, setup_only=True)
        if extra is None:
            break
        setup.append(extra["setup_s"])

    # simulated metrics must repeat bit for bit across the children
    exact = {}
    for name in ("sim_cycles", "remote_misses"):
        values = {s[name] for s in good}
        ops += 1
        if len(values) > 1:
            failed += 1
            failures.append(f"{name} differs between repeats: {sorted(values)}")
        exact[name] = good[0][name] if good else None

    block = {
        "why": spec.why, "sizes": spec.sizes[profile],
        "engine_path": good[0]["engine_path"] if good else None,
        "repeats": done, "children_crashed": crashed,
        "ops": ops, "failed_ops": failed, "failures": failures[:20],
        "end_to_end": {
            "wall_s": summarize([s["wall_s"] for s in good], "s"),
            "setup_s": {**summarize(setup, "s"), "n_body": len(good),
                        "n_setup_only": len(setup) - len(good)},
            "peak_rss_mb": summarize([s["peak_rss_mb"] for s in good], "MB"),
            "sim_cycles": {"unit": "cycles", "value": exact["sim_cycles"]},
            "remote_misses": {"unit": "count", "value": exact["remote_misses"]},
            "failed_share": {"unit": "ratio", "value": failed / ops},
        },
        "digests": good[0]["extra"].get("digests") if good else None,
        "per_layer": None,
    }
    if traced and good:
        block["per_layer"] = _traced(workload, seed, profile, block, reference)
    return block


def _traced(workload: str, seed: int, profile: str, block: dict,
            reference: dict | None) -> dict | None:
    """One traced child's layer numbers plus the cross-run derived ones."""
    sample = spawn(workload, seed, profile, traced=True)
    if sample is None:
        return None
    layers = sample["per_layer"]
    wall = block["end_to_end"]["wall_s"]["median"]
    layers["bench.trace_overhead_pct"] = 100.0 * (sample["wall_s"] - wall) / wall
    jobs = block["sizes"].get("jobs", 1)
    if jobs > 1 and reference:
        # derived from the sequential campaign's wall (its median in a suite
        # run, one reference child in a single-workload run)
        layers["farm.speedup"] = reference["wall_s"] / wall
        layers["farm.efficiency"] = layers["farm.speedup"] / jobs
        layers["farm.overhead_s"] = wall - reference["wall_s"] / jobs
    else:
        layers["farm.speedup"] = layers["farm.efficiency"] = 0
        layers["farm.overhead_s"] = 0
    block["boundaries_missing"] = sample["boundaries_missing"]
    block["spans_file"] = sample["spans_file"]
    return {name: layers[name] for name, *_ in PER_LAYER}


# -- provenance and reporting --------------------------------------------------


def provenance(seed: int, profile: str, repeats: int | None,
               seconds: float) -> dict:
    """How these numbers were produced, so any of them can be traced back."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    load1 = os.getloadavg()[0]
    return {
        "git_commit": commit,
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        "nproc": os.cpu_count(),
        "load_1min_at_start": load1,
        "noisy_host": load1 > 1,
        "calibration_sha256": hashlib.sha256(
            CALIBRATION.read_bytes()).hexdigest(),
        "seed": seed, "profile": profile,
        "repeats": repeats, "seconds": None if repeats else seconds,
    }


def render(doc: dict) -> str:
    """Every metric by name with its unit, one line each."""
    lines = [f"e2e benchmark  profile={doc['profile']}  "
             f"seed={doc['provenance']['seed']}  "
             f"commit={doc['provenance']['git_commit'][:12]}"
             + ("  NOISY HOST" if doc["provenance"]["noisy_host"] else "")]
    units = {name: unit for name, unit, *_ in PER_LAYER}
    for name, block in doc["workloads"].items():
        lines.append(f"\n{name}  [{block['engine_path']}]  "
                     f"ops {block['ops']}  failed {block['failed_ops']}")
        for metric, row in block["end_to_end"].items():
            if "median" in row:
                lines.append(
                    f"  {metric:<42} {_fmt(row['median'])} {row['unit']}  "
                    f"(q1 {_fmt(row['q1'])}, q3 {_fmt(row['q3'])}, "
                    f"n={row['n']})")
            else:
                lines.append(f"  {metric:<42} {json.dumps(row['value'])} "
                             f"{row['unit']}  (exact)")
        for metric, value in (block["per_layer"] or {}).items():
            lines.append(f"  {metric:<42} {_fmt(value)} {units[metric]}")
        for failure in block["failures"]:
            lines.append(f"  FAILED: {failure}")
    return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "null"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def write_result(doc: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1) + "\n")
    tmp.replace(path)


# -- compare -------------------------------------------------------------------


def verdict(metric: str, better: str, bound: float | None,
            a: dict, b: dict) -> tuple[str, str]:
    """(verdict, detail) for one end-to-end metric of one workload.

    ``same``       exact metric, equal values
    ``regressed``  exact metric worse; or host median worse than the bound
    ``unresolved`` host runs interleave and spread wider than the bound
    ``improved``   host median better by more than A's own quartile spread
                   and B wins at least nine tenths of all (a, b) pairs
    ``unchanged``  otherwise
    """
    sign = 1 if better == "lower" else -1
    if bound is None:
        va, vb = a["value"], b["value"]
        if va == vb:
            return "same", json.dumps(va)  # every digit: these repeat exactly
        worse = va is None or vb is None or sign * (vb - va) > 0
        return ("regressed" if worse else "improved",
                f"{json.dumps(va)} -> {json.dumps(vb)}")
    ma, mb = a["median"], b["median"]
    if not ma or not mb:  # every child of one side crashed
        return "regressed", f"{_fmt(ma)} -> {_fmt(mb)}"
    ratio = mb / ma
    detail = (f"{_fmt(ma)} [{_fmt(a['q1'])}, {_fmt(a['q3'])}] n={a['n']} -> "
              f"{_fmt(mb)} [{_fmt(b['q1'])}, {_fmt(b['q3'])}] n={b['n']}  "
              f"ratio {ratio:.3f} (base: A median {_fmt(ma)} {a['unit']})")
    spread_a = (a["q3"] - a["q1"]) / ma
    spread = max(spread_a, (b["q3"] - b["q1"]) / mb)
    pairs = [(x, y) for x in a["samples"] for y in b["samples"]]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    losses = sum(sign * (y - x) > 0 for x, y in pairs)
    interleave = 0 < wins and 0 < losses
    worsening = sign * (ratio - 1)
    if spread > bound and interleave:
        return "unresolved", detail
    if worsening > bound:
        return "regressed", detail
    if -worsening > spread_a and wins >= 0.9 * len(pairs):
        return "improved", detail
    return "unchanged", detail


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for doc, path in ((a, path_a), (b, path_b)):
        if doc.get("schema") != SCHEMA:
            print(f"compare: {path} is not a {SCHEMA} result", file=sys.stderr)
            return 2
    if a["profile"] != b["profile"]:
        print(f"compare: refusing to mix profiles "
              f"({a['profile']} vs {b['profile']})", file=sys.stderr)
        return 2
    print(f"A = {path_a} ({a['provenance']['git_commit'][:12]})   "
          f"B = {path_b} ({b['provenance']['git_commit'][:12]})")
    bad = 0
    exact_same = True
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name}: missing from B")
            bad += 1
            continue
        ea, eb = (d["workloads"][name]["end_to_end"] for d in (a, b))
        for metric, _unit, better, bound in END_TO_END:
            word, detail = verdict(metric, better, bound, ea[metric], eb[metric])
            print(f"{name:<16} {metric:<14} {word:<10} {detail}")
            bad += word == "regressed"
            exact_same &= bound is not None or word == "same"
    print("simulated metrics and failed_share identical on every workload"
          if exact_same else "exact metrics DIFFER (see rows above)")
    return 1 if bad else 0


# -- entry ---------------------------------------------------------------------


def contract() -> dict:
    """The driver-facing description of this benchmark (``BENCHMARK.json``).

    Only the host metrics carry a relative bound there; the exact simulated
    metrics ride in the per-layer list and ``failed_share`` is the result
    line's ``failed / attempted``.
    """
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": 10,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END if bound],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, *_ in PER_LAYER],
    }


def driver_line(block: dict, traced: bool) -> dict | None:
    """The contract's result object for one single-workload run (None when
    no child survived to give the host metrics a value)."""
    if traced:
        layers = block["per_layer"] or {}
        # the contract wants a number for every per-layer metric: a metric
        # whose boundary is gone (None in the result file) reads 0 here and
        # is counted in bench.boundaries_missing
        metrics = {name: {"value": layers.get(name) or 0, "unit": unit}
                   for name, unit, *_ in PER_LAYER}
    else:
        metrics = {name: {"value": block["end_to_end"][name]["median"],
                          "unit": block["end_to_end"][name]["unit"]}
                   for name in HOST_METRICS}
    if any(m["value"] is None for m in metrics.values()):
        return None
    complete = (block["children_crashed"] == 0
                and (not traced or block["per_layer"] is not None))
    return {"correct": block["failed_ops"] == 0 and complete,
            "attempted": block["ops"], "failed": block["failed_ops"],
            "metrics": metrics}


def main(argv: list[str]) -> int:
    if argv[:1] == ["contract"]:
        print(json.dumps(contract(), indent=2))
        return 0
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="with --workload: measure for this long "
                             f"(a suite run takes {SUITE_REPEATS} samples "
                             "per workload instead)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1 adds the traced child (default: 1 for a "
                             "suite run, 0 with --workload)")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test sizes; never comparable to full runs")
    parser.add_argument("--out", type=Path, help="write the result here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not CALIBRATION.is_file():
        print(f"e2e: no program to measure under {ROOT}", file=sys.stderr)
        return 2

    profile = "smoke" if args.smoke else "full"
    single = args.workload is not None
    repeats = None if single else SUITE_REPEATS
    traced = bool(args.trace) if args.trace is not None else not single
    doc = {"schema": SCHEMA, "profile": profile,
           "provenance": provenance(args.seed, profile, repeats, args.seconds),
           "workloads": {}}
    reference = None
    for name in ([args.workload] if single else list(WORKLOADS)):
        block = measure(name, args.seed, profile, repeats=repeats,
                        seconds=args.seconds, traced=traced,
                        reference=reference)
        doc["workloads"][name] = block
        if name == "campaign" and block["digests"]:
            reference = {"digests": block["digests"],
                         "wall_s": block["end_to_end"]["wall_s"]["median"]}
    print(render(doc))
    default = (f"last-{args.workload}-{profile}.json" if single
               else f"suite-{profile}.json")
    write_result(doc, args.out or RESULTS / default)
    if single:
        line = driver_line(doc["workloads"][args.workload], traced)
        if line is None:
            return 1
        print(json.dumps(line))
        return 0
    return 0 if all(b["failed_ops"] == 0 and not b["children_crashed"]
                    for b in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
