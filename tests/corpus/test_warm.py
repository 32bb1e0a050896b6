"""The corpus differential guarantee: warming changes timing, never results.

* A corpus-warmed machine holds exactly the schedules the records describe
  (identical to an in-memory ``from_record`` insert).
* For every protocol, a warmed run's observables (who read/wrote which
  block, final memory image) equal the cold run's.
* A fuzzer-mangled corpus degrades to cold start — same observables, no
  exception anywhere near the simulation.
* Warming through the real ``fuzz``/``run_specs`` entry points leaves
  reports deterministic (and the learning pass identical to no corpus).
"""

from __future__ import annotations

import random

from repro.core import make_machine
from repro.core.schedule import CommSchedule
from repro.corpus import open_corpus, supports_warm, workload_key
from repro.corpus.signature import canonical
from repro.verify import ALL_PROTOCOLS
from repro.verify.oracle import run_workload
from repro.verify.workload import generate_workload
from tests.corpus.helpers import CORPUS_FILE


def harvest_records(workload, protocol: str = "predictive") -> list[dict]:
    return run_workload(workload, protocol, harvest=True).harvest


def observables_key(obs):
    return (obs.readers, obs.writers, obs.image)


class TestWarmSeed:
    def test_warmed_machine_equals_memory_insert(self):
        workload = generate_workload(0)
        records = harvest_records(workload)
        assert records, "workload learned nothing; pick another seed"

        warmed = make_machine(workload.config, "predictive", warm=records)
        expected = make_machine(workload.config, "predictive")
        for record in records:
            expected.protocol.schedules.insert(CommSchedule.from_record(record))

        got = {s.directive_id: s.to_record()
               for s in warmed.protocol.schedules.values()}
        want = {s.directive_id: s.to_record()
                for s in expected.protocol.schedules.values()}
        assert got == want

    def test_warm_seed_skips_undecodable_records(self):
        workload = generate_workload(0)
        records = harvest_records(workload)
        machine = make_machine(workload.config, "predictive")
        bad = [{"directive": "x"}, None, 42, *records]
        assert machine.protocol.warm_seed(bad) == len(records)

    def test_live_schedule_outranks_corpus(self):
        workload = generate_workload(0)
        records = harvest_records(workload)
        machine = make_machine(workload.config, "predictive")
        live = CommSchedule.from_record(records[0])
        live.cooldown = 7  # marker: must survive the warm attempt
        machine.protocol.schedules.insert(live)
        machine.protocol.warm_seed(records)
        directive = records[0]["directive"]
        assert machine.protocol.schedules[directive] is live


class TestObservableEquivalence:
    def test_warmed_observables_equal_cold_for_every_protocol(self):
        for seed in (0, 1):
            workload = generate_workload(seed)
            records = harvest_records(workload)
            for protocol in ALL_PROTOCOLS:
                if protocol not in workload.protocols:
                    continue
                cold = run_workload(workload, protocol)
                warmed = run_workload(workload, protocol, warm=records)
                assert observables_key(warmed) == observables_key(cold), (
                    f"warming changed results under {protocol} seed {seed}")

    def test_warming_reduces_relearning(self):
        # the point of the corpus: a warmed run faults less
        workload = generate_workload(0)
        records = harvest_records(workload)
        cold = run_workload(workload, "predictive")
        warmed = run_workload(workload, "predictive", warm=records)
        assert warmed.stats.misses <= cold.stats.misses

    def test_supports_warm_matches_protocol_capability(self):
        assert supports_warm("predictive")
        assert not supports_warm("stache")
        assert not supports_warm("write-update")
        assert not supports_warm("no-such-protocol")


class TestMangledCorpus:
    def test_mangled_corpus_reproduces_cold_start(self, tmp_path):
        workload = generate_workload(0)
        records = harvest_records(workload)
        root = tmp_path / "c"
        key = workload_key(workload, "predictive")
        entry = {"protocol": "predictive",
                 "n_nodes": workload.config.n_nodes, "records": records}
        corpus = open_corpus(root)
        assert corpus.store(key, entry)
        corpus.close()

        # stomp bytes across the whole file, half of them inside the
        # stored row, so the damage is certain to reach the schedule
        path = root / CORPUS_FILE
        data = bytearray(path.read_bytes())
        body_at = data.index(canonical(entry))
        rng = random.Random(17)
        for i in range(32):
            at = (body_at + rng.randrange(len(canonical(entry))) if i % 2
                  else rng.randrange(len(data)))
            data[at] = (data[at] + rng.randrange(1, 256)) % 256
        path.write_bytes(bytes(data))

        mangled = open_corpus(root)
        assert mangled.ok  # damaged, not unusable
        stats = mangled.stats()
        assert stats["quarantined"] + stats["moved_aside"] >= 1
        got = mangled.lookup(key, workload.config.n_nodes)
        assert got is None  # the stomped row is never served
        warm = got["records"] if got is not None else None
        cold = run_workload(workload, "predictive")
        after = run_workload(workload, "predictive", warm=warm)
        assert observables_key(after) == observables_key(cold)

    def test_fuzz_learning_pass_matches_no_corpus(self, tmp_path):
        from repro.verify.fuzz import fuzz

        cold = fuzz(seeds=2, shrink=False).to_dict()
        corpus = open_corpus(tmp_path / "c")
        learn = fuzz(seeds=2, shrink=False, corpus=corpus).to_dict()
        assert learn == cold  # harvesting must not perturb the report
        warm1 = fuzz(seeds=2, shrink=False, corpus=corpus).to_dict()
        warm2 = fuzz(seeds=2, shrink=False, corpus=corpus).to_dict()
        assert warm1 == warm2  # warmed runs stay deterministic
        assert corpus.stats()["hits"] > 0

    def test_run_specs_roundtrip_through_corpus(self, tmp_path):
        from repro.apps import water
        from repro.bench.figures import WATER_CFG, WATER_KW
        from repro.bench.harness import VersionSpec, run_specs

        spec = VersionSpec("opt", water, "predictive", True,
                           WATER_CFG.with_(block_size=32), dict(WATER_KW))
        corpus = open_corpus(tmp_path / "c")
        (cold,) = run_specs([spec], corpus=corpus)
        assert corpus.stats()["stores"] == 1
        (warmed,) = run_specs([spec], corpus=corpus)
        assert corpus.stats()["hits"] >= 1
        # warmed run pre-sends from iteration 1: strictly fewer misses
        assert warmed.stats.misses <= cold.stats.misses

    def test_corpus_failure_never_reaches_the_simulation(self, tmp_path):
        from repro.verify.fuzz import fuzz

        path = tmp_path / "not-a-dir"
        path.write_text("")
        corpus = open_corpus(path)  # NullCorpus
        report = fuzz(seeds=1, shrink=False, corpus=corpus)
        assert report.ok
