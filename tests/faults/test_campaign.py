"""Tests for fault campaigns and injection-history shrinking."""

from repro.faults import FaultPlan, run_campaign
from repro.faults.campaign import shrink_events
from repro.faults.plan import FaultEvent


def _ev(n):
    return FaultEvent("drop", ("msg", "GET_RO", 0, 1, n, 0, 0))


class TestShrinkEvents:
    def test_minimizes_to_known_core(self):
        events = [_ev(n) for n in range(12)]
        core = {events[3], events[9]}

        def fails(subset):
            return core <= set(subset)

        minimal, runs = shrink_events(fails, events)
        assert set(minimal) == core
        assert runs > 0

    def test_single_culprit(self):
        events = [_ev(n) for n in range(8)]

        def fails(subset):
            return events[5] in subset

        minimal, _ = shrink_events(fails, events)
        assert minimal == [events[5]]

    def test_irreproducible_returns_none(self):
        minimal, runs = shrink_events(lambda s: False, [_ev(0), _ev(1)])
        assert minimal is None
        assert runs == 1  # one attempt at the full history, then gave up

    def test_empty_history_returns_none(self):
        assert shrink_events(lambda s: True, []) == (None, 0)

    def test_respects_run_budget(self):
        events = [_ev(n) for n in range(64)]

        def fails(subset):
            # pathological: only the full set reproduces
            return len(subset) == len(events)

        minimal, runs = shrink_events(fails, events, max_runs=10)
        assert runs <= 10
        assert set(minimal) == set(events)  # never returns a non-failing set

    def test_preserves_event_order(self):
        events = [_ev(n) for n in range(10)]
        keep = [events[2], events[7]]

        def fails(subset):
            return all(e in subset for e in keep)

        minimal, _ = shrink_events(fails, events)
        assert minimal == keep  # original relative order retained


class TestRunCampaign:
    def test_bundled_campaign_is_green(self):
        report = run_campaign(
            seeds=1, variants=1, protocols=("stache",), traces_dir=None
        )
        assert report.ok
        assert report.failures == []
        assert report.unrecoverable_ok is True
        assert report.workloads == 1
        # every bundled plan ran against the one workload, plus the
        # unrecoverable fail-fast probe
        assert report.runs == report.plans + 1
        assert "no coherence violations" in report.summary()

    def test_summary_of_no_runs_says_nothing_ran(self):
        report = run_campaign(seeds=0, traces_dir=None)
        assert report.runs == 0
        text = report.summary()
        assert "nothing ran" in text
        assert "no coherence violations" not in text

    def test_custom_plan_subset(self):
        plans = {"drops": FaultPlan(name="drops", drop_rate=0.2, seed=5)}
        report = run_campaign(
            plans=plans, seeds=1, protocols=("predictive",),
            traces_dir=None, check_unrecoverable=False,
        )
        assert report.ok
        assert report.plans == 1
        assert report.unrecoverable_ok is None

    def test_variants_multiply_runs(self):
        plans = {"drops": FaultPlan(name="drops", drop_rate=0.1, seed=5)}
        one = run_campaign(plans=plans, seeds=1, protocols=("stache",),
                           variants=1, traces_dir=None,
                           check_unrecoverable=False)
        three = run_campaign(plans=plans, seeds=1, protocols=("stache",),
                             variants=3, traces_dir=None,
                             check_unrecoverable=False)
        assert three.runs == 3 * one.runs

    def test_trace_workloads_included(self):
        report = run_campaign(
            plans={"dup": FaultPlan(name="dup", dup_rate=0.3, seed=2)},
            seeds=1, protocols=("stache",), traces_dir="examples/traces",
            check_unrecoverable=False,
        )
        assert report.ok
        assert report.workloads > 1  # the generated seed plus bundled traces


class TestFailureScripts:
    """A failing run must leave behind a ready-to-replay scripted plan,
    and --dump-scripts archives it as versioned JSON."""

    #: hopeless but *not* the probe plan: run through the normal campaign
    #: path so the failure machinery (scripting, shrinking, dumping) fires
    DOOMED = {"doomed": FaultPlan(name="doomed", drop_rate=1.0,
                                  timeout_budget=20_000.0, max_retries=2)}

    def test_failure_carries_scripted_plan(self):
        report = run_campaign(
            plans=dict(self.DOOMED), seeds=1, protocols=("stache",),
            traces_dir=None, check_unrecoverable=False,
        )
        assert not report.ok and report.failures
        fail = report.failures[0]
        assert fail.scripted_plan is not None
        assert fail.scripted_plan.scripted
        assert fail.scripted_plan.drop_rate == 0.0  # script only, no dice
        if fail.minimized_events is not None:
            assert list(fail.scripted_plan.events) == fail.minimized_events

    def test_dump_scripts_archives_replayable_json(self, tmp_path):
        from repro.faults import load_plan

        report = run_campaign(
            plans=dict(self.DOOMED), seeds=1, protocols=("stache",),
            traces_dir=None, check_unrecoverable=False,
            dump_scripts=tmp_path / "scripts",
        )
        assert report.failures
        dumped = sorted((tmp_path / "scripts").glob("*.json"))
        assert len(dumped) == len(report.failures)
        plan = load_plan(dumped[0])
        assert plan == report.failures[0].scripted_plan

    def test_green_campaign_dumps_nothing(self, tmp_path):
        report = run_campaign(
            plans={"dup": FaultPlan(name="dup", dup_rate=0.2, seed=1)},
            seeds=1, protocols=("stache",), traces_dir=None,
            check_unrecoverable=False, dump_scripts=tmp_path / "scripts",
        )
        assert report.ok
        assert not (tmp_path / "scripts").exists()
