"""The cross-validation gate logic (synthetic rows; no sims here)."""

import pytest

from repro.bench import validate as mv
from repro.util.errors import ReproError


def row(label="case", protocol="predictive", wall_err=0.01, compute_err=0.0,
        miss_err=0.0, sim_sent=100, model_sent=100, sim_useless=5,
        model_useless=5):
    return {
        "label": label,
        "protocol": protocol,
        "errors": {"wall_time": wall_err, "compute": compute_err,
                   "misses": miss_err},
        "presend": {"sim_sent": sim_sent, "model_sent": model_sent,
                    "sim_useless": sim_useless,
                    "model_useless": model_useless},
    }


class TestCaseFailures:
    def test_clean_case_passes(self):
        assert mv._case_failures(row()) == []

    def test_wall_budget_enforced(self):
        assert mv._case_failures(row(wall_err=0.11))
        assert not mv._case_failures(row(wall_err=-0.09))

    def test_infinite_wall_error_fails(self):
        assert mv._case_failures(row(wall_err=None))

    def test_compute_must_be_exact(self):
        assert mv._case_failures(row(compute_err=0.001))

    def test_presend_exact_when_misses_exact(self):
        # the walk reproduced the miss stream -> any drift is a bug
        bad = row(miss_err=0.0, sim_sent=100, model_sent=101)
        assert mv._case_failures(bad)

    def test_presend_budget_when_learning_timing_dependent(self):
        ok = row(miss_err=-0.05, sim_sent=245, model_sent=256)
        assert mv._case_failures(ok) == []
        bad = row(miss_err=-0.05, sim_sent=245, model_sent=300)
        assert mv._case_failures(bad)

    def test_presend_ignored_for_stache(self):
        r = row(protocol="stache", sim_sent=0, model_sent=3)
        assert mv._case_failures(r) == []


class TestRelErr:
    def test_signed(self):
        assert mv._rel_err(110.0, 100.0) == pytest.approx(0.1)
        assert mv._rel_err(90.0, 100.0) == pytest.approx(-0.1)

    def test_zero_sim_zero_model_is_exact(self):
        assert mv._rel_err(0, 0) == 0.0

    def test_zero_sim_nonzero_model_is_none(self):
        assert mv._rel_err(3, 0) is None


class TestGridShape:
    def grid(self, walls):
        return {"rows": [{"wall_time": w} for w in walls]}

    def test_identical_grids(self):
        shape = mv._grid_shape(self.grid([1.0, 2.0, 3.0]),
                               self.grid([1.0, 2.0, 3.0]))
        assert shape["max_wall_err"] == 0.0
        assert shape["ordering_agreement"] == 1.0

    def test_ordering_disagreement_counted(self):
        shape = mv._grid_shape(self.grid([1.0, 2.0, 3.0]),
                               self.grid([1.0, 3.0, 2.0]))
        assert shape["ordering_agreement"] < 1.0

    def test_size_mismatch_raises(self):
        with pytest.raises(ReproError):
            mv._grid_shape(self.grid([1.0]), self.grid([1.0, 2.0]))


class TestCompareValidation:
    def doc(self, wall_err, failures=()):
        return {"cases": [row(wall_err=wall_err)],
                "failures": list(failures)}

    def test_pass_when_stable(self):
        assert mv.compare_validation(self.doc(0.02), self.doc(0.02)) == []

    def test_fresh_failures_propagate(self):
        problems = mv.compare_validation(self.doc(0.02),
                                         self.doc(0.02, ["boom"]))
        assert problems == ["boom"]

    def test_growth_past_budget_flagged(self):
        problems = mv.compare_validation(self.doc(0.05), self.doc(0.12))
        assert problems

    def test_growth_within_budget_tolerated(self):
        assert mv.compare_validation(self.doc(0.05), self.doc(0.06)) == []

    def test_committed_only_cases_ignored(self):
        committed = {"cases": [row(label="other")], "failures": []}
        assert mv.compare_validation(committed, self.doc(0.02)) == []


class TestLoadValidation:
    def test_round_trip(self, tmp_path):
        doc = {"schema": mv.VALIDATION_SCHEMA, "cases": [], "failures": [],
               "passed": True}
        mv.save_validation(tmp_path / "v.json", doc)
        assert mv.load_validation(tmp_path / "v.json") == doc

    def test_wrong_schema_rejected(self, tmp_path):
        mv.save_validation(tmp_path / "v.json", {"schema": "nope/v1"})
        with pytest.raises(ReproError):
            mv.load_validation(tmp_path / "v.json")


class TestSpecs:
    def test_full_matrix_covers_all_protocols_and_figures(self):
        specs = mv.validation_specs()
        assert len(specs) == 12
        protocols = {s.protocol for s in specs}
        assert protocols == {"stache", "predictive", "write-update"}
        figures = {s.label.split("/")[0] for s in specs}
        assert figures == {"fig5", "fig6", "fig7"}

    def test_quick_subset_still_crosses_protocols(self):
        quick = mv.validation_specs(quick=True)
        assert len(quick) < 6
        assert {s.protocol for s in quick} == {"stache", "predictive",
                                               "write-update"}
        full_labels = {s.label for s in mv.validation_specs()}
        assert {s.label for s in quick} <= full_labels
