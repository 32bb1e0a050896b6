"""Byte-determinism of the committed model artifacts.

The calibration and validation documents are committed to ``benchmarks/``;
CI regenerates them and compares bytes (``cmp``-style).  These tests hold
the same line in-process: regeneration must be byte-identical, and the
committed calibration must match what today's code produces.
"""

import pathlib

import pytest

from repro.bench import validate as mv
from repro.bench.validate import calibrate
from repro.model import save_calibration

BENCHMARKS = pathlib.Path(__file__).parent.parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def fitted():
    return calibrate()


class TestCalibrationDeterminism:
    def test_matches_committed_artifact(self, fitted, tmp_path):
        committed = BENCHMARKS / "MODEL_calibration.json"
        assert committed.is_file(), "run: repro model --calibrate"
        fresh = tmp_path / "cal.json"
        save_calibration(fresh, fitted)
        assert fresh.read_bytes() == committed.read_bytes()

    def test_coefficients_sane(self, fitted):
        for p in ("stache", "predictive", "write-update"):
            alpha, gamma, delta = fitted.for_protocol(p)
            assert alpha == 0.0
            assert gamma == 1.0
            assert 0.0 <= delta <= 2.0
        # write-update forbids remote writes: no ping-pong to fit
        assert fitted.delta["write-update"] == 0.0

    def test_fit_improves_or_preserves_references(self, fitted):
        for p, diag in fitted.diagnostics.items():
            assert (diag["rms_wall_err_after"]
                    <= diag["rms_wall_err_before"] + 1e-12), p


class TestValidationDeterminism:
    def test_quick_profile_regenerates_identically(self, fitted, tmp_path):
        a = mv.validate(fitted, quick=True)
        b = mv.validate(fitted, quick=True)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        mv.save_validation(pa, a)
        mv.save_validation(pb, b)
        assert pa.read_bytes() == pb.read_bytes()
        assert "measured" not in a  # timing stays out unless asked

    def test_committed_validation_in_budget(self):
        committed = BENCHMARKS / "MODEL_validation.json"
        assert committed.is_file(), "run: repro model --suite --write"
        doc = mv.load_validation(committed)
        assert doc["passed"], doc["failures"]
        assert doc["profile"] == "full"
        assert len(doc["cases"]) == 12
        # the headline demonstration: >=100x on the committed sweep grid
        assert doc["measured"]["speedup"] >= 100.0
        assert doc["sweep_demo"]["shape"]["ordering_agreement"] >= 0.95
