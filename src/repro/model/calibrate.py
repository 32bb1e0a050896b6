"""The model's calibration: per-protocol residual coefficients.

The walk/assemble pipeline is exact for counts on data-parallel sharing but
approximate for cycles, and the residuals scale with observable phase
features, so the model adds them per protocol:

    phase remote-wait  =  base(walk, cost table)
                          + alpha * (misses in phase)
                          + gamma * (raw contention-cycle estimate)
                          + delta * (raw ping-pong-cycle exposure)

``alpha`` absorbs per-miss effects the fold misses, ``gamma`` rescales the
M/D/1 contention estimate, and ``delta`` is the fraction of the walk's
ping-pong *chain exposure* (burst-compressed op-position interleaving,
charged to every block participant) the simulator's timing actually
realizes.  :class:`Calibration` holds them and persists as canonical JSON
(``repro.model-calibration/v1``) via :mod:`repro.util.atomicio`; the fit
against reference simulations is :func:`repro.bench.validate.calibrate`.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

from repro.model.predictor import PROTOCOLS
from repro.util.errors import ConfigError

CALIBRATION_SCHEMA = "repro.model-calibration/v1"


@dataclass(frozen=True)
class Calibration:
    """Per-protocol residual coefficients (see the module docstring)."""

    alpha: dict[str, float]
    gamma: dict[str, float]
    delta: dict[str, float] = field(default_factory=dict)
    #: per-protocol fit diagnostics (rms residual before/after, phase count)
    diagnostics: dict[str, dict] = field(default_factory=dict)

    def for_protocol(self, protocol: str) -> tuple[float, float, float]:
        return (self.alpha.get(protocol, 0.0),
                self.gamma.get(protocol, 1.0),
                self.delta.get(protocol, 0.0))

    def to_doc(self) -> dict:
        return {
            "schema": CALIBRATION_SCHEMA,
            "alpha": {p: self.alpha[p] for p in sorted(self.alpha)},
            "gamma": {p: self.gamma[p] for p in sorted(self.gamma)},
            "delta": {p: self.delta[p] for p in sorted(self.delta)},
            "diagnostics": {p: self.diagnostics[p]
                            for p in sorted(self.diagnostics)},
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "Calibration":
        if doc.get("schema") != CALIBRATION_SCHEMA:
            raise ConfigError(
                f"not a calibration document: schema="
                f"{doc.get('schema')!r} (want {CALIBRATION_SCHEMA!r})")
        return cls(
            alpha={p: float(v) for p, v in doc.get("alpha", {}).items()},
            gamma={p: float(v) for p, v in doc.get("gamma", {}).items()},
            delta={p: float(v) for p, v in doc.get("delta", {}).items()},
            diagnostics=dict(doc.get("diagnostics", {})),
        )


def default_calibration() -> Calibration:
    """The uncalibrated identity: raw contention, no fitted residuals."""
    return Calibration(
        alpha={p: 0.0 for p in PROTOCOLS},
        gamma={p: 1.0 for p in PROTOCOLS},
        delta={p: 0.0 for p in PROTOCOLS},
    )


def save_calibration(path, calibration: Calibration) -> None:
    from repro.util.atomicio import atomic_write_json

    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_json(out, calibration.to_doc())


def load_calibration(path) -> Calibration:
    import json

    return Calibration.from_doc(json.loads(pathlib.Path(path).read_text()))
