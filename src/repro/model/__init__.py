"""repro.model — the analytical performance model (no event loop).

The simulator answers "what happened" by replaying every message through a
discrete-event engine; this package answers "what would happen" in closed
form.  It consumes the same inputs the simulator does — the compiler's
placed program, machine parameters, a protocol choice, and (optionally)
learned communication schedules — and produces a
:class:`~repro.sim.stats.RunStats`-shaped prediction in milliseconds, which
is what makes ``repro sweep --model`` parameter grids instant.

Pipeline (docs/MODEL.md has the derivations):

1. :mod:`repro.cstar.recording` runs the program's *value pass* once,
   machine-free (the very recording the simulator replays), capturing
   per-phase aggregate access streams (no timing).
2. :mod:`.predictor` *folds* those streams per block size, *walks* the
   fold against an analytical directory per protocol (cost-independent:
   miss classes, pre-send programs, learned schedules), then *assembles*
   cycles for a whole grid of cost tables at once — so sweeps over cost
   parameters reuse one walk and one array-valued assemble.
3. :mod:`.calibrate` holds the per-protocol residual coefficients
   (handler contention, per-miss queueing, realized ping-pong) the
   assemble step adds, and loads and saves them.

The model's experiments against the simulator — fitting those
coefficients to short reference simulations, and cross-validating the
model over the full benchmark suite — run the benchmark harness, so they
live in :mod:`repro.bench.validate`.
"""

from repro.cstar.recording import ProgramRecording, record_program
from repro.model.calibrate import (
    Calibration,
    default_calibration,
    load_calibration,
    save_calibration,
)
from repro.model.predictor import ModelPrediction, predict, predict_grid

__all__ = [
    "Calibration",
    "ModelPrediction",
    "ProgramRecording",
    "default_calibration",
    "load_calibration",
    "predict",
    "predict_grid",
    "record_program",
    "save_calibration",
]
