"""Shared utilities: configuration, errors, and table rendering.

These helpers are deliberately dependency-light; every other subpackage of
:mod:`repro` may import from here, but :mod:`repro.util` imports nothing from
the rest of the package.
"""

from repro.util.config import MachineConfig, CM5_DEFAULTS
from repro.util.errors import (
    ReproError,
    ConfigError,
    ProtocolError,
    SimulationError,
    StructuredError,
    TransportTimeout,
    CompileError,
)
from repro.util.tables import format_table, format_bar_chart

__all__ = [
    "MachineConfig",
    "CM5_DEFAULTS",
    "ReproError",
    "ConfigError",
    "ProtocolError",
    "SimulationError",
    "StructuredError",
    "TransportTimeout",
    "CompileError",
    "format_table",
    "format_bar_chart",
]
