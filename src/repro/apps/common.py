"""Helpers shared by the benchmark applications."""

from __future__ import annotations

import numpy as np

from repro.cstar.runtime import Aggregate, Distribution, ElementContext


def rows(n: int):
    """Element list for one invocation per *row* of an (n, fields) aggregate
    (an element of a multi-field aggregate is the row object, not each
    field)."""
    return [(i, 0) for i in range(n)]


def read_vec(ctx: ElementContext, agg: Aggregate, row: int, k: int = 3) -> tuple:
    """Read fields 0..k-1 of a row of a (n, fields) aggregate."""
    return ctx.read_row(agg, row, k)


def write_vec(ctx: ElementContext, agg: Aggregate, row: int, values) -> None:
    ctx.write_row(agg, row, values)


class RowAligned(Distribution):
    """Distribute rows of a (n, fields) aggregate in contiguous per-node
    chunks (keeps pos/vel/force rows co-owned).

    ``align`` rounds the chunk size up to a multiple (typically the number
    of rows per cache block), so ownership boundaries coincide with block
    boundaries — hand-partitioned SPMD codes do this to avoid false sharing
    across partitions.
    """

    def __init__(self, rows: int, fields: int, nodes: int, align: int = 1):
        self.rows = rows
        self.fields = fields
        self.nodes = nodes
        self.align = max(1, align)

    def owner(self, idx) -> int:
        per = -(-self.rows // self.nodes)
        per = -(-per // self.align) * self.align
        return min(idx[0] // per, self.nodes - 1)

    def validate(self, shape) -> None:
        from repro.util.errors import ConfigError

        if tuple(shape) != (self.rows, self.fields):
            raise ConfigError(f"RowAligned({self.rows},{self.fields}) != {shape}")


class OwnerMap(Distribution):
    """Distribution given by an explicit row -> node array (for tree
    aggregates whose ownership follows an application structure)."""

    def __init__(self, owners: np.ndarray, fields: int | None = None):
        self.owners = np.asarray(owners, dtype=np.int64)
        self.fields = fields

    def owner(self, idx) -> int:
        return int(self.owners[idx[0]])

    def validate(self, shape) -> None:
        from repro.util.errors import ConfigError

        if shape[0] != len(self.owners):
            raise ConfigError(
                f"OwnerMap covers {len(self.owners)} rows, aggregate has {shape[0]}"
            )
        if self.fields is not None and (len(shape) != 2 or shape[1] != self.fields):
            raise ConfigError(f"OwnerMap expects (n, {self.fields}), got {shape}")


def lattice_positions(n: int, box: float, seed: int = 1234) -> np.ndarray:
    """Deterministic jittered-lattice initial positions inside a cubic box."""
    side = int(np.ceil(n ** (1.0 / 3.0)))
    rng = np.random.default_rng(seed)
    pts = []
    spacing = box / side
    for i in range(side):
        for j in range(side):
            for k in range(side):
                if len(pts) == n:
                    break
                base = np.array([i, j, k], dtype=float) * spacing + spacing / 2
                pts.append(base + rng.uniform(-0.05, 0.05, 3) * spacing)
    return np.array(pts[:n])
