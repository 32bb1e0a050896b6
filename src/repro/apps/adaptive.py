"""Adaptive: structured adaptive mesh relaxation (paper §5.1).

"Adaptive is a structured mesh calculation that computes electric potentials
in a box.  The program imposes a mesh over the box and computes the potential
at each point by averaging its four neighbors.  At points where the gradient
is steep, finer detail is necessary and the program subdivides the cell into
four child cells. ... Each iteration of the program consists of a red-black
sweep over the mesh computing averages.  Within each sweep, each cell updates
values in its quad tree, reading values from neighboring points."  Table 1:
128x128 mesh, 100 iterations (scaled default: 16x16, 10 iterations).

Model:

* ``mesh``  — (N, N) float cell potentials, row-block distributed; the
  *left* boundary column is held at 1.0 (the "charged" box wall), so the
  steep-gradient stripe — and therefore refinement — runs down the left
  side of every processor's row band and across every band boundary,
  where quad-tree neighbor reads become inter-node communication.  The
  per-cell work of refined cells (4x/16x the tree nodes) also loads the
  left-column owners unevenly within a sweep, the imbalance the paper
  blames for Adaptive's synchronization time.
* ``level`` — (N, N) int refinement level, 0..MAX_LEVEL.
* ``tree``  — (N*N, TREE_NODES) float quad-tree node values per cell
  (4 depth-1 quadrants + 16 depth-2 sub-quadrants), rows co-owned with
  their cell.

Each sweep updates a cell's potential from its four neighbors, then updates
its active quad-tree nodes, reading the *neighboring cell's* quad-tree
sub-values when the neighbor is refined (the "neighbor reads in the quad
tree" the predictive protocol optimizes).  A refinement phase raises the
level of cells whose gradient exceeds a per-level threshold and initializes
the newly active tree nodes.  Refinement *adds* blocks to the communication
pattern incrementally — the predictive protocol's incremental schedules
track it; deletions never happen, matching the protocol's design point.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import OwnerMap
from repro.cstar.driver import Env
from repro.cstar.embedded import EmbeddedProgram, access, keyed_build
from repro.cstar.runtime import RowBlock2D

DEFAULTS = dict(size=16, iterations=10, threshold=0.08, work_scale=1.0)
PAPER_SCALE = dict(size=128, iterations=100, threshold=0.08)
#: the app variants: Adaptive has only its C** program
VARIANTS = ("cstar",)

MAX_LEVEL = 2
#: quad-tree layout per cell: nodes 0..3 are depth-1 quadrants, 4..19 are
#: depth-2 sub-quadrants (4 per quadrant)
TREE_NODES = 20

#: quadrant -> (horizontal neighbor direction, vertical neighbor direction)
#: directions: 0=left 1=right 2=up 3=down; quadrant 0=NW 1=NE 2=SW 3=SE
_QUAD_DIRS = {0: (0, 2), 1: (1, 2), 2: (0, 3), 3: (1, 3)}
_DIR_OFFSETS = {0: (0, -1), 1: (0, 1), 2: (-1, 0), 3: (1, 0)}
#: the neighbor's quadrant facing ours across direction d
_FACING = {0: {0: 1, 2: 3}, 1: {1: 0, 3: 2}, 2: {0: 2, 1: 3}, 3: {2: 0, 3: 1}}


def _neighbor(i: int, j: int, d: int) -> tuple[int, int]:
    di, dj = _DIR_OFFSETS[d]
    return i + di, j + dj


def cell_update(i, j, n, read_mesh, read_level, read_tree):
    """The sweep kernel for one cell; shared verbatim by the parallel body
    and the sequential reference, so values agree bit-for-bit.

    ``read_mesh(i, j)``, ``read_level(i, j)``, ``read_tree(cell, node)`` are
    the only data sources.  Returns (new_center, {tree_node: value}, cost).
    """
    cost = 4
    left = read_mesh(i, j - 1)
    right = read_mesh(i, j + 1)
    up = read_mesh(i - 1, j)
    down = read_mesh(i + 1, j)
    new_center = 0.25 * (left + right + up + down)
    level = read_level(i, j)
    tree_updates: dict[int, float] = {}
    if level >= 1:
        for q in range(4):
            dh, dv = _QUAD_DIRS[q]
            vals = []
            for d in (dh, dv):
                ni, nj = _neighbor(i, j, d)
                cost += 3
                if read_level(ni, nj) >= 1:
                    # neighbor is refined: read its facing sub-cell from its
                    # quad tree (the communication this app exercises)
                    vals.append(read_tree(ni * n + nj, _FACING[d][q]))
                else:
                    vals.append(read_mesh(ni, nj))
            tree_updates[q] = 0.5 * new_center + 0.25 * (vals[0] + vals[1])
        if level >= 2:
            for q in range(4):
                parent = tree_updates[q]
                for s in range(4):
                    dh, dv = _QUAD_DIRS[s]
                    ni, nj = _neighbor(i, j, dh)
                    cost += 3
                    if read_level(ni, nj) >= 2:
                        nbr = read_tree(ni * n + nj, 4 + _FACING[dh][s] * 4 + s)
                    else:
                        nbr = read_mesh(ni, nj)
                    tree_updates[4 + q * 4 + s] = 0.75 * parent + 0.25 * nbr
    return new_center, tree_updates, cost


def refine_decision(i, j, read_mesh, read_level, threshold):
    """Refine when the local gradient exceeds the per-level threshold."""
    level = read_level(i, j)
    if level >= MAX_LEVEL:
        return None
    c = read_mesh(i, j)
    grad = 0.0
    for d in range(4):
        ni, nj = _neighbor(i, j, d)
        grad = max(grad, abs(read_mesh(ni, nj) - c))
    if grad > threshold * (0.5 ** level):
        return level + 1
    return None


def _interior_cells(size: int, color: int):
    return [
        (i, j)
        for i in range(1, size - 1)
        for j in range(1, size - 1)
        if (i + j) % 2 == color
    ]


@keyed_build
def build(
    size: int = DEFAULTS["size"],
    iterations: int = DEFAULTS["iterations"],
    threshold: float = DEFAULTS["threshold"],
    work_scale: float = DEFAULTS["work_scale"],
) -> EmbeddedProgram:
    """``work_scale`` calibrates modelled compute cost per cell (see
    water.build)."""
    n = size

    def setup(env: Env) -> None:
        nodes = env.config.n_nodes
        # a cell is a C++ object (value + quad-tree pointer + bookkeeping):
        # pad to 32 bytes so one cell occupies a whole minimum-size block
        mesh = env.runtime.aggregate(
            "mesh", (n, n), dist=RowBlock2D(n, n, nodes), pad=4
        )
        level = env.runtime.aggregate(
            "level", (n, n), dtype="int", dist=RowBlock2D(n, n, nodes), pad=4
        )
        # tree rows co-owned with their cell
        per = -(-n // nodes)
        owners = np.repeat(np.minimum(np.arange(n) // per, nodes - 1), n)
        env.runtime.aggregate(
            "tree", (n * n, TREE_NODES), dist=OwnerMap(owners, TREE_NODES)
        )
        mesh.data[:, 0] = 1.0  # charged left wall
        env.state["red"] = _interior_cells(n, 0)
        env.state["black"] = _interior_cells(n, 1)

    prog = EmbeddedProgram("adaptive", setup)

    def sweep_body(ctx, env: Env) -> None:
        i, j = ctx.pos
        mesh, level, tree = env.agg("mesh"), env.agg("level"), env.agg("tree")
        new_center, tree_updates, cost = cell_update(
            i, j, n,
            lambda a, b: ctx.read(mesh, (a, b)),
            lambda a, b: int(ctx.read(level, (a, b))),
            lambda c, k: ctx.read(tree, (c, k)),
        )
        ctx.charge(cost * work_scale)
        ctx.write(mesh, (i, j), new_center)
        for node_idx, v in tree_updates.items():
            ctx.write(tree, (i * n + j, node_idx), v)

    sweep_accesses = [
        access("mesh", "r", "non-home"),
        access("mesh", "w", "home"),
        access("level", "r", "non-home"),
        access("tree", "r", "non-home"),
        access("tree", "w", "home"),
    ]
    prog.parallel("sweep_red", sweep_accesses, sweep_body)
    prog.parallel("sweep_black", list(sweep_accesses), sweep_body)

    def refine_body(ctx, env: Env) -> None:
        i, j = ctx.pos
        mesh, level, tree = env.agg("mesh"), env.agg("level"), env.agg("tree")
        ctx.charge(6 * work_scale)
        new_level = refine_decision(
            i, j,
            lambda a, b: ctx.read(mesh, (a, b)),
            lambda a, b: int(ctx.read(level, (a, b))),
            threshold,
        )
        if new_level is not None:
            ctx.write(level, (i, j), new_level)
            center = ctx.read(mesh, (i, j))
            cell = i * n + j
            if new_level == 1:
                for q in range(4):
                    ctx.write(tree, (cell, q), center)
            else:
                for q in range(4):
                    parent = ctx.read(tree, (cell, q))
                    for s in range(4):
                        ctx.write(tree, (cell, 4 + q * 4 + s), parent)

    prog.parallel(
        "refine",
        [
            access("mesh", "r", "non-home"),
            access("level", "r", "home"),
            access("level", "w", "home"),
            access("tree", "r", "home"),
            access("tree", "w", "home"),
        ],
        refine_body,
    )

    red = lambda env: env.state["red"]
    black = lambda env: env.state["black"]
    prog.build(
        prog.loop(
            iterations,
            prog.call("sweep_red", over="mesh", snapshot=["mesh", "level", "tree"],
                      elements=red),
            prog.call("sweep_black", over="mesh", snapshot=["mesh", "level", "tree"],
                      elements=black),
            prog.call("refine", over="mesh", snapshot=["mesh", "level", "tree"],
                      elements=red),  # refinement checked on red cells
        )
    )
    return prog

