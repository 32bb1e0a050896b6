"""Barnes: gravitational N-body simulation with a Barnes-Hut octree (§5.2).

"Barnes uses an oct-tree to represent bodies in 3-dimensional space. ... To
calculate the force on a body, the algorithm performs a depth-first traversal
of the tree.  If an interior node is sufficiently far away from the body, the
bodies in that region are approximated by a point mass at the center of mass
of the collection."  Table 1: 16384 bodies, 3 iterations (scaled default:
128 bodies, 3 iterations).

Phase structure per time step — exactly the paper's Figure 4:

1. **build_tree** — each body writes its leaf (position/mass) and the tree
   nodes its insertion created (geometry + child links): *unstructured
   writes* to ``tree``/``childs``, plus home reads of its own body row.
2. **center_of_mass** — a loop over tree levels, deepest first; each
   internal node averages its children: *home-only* accesses, so the
   compiler hoists a single directive out of the loop (the paper's
   "phase 3" optimization).
3. **compute_forces** — depth-first traversal with opening criterion
   ``size/dist < theta``; reads interior nodes and child links
   (*unstructured*), reads leaf bodies from ``bodies`` (*unstructured* —
   the remote-body reads that dominate communication), writes its own
   acceleration (*home*).
4. **update** — integrate velocities/positions: *home-only* owner writes,
   requiring a schedule by rule 1 (reached by compute_forces' unstructured
   body reads).

The octree structure itself is computed on the host each iteration (the
shared-memory traffic of building it is modelled by phase 1's writes, with
per-body insertion-depth compute charges); DFS numbering keeps subtrees
contiguous, which is what gives Barnes its excellent spatial locality at
large cache blocks (the paper's 1024-byte result).

``variant="spmd"`` models the hand-optimized SPMD program of Falsafi et
al. [5] under the write-update protocol: the tree is built locally (no
unstructured remote writes — each tree row is written by its home), and
consumers of tree rows and body rows receive pushed updates at the end of
each producing phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.common import OwnerMap, RowAligned, read_vec, rows, write_vec
from repro.cstar.driver import Env
from repro.cstar.embedded import EmbeddedProgram, LoopSpec, access, keyed_build
from repro.util.errors import SimulationError

DEFAULTS = dict(n=128, iterations=3, theta=0.6, dt=0.1, vel_scale=0.4, work_scale=1.0)
PAPER_SCALE = dict(n=16384, iterations=3, theta=0.6, dt=0.1, vel_scale=0.4)
#: the ``variant`` values ``build`` accepts
VARIANTS = ("cstar", "spmd")

#: tree row fields: cx, cy, cz, mass, half-size, is_leaf, body_id, depth
TREE_FIELDS = 8
BODY_FIELDS = 8  # x y z vx vy vz mass pad
MAX_DEPTH = 24
SOFTENING2 = 1e-4
G = 1.0


# --------------------------------------------------------------------------- #
# host-side octree structure
# --------------------------------------------------------------------------- #


@dataclass
class OctNode:
    center: np.ndarray
    half: float
    depth: int
    children: list[int] = field(default_factory=lambda: [-1] * 8)
    body: int = -1  # leaf body id, or -1 for internal
    creator: int = 0  # body whose insertion allocated this node


class Octree:
    """A Barnes-Hut octree built by successive insertion (host side)."""

    def __init__(self, positions: np.ndarray):
        lo = positions.min(axis=0)
        hi = positions.max(axis=0)
        center = (lo + hi) / 2
        half = float((hi - lo).max()) / 2 * 1.01 + 1e-9
        self.nodes: list[OctNode] = [OctNode(center=center, half=half, depth=0)]
        for b in range(len(positions)):
            self._insert(0, b, positions)

    def _octant(self, node: OctNode, p: np.ndarray) -> int:
        return (
            (1 if p[0] > node.center[0] else 0)
            | (2 if p[1] > node.center[1] else 0)
            | (4 if p[2] > node.center[2] else 0)
        )

    def _child_center(self, node: OctNode, o: int) -> np.ndarray:
        off = np.array(
            [1 if o & 1 else -1, 1 if o & 2 else -1, 1 if o & 4 else -1],
            dtype=float,
        )
        return node.center + off * (node.half / 2)

    def _new_node(self, parent: OctNode, o: int, creator: int) -> int:
        idx = len(self.nodes)
        self.nodes.append(
            OctNode(
                center=self._child_center(parent, o),
                half=parent.half / 2,
                depth=parent.depth + 1,
                creator=creator,
            )
        )
        return idx

    def _insert(self, root: int, b: int, positions: np.ndarray) -> None:
        node_idx = root
        while True:
            node = self.nodes[node_idx]
            if node.depth >= MAX_DEPTH:
                raise SimulationError(
                    "octree exceeded max depth (coincident bodies?)"
                )
            if node.body == -1 and all(c == -1 for c in node.children):
                if node_idx == 0 and len(self.nodes) == 1:
                    node.body = b  # first body lands in the root
                    return
                node.body = b
                return
            if node.body != -1:
                # leaf with one body: push the resident body down, then retry
                resident = node.body
                node.body = -1
                o = self._octant(node, positions[resident])
                child = self._new_node(node, o, creator=b)
                node.children[o] = child
                self.nodes[child].body = resident
                continue
            o = self._octant(node, positions[b])
            if node.children[o] == -1:
                node.children[o] = self._new_node(node, o, creator=b)
            node_idx = node.children[o]

    # -- DFS numbering and levels ------------------------------------------------

    def dfs_order(self) -> list[int]:
        order: list[int] = []
        stack = [0]
        while stack:
            i = stack.pop()
            order.append(i)
            for c in reversed(self.nodes[i].children):
                if c != -1:
                    stack.append(c)
        return order

    def depth_levels(self) -> list[list[int]]:
        """Internal-node ids grouped by depth (index = depth)."""
        levels: list[list[int]] = []
        for i, nd in enumerate(self.nodes):
            if nd.body != -1:
                continue
            while len(levels) <= nd.depth:
                levels.append([])
            levels[nd.depth].append(i)
        return levels


@dataclass
class TreeLayout:
    """Mapping between octree node ids and aggregate rows (per iteration)."""

    row_of: dict[int, int]
    node_of: dict[int, int]
    octree: Octree
    levels: list[list[int]]  # internal node ids per depth

    @classmethod
    def build(cls, positions: np.ndarray) -> "TreeLayout":
        tree = Octree(positions)
        order = tree.dfs_order()
        row_of = {node: row for row, node in enumerate(order)}
        node_of = {row: node for node, row in row_of.items()}
        return cls(row_of=row_of, node_of=node_of, octree=tree,
                   levels=tree.depth_levels())


# --------------------------------------------------------------------------- #
# shared force kernel
# --------------------------------------------------------------------------- #


def traverse_force(
    b: int,
    pos_b,
    theta: float,
    read_tree,
    read_child,
    read_body,
    root_row: int = 0,
):
    """Barnes-Hut force on body ``b`` via depth-first traversal.

    ``read_tree(row, f)``, ``read_child(row, o)``, ``read_body(i, f)`` are
    the data sources (ctx-based in the parallel body, array-based in the
    reference).  Returns ((ax, ay, az), cost).
    """
    ax = ay = az = 0.0
    cost = 0
    stack = [root_row]
    while stack:
        row = stack.pop()
        is_leaf = read_tree(row, 5) > 0.5
        cost += 6
        if is_leaf:
            j = int(read_tree(row, 6))
            if j == b:
                continue
            # exact leaf interaction from the body's own row
            jx = read_body(j, 0)
            jy = read_body(j, 1)
            jz = read_body(j, 2)
            jm = read_body(j, 6)
            dx, dy, dz = jx - pos_b[0], jy - pos_b[1], jz - pos_b[2]
            r2 = dx * dx + dy * dy + dz * dz + SOFTENING2
            inv = G * jm / (r2 * np.sqrt(r2))
            ax += inv * dx
            ay += inv * dy
            az += inv * dz
            cost += 12
            continue
        cx = read_tree(row, 0)
        cy = read_tree(row, 1)
        cz = read_tree(row, 2)
        mass = read_tree(row, 3)
        half = read_tree(row, 4)
        if mass <= 0.0:
            continue
        dx, dy, dz = cx - pos_b[0], cy - pos_b[1], cz - pos_b[2]
        r2 = dx * dx + dy * dy + dz * dz + SOFTENING2
        if (2.0 * half) * (2.0 * half) < theta * theta * r2:
            inv = G * mass / (r2 * np.sqrt(r2))
            ax += inv * dx
            ay += inv * dy
            az += inv * dz
            cost += 12
        else:
            for o in range(8):
                child_row = int(read_child(row, o))
                cost += 1
                if child_row >= 0:
                    stack.append(child_row)
    return (ax, ay, az), cost


# --------------------------------------------------------------------------- #
# the embedded program
# --------------------------------------------------------------------------- #


def max_tree_rows(n: int) -> int:
    return 8 * n + 64


@keyed_build
def build(
    n: int = DEFAULTS["n"],
    iterations: int = DEFAULTS["iterations"],
    theta: float = DEFAULTS["theta"],
    dt: float = DEFAULTS["dt"],
    vel_scale: float = DEFAULTS["vel_scale"],
    work_scale: float = DEFAULTS["work_scale"],
    seed: int = 77,
    variant: str = "cstar",
) -> EmbeddedProgram:
    """``work_scale`` calibrates modelled compute cost per traversal step
    (see water.build)."""
    maxn = max_tree_rows(n)

    def setup(env: Env) -> None:
        nodes = env.config.n_nodes
        # partition boundaries aligned to the home-assignment granularity
        # (Stache distributes at page granularity), as hand-partitioned
        # codes do; one tree/body row is 64 bytes
        align = max(1, env.config.page_size // (BODY_FIELDS * 8))
        bodies = env.runtime.aggregate(
            "bodies", (n, BODY_FIELDS),
            dist=RowAligned(n, BODY_FIELDS, nodes, align=align),
        )
        # acc rows padded to 64 B so they partition identically to bodies
        env.runtime.aggregate(
            "acc", (n, 4), dist=RowAligned(n, 4, nodes, align=align), pad=2
        )
        # tree rows in DFS order, block-distributed: contiguous subtrees land
        # on one node, the source of Barnes' spatial locality
        env.runtime.aggregate(
            "tree", (maxn, TREE_FIELDS),
            dist=RowAligned(maxn, TREE_FIELDS, nodes, align=align),
        )
        env.runtime.aggregate(
            "childs", (maxn, 8), dtype="int",
            dist=RowAligned(maxn, 8, nodes, align=align),
        )
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, (n, 3))
        # a denser clump in one octant: the unbalanced tree of the paper
        pts[: n // 4] = rng.uniform(0.3, 0.9, (n // 4, 3))
        bodies.data[:, 0:3] = pts
        # initial velocities keep the tree structure changing between
        # iterations ("small structural changes" — paper §1), so schedules
        # accumulate some stale entries, as in the real workload
        bodies.data[:, 3:6] = vel_scale * rng.uniform(-1.0, 1.0, (n, 3))
        bodies.data[:, 6] = 1.0 / n

    prog = EmbeddedProgram(f"barnes-{variant}", setup)

    # ---- host: rebuild the octree structure from current positions --------
    def host_build_structure(env: Env) -> None:
        bodies = env.agg("bodies")
        layout = TreeLayout.build(bodies.data[:, 0:3].copy())
        if len(layout.octree.nodes) > maxn:
            raise SimulationError("octree overflow: raise max_tree_rows")
        env.state["layout"] = layout

    # ---- phase 1: build_tree ----------------------------------------------
    def build_body(ctx, env: Env) -> None:
        b = ctx.pos[0]
        layout: TreeLayout = env.state["layout"]
        bodies, tree, childs = env.agg("bodies"), env.agg("tree"), env.agg("childs")
        # read own body (home)
        x = ctx.read(bodies, (b, 0))
        y = ctx.read(bodies, (b, 1))
        z = ctx.read(bodies, (b, 2))
        m = ctx.read(bodies, (b, 6))
        # write every node this body's insertion created (geometry + links),
        # and its own leaf row: unstructured writes
        for node_id, nd in enumerate(layout.octree.nodes):
            if nd.creator != b and not (node_id == 0 and b == 0):
                continue
            row = layout.row_of[node_id]
            ctx.charge(4)
            if nd.body == -1:
                # internal node: geometry now, mass/cm in the upward pass
                ctx.write(tree, (row, 0), float(nd.center[0]))
                ctx.write(tree, (row, 1), float(nd.center[1]))
                ctx.write(tree, (row, 2), float(nd.center[2]))
                ctx.write(tree, (row, 5), 0.0)
                ctx.write(tree, (row, 6), -1.0)
                ctx.write(tree, (row, 3), 0.0)
            # a leaf's position/mass/flag are written by its resident body
            # below (possibly a different body than the creator)
            ctx.write(tree, (row, 4), float(nd.half))
            for o in range(8):
                c = nd.children[o]
                ctx.write(childs, (row, o), layout.row_of[c] if c != -1 else -1)
        # own leaf: mark and fill
        leaf_node = next(
            i for i, nd in enumerate(layout.octree.nodes) if nd.body == b
        )
        row = layout.row_of[leaf_node]
        ctx.charge(6)
        ctx.write(tree, (row, 0), float(x))
        ctx.write(tree, (row, 1), float(y))
        ctx.write(tree, (row, 2), float(z))
        ctx.write(tree, (row, 3), float(m))
        ctx.write(tree, (row, 5), 1.0)
        ctx.write(tree, (row, 6), float(b))

    prog.parallel(
        "build_tree",
        [
            access("bodies", "r", "home"),
            access("tree", "w", "non-home"),
            access("childs", "w", "non-home"),
        ],
        build_body,
    )

    # ---- phase 2: center of mass (per level, home-only) --------------------
    def com_body(ctx, env: Env) -> None:
        row = ctx.pos[0]
        tree, childs = env.agg("tree"), env.agg("childs")
        mx = my = mz = mass = 0.0
        for o in range(8):
            c = int(ctx.read(childs, (row, o)))
            ctx.charge(2)
            if c < 0:
                continue
            cm = ctx.read(tree, (c, 3))
            mx += ctx.read(tree, (c, 0)) * cm
            my += ctx.read(tree, (c, 1)) * cm
            mz += ctx.read(tree, (c, 2)) * cm
            mass += cm
            ctx.charge(6)
        if mass > 0.0:
            ctx.write(tree, (row, 0), mx / mass)
            ctx.write(tree, (row, 1), my / mass)
            ctx.write(tree, (row, 2), mz / mass)
        ctx.write(tree, (row, 3), mass)

    prog.parallel(
        "center_of_mass",
        [
            access("tree", "r", "home"),
            access("tree", "w", "home"),
            access("childs", "r", "home"),
        ],
        com_body,
    )

    # ---- phase 3: force computation -----------------------------------------
    def force_body(ctx, env: Env) -> None:
        b = ctx.pos[0]
        bodies, tree, childs, acc = (
            env.agg("bodies"), env.agg("tree"), env.agg("childs"), env.agg("acc")
        )
        pos_b = read_vec(ctx, bodies, b)
        (ax, ay, az), cost = traverse_force(
            b, pos_b, theta,
            lambda r, f: ctx.read(tree, (r, f)),
            lambda r, o: ctx.read(childs, (r, o)),
            lambda i, f: ctx.read(bodies, (i, f)),
        )
        ctx.charge(cost * work_scale)
        write_vec(ctx, acc, b, (ax, ay, az))

    prog.parallel(
        "compute_forces",
        [
            access("bodies", "r", "home"),
            access("bodies", "r", "non-home"),
            access("tree", "r", "non-home"),
            access("childs", "r", "non-home"),
            access("acc", "w", "home"),
        ],
        force_body,
    )

    # ---- phase 4: update ------------------------------------------------------
    def update_body(ctx, env: Env) -> None:
        b = ctx.pos[0]
        bodies, acc = env.agg("bodies"), env.agg("acc")
        a = read_vec(ctx, acc, b)
        v = tuple(ctx.read(bodies, (b, 3 + k)) for k in range(3))
        p = read_vec(ctx, bodies, b)
        ctx.charge(9 * work_scale)
        v = tuple(vk + ak * dt for vk, ak in zip(v, a))
        p = tuple(pk + vk * dt for pk, vk in zip(p, v))
        for k in range(3):
            ctx.write(bodies, (b, 3 + k), v[k])
            ctx.write(bodies, (b, k), p[k])

    prog.parallel(
        "update",
        [
            access("bodies", "r", "home"),
            access("bodies", "w", "home"),
            access("acc", "r", "home"),
        ],
        update_body,
    )

    # ---- SPMD variant: local tree build under write-update -------------------
    def tree_write_body(ctx, env: Env) -> None:
        """Each tree row's OWNER writes the fully-computed row (local build +
        local upward pass), as hand-written SPMD code does."""
        row = ctx.pos[0]
        layout: TreeLayout = env.state["layout"]
        node = layout.node_of.get(row)
        tree, childs = env.agg("tree"), env.agg("childs")
        ref = env.state["tree_values"]
        cref = env.state["child_values"]
        ctx.charge(6)
        for f in range(TREE_FIELDS):
            ctx.write(tree, (row, f), float(ref[row, f]))
        for o in range(8):
            ctx.write(childs, (row, o), int(cref[row, o]))

    prog.parallel(
        "tree_write",
        [
            access("tree", "w", "home"),
            access("childs", "w", "home"),
        ],
        tree_write_body,
    )

    def host_spmd_tree_values(env: Env) -> None:
        """Compute the full tree (values + links) host-side for the SPMD
        variant; tree_write then publishes rows from their owners."""
        layout: TreeLayout = env.state["layout"]
        bodies = env.agg("bodies")
        tvals = np.zeros((maxn, TREE_FIELDS))
        cvals = np.full((maxn, 8), -1, dtype=np.int64)
        for node_id, nd in enumerate(layout.octree.nodes):
            row = layout.row_of[node_id]
            tvals[row, 0:3] = nd.center
            tvals[row, 4] = nd.half
            if nd.body != -1:
                tvals[row, 0:3] = bodies.data[nd.body, 0:3]
                tvals[row, 3] = bodies.data[nd.body, 6]
                tvals[row, 5] = 1.0
                tvals[row, 6] = nd.body
            else:
                tvals[row, 5] = 0.0
                tvals[row, 6] = -1.0
            for o, c in enumerate(nd.children):
                if c != -1:
                    cvals[row, o] = layout.row_of[c]
        # upward pass, deepest first
        for level in reversed(layout.levels):
            for node_id in level:
                row = layout.row_of[node_id]
                mx = my = mz = mass = 0.0
                for o in range(8):
                    c = cvals[row, o]
                    if c < 0:
                        continue
                    cm = tvals[c, 3]
                    mx += tvals[c, 0] * cm
                    my += tvals[c, 1] * cm
                    mz += tvals[c, 2] * cm
                    mass += cm
                if mass > 0:
                    tvals[row, 0:3] = (mx / mass, my / mass, mz / mass)
                tvals[row, 3] = mass
        env.state["tree_values"] = tvals
        env.state["child_values"] = cvals

    # ---- main ------------------------------------------------------------------
    body_rows = lambda env: rows(n)

    def com_levels_count(env: Env) -> int:
        return len(env.state["layout"].levels)

    def com_level_reset(env: Env) -> None:
        env.state["com_level"] = len(env.state["layout"].levels)

    def com_level_next(env: Env) -> None:
        env.state["com_level"] -= 1

    def com_level_elements(env: Env):
        layout: TreeLayout = env.state["layout"]
        depth = env.state["com_level"]
        return [(layout.row_of[i], 0) for i in layout.levels[depth]]

    def active_tree_rows(env: Env):
        layout: TreeLayout = env.state["layout"]
        return [(r, 0) for r in range(len(layout.octree.nodes))]

    if variant == "spmd":
        prog.build(
            prog.loop(
                iterations,
                prog.stmt(host_build_structure),
                prog.stmt(host_spmd_tree_values),
                prog.call("tree_write", over="tree", snapshot=[],
                          elements=active_tree_rows),
                prog.call("compute_forces", over="acc",
                          snapshot=["bodies", "tree", "childs"],
                          elements=body_rows),
                prog.call("update", over="bodies", snapshot=["bodies", "acc"],
                          elements=body_rows),
            )
        )
    else:
        prog.build(
            prog.loop(
                iterations,
                prog.stmt(host_build_structure),
                prog.call("build_tree", over="bodies",
                          snapshot=["bodies"], elements=body_rows),
                prog.stmt(com_level_reset),
                prog.loop(
                    LoopSpec(count=com_levels_count),
                    prog.stmt(com_level_next),
                    prog.call("center_of_mass", over="tree",
                              snapshot=["tree", "childs"],
                              elements=com_level_elements),
                ),
                prog.call("compute_forces", over="acc",
                          snapshot=["bodies", "tree", "childs"],
                          elements=body_rows),
                prog.call("update", over="bodies", snapshot=["bodies", "acc"],
                          elements=body_rows),
            )
        )
    return prog

