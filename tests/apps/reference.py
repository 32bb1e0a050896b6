"""Sequential reference numerics of the three benchmark apps.

Each reference recomputes an app's values in plain Python with the same
phase and snapshot semantics as its C** program, so the value pass can be
checked against it exactly: by the app tests, ``benchmarks/test_table1.py``
and the app examples under ``examples/``.  The kernels they share with the
app bodies (``cell_update``, ``traverse_force``, ``_pair_force``, ...) stay
in ``repro.apps``.
"""

import numpy as np

from repro.apps import adaptive, barnes, water


def adaptive_reference(
    size: int = adaptive.DEFAULTS["size"],
    iterations: int = adaptive.DEFAULTS["iterations"],
    threshold: float = adaptive.DEFAULTS["threshold"],
):
    """Sequential reference with identical phase/snapshot semantics.

    Returns (mesh, level, tree) arrays.
    """
    n = size
    mesh = np.zeros((n, n))
    mesh[:, 0] = 1.0
    level = np.zeros((n, n), dtype=np.int64)
    tree = np.zeros((n * n, adaptive.TREE_NODES))

    def sweep(cells):
        msnap, lsnap, tsnap = mesh.copy(), level.copy(), tree.copy()
        for i, j in cells:
            new_center, updates, _ = adaptive.cell_update(
                i, j, n,
                lambda a, b: msnap[a, b],
                lambda a, b: int(lsnap[a, b]),
                lambda c, k: tsnap[c, k],
            )
            mesh[i, j] = new_center
            for k, v in updates.items():
                tree[i * n + j, k] = v

    def refine(cells):
        msnap, lsnap, tsnap = mesh.copy(), level.copy(), tree.copy()
        for i, j in cells:
            new_level = adaptive.refine_decision(
                i, j,
                lambda a, b: msnap[a, b],
                lambda a, b: int(lsnap[a, b]),
                threshold,
            )
            if new_level is not None:
                level[i, j] = new_level
                cell = i * n + j
                center = msnap[i, j]
                if new_level == 1:
                    tree[cell, 0:4] = center
                else:
                    for q in range(4):
                        tree[cell, 4 + q * 4 : 8 + q * 4] = tsnap[cell, q]

    red = adaptive._interior_cells(n, 0)
    black = adaptive._interior_cells(n, 1)
    for _ in range(iterations):
        sweep(red)
        sweep(black)
        refine(red)
    return mesh, level, tree


def barnes_reference(
    n: int = barnes.DEFAULTS["n"],
    iterations: int = barnes.DEFAULTS["iterations"],
    theta: float = barnes.DEFAULTS["theta"],
    dt: float = barnes.DEFAULTS["dt"],
    vel_scale: float = barnes.DEFAULTS["vel_scale"],
    seed: int = 77,
):
    """Sequential Barnes-Hut with the same tree and traversal: values must
    match the simulated run exactly.  Returns (positions, velocities)."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-1.0, 1.0, (n, 3))
    pos[: n // 4] = rng.uniform(0.3, 0.9, (n // 4, 3))
    vel = vel_scale * rng.uniform(-1.0, 1.0, (n, 3))
    mass = np.full(n, 1.0 / n)
    maxn = barnes.max_tree_rows(n)
    for _ in range(iterations):
        layout = barnes.TreeLayout.build(pos.copy())
        tvals = np.zeros((maxn, barnes.TREE_FIELDS))
        cvals = np.full((maxn, 8), -1, dtype=np.int64)
        for node_id, nd in enumerate(layout.octree.nodes):
            row = layout.row_of[node_id]
            tvals[row, 0:3] = nd.center
            tvals[row, 4] = nd.half
            if nd.body != -1:
                tvals[row, 0:3] = pos[nd.body]
                tvals[row, 3] = mass[nd.body]
                tvals[row, 5] = 1.0
                tvals[row, 6] = nd.body
            for o, c in enumerate(nd.children):
                if c != -1:
                    cvals[row, o] = layout.row_of[c]
        for level in reversed(layout.levels):
            for node_id in level:
                row = layout.row_of[node_id]
                mx = my = mz = m = 0.0
                for o in range(8):
                    c = cvals[row, o]
                    if c < 0:
                        continue
                    cm = tvals[c, 3]
                    mx += tvals[c, 0] * cm
                    my += tvals[c, 1] * cm
                    mz += tvals[c, 2] * cm
                    m += cm
                if m > 0:
                    tvals[row, 0:3] = (mx / m, my / m, mz / m)
                tvals[row, 3] = m
        acc = np.zeros((n, 3))
        for b in range(n):
            (ax, ay, az), _ = barnes.traverse_force(
                b, pos[b], theta,
                lambda r, f: tvals[r, f],
                lambda r, o: cvals[r, o],
                lambda i, f: pos[i, f] if f < 3 else mass[i],
            )
            acc[b] = (ax, ay, az)
        vel = vel + acc * dt
        pos = pos + vel * dt
    return pos, vel


def barnes_direct_reference(n=barnes.DEFAULTS["n"], seed=77):
    """O(n^2) accelerations for the initial configuration — used to check
    the Barnes-Hut approximation error is small."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-1.0, 1.0, (n, 3))
    pos[: n // 4] = rng.uniform(0.3, 0.9, (n // 4, 3))
    mass = np.full(n, 1.0 / n)
    acc = np.zeros((n, 3))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = pos[j] - pos[i]
            r2 = float(d @ d) + barnes.SOFTENING2
            acc[i] += barnes.G * mass[j] * d / (r2 * np.sqrt(r2))
    return acc


def water_reference(
    n: int = water.DEFAULTS["n"],
    iterations: int = water.DEFAULTS["iterations"],
    box: float = water.DEFAULTS["box"],
    dt: float = water.DEFAULTS["dt"],
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential reference: returns (positions, velocities) after the run."""
    cutoff = box / 2.0
    pos = water.lattice_positions(n, box)
    vel = np.zeros_like(pos)
    for _ in range(iterations):
        force = np.zeros_like(pos)
        for i in range(n):
            for j in water._neighbor_window(i, n):
                force[i] += np.array(water._pair_force(pos[i], pos[j], cutoff))
        vel = vel + force * dt
        pos = pos + vel * dt
    return pos, vel
