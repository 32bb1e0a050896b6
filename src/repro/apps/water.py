"""Water: molecular dynamics with a spherical cutoff (paper §5.3).

"Water evaluates forces and potentials in a system of water molecules over a
number of time steps. ... The program computes interactions between all pairs
of molecules that lie within a spherical cutoff range equal to half the
length of the box enclosing all molecules."  Table 1: 512 molecules, 20
iterations (scaled default: 64 molecules, 5 iterations).

The communication pattern is **static and repetitive producer-consumer**: a
molecule's position, updated by its owner in one iteration's update phase, is
read by the ~n/2 other molecules whose cutoff sphere contains it in the next
iteration's interaction phase.  The compiler places one directive on the
interaction phase (rule 2: unstructured position reads) and one on the
update phase (rule 1: owner writes reached by those reads), so in steady
state the predictive protocol pre-invalidates consumers before the update
and pre-sends fresh positions before the interactions.

Physics simplification (documented in DESIGN.md): molecules are point
particles under a truncated, softened Lennard-Jones potential rather than
rigid 3-site waters with intra-molecular terms — the paper's evaluation is
about the communication pattern, which depends only on "each molecule reads
the positions of every molecule within the cutoff", preserved exactly.  In
the C** data-parallel formulation each molecule accumulates its own force
from its neighbors (the paired-update reduction of the SPMD original is
expressed as two half-window reads, keeping force writes owner-local).

Variants:

* ``variant="cstar"`` — the C** program (owner-aligned homes); run with
  ``optimized=True/False`` for the paper's opt/unopt versions.
* ``variant="splash"`` — the Splash-2-style version "optimized for
  transparent shared memory": the same physics, written the way the SPLASH
  Water-Nsquared code is — each processor handles each unordered pair once
  (the n/2 following molecules), accumulates both partners' force
  contributions into *private* partial arrays, and a merge step publishes
  each processor's partials into a shared scratch aggregate that the
  owner sums during the update.  The merge/sum traffic (every partial row
  bounces between its writer and the molecule's owner every iteration)
  plus Stache's default round-robin page homes and the absence of
  directives are what make this version slower than both C** versions
  (paper Figure 7).
"""

from __future__ import annotations

from repro.apps.common import RowAligned, lattice_positions, read_vec, rows, write_vec
from repro.cstar.embedded import EmbeddedProgram, access, keyed_build
from repro.cstar.driver import Env

DEFAULTS = dict(n=64, iterations=5, box=6.0, dt=0.002, work_scale=1.0)
PAPER_SCALE = dict(n=512, iterations=20, box=12.0, dt=0.002)
#: the ``variant`` values ``build`` accepts
VARIANTS = ("cstar", "splash")

#: Lennard-Jones parameters (reduced units), softened and truncated.
EPS = 1.0
SIGMA = 1.0
SOFTENING = 0.05
FORCE_CAP = 50.0


def _pair_force(ri, rj, cutoff: float) -> tuple:
    """Force on molecule i from molecule j (zero outside the cutoff)."""
    dx = ri[0] - rj[0]
    dy = ri[1] - rj[1]
    dz = ri[2] - rj[2]
    r2 = dx * dx + dy * dy + dz * dz + SOFTENING
    if r2 > cutoff * cutoff:
        return (0.0, 0.0, 0.0)
    inv2 = (SIGMA * SIGMA) / r2
    inv6 = inv2 * inv2 * inv2
    mag = 24.0 * EPS * inv6 * (2.0 * inv6 - 1.0) / r2
    if mag > FORCE_CAP:
        mag = FORCE_CAP
    elif mag < -FORCE_CAP:
        mag = -FORCE_CAP
    return (mag * dx, mag * dy, mag * dz)


def _neighbor_window(i: int, n: int):
    """The molecules whose interactions molecule i computes: the n/2
    following and n/2 preceding in the ordered data set (paper §5.3)."""
    half = n // 2
    for off in range(1, half + 1):
        yield (i + off) % n
    for off in range(1, n - half):
        yield (i - off) % n


@keyed_build
def build(
    n: int = DEFAULTS["n"],
    iterations: int = DEFAULTS["iterations"],
    box: float = DEFAULTS["box"],
    dt: float = DEFAULTS["dt"],
    work_scale: float = DEFAULTS["work_scale"],
    variant: str = "cstar",
) -> EmbeddedProgram:
    """Construct the Water program (see module docstring for variants).

    ``work_scale`` scales the modelled compute cost per interaction; it
    calibrates the compute/communication balance to the paper's platform
    without touching the communication pattern.
    """
    cutoff = box / 2.0
    home = "round_robin" if variant == "splash" else "owner"

    def setup(env: Env) -> None:
        nodes = env.config.n_nodes
        dist = RowAligned(n, 4, nodes)
        pos = env.runtime.aggregate("pos", (n, 4), dist=dist, home=home)
        vel = env.runtime.aggregate("vel", (n, 4), dist=dist, home=home)
        force = env.runtime.aggregate("force", (n, 4), dist=dist, home=home)
        if variant == "splash":
            # shared scratch for per-processor force partials: 4 fields
            # (fx, fy, fz, pad) per (molecule, node) slot so one slot fills
            # one 32-byte block
            env.runtime.aggregate(
                "fpart", (n, 4 * nodes),
                dist=RowAligned(n, 4 * nodes, nodes), home=home,
            )
            env.runtime.aggregate("pslot", (nodes,), home=home)
        pts = lattice_positions(n, box)
        pos.data[:, :3] = pts
        vel.data[:] = 0.0
        force.data[:] = 0.0

    prog = EmbeddedProgram(f"water-{variant}", setup)

    # ---- interaction phase: static repetitive producer-consumer reads ----
    def interactions_body(ctx, env: Env) -> None:
        i = ctx.pos[0]
        pos = env.agg("pos")
        force = env.agg("force")
        ri = read_vec(ctx, pos, i)
        fx = fy = fz = 0.0
        for j in _neighbor_window(i, n):
            rj = read_vec(ctx, pos, j)
            ctx.charge(12 * work_scale)  # distance + LJ evaluation
            px, py, pz = _pair_force(ri, rj, cutoff)
            fx += px
            fy += py
            fz += pz
        write_vec(ctx, force, i, (fx, fy, fz))

    prog.parallel(
        "interactions",
        [
            access("pos", "r", "home"),
            access("pos", "r", "non-home"),
            access("force", "w", "home"),
        ],
        interactions_body,
    )

    # ---- update phase: owner writes of positions/velocities --------------
    def update_body(ctx, env: Env) -> None:
        i = ctx.pos[0]
        pos, vel, force = env.agg("pos"), env.agg("vel"), env.agg("force")
        ri = read_vec(ctx, pos, i)
        vi = read_vec(ctx, vel, i)
        fi = read_vec(ctx, force, i)
        ctx.charge(9 * work_scale)
        vi = tuple(v + f * dt for v, f in zip(vi, fi))
        ri = tuple(r + v * dt for r, v in zip(ri, vi))
        write_vec(ctx, vel, i, vi)
        write_vec(ctx, pos, i, ri)

    prog.parallel(
        "update",
        [
            access("pos", "r", "home"),
            access("pos", "w", "home"),
            access("vel", "r", "home"),
            access("vel", "w", "home"),
            access("force", "r", "home"),
        ],
        update_body,
    )

    # ---- SPLASH-style phases -----------------------------------------------
    def _pair_window(i: int):
        """Offsets so each unordered pair is handled by exactly one owner:
        the full half-window for i < n/2, one less for the rest."""
        half = n // 2
        top = half + 1 if (n % 2 == 1 or i < half) else half
        return range(1, top)

    def splash_interactions_body(ctx, env: Env) -> None:
        """Compute each pair once; accumulate both partners' contributions
        into this processor's *private* partial array (no shared traffic —
        SPLASH's per-process local force arrays)."""
        i = ctx.pos[0]
        pos = env.agg("pos")
        ri = read_vec(ctx, pos, i)
        scratch = env.state.setdefault("partials", {}).setdefault(ctx.node, {})
        fi = scratch.setdefault(i, [0.0, 0.0, 0.0])
        for off in _pair_window(i):
            j = (i + off) % n
            rj = read_vec(ctx, pos, j)
            ctx.charge(12 * work_scale)
            px, py, pz = _pair_force(ri, rj, cutoff)
            fi[0] += px
            fi[1] += py
            fi[2] += pz
            fj = scratch.setdefault(j, [0.0, 0.0, 0.0])
            fj[0] -= px
            fj[1] -= py
            fj[2] -= pz

    prog.parallel(
        "splash_interactions",
        [
            access("pos", "r", "home"),
            access("pos", "r", "non-home"),
        ],
        splash_interactions_body,
    )

    def merge_body(ctx, env: Env) -> None:
        """Processor p publishes its private partials into the shared
        scratch (SPLASH's UPDATE_FORCES step, one slot per (molecule, p))."""
        p = ctx.pos[0]
        fpart = env.agg("fpart")
        scratch = env.state.get("partials", {}).get(p, {})
        for j in range(n):
            contrib = scratch.get(j, (0.0, 0.0, 0.0))
            ctx.charge(3 * work_scale)
            for k in range(3):
                ctx.write(fpart, (j, 4 * p + k), contrib[k])
        scratch.clear()

    prog.parallel(
        "merge_partials",
        [access("fpart", "w", "non-home")],
        merge_body,
    )

    def splash_update_body(ctx, env: Env) -> None:
        i = ctx.pos[0]
        pos, vel, fpart = env.agg("pos"), env.agg("vel"), env.agg("fpart")
        nodes = env.config.n_nodes
        fx = fy = fz = 0.0
        for p in range(nodes):
            ctx.charge(3 * work_scale)
            fx += ctx.read(fpart, (i, 4 * p + 0))
            fy += ctx.read(fpart, (i, 4 * p + 1))
            fz += ctx.read(fpart, (i, 4 * p + 2))
        ri = read_vec(ctx, pos, i)
        vi = read_vec(ctx, vel, i)
        ctx.charge(9 * work_scale)
        vi = (vi[0] + fx * dt, vi[1] + fy * dt, vi[2] + fz * dt)
        ri = tuple(r + v * dt for r, v in zip(ri, vi))
        write_vec(ctx, vel, i, vi)
        write_vec(ctx, pos, i, ri)

    prog.parallel(
        "splash_update",
        [
            access("pos", "r", "home"),
            access("pos", "w", "home"),
            access("vel", "r", "home"),
            access("vel", "w", "home"),
            access("fpart", "r", "non-home"),
        ],
        splash_update_body,
    )

    molecule_rows = lambda env: rows(n)
    if variant == "splash":
        proc_rows = lambda env: [
            (p,) for p in range(env.config.n_nodes)
        ]
        prog.build(
            prog.loop(
                iterations,
                prog.call("splash_interactions", over="pos", snapshot=["pos"],
                          elements=molecule_rows),
                prog.call("merge_partials", over="pslot", snapshot=[],
                          elements=proc_rows),
                prog.call("splash_update", over="pos",
                          snapshot=["pos", "vel", "fpart"],
                          elements=molecule_rows),
            )
        )
    else:
        prog.build(
            prog.loop(
                iterations,
                prog.call("interactions", over="force", snapshot=["pos"],
                          elements=molecule_rows),
                prog.call("update", over="pos", snapshot=["pos", "vel", "force"],
                          elements=molecule_rows),
            )
        )
    return prog

