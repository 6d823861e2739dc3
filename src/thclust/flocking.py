"""Seeded 2D flocking simulation emitting temporal samplings.

Four actor types move under clumping (same-type attraction), avoidance
(short-range repulsion), schooling (drift toward the type's average
velocity), and repulsive walls. Close encounters occasionally spawn a new
actor of random type or delete one of the participants, so the population
varies over time. Snapshots become levels of a TemporalSampling over the
plane.

The population is one state of arrays kept in ident order: ``(idents,
serials, kinds, pos, vel)``. :func:`initial_state` draws it,
:func:`step` advances it by one tick, and :func:`run_detailed` calls
:func:`step` once per tick and copies positions only at snapshots.

All rule constants are invented, tunable defaults; the governing equations
are qualitative. Randomness draws from two split streams (initial state
versus interactions) so force evaluation consumes no randomness and replays
identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .metric import MetricSpace, TemporalSampling, ValidationError
from .metric import _json_int, _json_list, _json_number, _json_object

TYPE_COUNT = 4
_SPEED_LIMIT = np.sqrt(np.finfo(float).max) / 2  # two squares below it sum to under max / 2


@dataclass(frozen=True)
class SimConfig:
    """Full parameter set of one simulation run."""

    actor_count: int = 40
    arena_side: float = 100.0
    wall_force: float = 4.0
    clump_weight: float = 0.08
    avoid_weight: float = 1.5
    school_weight: float = 0.05
    clump_radius: float = 15.0
    avoid_radius: float = 3.0
    interact_radius: float = 1.0
    interact_prob: float = 0.02
    spawn_prob: float = 0.5
    delete_prob: float = 0.5
    dt: float = 0.1
    max_speed: float = 4.0
    snapshot_interval: int = 50
    total_ticks: int = 600
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            read = _json_int if f.type == "int" else _json_number
            read(getattr(self, f.name), f.name)
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.actor_count < 1:
            raise ValidationError("actor_count must be positive")
        # The state's (actor_count, 2) float arrays must have a byte size numpy can hold.
        if self.actor_count > np.iinfo(np.intp).max // (2 * np.dtype(float).itemsize):
            raise ValidationError(f"actor_count {self.actor_count} is beyond numpy's array size")
        if not 0 < self.arena_side < _SPEED_LIMIT:  # two squared gaps sum to under max / 2
            raise ValidationError(f"arena_side must lie in (0, {_SPEED_LIMIT:.6g})")
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        if self.avoid_radius > self.clump_radius:
            raise ValidationError("avoid_radius must not exceed clump_radius")
        for name in ("interact_prob", "spawn_prob", "delete_prob"):
            p = getattr(self, name)
            if not 0 <= p <= 1:
                raise ValidationError(f"{name} must lie in [0, 1]")
        if self.snapshot_interval < 1:
            raise ValidationError("snapshot_interval must be at least 1")
        if self.total_ticks < 0:
            raise ValidationError("total_ticks must be nonnegative")
        if self.max_speed <= 0:
            raise ValidationError("max_speed must be positive")
        if self.max_speed > _SPEED_LIMIT / 2:  # clamped velocities stay below step's bound
            raise ValidationError(f"max_speed must not exceed {_SPEED_LIMIT / 2:.6g}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        _json_object(data, "config document")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValidationError(f"unknown config keys: {unknown}")
        return cls(**data)


def _gaps(pos: np.ndarray) -> np.ndarray:
    """Lengths of the offsets ``pos[j] - pos[i]``, with an infinite
    diagonal. ``dx * dx + dy * dy`` has the bits of summing the squares
    over the last axis of one (n, n, 2) offset array, and :func:`step`
    recomputes single pairs with the same expression.

    Its two planes share one block, and :func:`step` builds one block per
    tick. From 91 actors on it exceeds glibc's initial 128 KiB mmap
    threshold, so freeing it once raises that threshold and the heap trim
    threshold with it; each later tick then reuses heap memory instead of
    trimming the heap and faulting its pages back in."""
    n = len(pos)
    d, dist = np.empty((2, n, n))
    np.subtract(pos[None, :, 0], pos[:, None, 0], out=d)
    np.multiply(d, d, out=dist)
    np.subtract(pos[None, :, 1], pos[:, None, 1], out=d)
    d *= d
    dist += d
    np.sqrt(dist, out=dist)
    np.fill_diagonal(dist, np.inf)
    return dist


def _reach(cfg: SimConfig) -> float:
    """A bound on the pre-move gap of any pair whose post-move gap is
    within ``interact_radius``, so those pairs are found in the pre-move
    pair list.

    Exactly, an actor moves at most ``max_speed * dt``: the bounces and the
    clip are 1-Lipschitz per axis and fix the old in-arena position. The
    rest is rounding, with u = 2**-53:
    - the clamp leaves a speed within a few u of ``max_speed``, and
      ``vel * dt`` rounds by u;
    - ``pos + vel * dt`` rounds by half a spacing of its result, at most
      ``ulp(arena_side)`` per axis for a move shorter than the arena; a
      bounce about 0 and the clip are exact, and so is a bounce about
      ``arena_side`` from within twice it (Sterbenz), so only a move longer
      than the arena rounds again, by some u of its own length;
    - each computed gap is within some u of its exact value, up to an
      absolute 2**-536 where the squares underflow.
    So two actors' pre-move gap is at most the post-move gap plus
    ``2 * max_speed * dt`` plus ``2 * sqrt(2) * ulp(arena_side)``, all
    within tens of u relative and far below 2**-500 absolute; the bound
    takes 2**-40 relative, 8 ulps of the arena and 2**-500. Terms that
    overflow make it inf, which takes every pair."""
    move = 2.0 * float(cfg.max_speed) * float(cfg.dt)
    span = (float(cfg.interact_radius) + move) * (1.0 + 2.0**-40)
    return span + 8.0 * math.ulp(float(cfg.arena_side)) + 2.0**-500


def step(state, cfg: SimConfig, rng: np.random.Generator):
    """Advance the state ``(idents, serials, kinds, pos, vel)``, kept in
    ident order, by one tick; returns the next state, again in ident order.

    Forces, clamp, move and reflect act on all actors at once. The tick
    builds one gaps block (:func:`_gaps`), before the move, and takes from
    it one row-major list of the pairs within ``max(clump_radius, reach)``,
    where ``reach`` (:func:`_reach`) bounds the pre-move gap of any pair
    that the move brings within ``interact_radius``. The clump pairs (same
    kind, within ``clump_radius``), the avoid pairs (within
    ``avoid_radius``, which ``SimConfig`` keeps at most ``clump_radius``)
    and the interaction candidates (``i < j``, within ``reach``) are
    filtered from that list, so each keeps its row-major order. The clump
    and avoid sums visit each row's pairs in ascending column order: a
    dense row sum adds the same terms in the same order plus signed zeros,
    so the bits agree; a zero weight likewise adds only signed zeros to a
    force that starts at +0.0. Interactions are resolved on post-move
    positions: each candidate's post-move gap is computed with
    :func:`_gaps`'s expression, so it has the same bits, and those within
    ``interact_radius`` interact pair by pair in ident order; an actor
    deleted earlier in the tick takes part in nothing else. Newcomers take
    serials after the largest one alive at the start of the tick. Only the
    interaction stage draws from ``rng``. The inputs are never written.

    A malformed state raises :class:`ValidationError`: idents that are not
    unique strings in sorted order, arrays of another shape, serials or
    kinds that are not signed integers, kinds outside ``0..TYPE_COUNT - 1``,
    ``pos`` or ``vel`` that are not floats, a position outside the arena
    ``[0, arena_side]`` (so NaN too), or a velocity entry not below about
    6.7e153 in magnitude (NaN too), where the squared speed could overflow.
    So does a tick that would give a newcomer a serial past the int64
    maximum or an ident already held (the message names the largest
    serial), whose forces give an actor a velocity whose squared speed is
    not finite (the message names the force, the velocity, the weights,
    ``wall_force`` and ``dt``), or whose move takes a position past the
    floats (the message names ``dt`` and ``max_speed``).
    """
    idents, serials, kinds, pos, vel = _json_list(state, "state", 5)
    n = len(_json_list(idents, "state idents"))
    if (any(not isinstance(a, str) for a in idents)
            or any(a >= b for a, b in zip(idents, idents[1:]))):
        raise ValidationError("state idents must be unique strings in sorted order")
    ints, floats = ("i", "a signed integer"), ("f", "a float")
    for name, array, shape, (kind, what) in (("serials", serials, (n,), ints),
                                             ("kinds", kinds, (n,), ints),
                                             ("pos", pos, (n, 2), floats),
                                             ("vel", vel, (n, 2), floats)):
        if not isinstance(array, np.ndarray) or array.shape != shape or array.dtype.kind != kind:
            raise ValidationError(f"state {name} must be {what} array of shape {shape}")
    if n and not 0 <= kinds.min() <= kinds.max() < TYPE_COUNT:
        raise ValidationError(f"state kinds must lie in 0..{TYPE_COUNT - 1}")
    if n and not 0.0 <= pos.min() <= pos.max() <= cfg.arena_side:  # NaN fails too
        raise ValidationError(f"state pos must lie in the arena [0, {cfg.arena_side}]")
    if not np.abs(vel).max(initial=0.0) < _SPEED_LIMIT:  # NaN fails too
        raise ValidationError(f"state vel entries must lie below {_SPEED_LIMIT:.6g} in magnitude")
    # The one pair list of the tick (see the docstring), in row-major order.
    dist, reach = _gaps(pos), _reach(cfg)
    flat = np.flatnonzero(dist <= max(cfg.clump_radius, reach))
    rows, cols = np.divmod(flat, n)
    d = dist.ravel()[flat]
    clump = (d <= cfg.clump_radius) & (kinds[rows] == kinds[cols])
    counts = np.bincount(rows[clump], minlength=n)
    has = counts > 0
    centroid = np.zeros_like(pos)
    np.add.at(centroid, rows[clump], pos[cols[clump]])
    centroid[has] /= counts[has, None]
    avoid = d <= cfg.avoid_radius  # within the list: avoid_radius <= clump_radius
    offset = pos[cols[avoid]] - pos[rows[avoid]]
    push = -offset / np.maximum(d[avoid], 1e-9)[:, None] ** 2
    total = np.zeros_like(pos)
    np.add.at(total, rows[avoid], push)

    # Huge but finite weights may overflow the force; the speed check refuses it.
    with np.errstate(over="ignore", invalid="ignore"):
        force = np.zeros_like(pos)
        force[has] += cfg.clump_weight * (centroid[has] - pos[has])
        force += cfg.avoid_weight * total
        for kind in range(TYPE_COUNT):
            members = kinds == kind
            if members.any():  # the mean of an empty slice warns
                mean_vel = vel[members].mean(axis=0)
                force[members] += cfg.school_weight * (mean_vel - vel[members])
        margin = 0.05 * cfg.arena_side
        force += np.where(pos < margin, cfg.wall_force * (margin - pos) / margin, 0.0)
        top = cfg.arena_side - margin
        force -= np.where(pos > top, cfg.wall_force * (pos - top) / margin, 0.0)
        vel = vel + force * cfg.dt
        squared = (vel**2).sum(axis=1)
        if not np.isfinite(squared).all():
            i = int(np.argmin(np.isfinite(squared)))
            raise ValidationError(
                f"tick force {force[i].tolist()} gives actor {idents[i]!r} velocity "
                f"{vel[i].tolist()}, whose squared speed is not finite; lower clump_weight "
                f"{cfg.clump_weight:g}, avoid_weight {cfg.avoid_weight:g}, school_weight "
                f"{cfg.school_weight:g}, wall_force {cfg.wall_force:g} or dt {cfg.dt:g}")
        speed = np.sqrt(squared)
        over = speed > cfg.max_speed
        if over.any():
            vel[over] *= (cfg.max_speed / speed[over])[:, None]
        pos = pos + vel * cfg.dt  # a huge dt may overflow the move; refused below
    if not np.isfinite(pos).all():
        i = int(np.argmin(np.isfinite(pos).all(axis=1)))
        raise ValidationError(
            f"moving actor {idents[i]!r} at velocity {vel[i].tolist()} for dt {cfg.dt:g} "
            f"leaves the floats; lower dt or max_speed {cfg.max_speed:g}")
    for _ in range(2):  # one bounce is enough at sane speeds; twice for safety
        under = pos < 0
        pos[under] = -pos[under]
        vel[under] = np.abs(vel[under])
        above = pos > cfg.arena_side
        pos[above] = 2 * cfg.arena_side - pos[above]
        vel[above] = -np.abs(vel[above])
    pos = np.clip(pos, 0.0, cfg.arena_side)

    dead: set[int] = set()
    parents: list[tuple[int, int]] = []
    born_kinds: list[int] = []
    reached = (rows < cols) & (d <= reach)
    rows, cols = rows[reached], cols[reached]
    ex = pos[cols, 0] - pos[rows, 0]  # _gaps's expression, so the same bits
    ey = pos[cols, 1] - pos[rows, 1]
    near = ex * ex
    near += ey * ey
    np.sqrt(near, out=near)
    close = near <= cfg.interact_radius
    for i, j in zip(rows[close].tolist(), cols[close].tolist()):
        if i in dead or j in dead:
            continue
        if rng.random() >= cfg.interact_prob:
            continue
        if kinds[i] == kinds[j]:
            if rng.random() < cfg.spawn_prob:
                parents.append((i, j))
                born_kinds.append(int(rng.integers(TYPE_COUNT)))
        else:
            if rng.random() < cfg.delete_prob:
                dead.add(j)  # idents are sorted, so j is the later one

    if parents:
        first, second = np.array(parents).T
        top = int(serials.max(initial=-1))
        if top > np.iinfo(np.int64).max - len(parents):
            raise ValidationError(f"newcomer serials after state serial {top} would pass int64")
        born = np.arange(len(parents)) + (top + 1)
        newcomers = [f"a{serial:05d}" for serial in born.tolist()]
        held = set(idents).intersection(newcomers)
        if held:
            raise ValidationError(f"newcomer ident {min(held)!r} after state serial {top} "
                                  "is already held")
        idents = [*idents, *newcomers]
        serials = np.concatenate([serials, born])
        kinds = np.concatenate([kinds, born_kinds])
        pos = np.concatenate([pos, (pos[first] + pos[second]) / 2.0])
        vel = np.concatenate([vel, (vel[first] + vel[second]) / 2.0])
    if dead or parents:
        # past a99999 a newcomer's ident sorts before older ones
        order = sorted((k for k in range(len(idents)) if k not in dead), key=idents.__getitem__)
        idents = [idents[k] for k in order]
        serials, kinds, pos, vel = serials[order], kinds[order], pos[order], vel[order]
    return idents, serials, kinds, pos, vel


def initial_state(cfg: SimConfig, rng: np.random.Generator):
    """Uniform positions, mild random velocities, uniform random types, as the
    state that :func:`step` advances: idents ``a00000`` on, serials 0..n-1."""
    n = cfg.actor_count
    pos = rng.uniform(0.0, cfg.arena_side, size=(n, 2))
    vel = rng.uniform(-cfg.max_speed / 2.0, cfg.max_speed / 2.0, size=(n, 2))
    kinds = rng.integers(TYPE_COUNT, size=n)
    return [f"a{i:05d}" for i in range(n)], np.arange(n, dtype=np.int64), kinds, pos, vel


def run_detailed(cfg: SimConfig, on_tick=None):
    """Simulate and snapshot into a TemporalSampling.

    Levels are taken at tick 0 and every ``snapshot_interval`` ticks after.
    Point ids are level-tagged actor ids so the ambient plane can hold every
    snapshot at once; coincident positions across snapshots are legal, so
    the ambient space allows zero distances. Returns the sampling together
    with the per-level actor kind maps (useful for plotting, never fed back
    into the pipeline). ``on_tick(tick, population)`` is invoked after every
    step when given.
    """
    init_seq, interact_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    state = initial_state(cfg, np.random.default_rng(init_seq))
    interact_rng = np.random.default_rng(interact_seq)

    snapshots = [state]  # step never writes a state, so none is copied
    for tick in range(1, cfg.total_ticks + 1):
        state = step(state, cfg, interact_rng)
        if on_tick is not None:
            on_tick(tick, len(state[0]))
        if tick % cfg.snapshot_interval == 0:
            snapshots.append(state)

    point_ids: list[str] = []
    levels: list[list[str]] = []
    kind_maps: list[dict[str, int]] = []
    for lvl, (idents, _, kinds, _, _) in enumerate(snapshots):
        level_ids = [f"t{lvl:03d}_{ident}" for ident in idents]
        point_ids.extend(level_ids)
        levels.append(level_ids)
        kind_maps.append(dict(zip(level_ids, kinds.tolist())))
    coords = np.concatenate([pos for _, _, _, pos, _ in snapshots])
    ambient = MetricSpace(point_ids, coords=coords, pseudo=True)
    return TemporalSampling(ambient, levels), kind_maps
