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

from dataclasses import dataclass, fields

import numpy as np

from .metric import MetricSpace, TemporalSampling, ValidationError
from .metric import _json_int, _json_list, _json_number, _json_object

TYPE_COUNT = 4


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
        if self.arena_side <= 0:
            raise ValidationError("arena_side must be positive")
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

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        _json_object(data, "config document")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValidationError(f"unknown config keys: {unknown}")
        return cls(**data)


def _gaps(pos: np.ndarray):
    """Offsets ``pos[j] - pos[i]`` per axis and their lengths, with an
    infinite diagonal. ``dx * dx + dy * dy`` has the bits of summing the
    squares over the last axis of one (n, n, 2) offset array."""
    x, y = pos[:, 0], pos[:, 1]
    dx = x[None, :] - x[:, None]
    dy = y[None, :] - y[:, None]
    dist = np.sqrt(dx * dx + dy * dy)
    np.fill_diagonal(dist, np.inf)
    return dx, dy, dist


def step(state, cfg: SimConfig, rng: np.random.Generator):
    """Advance the state ``(idents, serials, kinds, pos, vel)``, kept in
    ident order, by one tick; returns the next state, again in ident order.

    Forces, clamp, move and reflect act on all actors at once. The clump
    and avoid sums visit only the pairs within their radius, each row in
    ascending column order: a dense row sum adds the same terms in the same
    order plus signed zeros, so the bits agree; a zero weight likewise adds
    only signed zeros to a force that starts at +0.0. Interactions are
    resolved on post-move positions, pair by pair in ident order; an actor
    deleted earlier in the tick takes part in nothing else. Newcomers take
    serials after the largest one alive at the start of the tick. Only the
    interaction stage draws from ``rng``. The inputs are never written; a
    malformed state raises :class:`ValidationError`.
    """
    idents, serials, kinds, pos, vel = _json_list(state, "state", 5)
    n = len(idents)
    if any(a >= b for a, b in zip(idents, idents[1:])):
        raise ValidationError("state idents must be unique and in sorted order")
    for name, array, shape in (("serials", serials, (n,)), ("kinds", kinds, (n,)),
                               ("pos", pos, (n, 2)), ("vel", vel, (n, 2))):
        if not isinstance(array, np.ndarray) or array.shape != shape:
            raise ValidationError(f"state {name} must be an array of shape {shape}")
    force = np.zeros_like(pos)
    dx, dy, dist = _gaps(pos)

    same = kinds[:, None] == kinds[None, :]
    rows, cols = np.nonzero(same & (dist <= cfg.clump_radius))
    counts = np.bincount(rows, minlength=n)
    has = counts > 0
    centroid = np.zeros_like(pos)
    np.add.at(centroid, rows, pos[cols])
    centroid[has] /= counts[has, None]
    force[has] += cfg.clump_weight * (centroid[has] - pos[has])
    rows, cols = np.nonzero(dist <= cfg.avoid_radius)
    offset = np.stack((dx[rows, cols], dy[rows, cols]), axis=1)
    push = -offset / np.maximum(dist[rows, cols], 1e-9)[:, None] ** 2
    total = np.zeros_like(pos)
    np.add.at(total, rows, push)
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
    speed = np.sqrt((vel**2).sum(axis=1))
    over = speed > cfg.max_speed
    if over.any():
        vel[over] *= (cfg.max_speed / speed[over])[:, None]
    pos = pos + vel * cfg.dt
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
    _, _, near = _gaps(pos)
    for i, j in np.argwhere(np.triu(near <= cfg.interact_radius, 1)).tolist():
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
        born = np.arange(len(parents)) + (int(serials.max(initial=-1)) + 1)
        idents = [*idents, *(f"a{serial:05d}" for serial in born.tolist())]
        serials = np.concatenate([serials, born])
        kinds = np.concatenate([kinds, born_kinds])
        pos = np.concatenate([pos, (pos[first] + pos[second]) / 2.0])
        vel = np.concatenate([vel, (vel[first] + vel[second]) / 2.0])
    if dead or parents:
        order = [k for k in range(len(idents)) if k not in dead]
        if parents:  # past a99999 a newcomer's ident sorts before older ones
            order.sort(key=idents.__getitem__)
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
            if not state[0]:
                raise RuntimeError(f"population died out by tick {tick}")
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
