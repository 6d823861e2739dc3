"""Seeded 2D flocking simulation emitting temporal samplings.

Four actor types move under clumping (same-type attraction), avoidance
(short-range repulsion), schooling (drift toward the type's average
velocity), and repulsive walls. Close encounters occasionally spawn a new
actor of random type or delete one of the participants, so the population
varies over time. Snapshots become levels of a TemporalSampling over the
plane.

All rule constants are invented, tunable defaults; the governing equations
are qualitative. Randomness draws from two split streams (initial state
versus interactions) so force evaluation consumes no randomness and replays
identically.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .metric import MetricSpace, TemporalSampling, ValidationError

TYPE_COUNT = 4


@dataclass(eq=False)
class Actor:
    ident: str
    kind: int
    position: np.ndarray
    velocity: np.ndarray


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
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(f"{f.name} must be a number, got {value!r}")
            if f.type == "int" and not isinstance(value, numbers.Integral):
                raise ValidationError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value!r}")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.actor_count < 1:
            raise ValidationError("actor_count must be positive")
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
        if not isinstance(data, dict):
            raise ValidationError("config document must be an object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValidationError(f"unknown config keys: {unknown}")
        return cls(**data)


def _serial(ident: str) -> int:
    return int(ident[1:]) if ident[1:].isdigit() else -1


def step(state: list[Actor], cfg: SimConfig, rng: np.random.Generator) -> list[Actor]:
    """Advance one tick: forces, clamp, move, reflect, then interactions.

    Interactions are resolved on post-move positions, pair by pair in ident
    order; an actor deleted earlier in the tick takes part in nothing else.
    Only the interaction stage draws from ``rng``.
    """
    actors = sorted(state, key=lambda a: a.ident)
    n = len(actors)
    pos = np.array([a.position for a in actors], dtype=float)
    vel = np.array([a.velocity for a in actors], dtype=float)
    kinds = np.array([a.kind for a in actors])
    force = np.zeros_like(pos)

    diff = pos[None, :, :] - pos[:, None, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)
    same = kinds[:, None] == kinds[None, :]

    if cfg.clump_weight:
        mask = same & (dist <= cfg.clump_radius)
        counts = mask.sum(axis=1)
        has = counts > 0
        if has.any():
            centroid = (mask[:, :, None] * pos[None, :, :]).sum(axis=1)
            centroid[has] /= counts[has, None]
            force[has] += cfg.clump_weight * (centroid[has] - pos[has])
    if cfg.avoid_weight:
        mask = dist <= cfg.avoid_radius
        if mask.any():
            push = -diff / np.maximum(dist, 1e-9)[:, :, None] ** 2
            force += cfg.avoid_weight * (mask[:, :, None] * push).sum(axis=1)
    if cfg.school_weight:
        for kind in range(TYPE_COUNT):
            members = kinds == kind
            if members.any():
                mean_vel = vel[members].mean(axis=0)
                force[members] += cfg.school_weight * (mean_vel - vel[members])
    margin = 0.05 * cfg.arena_side
    low = pos < margin
    force += np.where(low, cfg.wall_force * (margin - pos) / margin, 0.0)
    high = pos > cfg.arena_side - margin
    force -= np.where(
        high, cfg.wall_force * (pos - (cfg.arena_side - margin)) / margin, 0.0
    )

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
    spawned: list[Actor] = []
    next_serial = max((_serial(a.ident) for a in actors), default=-1) + 1
    gap = pos[None, :, :] - pos[:, None, :]
    near = np.sqrt((gap**2).sum(axis=-1))
    np.fill_diagonal(near, np.inf)
    for i, j in np.argwhere(np.triu(near <= cfg.interact_radius, 1)):
        i, j = int(i), int(j)
        if i in dead or j in dead:
            continue
        if rng.random() >= cfg.interact_prob:
            continue
        if kinds[i] == kinds[j]:
            if rng.random() < cfg.spawn_prob:
                spawned.append(Actor(
                    ident=f"a{next_serial:05d}",
                    kind=int(rng.integers(TYPE_COUNT)),
                    position=(pos[i] + pos[j]) / 2.0,
                    velocity=(vel[i] + vel[j]) / 2.0,
                ))
                next_serial += 1
        else:
            if rng.random() < cfg.delete_prob:
                dead.add(j)  # idents are sorted, so j is the later one

    survivors = [
        Actor(ident=actors[i].ident, kind=int(kinds[i]),
              position=pos[i].copy(), velocity=vel[i].copy())
        for i in range(n) if i not in dead
    ]
    return sorted(survivors + spawned, key=lambda a: a.ident)


def initial_state(cfg: SimConfig, rng: np.random.Generator) -> list[Actor]:
    """Uniform positions, mild random velocities, uniform random types."""
    n = cfg.actor_count
    positions = rng.uniform(0.0, cfg.arena_side, size=(n, 2))
    velocities = rng.uniform(-cfg.max_speed / 2.0, cfg.max_speed / 2.0, size=(n, 2))
    kinds = rng.integers(TYPE_COUNT, size=n)
    return [
        Actor(ident=f"a{i:05d}", kind=int(kinds[i]),
              position=positions[i], velocity=velocities[i])
        for i in range(n)
    ]


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

    snapshots: list[list[Actor]] = [list(state)]
    for tick in range(1, cfg.total_ticks + 1):
        state = step(state, cfg, interact_rng)
        if on_tick is not None:
            on_tick(tick, len(state))
        if tick % cfg.snapshot_interval == 0:
            if not state:
                raise RuntimeError(f"population died out by tick {tick}")
            snapshots.append(list(state))

    point_ids: list[str] = []
    coords: list[np.ndarray] = []
    levels: list[list[str]] = []
    kind_maps: list[dict[str, int]] = []
    for lvl, snap in enumerate(snapshots):
        level_ids = []
        kind_map = {}
        for actor in snap:
            pid = f"t{lvl:03d}_{actor.ident}"
            point_ids.append(pid)
            coords.append(actor.position.copy())
            level_ids.append(pid)
            kind_map[pid] = actor.kind
        levels.append(level_ids)
        kind_maps.append(kind_map)
    ambient = MetricSpace(point_ids, coords=np.array(coords), pseudo=True)
    return TemporalSampling(ambient, levels), kind_maps


def run(cfg: SimConfig) -> TemporalSampling:
    """Simulate and return only the sampling; see :func:`run_detailed`."""
    return run_detailed(cfg)[0]
