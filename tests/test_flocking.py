import hashlib
import itertools
import json
import sys
import warnings

import numpy as np
import pytest

from helpers import (
    actors_from_state,
    reference_run_detailed,
    reference_step,
    run,
    state_from_actors,
)
from thclust import SimConfig, ValidationError, flocking, initial_state, run_detailed, step
from thclust.flocking import _SPEED_LIMIT


def still_config(**overrides):
    """All steering and interaction machinery off unless asked for."""
    base = dict(
        actor_count=2,
        clump_weight=0.0,
        avoid_weight=0.0,
        school_weight=0.0,
        wall_force=0.0,
        interact_prob=0.0,
        total_ticks=1,
        snapshot_interval=1,
    )
    base.update(overrides)
    return SimConfig(**base)


def flock(*rows):
    """The state ``(idents, serials, kinds, pos, vel)`` of ``(ident, serial,
    kind, position, velocity)`` rows, taken in the order given."""
    idents, serials, kinds, pos, vel = zip(*rows)
    return (list(idents), np.array(serials, dtype=np.int64), np.array(kinds, dtype=np.int64),
            np.array(pos, dtype=float), np.array(vel, dtype=float))


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(actor_count=0)
    with pytest.raises(ValidationError):
        SimConfig(dt=0.0)
    with pytest.raises(ValidationError):
        SimConfig(avoid_radius=20.0, clump_radius=10.0)
    with pytest.raises(ValidationError):
        SimConfig(spawn_prob=1.5)
    with pytest.raises(ValidationError):
        SimConfig(snapshot_interval=0)
    with pytest.raises(ValidationError):
        SimConfig(max_speed=0.0)
    with pytest.raises(ValidationError, match="max_speed must not exceed"):
        SimConfig(max_speed=1e154)


@pytest.mark.parametrize("name, value", [
    ("seed", -1), ("seed", 1.0), ("seed", True), ("actor_count", 2.5),
    ("snapshot_interval", "5"), ("total_ticks", 10.0), ("dt", float("nan")),
    ("arena_side", float("inf")), ("wall_force", "4"), ("interact_prob", float("nan")),
])
def test_config_rejects_bad_numbers(name, value):
    with pytest.raises(ValidationError, match=name):
        SimConfig(**{name: value})


def test_config_refuses_an_arena_whose_squared_gaps_overflow():
    """A side of 1e308 used to overflow the first tick's squared gaps; just
    below the bound, a flock runs its ticks without a warning."""
    with pytest.raises(ValidationError, match=r"arena_side must lie in \(0, 6.7039e\+153\)"):
        run_detailed(SimConfig(actor_count=10, total_ticks=3, snapshot_interval=1,
                               arena_side=1e308))
    with pytest.raises(ValidationError, match="arena_side"):
        SimConfig(arena_side=_SPEED_LIMIT)
    side = float(np.nextafter(_SPEED_LIMIT, 0.0))
    sampling, _ = run_detailed(SimConfig(actor_count=10, total_ticks=3, snapshot_interval=1,
                                         arena_side=side, interact_prob=1.0))
    assert np.isfinite(sampling.ambient.dist).all()


@pytest.mark.parametrize("count", [10**30, 2**63])
def test_config_refuses_an_actor_count_numpy_cannot_hold(count):
    """Refused when made, so the state's (count, 2) arrays are never drawn."""
    with pytest.raises(ValidationError, match=f"actor_count {count} "):
        SimConfig(actor_count=count)


def test_config_round_trip_and_unknown_key():
    cfg = SimConfig(actor_count=7, seed=3)
    assert SimConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValidationError):
        SimConfig.from_dict({"actor_count": 7, "warp_drive": True})


# ---------------------------------------------------------------- single steps


def test_force_free_step_is_pure_drift():
    cfg = still_config(dt=0.1)
    state = flock(("a00000", 0, 0, (50.0, 50.0), (1.0, 2.0)))
    _, _, _, pos, vel = step(state, cfg, np.random.default_rng(0))
    assert np.array_equal(pos[0], [50.1, 50.2])
    assert np.array_equal(vel[0], [1.0, 2.0])


def test_speed_is_clamped():
    cfg = still_config(max_speed=4.0)
    state = flock(("a00000", 0, 0, (50.0, 50.0), (30.0, 40.0)))
    _, _, _, _, vel = step(state, cfg, np.random.default_rng(0))
    speed = float(np.hypot(*vel[0]))
    assert abs(speed - 4.0) < 1e-9


def test_clump_pulls_same_kind_together():
    cfg = still_config(clump_weight=0.5, clump_radius=30.0)
    state = flock(
        ("a00000", 0, 1, (40.0, 50.0), (0.0, 0.0)),
        ("a00001", 1, 1, (60.0, 50.0), (0.0, 0.0)),
    )
    _, _, _, pos, _ = step(state, cfg, np.random.default_rng(0))
    gap = np.linalg.norm(pos[0] - pos[1])
    assert gap < 20.0


def test_clump_ignores_other_kinds():
    cfg = still_config(clump_weight=0.5, clump_radius=30.0)
    state = flock(
        ("a00000", 0, 1, (40.0, 50.0), (0.0, 0.0)),
        ("a00001", 1, 2, (60.0, 50.0), (0.0, 0.0)),
    )
    _, _, _, pos, _ = step(state, cfg, np.random.default_rng(0))
    assert np.array_equal(pos[0], [40.0, 50.0])
    assert np.array_equal(pos[1], [60.0, 50.0])


def test_avoid_pushes_close_actors_apart():
    cfg = still_config(avoid_weight=1.5, avoid_radius=3.0, clump_radius=15.0)
    state = flock(
        ("a00000", 0, 1, (49.5, 50.0), (0.0, 0.0)),
        ("a00001", 1, 2, (50.5, 50.0), (0.0, 0.0)),
    )
    _, _, _, pos, _ = step(state, cfg, np.random.default_rng(0))
    gap = np.linalg.norm(pos[0] - pos[1])
    assert gap > 1.0


def test_school_aligns_with_kind_mean_velocity():
    cfg = still_config(school_weight=0.5)
    state = flock(
        ("a00000", 0, 0, (30.0, 50.0), (0.0, 0.0)),
        ("a00001", 1, 0, (70.0, 50.0), (2.0, 0.0)),
    )
    _, _, _, _, vel = step(state, cfg, np.random.default_rng(0))
    assert vel[0, 0] > 0.0


def test_boundary_reflection():
    cfg = still_config(max_speed=4.0, dt=0.1)
    state = flock(("a00000", 0, 0, (99.9, 50.0), (4.0, 0.0)))
    _, _, _, pos, vel = step(state, cfg, np.random.default_rng(0))
    assert abs(pos[0, 0] - 99.7) < 1e-9
    assert vel[0, 0] == -4.0


def test_wall_force_decelerates_near_edge():
    cfg = still_config(wall_force=4.0, dt=0.1)
    state = flock(("a00000", 0, 0, (99.0, 50.0), (0.0, 0.0)))
    _, _, _, _, vel = step(state, cfg, np.random.default_rng(0))
    assert vel[0, 0] < 0.0  # pushed back toward the interior


# ---------------------------------------------------------------- interactions


def test_no_interactions_means_constant_population():
    cfg = still_config(
        actor_count=20, interact_prob=0.0, total_ticks=40, snapshot_interval=10
    )
    samp, _ = run_detailed(cfg)
    assert [len(level) for level in samp.levels] == [20] * 5


def test_spawn_count_matches_same_kind_pairs():
    # radius covers the arena and every draw fires, so each same-kind pair
    # spawns exactly one newcomer in the single tick
    cfg = SimConfig(
        actor_count=40,
        total_ticks=1,
        snapshot_interval=1,
        interact_prob=1.0,
        interact_radius=500.0,
        spawn_prob=1.0,
        delete_prob=0.0,
        seed=2,
    )
    samp, kind_maps = run_detailed(cfg)
    counts = np.bincount(list(kind_maps[0].values()), minlength=4)
    want_spawns = sum(c * (c - 1) // 2 for c in counts)
    assert len(samp.levels[1]) == len(samp.levels[0]) + want_spawns
    assert any(ident.endswith("a00040") for ident in samp.levels[1])


def test_delete_removes_lex_later_actor():
    cfg = SimConfig(
        actor_count=40,
        total_ticks=1,
        snapshot_interval=1,
        interact_prob=1.0,
        interact_radius=500.0,
        spawn_prob=0.0,
        delete_prob=1.0,
        seed=2,
    )
    samp, _ = run_detailed(cfg)
    assert len(samp.levels[1]) < len(samp.levels[0])
    survivors = {ident.split("_", 1)[1] for ident in samp.levels[1]}
    originals = {ident.split("_", 1)[1] for ident in samp.levels[0]}
    assert survivors <= originals  # nothing spawned
    assert "a00000" in survivors  # the lex-smallest ident is never the victim


# ---------------------------------------------------------------- runs


def test_run_is_deterministic_per_seed():
    cfg = SimConfig(actor_count=12, total_ticks=60, snapshot_interval=20, seed=9)
    first = run(cfg)
    second = run(cfg)
    assert first.to_dict() == second.to_dict()
    other = run(SimConfig(actor_count=12, total_ticks=60, snapshot_interval=20, seed=10))
    assert other.to_dict() != first.to_dict()


def test_interaction_stream_does_not_touch_initial_placement():
    quiet = SimConfig(actor_count=15, total_ticks=20, snapshot_interval=20, seed=4, interact_prob=0.0)
    busy = SimConfig(actor_count=15, total_ticks=20, snapshot_interval=20, seed=4, interact_prob=0.9)
    a, _ = run_detailed(quiet)
    b, _ = run_detailed(busy)
    ids_a = [i.split("_", 1)[1] for i in a.levels[0]]
    ids_b = [i.split("_", 1)[1] for i in b.levels[0]]
    assert ids_a == ids_b
    sub_a = a.ambient.restrict(a.levels[0])
    sub_b = b.ambient.restrict(b.levels[0])
    assert np.array_equal(sub_a.dist, sub_b.dist)


def test_initial_state_is_seed_determined():
    cfg = SimConfig(actor_count=10, seed=6)
    first = initial_state(cfg, np.random.default_rng(42))
    second = initial_state(cfg, np.random.default_rng(42))
    idents, serials, kinds, pos, vel = first
    assert idents == second[0] == [f"a{i:05d}" for i in range(10)]
    assert serials.dtype == kinds.dtype == np.int64
    assert serials.tolist() == list(range(10))
    assert pos.shape == vel.shape == (10, 2)
    assert all(np.array_equal(x, y) for x, y in zip(first[1:], second[1:]))
    assert set(kinds.tolist()) <= set(range(4))


def test_snapshot_schedule_and_level_ids():
    cfg = SimConfig(actor_count=5, total_ticks=100, snapshot_interval=50, seed=1)
    samp, kind_maps = run_detailed(cfg)
    assert samp.t == 3
    assert len(kind_maps) == 3
    for lvl, level in enumerate(samp.levels):
        for ident in level:
            assert ident.startswith(f"t{lvl:03d}_a")
        assert set(level) == set(kind_maps[lvl])


def test_zero_tick_run_has_single_level():
    cfg = SimConfig(actor_count=5, total_ticks=0, seed=1)
    samp, _ = run_detailed(cfg)
    assert samp.t == 1
    assert len(samp.levels[0]) == 5


def test_positions_stay_inside_arena():
    cfg = SimConfig(actor_count=25, total_ticks=120, snapshot_interval=30, seed=8, max_speed=8.0)
    samp, _ = run_detailed(cfg)
    assert samp.ambient.pseudo
    coords = samp.ambient.coords
    assert coords.min() >= 0.0
    assert coords.max() <= cfg.arena_side


def test_on_tick_callback_sees_every_tick():
    seen = []
    cfg = SimConfig(actor_count=6, total_ticks=7, snapshot_interval=7, seed=0)
    run_detailed(cfg, on_tick=lambda tick, population: seen.append((tick, population)))
    assert [t for t, _ in seen] == list(range(1, 8))
    assert all(p >= 1 for _, p in seen)


# ---------------------------------------------------------------- against the actor-list oracle


def step_record(state):
    idents, serials, kinds, pos, vel = state
    return list(zip(idents, serials.tolist(), kinds.tolist(),
                    map(np.ndarray.tobytes, pos), map(np.ndarray.tobytes, vel)))


def both_steps(state, cfg, seed=0):
    """``step`` and ``reference_step`` on one state and copies of one stream:
    the records of both outputs and the next draw of each stream. The
    oracle's serials are read from its idents; ``step`` leaves its input
    as it was."""
    before = step_record(state)
    rng = np.random.default_rng(seed)
    records = [(step_record(step(state, cfg, rng)), rng.random())]
    assert step_record(state) == before
    rng = np.random.default_rng(seed)
    old = reference_step(actors_from_state(state), cfg, rng)
    records.append((step_record(state_from_actors(old)), rng.random()))
    return records


def busy_config(**overrides):
    """Every force on and every close pair interacting."""
    base = dict(interact_prob=1.0, interact_radius=5.0, clump_radius=10.0, avoid_radius=3.0)
    base.update(overrides)
    return SimConfig(**base)


BUSY_ROWS = [
    ("a00000", 0, 2, (52.5, 48.0), (0.5, 0.5)),
    ("a00002", 2, 1, (51.0, 50.5), (0.0, 0.3)),
    ("a00005", 5, 0, (99.5, 0.5), (3.0, -3.0)),
    ("a00007", 7, 1, (50.0, 50.0), (1.0, -0.5)),
    ("a00011", 11, 2, (49.0, 51.0), (-1.0, 0.0)),
]


def test_step_matches_the_oracle_on_a_busy_state():
    state = flock(*BUSY_ROWS)
    for spawn_prob, seed in itertools.product((0.0, 0.5, 1.0), range(4)):
        new, old = both_steps(state, busy_config(spawn_prob=spawn_prob), seed)
        assert new == old
    new, _ = both_steps(state, busy_config(spawn_prob=1.0, delete_prob=0.0))
    assert [ident for ident, *_ in new[0]] == sorted(ident for ident, *_ in new[0])
    assert "a00012" in [ident for ident, *_ in new[0]]


MALFORMED_STATES = {
    "unsorted": lambda s: ([s[0][3], *s[0][:3], s[0][4]], *s[1:]),
    "repeated-id": lambda s: ([*s[0][:4], s[0][3]], *s[1:]),
    "pos-shape": lambda s: (*s[:3], s[3].T, s[4]),
    "kinds-length": lambda s: (*s[:2], s[2][:4], *s[3:]),
    "vel-list": lambda s: (*s[:4], s[4].tolist()),
    "four-items": lambda s: s[:4],
    "ident-number": lambda s: ([*s[0][:4], 5], *s[1:]),
    "idents-string": lambda s: ("abcde", *s[1:]),
    # positions outside the arena (NaN too), non-finite velocities, kinds
    # outside 0..3, float serials
    "pos-nan": lambda s: (*s[:3], np.where(np.eye(5, 2, dtype=bool), np.nan, s[3]), s[4]),
    "pos-far": lambda s: (*s[:3], np.where(np.eye(5, 2, dtype=bool), 1e308, s[3]), s[4]),
    "pos-below-zero": lambda s: (*s[:3], np.where(np.eye(5, 2, dtype=bool), -0.5, s[3]), s[4]),
    "vel-inf": lambda s: (*s[:4], np.where(np.eye(5, 2, dtype=bool), np.inf, s[4])),
    "vel-minus-inf": lambda s: (*s[:4], -np.full((5, 2), np.inf)),
    # finite, but the squared speed would overflow
    "vel-1e154": lambda s: (*s[:4], np.where(np.eye(5, 2, dtype=bool), 1e154, s[4])),
    "vel-minus-1e200": lambda s: (*s[:4], np.where(np.eye(5, 2, dtype=bool), -1e200, s[4])),
    "kind-seven": lambda s: (*s[:2], np.array([2, 1, 7, 1, 2]), *s[3:]),
    "kind-negative": lambda s: (*s[:2], np.array([2, 1, 0, -1, 2]), *s[3:]),
    "kinds-float": lambda s: (*s[:2], s[2].astype(float), *s[3:]),
    "serials-float": lambda s: (s[0], s[1].astype(float), *s[2:]),
    "serials-unsigned": lambda s: (s[0], s[1].astype(np.uint64), *s[2:]),
    "pos-int": lambda s: (*s[:3], s[3].astype(int), s[4]),
}


@pytest.mark.parametrize("case", list(MALFORMED_STATES))
def test_step_refuses_a_malformed_state(case):
    state = MALFORMED_STATES[case](flock(*BUSY_ROWS))
    with pytest.raises(ValidationError, match="state"):
        step(state, busy_config(), np.random.default_rng(0))


def test_step_matches_the_oracle_with_a_non_digit_ident():
    state = flock(
        ("a00001", 1, 3, (40.5, 40.0), (0.0, 0.0)),
        ("boid", -1, 1, (41.0, 39.5), (0.0, -0.4)),
        ("zeta", -1, 3, (40.0, 40.0), (0.2, 0.1)),
    )
    for seed in range(6):
        new, old = both_steps(state, busy_config(spawn_prob=1.0, delete_prob=0.5), seed)
        assert new == old


def test_step_names_a_serial_that_leaves_no_room_for_a_newcomer():
    top = np.iinfo(np.int64).max
    state = flock(
        ("a00000", 0, 0, (30.5, 30.0), (0.0, 0.0)),
        ("a00001", top, 0, (30.0, 30.0), (0.0, 0.0)),
    )
    message = f"newcomer serials after state serial {top} would pass int64"
    with pytest.raises(ValidationError, match=message):
        step(state, busy_config(spawn_prob=1.0, delete_prob=0.0), np.random.default_rng(0))
    # one below: room for exactly one newcomer
    state[1][1] = top - 1
    new = step(state, busy_config(spawn_prob=1.0, delete_prob=0.0), np.random.default_rng(0))
    assert new[1].tolist() == [0, top - 1, top]


def test_step_clamps_speeds_up_to_its_velocity_bound():
    """Entries just below the bound keep their squared speed finite, and
    the clamp scales them to ``max_speed`` in their own direction."""
    v = np.nextafter(np.sqrt(np.finfo(float).max) / 2, 0.0)
    state = flock(("a00000", 0, 0, (50.0, 50.0), (v, -v)))
    _, _, _, _, vel = step(state, still_config(max_speed=4.0), np.random.default_rng(0))
    assert np.allclose(vel, [[4.0 / np.sqrt(2.0), -4.0 / np.sqrt(2.0)]])


@pytest.mark.parametrize("weight", ["clump_weight", "wall_force"])
def test_step_refuses_a_tick_whose_force_overflows(weight):
    """A huge but finite weight overflows the force sum. Nothing warns (the
    tier-1 suite runs with warnings as errors): the first tick is refused,
    and the message names the force, the velocity and the weight, instead
    of the next tick refusing the NaN positions it was handed."""
    cfg = SimConfig(actor_count=10, total_ticks=3, snapshot_interval=1, **{weight: 1e308})
    message = rf"tick force \[.*inf.*\] gives actor 'a0000\d' velocity \[.*inf.*\], whose " \
        rf"squared speed is not finite; lower .*{weight} 1e\+308"
    with pytest.raises(ValidationError, match=message):
        run_detailed(cfg)
    with pytest.raises(ValidationError, match=message):
        step(initial_state(cfg, np.random.default_rng(0)), cfg, np.random.default_rng(1))


def test_step_refuses_a_move_that_overflows():
    """``vel * dt`` overflows for a dt of 1e308. Nothing warns, even with
    warnings as errors, and the tick is refused naming dt and max_speed,
    where every position used to end silently at [0, 0]."""
    cfg = SimConfig(actor_count=10, total_ticks=3, snapshot_interval=1, dt=1e308,
                    clump_weight=0, avoid_weight=0, school_weight=0, wall_force=0)
    message = r"moving actor 'a0000\d' at velocity \[.*\] for dt 1e\+308 leaves the floats; " \
        r"lower dt or max_speed 4$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=message):
            run_detailed(cfg)
        with pytest.raises(ValidationError, match=message):
            step(initial_state(cfg, np.random.default_rng(0)), cfg, np.random.default_rng(1))


def test_step_past_a99999_sorts_the_newcomer_first():
    # string order, not serial order: "a100000" < "a99998"
    state = flock(
        ("a99998", 99998, 0, (30.5, 30.0), (0.0, 0.0)),
        ("a99999", 99999, 0, (30.0, 30.0), (0.0, 0.0)),
    )
    new, old = both_steps(state, busy_config(spawn_prob=1.0, delete_prob=0.0))
    assert new == old
    assert [ident for ident, *_ in new[0]] == ["a100000", "a99998", "a99999"]


def test_step_builds_one_gaps_block_per_tick(monkeypatch):
    """The clump, avoid and interaction pairs all come from the one
    pre-move block; the post-move gaps are computed per candidate pair."""
    blocks, gaps = [], flocking._gaps

    def counted(pos):
        blocks.append(len(pos))
        return gaps(pos)

    monkeypatch.setattr(flocking, "_gaps", counted)
    cfg = SimConfig(actor_count=30, total_ticks=20, snapshot_interval=10, seed=3)
    populations = []
    run_detailed(cfg, on_tick=lambda tick, population: populations.append(population))
    assert blocks == [30, *populations[:-1]]


def test_step_finds_pairs_that_rounding_brings_within_the_interact_radius():
    """Two actors move head-on, along one axis, from a gap a few spacings of
    ``arena_side`` off ``interact_radius + 2 * max_speed * dt``, at arena
    sides from 1e2 to 1e13 and speeds at and above ``max_speed``. The move
    rounds positions at the arena's scale, so some pairs whose gap exceeds
    that sum still end within ``interact_radius`` and spawn; ``step`` must
    find them in its pre-move pair list, as the dense oracle does."""
    radius, dt, beyond = 1.0, 0.1, 0
    for exponent, max_speed, factor, axis, k in itertools.product(
            range(2, 14), (4.0, 3.3, 0.7), (1.0, 1.5), (0, 1), range(-3, 4)):
        side = 10.0**exponent
        cfg = still_config(arena_side=side, max_speed=max_speed, dt=dt, interact_prob=1.0,
                           spawn_prob=1.0, interact_radius=radius)
        spacing = np.spacing(side)
        gap = (np.round((radius + 2 * max_speed * dt) / spacing) + k) * spacing
        pos, vel = np.full((2, 2), side / 2), np.zeros((2, 2))
        pos[:, axis] = 0.75 * side, 0.75 * side + gap
        vel[:, axis] = factor * max_speed, -factor * max_speed
        new, old = both_steps(flock(("a00000", 0, 0, pos[0], vel[0]),
                                    ("a00001", 1, 0, pos[1], vel[1])), cfg)
        assert new == old, (side, max_speed, factor, axis, k)
        beyond += len(new[0]) == 3 and gap > radius + 2 * max_speed * dt
    assert beyond >= 10


DIFFERENTIAL_CONFIGS = {
    "100-actors-seed-0": dict(actor_count=100, seed=0),
    "100-actors-seed-1": dict(actor_count=100, seed=1),
    "spawn-heavy": dict(actor_count=20, interact_prob=1.0, spawn_prob=1.0,
                        interact_radius=5.0, total_ticks=6, snapshot_interval=2, seed=2),
    "delete-heavy": dict(actor_count=60, interact_prob=1.0, spawn_prob=0.0, delete_prob=1.0,
                         interact_radius=5.0, total_ticks=60, snapshot_interval=10, seed=5),
    "all-weights-0": dict(actor_count=25, clump_weight=0.0, avoid_weight=0.0,
                          school_weight=0.0, total_ticks=50, snapshot_interval=10, seed=6),
    "one-actor": dict(actor_count=1, total_ticks=50, seed=7),
    "zero-ticks": dict(actor_count=10, total_ticks=0, seed=8),
    "every-tick": dict(actor_count=12, total_ticks=30, snapshot_interval=1, seed=9),
    # moves of up to 0.8 in an arena of side 0.5: some need the second bounce
    "tiny-arena": dict(actor_count=20, arena_side=0.5, clump_radius=0.3, avoid_radius=0.1,
                       interact_radius=0.02, max_speed=8.0, total_ticks=100,
                       snapshot_interval=20, seed=10),
    "interact-beyond-clump": dict(actor_count=30, interact_radius=20.0, clump_radius=8.0,
                                  avoid_radius=2.0, total_ticks=100, snapshot_interval=20,
                                  seed=11),
    "all-radii-0": dict(actor_count=20, clump_radius=0.0, avoid_radius=0.0, interact_radius=0.0,
                        total_ticks=50, snapshot_interval=10, seed=12),
    # the pair list's reach overflows to inf and takes every pair, the diagonal too
    "interact-radius-near-max": dict(actor_count=10, interact_radius=sys.float_info.max,
                                     interact_prob=0.05, spawn_prob=0.2, total_ticks=20,
                                     snapshot_interval=5, seed=13),
    "200-actors-seed-0": dict(actor_count=200, seed=0),
}


def run_record(run_fn, cfg):
    ticks = []
    samp, kind_maps = run_fn(cfg, on_tick=lambda tick, pop: ticks.append((tick, pop)))
    return {
        "points": samp.ambient.points,
        "levels": samp.levels,
        "kinds": kind_maps,
        "ticks": ticks,
        "coords": samp.ambient.coords.tobytes(),
    }


@pytest.mark.parametrize("name", list(DIFFERENTIAL_CONFIGS))
def test_run_detailed_matches_the_actor_list_oracle(name):
    cfg = SimConfig(**DIFFERENTIAL_CONFIGS[name])
    new = run_record(run_detailed, cfg)
    old = run_record(reference_run_detailed, cfg)
    for key in old:
        assert new[key] == old[key], key
    sizes = [len(level) for level in new["levels"]]
    if name == "spawn-heavy":
        assert sizes[-1] > 2 * sizes[0]
    if name == "delete-heavy":
        assert sizes[-1] < sizes[0]
    if name == "interact-radius-near-max":
        assert sizes[-1] != sizes[0]


def test_forty_actor_run_keeps_its_bits():
    """Digests recorded with the actor-list step: they pin the snapshots
    independently of the oracle."""
    samp, _ = run_detailed(SimConfig(actor_count=40, seed=0))
    coords = hashlib.sha256(samp.ambient.coords.tobytes()).hexdigest()
    levels = hashlib.sha256(json.dumps(samp.levels).encode()).hexdigest()
    assert coords == "da647c810fb0ea02e6f28ce8af399af49b78aeba64de2e082bb829937cbe268c"
    assert levels == "5b94067e8e1301c160f061e0a20f24a503981c77429e6f33eb9f07ca6ed1096b"
