"""Finite metric spaces, temporal samplings, and basic distance utilities.

Distances are dense float64 matrices indexed by opaque string point ids.
All numeric comparisons against structural invariants use the shared
tolerance ``TOL``.
"""

from __future__ import annotations

import numbers
import sys
from typing import Iterable, Sequence

import numpy as np

TOL = 1e-9

# Rows and hubs per block of the triangle check; each block's temporary
# holds _BLOCK * _BLOCK * n floats.
_BLOCK = 16


class ValidationError(ValueError):
    """An input violates a structural invariant (shape, symmetry, metric axioms)."""


def _scalar_types(value) -> set[type]:
    """Types of the scalars in a nested list; an ndarray counts by its dtype
    alone, so a numeric one costs no per-element scan."""
    if isinstance(value, np.ndarray):
        return _scalar_types(value.tolist()) if value.dtype == object else {value.dtype.type}
    if not isinstance(value, (list, tuple)):
        return {type(value)}
    types = set(map(type, value))
    if any(issubclass(t, (list, tuple, np.ndarray)) for t in types):
        return set().union(*map(_scalar_types, value))
    return types


def _float_array(value, what: str) -> np.ndarray:
    """``value`` as a float array; a ValidationError naming ``what`` unless
    it is a grid of real numbers. Strings and booleans are refused, not
    converted: JSON ``"1"`` and ``true`` are no distances."""
    for t in _scalar_types(value):
        if issubclass(t, (bool, np.bool_)) or not issubclass(t, numbers.Real):
            raise ValidationError(f"{what} must hold numbers only, got {t.__name__}")
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what} must be a rectangular array of numbers") from None


def _json_list(value, what: str, size: int | None = None):
    """``value`` if it is a JSON array (or a Python tuple), of ``size`` items
    when given: never a string to split into characters, nor a number."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{what} must be a list, got {type(value).__name__}")
    if size is not None and len(value) != size:
        raise ValidationError(f"{what} must have {size} items, got {len(value)}")
    return value


def _json_object(value, what: str, required=()) -> dict:
    """``value`` if it is a JSON object holding every key in ``required``."""
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be an object, got {type(value).__name__}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ValidationError(f"{what} is missing {missing}")
    return value


def _json_number(value, what: str) -> float:
    """``value`` as a float if it is a finite real number: never text, a
    bool, null, or an int too large for a float."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):
        raise ValidationError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _json_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{what} must be true or false, got {value!r}")
    return value


def _json_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a string, got {value!r}")
    return value


def shortest_path_closure(weights: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths of a symmetric weight matrix (Floyd-Warshall).

    ``np.inf`` entries mark absent edges. The result is the largest
    pseudometric dominated by the input, which makes this the canonical
    metric-repair step for perturbed matrices.
    """
    w = _float_array(weights, "weight matrix")
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValidationError("weight matrix must be square")
    np.fill_diagonal(w, 0.0)
    for k in range(w.shape[0]):
        np.minimum(w, w[:, k : k + 1] + w[k : k + 1, :], out=w)
    return w


def _as_point_tuple(points: Iterable[str], what: str) -> tuple[str, ...]:
    """``points`` as a non-empty tuple of unique string ids, the one reader
    of a point set. Nothing is converted: JSON ``1`` is no id ``"1"``, and
    a bare string is one id, not a sequence of them."""
    if isinstance(points, str):
        raise ValidationError(f"{what} must be a list of ids, not a string")
    pts = tuple(points)
    for p in pts:
        if not isinstance(p, str):
            raise ValidationError(f"{what} must hold string ids, got {p!r}")
    if not pts:
        raise ValidationError(f"{what} must not be empty")
    if len(set(pts)) != len(pts):
        seen: set[str] = set()
        for p in pts:
            if p in seen:
                raise ValidationError(f"duplicate id {p!r} in {what}")
            seen.add(p)
    return pts


def _euclidean(coords: np.ndarray) -> np.ndarray:
    """Euclidean distances between coordinate rows, refused unless finite."""
    with np.errstate(over="ignore"):
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=-1))
    if not np.isfinite(dist).all():
        raise ValidationError("distances derived from coordinates must be finite")
    return dist


class MetricSpace:
    """A finite point set with explicit pairwise distances.

    Parameters
    ----------
    points : sequence of str
        Unique point ids, strings only (see :func:`_as_point_tuple`).
    dist : array-like, optional
        Symmetric nonnegative matrix with zero diagonal. Derived from
        ``coords`` when omitted.
    coords : array-like, optional
        One row of Euclidean coordinates per point. When both ``dist`` and
        ``coords`` are given they must agree within ``TOL``.
    pseudo : bool
        Permit zero distance between distinct points.
    """

    def __init__(self, points, dist=None, coords=None, pseudo=False, validate=True):
        self.points = _as_point_tuple(points, "points")
        n = len(self.points)
        self._index = {p: i for i, p in enumerate(self.points)}
        self.pseudo = _json_bool(pseudo, "'pseudo'")

        if coords is not None:
            coords = _float_array(coords, "coords")
            if coords.ndim != 2 or coords.shape[0] != n:
                raise ValidationError(
                    f"coords must have one row per point ({n}), got shape {coords.shape}"
                )
            if not np.isfinite(coords).all():
                raise ValidationError("coordinates must be finite")
            coords.setflags(write=False)
        self.coords = coords

        derived = dist is None
        if derived:
            if coords is None:
                raise ValidationError("provide dist or coords")
            dist = _euclidean(coords)
        else:
            dist = _float_array(dist, "distance matrix")

        if dist.shape != (n, n):
            raise ValidationError(f"distance matrix must be {n}x{n}, got {dist.shape}")
        if validate and not derived:
            self._check_matrix(dist)
            if coords is not None:
                gap = np.abs(_euclidean(coords) - dist)
                if gap.max() > TOL:
                    i, j = np.unravel_index(int(gap.argmax()), gap.shape)
                    raise ValidationError(
                        "coords disagree with distances at pair "
                        f"({self.points[i]!r}, {self.points[j]!r})"
                    )
        # Canonicalize: exact symmetry, exact zero diagonal, no negative dust.
        # Halving first keeps entries near the float maximum finite.
        dist = np.maximum(dist / 2.0 + dist.T / 2.0, 0.0)
        np.fill_diagonal(dist, 0.0)
        dist.setflags(write=False)
        self.dist = dist
        if validate and not derived:
            self._check_triangle(dist)
        if validate and not self.pseudo:
            off = dist + np.diag(np.full(n, np.inf))
            if n > 1 and off.min() <= TOL:
                i, j = np.unravel_index(int(off.argmin()), off.shape)
                raise ValidationError(
                    f"zero distance between distinct points {self.points[i]!r} "
                    f"and {self.points[j]!r} (use pseudo=True to allow)"
                )

    def _check_matrix(self, dist: np.ndarray) -> None:
        if not np.isfinite(dist).all():
            raise ValidationError("distances must be finite")
        if dist.min() < -TOL:
            i, j = np.unravel_index(int(dist.argmin()), dist.shape)
            raise ValidationError(
                f"negative distance at pair ({self.points[i]!r}, {self.points[j]!r})"
            )
        asym = np.abs(dist - dist.T)
        if asym.max() > TOL:
            i, j = np.unravel_index(int(asym.argmax()), asym.shape)
            raise ValidationError(
                f"asymmetric distances at pair ({self.points[i]!r}, {self.points[j]!r})"
            )
        diag = np.abs(np.diagonal(dist))
        if diag.max() > TOL:
            i = int(diag.argmax())
            raise ValidationError(f"nonzero self-distance at point {self.points[i]!r}")

    def _check_triangle(self, dist: np.ndarray) -> None:
        """Raise :class:`ValidationError` unless every triple satisfies
        ``dist[i, j] - (dist[i, k] + dist[k, j]) <= TOL``.

        The scan runs over blocks of ``_BLOCK`` rows and only the columns at
        or right of the block, folding hubs in blocks of ``_BLOCK`` into a
        running minimum of ``dist[i, k] + dist[k, j]``. It judges every
        triple by the hub scan's own expression:

        - ``dist`` is canonical, so exactly symmetric, and floating-point
          addition commutes; pair (j, i) via k has the bits of (i, j) via k,
          and the pairs with j >= i suffice.
        - Rounded subtraction is monotone, so the largest
          ``dist[i, j] - s_k`` over hubs is ``dist[i, j] - min_k s_k``.

        A block that does not pass hands the matrix to :meth:`_scan_hubs`,
        which decides it and names the first violating triple in hub order.
        """
        n = len(dist)
        for i0 in range(0, n, _BLOCK):
            i1 = min(i0 + _BLOCK, n)
            row = dist[i0:i1, i0:]
            via = np.full_like(row, np.inf)
            with np.errstate(over="ignore"):  # hub sums above 1.8e308 are inf
                for k0 in range(0, n, _BLOCK):
                    k1 = min(k0 + _BLOCK, n)
                    hubs = dist[i0:i1, k0:k1, None] + dist[None, k0:k1, i0:]
                    np.minimum(via, hubs.min(axis=1), out=via)
            if (row - via).max() > TOL:
                self._scan_hubs(dist)
                return

    def _scan_hubs(self, dist: np.ndarray) -> None:
        # One hub at a time keeps memory linear in n^2; every hub reuses
        # one buffer for its slack.
        slack = np.empty_like(dist)
        for k in range(len(self.points)):
            with np.errstate(over="ignore"):
                np.add(dist[:, k : k + 1], dist[k : k + 1, :], out=slack)
            np.subtract(dist, slack, out=slack)
            if slack.max() > TOL:
                i, j = np.unravel_index(int(slack.argmax()), slack.shape)
                raise ValidationError(
                    "triangle inequality violated for "
                    f"({self.points[i]!r}, {self.points[j]!r}) via {self.points[k]!r}"
                )

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricSpace):
            return NotImplemented
        if self.points != other.points or self.pseudo != other.pseudo:
            return False
        if not np.array_equal(self.dist, other.dist):
            return False
        a, b = self.coords, other.coords
        if (a is None) != (b is None):
            return False
        return a is None or np.array_equal(a, b)

    __hash__ = None  # type: ignore[assignment]

    def index_of(self, point: str) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise ValidationError(f"unknown point {point!r}") from None

    def distance(self, u: str, v: str) -> float:
        return float(self.dist[self.index_of(u), self.index_of(v)])

    def restrict(self, points: Sequence[str]) -> "MetricSpace":
        """Sub-space on ``points`` (in the given order) with inherited distances."""
        pts = _as_point_tuple(points, "points")
        idx = [self.index_of(p) for p in pts]
        sub = self.dist[np.ix_(idx, idx)]
        coords = None if self.coords is None else self.coords[idx]
        return MetricSpace(pts, dist=sub, coords=coords, pseudo=self.pseudo, validate=False)

    def to_dict(self) -> dict:
        out: dict = {"points": list(self.points)}
        if self.coords is not None:
            out["coords"] = [[float(x) for x in row] for row in self.coords]
        else:
            out["matrix"] = [[float(x) for x in row] for row in self.dist]
        if self.pseudo:
            out["pseudo"] = True
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MetricSpace":
        _json_object(data, "metric space document", ("points",))
        return cls(
            _json_list(data["points"], "points"),
            dist=data.get("matrix"),
            coords=data.get("coords"),
            pseudo=data.get("pseudo", False),
        )


def linf_distance(a: MetricSpace, b: MetricSpace) -> float:
    """Max-norm distance between two spaces over the identical point set,
    such as a level and its ultrametric fit; point order may differ, the
    matrices are aligned by id.
    """
    pa, ma = a.points, a.dist
    pb, mb = b.points, b.dist
    ib = {p: i for i, p in enumerate(pb)}
    for p in pa:
        if p not in ib:
            raise ValidationError(f"point {p!r} missing from second space")
    if len(pa) != len(pb):
        ia = set(pa)
        for p in pb:
            if p not in ia:
                raise ValidationError(f"point {p!r} missing from first space")
    perm = [ib[p] for p in pa]
    aligned = mb[np.ix_(perm, perm)]
    return float(np.abs(ma - aligned).max())


def hausdorff_distance(p_ids: Iterable[str], q_ids: Iterable[str], ambient: MetricSpace) -> float:
    """Hausdorff distance between two non-empty subsets of an ambient space."""
    p_ids, q_ids = tuple(p_ids), tuple(q_ids)
    if not p_ids or not q_ids:
        raise ValidationError("Hausdorff distance needs non-empty point sets")
    pi = [ambient.index_of(p) for p in p_ids]
    qi = [ambient.index_of(q) for q in q_ids]
    d = ambient.dist[np.ix_(pi, qi)]
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


class TemporalSampling:
    """An ordered sequence of non-empty levels inside one ambient space.

    Levels are subsets of the ambient point set and may share points across
    levels; inside one level each point appears once.
    """

    def __init__(self, ambient: MetricSpace, levels: Sequence[Sequence[str]]):
        if not isinstance(ambient, MetricSpace):
            raise ValidationError("ambient must be a MetricSpace")
        self.ambient = ambient
        lvls = []
        for i, level in enumerate(levels):
            pts = _as_point_tuple(level, f"level {i}")
            for p in pts:
                ambient.index_of(p)
            lvls.append(pts)
        if not lvls:
            raise ValidationError("a sampling needs at least one level")
        self.levels: tuple[tuple[str, ...], ...] = tuple(lvls)

    @property
    def t(self) -> int:
        return len(self.levels)

    @property
    def size(self) -> int:
        return sum(len(level) for level in self.levels)

    def level_space(self, i: int) -> MetricSpace:
        return self.ambient.restrict(self.levels[i])

    def to_dict(self) -> dict:
        return {"ambient": self.ambient.to_dict(), "levels": [list(l) for l in self.levels]}

    @classmethod
    def from_dict(cls, data: dict) -> "TemporalSampling":
        _json_object(data, "sampling document", ("ambient", "levels"))
        levels = _json_list(data["levels"], "levels")
        return cls(MetricSpace.from_dict(data["ambient"]),
                   [_json_list(level, f"level {i}") for i, level in enumerate(levels)])
