"""Finite metric spaces, temporal samplings, and basic distance utilities.

Points are opaque string ids. A space holds either a float64 distance
matrix or Euclidean coordinates; a coordinate space computes the distances
a caller reads from its coordinates, block by block, and builds its whole
matrix only when asked for it. All numeric comparisons against structural
invariants use the shared tolerance ``TOL``.
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


def _number_array(value, what: str, dtype=float) -> np.ndarray:
    """``value`` as an array of ``dtype``, float or ``np.intp``; a
    ValidationError naming ``what`` unless it is a grid of real numbers, of
    integers for ``np.intp``. Strings and booleans are refused, not
    converted: JSON ``"1"`` and ``true`` are no distances, and ``0.7`` is no
    index."""
    number, kind = (numbers.Real, "numbers") if dtype is float else (numbers.Integral, "integers")
    for t in _scalar_types(value):
        if issubclass(t, (bool, np.bool_)) or not issubclass(t, number):
            raise ValidationError(f"{what} must hold {kind} only, got {t.__name__}")
    try:
        return np.array(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what} must be a rectangular array of {kind}") from None


def _json_list(value, what: str, size: int | None = None):
    """``value`` if it is a JSON array (or a Python tuple), of ``size`` items
    when given: never a string to split into characters, nor a number."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{what} must be a list, got {type(value).__name__}")
    if size is not None and len(value) != size:
        raise ValidationError(f"{what} must have {size} items, got {len(value)}")
    return value


def _items(value, what: str) -> tuple:
    """The items of any iterable ``value`` as a tuple."""
    try:
        return tuple(value)
    except TypeError:
        raise ValidationError(f"{what} must be a list, got {type(value).__name__}") from None


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


def _json_real(value, what: str) -> float:
    """``value`` as a float if it is a real number, inf and NaN left for the
    caller to judge: never text, a bool, null, a list, or an int too large
    for a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{what} {value!r} is too large for a float") from None


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
    metric-repair step for perturbed matrices. NaN, a negative weight, or
    a matrix more than ``TOL`` from symmetric raises :class:`ValidationError`.
    """
    w = _number_array(weights, "weight matrix")
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValidationError("weight matrix must be square")
    if not (w >= 0).all():  # NaN fails too
        raise ValidationError("weights must be nonnegative numbers or inf")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, and NaN > TOL is False
        if (np.abs(w - w.T) > TOL).any():
            raise ValidationError("weight matrix must be symmetric")
    np.fill_diagonal(w, 0.0)
    with np.errstate(over="ignore"):  # a path longer than the float maximum is inf
        for k in range(w.shape[0]):
            np.minimum(w, w[:, k : k + 1] + w[k : k + 1, :], out=w)
    return w


def _as_point_tuple(points: Iterable[str], what: str) -> tuple[str, ...]:
    """``points`` as a non-empty tuple of unique string ids, the one reader
    of a point set. Nothing is converted: JSON ``1`` is no id ``"1"``, and
    a bare string is one id, not a sequence of them."""
    if isinstance(points, str):
        raise ValidationError(f"{what} must be a list of ids, not a string")
    pts = _items(points, what)
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


def _coordinate_distances(coords: np.ndarray, rows, cols) -> np.ndarray:
    """Euclidean distances between the coordinate rows at the broadcast index
    arrays ``rows`` and ``cols``: the squared axis differences summed axis
    by axis, in axis order, then ``sqrt``. Every distance of a coordinate
    space comes from here, so its blocks and its whole matrix agree bit for
    bit.

    The result is already in the canonical form of a stored matrix,
    ``np.maximum(d / 2.0 + d / 2.0, 0.0)``: the square root of a sum of
    squares is +0, inf or a normal number of at least 2**-537, so halving
    it is exact and the two halves add back to it."""
    with np.errstate(over="ignore"):
        total = np.zeros(np.broadcast_shapes(np.shape(rows), np.shape(cols)))
        for x in coords.T:
            diff = x[rows] - x[cols]
            diff *= diff
            total += diff
        return np.sqrt(total, out=total)


def _coordinate_matrix(coords: np.ndarray) -> np.ndarray:
    at = np.arange(len(coords))
    return _coordinate_distances(coords, at[:, None], at)


def _check_coordinates(coords: np.ndarray) -> None:
    """Refuse coordinates with a non-finite distance. Rounding is monotone,
    so no pair lies farther apart than the two corners of the bounding box;
    only when that diagonal overflows is every pair computed."""
    box = np.stack([coords.min(axis=0), coords.max(axis=0)])
    if not np.isfinite(_coordinate_distances(box, 0, 1)):
        if not np.isfinite(_coordinate_matrix(coords)).all():
            raise ValidationError("distances derived from coordinates must be finite")


class MetricSpace:
    """A finite point set with pairwise distances, from a matrix or from
    coordinates.

    Parameters
    ----------
    points : sequence of str
        Unique point ids, strings only (see :func:`_as_point_tuple`).
    dist : array-like, optional
        Symmetric nonnegative matrix with zero diagonal: a matrix space.
    coords : array-like, optional
        One row of Euclidean coordinates per point: a coordinate space, which
        keeps ``coords`` and computes each distance it is asked for from them
        (:meth:`distances`). Exactly one of ``dist`` and ``coords`` is given.
    pseudo : bool
        Permit zero distance between distinct points.

    :attr:`dist` is the whole matrix, read-only. A coordinate space builds
    it on first read and keeps it, so only callers that want every pair
    should read it; :meth:`distances` reads blocks.
    """

    def __init__(self, points, dist=None, coords=None, pseudo=False, validate=True):
        self.points = _as_point_tuple(points, "points")
        n = len(self.points)
        self._index = {p: i for i, p in enumerate(self.points)}
        self.pseudo = _json_bool(pseudo, "'pseudo'")

        if (dist is None) == (coords is None):
            raise ValidationError("provide exactly one of dist and coords")
        self.coords = self._dist = None
        if coords is not None:
            coords = _number_array(coords, "coords")
            if coords.ndim != 2 or coords.shape[0] != n:
                raise ValidationError(
                    f"coords must have one row per point ({n}), got shape {coords.shape}"
                )
            if not np.isfinite(coords).all():
                raise ValidationError("coordinates must be finite")
            _check_coordinates(coords)
            coords.setflags(write=False)
            self.coords = coords
        else:
            dist = _number_array(dist, "distance matrix")
            if dist.shape != (n, n):
                raise ValidationError(f"distance matrix must be {n}x{n}, got {dist.shape}")
            if validate:
                self._check_matrix(dist)
            # Canonicalize: exact symmetry, exact zero diagonal, no negative
            # dust. Halving first keeps entries near the float maximum finite.
            dist = np.maximum(dist / 2.0 + dist.T / 2.0, 0.0)
            np.fill_diagonal(dist, 0.0)
            dist.setflags(write=False)
            self._dist = dist
            if validate:
                self._check_triangle(dist)
        if validate and not self.pseudo:
            off = self.dist + np.diag(np.full(n, np.inf))
            if n > 1 and off.min() <= TOL:
                i, j = np.unravel_index(int(off.argmin()), off.shape)
                raise ValidationError(
                    f"zero distance between distinct points {self.points[i]!r} "
                    f"and {self.points[j]!r} (use pseudo=True to allow)"
                )

    @property
    def dist(self) -> np.ndarray:
        """The whole distance matrix, read-only; a coordinate space builds
        it on first read and keeps it."""
        if self._dist is None:
            self._dist = _coordinate_matrix(self.coords)
            self._dist.setflags(write=False)
        return self._dist

    def distances(self, rows, cols) -> np.ndarray:
        """Distances between the points at the broadcast index arrays
        ``rows`` and ``cols``: read from the matrix of a matrix space,
        computed from the coordinates of a coordinate space."""
        if self.coords is None:
            return self._dist[rows, cols]
        return _coordinate_distances(self.coords, rows, cols)

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
        if (self.coords is None) != (other.coords is None):
            return False
        if self.coords is None:
            return np.array_equal(self._dist, other._dist)
        return np.array_equal(self.coords, other.coords)

    __hash__ = None  # type: ignore[assignment]

    def index_of(self, point: str) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise ValidationError(f"unknown point {point!r}") from None

    def distance(self, u: str, v: str) -> float:
        return float(self.distances(self.index_of(u), self.index_of(v)))

    def restrict(self, points: Sequence[str]) -> "MetricSpace":
        """Sub-space on ``points`` (in the given order) with inherited
        distances; a coordinate space's is a coordinate space."""
        pts = _as_point_tuple(points, "points")
        idx = [self.index_of(p) for p in pts]
        if self.coords is None:
            return MetricSpace(pts, dist=self._dist[np.ix_(idx, idx)], pseudo=self.pseudo,
                               validate=False)
        return MetricSpace(pts, coords=self.coords[idx], pseudo=self.pseudo, validate=False)

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
    """Max-norm distance between two spaces over one point tuple, such as a
    level and its ultrametric fit."""
    if a.points != b.points:
        only = sorted(set(a.points) ^ set(b.points))
        why = f"{', '.join(map(repr, only))} in one space only" if only else "another order"
        raise ValidationError(f"linf_distance needs two spaces over the same point tuple: {why}")
    return float(np.abs(a.dist - b.dist).max())


def hausdorff_distance(p_ids: Iterable[str], q_ids: Iterable[str], ambient: MetricSpace) -> float:
    """Hausdorff distance between two non-empty subsets of an ambient space."""
    p_ids, q_ids = tuple(p_ids), tuple(q_ids)
    if not p_ids or not q_ids:
        raise ValidationError("Hausdorff distance needs non-empty point sets")
    pi = np.array([ambient.index_of(p) for p in p_ids])
    qi = np.array([ambient.index_of(q) for q in q_ids])
    d = ambient.distances(pi[:, None], qi)
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
