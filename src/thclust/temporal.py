"""Level-to-level correspondences, distortion, and the local solver.

A solution fits one ultrametric per level and links adjacent levels with
correspondences built from ambient nearest neighbors. The quality metrics
are chi (worst per-level fit error), delta (worst correspondence locality),
and rho (worst merge distortion across a correspondence).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import (
    TOL,
    MetricSpace,
    TemporalSampling,
    ValidationError,
    _json_list,
    _number_array,
    hausdorff_distance,
    linf_distance,
)
from .metric import _as_point_tuple, _items, _json_bool, _json_number, _json_object, _json_str
from .ultrametric import PseudoUltrametric, fkw_fit, subdominant_ultrametric
from .ultrametric import Dendrogram, to_dendrogram

SCHEMES = ("fkw", "subdominant")


def _require_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


class CertificationError(RuntimeError):
    """A recomputed guarantee failed to hold for a solution."""


@dataclass(frozen=True, eq=False)
class Correspondence:
    """A relation between two levels whose projections cover both, checked
    once, when made.

    ``first`` and ``second`` are the levels' point tuples, and pair k joins
    ``first[left[k]]`` and ``second[right[k]]``. ``left`` and ``right`` are
    read-only int arrays, each pair once, sorted by (left, right).
    """

    first: tuple[str, ...]
    second: tuple[str, ...]
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        cols = [_number_array(getattr(self, name), f"correspondence {name}", np.intp).reshape(-1)
                for name in ("left", "right")]
        for side, col in zip(("first", "second"), cols):
            level = _as_point_tuple(getattr(self, side), f"{side} level")
            if len(col) != len(cols[0]) or not np.all((col >= 0) & (col < len(level))):
                raise ValidationError(f"correspondence has bad {side}-side indices")
            if (missed := np.flatnonzero(np.bincount(col, minlength=len(level)) == 0)).size:
                miss = min(level[x] for x in missed)
                raise ValidationError(f"correspondence misses {side}-side point {miss!r}")
            object.__setattr__(self, side, level)
        m = len(self.second)
        for name, col in zip(("left", "right"), np.divmod(np.unique(cols[0] * m + cols[1]), m)):
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    @classmethod
    def from_pairs(cls, pairs, first, second) -> "Correspondence":
        """The correspondence of id pairs between the levels ``first`` and
        ``second``: the one reader of id pairs."""
        what = "correspondence point"
        read = [[_json_str(p, what) for p in _json_list(pair, "correspondence entry", 2)]
                for pair in _items(pairs, "correspondence")]
        cols = []
        for col, (side, level) in enumerate((("first", first), ("second", second))):
            index = {p: x for x, p in enumerate(_as_point_tuple(level, f"{side} level"))}
            if unknown := {pair[col] for pair in read} - index.keys():
                raise ValidationError(f"correspondence uses unknown {side}-side point "
                                      f"{min(unknown)!r}")
            cols.append([index[pair[col]] for pair in read])
        return cls(first, second, *cols)

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        """The pairs as ids, sorted by id."""
        return tuple(sorted(zip(map(self.first.__getitem__, self.left.tolist()),
                                map(self.second.__getitem__, self.right.tolist()))))

    def to_list(self) -> list[list[str]]:
        return [[u, v] for u, v in self.pairs]


def _require_levels(corr: Correspondence, first, second) -> None:
    if corr.first != first or corr.second != second:
        raise ValidationError("correspondence joins other levels")


def locality(corr: Correspondence, ambient: MetricSpace) -> float:
    """Largest ambient distance spanned by any pair of the correspondence."""
    at = [np.array([ambient.index_of(p) for p in level]) for level in (corr.first, corr.second)]
    return float(ambient.distances(at[0][corr.left], at[1][corr.right]).max())


def build_hausdorff_correspondence(p_ids, q_ids, ambient: MetricSpace) -> Correspondence:
    """All pairs within the Hausdorff distance of the two levels.

    Every point's nearest neighbor on the other side lands within d_H, so
    the result always projects onto both sides; its locality is d_H itself.
    The threshold carries a 1e-9 slack so rounding cannot drop a witness.
    """
    p_ids, q_ids = tuple(p_ids), tuple(q_ids)
    d_h = hausdorff_distance(p_ids, q_ids, ambient)
    pi = np.array([ambient.index_of(p) for p in p_ids])
    qi = np.array([ambient.index_of(q) for q in q_ids])
    d = ambient.distances(pi[:, None], qi)
    return Correspondence(p_ids, q_ids, *np.nonzero(d <= d_h + TOL))


def _widest(near, far, mu_near, mu_far) -> float:
    """The largest ``mu_far[y, y'] - mu_near[x, x']`` over ordered pairs of
    relation elements (x, y), (x', y'), given as covering index columns.

    In an ultrametric the largest height between two sets is the diameter
    of their union, and a set's diameter is its largest height from any one
    member. So with N(x) the partners of x, r(x) one of them and d(x) the
    largest ``mu_far[r(x), y]`` over y in N(x), the largest ``mu_far`` over
    N(x) x N(x') is ``max(d(x), d(x'), mu_far[r(x), r(x')])``.
    """
    r = np.empty(len(mu_near), dtype=np.intp)
    r[near] = far  # any one partner; near covers its level
    d = np.zeros(len(mu_near))  # heights are >= 0, and mu_far[r(x), r(x)] = 0
    np.maximum.at(d, near, mu_far[r[near], far])
    hi = np.maximum(np.maximum.outer(d, d), mu_far[np.ix_(r, r)])
    return (hi - mu_near).max()


def distortion(u1: PseudoUltrametric, u2: PseudoUltrametric, corr: Correspondence) -> float:
    """Merge distortion: the largest height disagreement across the relation.

    Maximized over ordered pairs of correspondence elements, including pairs
    that share a point on either side.

    Rounded subtraction is monotone, so the largest ``mu2 - mu1`` is the
    largest, over first-side pairs (a, a'), of the largest ``mu2`` over
    their partners minus ``mu1[a, a']``: one gather of the K pair heights
    and one |P| x |P| maximum (:func:`_widest`). ``mu1 - mu2`` is the same
    with the sides swapped, over |Q| x |Q|; O(K + |P|^2 + |Q|^2) in all. On
    exact ultrametrics (every fit, every dendrogram replay of sorted merges)
    this is exactly the largest ``|mu1 - mu2|`` of the K x K blocks; heights
    that pass the strong triangle inequality only within ``TOL`` (a loaded
    dendrogram with sub-``TOL`` dips, a validated matrix with sub-``TOL``
    noise) can move it by up to ``2 * TOL``, one per triangle step. NaN from
    infinite heights on both sides propagates as it did in the blocks.
    """
    _require_levels(corr, u1.points, u2.points)
    return float(np.maximum(_widest(corr.left, corr.right, u1.mu, u2.mu),
                            _widest(corr.right, corr.left, u2.mu, u1.mu)))


@dataclass(frozen=True)
class LocalSolution:
    """Per-level ultrametrics plus adjacent correspondences and their metrics.

    Checked when made, by ``dataclasses.replace`` too: chi, delta and rho
    are finite numbers (no text, bool or None; stored as floats),
    ``scheme`` is one of :data:`SCHEMES`, ultrametric i has exactly level
    i's point tuple, and correspondence i joins levels i and i + 1.
    ``delta_vacuous`` marks the single-level case, where delta is reported
    as 0 by convention. A document stores each level as its dendrogram
    (format 1: a height matrix, still read).
    """

    sampling: TemporalSampling
    scheme: str
    ultrametrics: tuple[PseudoUltrametric, ...]
    correspondences: tuple[Correspondence, ...]
    chi: float
    delta: float
    rho: float

    def __post_init__(self):
        for name in ("chi", "delta", "rho"):
            object.__setattr__(self, name, _json_number(getattr(self, name), f"stored {name}"))
        _require_scheme(self.scheme)
        levels = self.sampling.levels
        if len(self.ultrametrics) != len(levels):
            raise ValidationError("solution has wrong number of ultrametrics")
        if len(self.correspondences) != len(levels) - 1:
            raise ValidationError("solution has wrong number of correspondences")
        for i, (fit, level) in enumerate(zip(self.ultrametrics, levels)):
            if fit.points != level:
                raise ValidationError(f"level {i} ultrametric points mismatch the sampling")
        for corr, p, q in zip(self.correspondences, levels, levels[1:]):
            _require_levels(corr, p, q)

    @property
    def delta_vacuous(self) -> bool:
        return self.sampling.t == 1

    def to_dict(self) -> dict:
        return {
            "sampling": self.sampling.to_dict(),
            "scheme": self.scheme,
            "ultrametrics": [to_dendrogram(u).to_dict() for u in self.ultrametrics],
            "correspondences": [c.to_list() for c in self.correspondences],
            "chi": self.chi,
            "delta": self.delta,
            "rho": self.rho,
            "delta_vacuous": self.delta_vacuous,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LocalSolution":
        """The constructor checks that the parts fit the sampling; the
        correspondence count is checked before it, as ``zip`` drops extras."""
        metrics = ("chi", "delta", "rho")
        _json_object(data, "solution document",
                     ("sampling", "scheme", "ultrametrics", "correspondences", *metrics))
        sampling = TemporalSampling.from_dict(data["sampling"])
        levels, items = sampling.levels, _json_list(data["correspondences"], "correspondences")
        corrs = tuple(Correspondence.from_pairs(_json_list(c, "correspondence"), p, q)
                      for c, p, q in zip(items, levels, levels[1:]))
        if len(items) != len(levels) - 1:
            raise ValidationError("solution has wrong number of correspondences")
        solution = cls(
            sampling=sampling,
            scheme=_json_str(data["scheme"], "scheme"),
            ultrametrics=tuple(
                Dendrogram.from_dict(u).to_ultrametric()
                if "merges" in _json_object(u, "level document")
                else PseudoUltrametric.from_dict(u)
                for u in _json_list(data["ultrametrics"], "ultrametrics")
            ),
            correspondences=corrs,
            **{name: data[name] for name in metrics},
        )
        vacuous = _json_bool(data.get("delta_vacuous", solution.delta_vacuous), "'delta_vacuous'")
        if vacuous != solution.delta_vacuous:
            raise ValidationError(f"'delta_vacuous' {vacuous} disagrees with the level count")
        return solution


def _fit(scheme: str, space: MetricSpace) -> PseudoUltrametric:
    """The one dispatch from a scheme token to its fitter."""
    _require_scheme(scheme)
    return fkw_fit(space).ultrametric if scheme == "fkw" else subdominant_ultrametric(space)


def solve_local(sampling: TemporalSampling, scheme: str = "fkw") -> LocalSolution:
    """Fit every level and connect adjacent ones by Hausdorff correspondences.

    With scheme ``fkw`` the per-level fit error is the minimum possible and
    delta equals the largest adjacent Hausdorff distance, which no
    correspondence can beat. Scheme ``subdominant`` trades a factor of at
    most 2 in fit error for perturbation stability.
    """
    spaces = [sampling.level_space(i) for i in range(sampling.t)]
    fits = [_fit(scheme, sp) for sp in spaces]
    levels = sampling.levels
    corrs = [build_hausdorff_correspondence(p, q, sampling.ambient)
             for p, q in zip(levels, levels[1:])]
    chi = max(linf_distance(sp, u) for sp, u in zip(spaces, fits))
    delta = max((locality(c, sampling.ambient) for c in corrs), default=0.0)
    rho = max((distortion(fits[i], fits[i + 1], c) for i, c in enumerate(corrs)), default=0.0)
    return LocalSolution(
        sampling=sampling,
        scheme=scheme,
        ultrametrics=tuple(fits),
        correspondences=tuple(corrs),
        chi=chi,
        delta=delta,
        rho=rho,
    )


@dataclass(frozen=True)
class Certification:
    """Recomputed metrics together with the distortion bound they satisfy."""

    chi: float
    delta: float
    rho: float
    bound: float
    level_chi: tuple[float, ...]
    pair_delta: tuple[float, ...]
    pair_rho: tuple[float, ...]


def evaluate_general(sol: LocalSolution) -> Certification:
    """Recompute chi, delta, and rho from the raw solution and certify the
    distortion bound for its scheme.

    The bound is rho <= 2*chi + 2*delta for the exact fitter and
    rho <= chi + 2*delta for the subdominant one, whose fit error is
    one-sided. A violated bound raises :class:`CertificationError` naming
    the offending adjacent pair; metric mismatches with the stored values
    are reported the same way.
    """
    s, fits, corrs = sol.sampling, sol.ultrametrics, sol.correspondences
    level_chi = [linf_distance(s.level_space(i), fit) for i, fit in enumerate(fits)]
    pair_rho = [distortion(fits[i], fits[i + 1], corr) for i, corr in enumerate(corrs)]
    pair_delta = [locality(corr, s.ambient) for corr in corrs]
    chi = max(level_chi)
    delta = max(pair_delta, default=0.0)
    rho = max(pair_rho, default=0.0)
    factor = 2.0 if sol.scheme == "fkw" else 1.0
    bound = factor * chi + 2.0 * delta
    for i, r in enumerate(pair_rho):
        if r > bound + TOL:
            raise CertificationError(
                f"distortion {r:.12g} exceeds bound {bound:.12g} "
                f"at adjacent pair {i}"
            )
    for name, got, stored in (("chi", chi, sol.chi), ("delta", delta, sol.delta),
                              ("rho", rho, sol.rho)):
        if not abs(got - stored) <= TOL:  # NaN fails too
            raise CertificationError(
                f"stored {name} {stored:.12g} disagrees with recomputed {got:.12g}"
            )
    return Certification(
        chi=chi,
        delta=delta,
        rho=rho,
        bound=bound,
        level_chi=tuple(level_chi),
        pair_delta=tuple(pair_delta),
        pair_rho=tuple(pair_rho),
    )
