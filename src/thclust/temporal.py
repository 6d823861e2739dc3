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
    hausdorff_distance,
    linf_distance,
)
from .metric import _json_bool, _json_number, _json_object, _json_str
from .ultrametric import PseudoUltrametric, fkw_fit, subdominant_ultrametric
from .ultrametric import Dendrogram, to_dendrogram

SCHEMES = ("fkw", "subdominant")


def _require_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


class CertificationError(RuntimeError):
    """A recomputed guarantee failed to hold for a solution."""


@dataclass(frozen=True)
class Correspondence:
    """A relation between two point sets whose projections cover both sides.

    Pairs are stored sorted and deduplicated; coverage is checked against
    concrete point sets by :func:`require_correspondence`.
    """

    pairs: tuple[tuple[str, str], ...]

    @classmethod
    def from_pairs(cls, pairs) -> "Correspondence":
        what = "correspondence point"
        read = (_json_list(pair, "correspondence entry", 2) for pair in pairs)
        canon = sorted({(_json_str(u, what), _json_str(v, what)) for u, v in read})
        return cls(pairs=tuple(canon))

    def left(self) -> set[str]:
        return {u for u, _ in self.pairs}

    def right(self) -> set[str]:
        return {v for _, v in self.pairs}

    def to_list(self) -> list[list[str]]:
        return [[u, v] for u, v in self.pairs]


def require_correspondence(corr: Correspondence, p_ids, q_ids) -> None:
    """Raise unless ``corr`` projects onto both given point sets exactly."""
    p_set, q_set = set(p_ids), set(q_ids)
    left, right = corr.left(), corr.right()
    if not left <= p_set:
        extra = sorted(left - p_set)[0]
        raise ValidationError(f"correspondence uses unknown first-side point {extra!r}")
    if not right <= q_set:
        extra = sorted(right - q_set)[0]
        raise ValidationError(f"correspondence uses unknown second-side point {extra!r}")
    if left != p_set:
        miss = sorted(p_set - left)[0]
        raise ValidationError(f"correspondence misses first-side point {miss!r}")
    if right != q_set:
        miss = sorted(q_set - right)[0]
        raise ValidationError(f"correspondence misses second-side point {miss!r}")


def locality(corr: Correspondence, ambient: MetricSpace) -> float:
    """Largest ambient distance spanned by any pair of the correspondence."""
    if not corr.pairs:
        raise ValidationError("locality of an empty correspondence is undefined")
    idx = np.array([[ambient.index_of(u), ambient.index_of(v)] for u, v in corr.pairs])
    return float(ambient.dist[idx[:, 0], idx[:, 1]].max())


def build_hausdorff_correspondence(p_ids, q_ids, ambient: MetricSpace) -> Correspondence:
    """All pairs within the Hausdorff distance of the two levels.

    Every point's nearest neighbor on the other side lands within d_H, so
    the result always projects onto both sides; its locality is d_H itself.
    The threshold carries a 1e-9 slack so rounding cannot drop a witness.
    """
    d_h = hausdorff_distance(p_ids, q_ids, ambient)
    pi = [ambient.index_of(p) for p in p_ids]
    qi = [ambient.index_of(q) for q in q_ids]
    d = ambient.dist[np.ix_(pi, qi)]
    keep = np.argwhere(d <= d_h + TOL)
    corr = Correspondence.from_pairs(
        (p_ids[i], q_ids[j]) for i, j in keep
    )
    require_correspondence(corr, p_ids, q_ids)
    return corr


def distortion(u1: PseudoUltrametric, u2: PseudoUltrametric, corr: Correspondence) -> float:
    """Merge distortion: the largest height disagreement across the relation.

    Maximized over ordered pairs of correspondence elements, including pairs
    that share a point on either side.

    The pairs are sorted, so each first-side point a owns one run of
    partners N(a). Over N(a) x N(a') the worst disagreement with
    ``m = mu1[a, a']`` is ``max(Hi - m, m - Lo)``, Hi and Lo being the max and
    min of ``mu2`` there: rounded subtraction is monotone, so this is exactly
    the largest ``|mu1 - mu2|`` of the K x K blocks. Hi and Lo take two
    grouped reductions, over the rows of ``mu2[b]`` (|P| x |Q|) and then over
    the columns picked by ``b`` (|P| x |P|), with ``b`` the partners in pair
    order: O(K (|P| + |Q|)) work for K pairs. Unsorted pairs only split runs,
    which leaves every maximum the same. NaN from infinite heights on both
    sides propagates as it did in the blocks.
    """
    require_correspondence(corr, u1.points, u2.points)
    left = np.array([u1.index_of(u) for u, _ in corr.pairs])
    b = np.array([u2.index_of(v) for _, v in corr.pairs])
    starts = np.flatnonzero(np.r_[True, left[1:] != left[:-1]])
    rows = u2.mu[b]
    hi = np.maximum.reduceat(np.maximum.reduceat(rows, starts, axis=0)[:, b],
                             starts, axis=1)
    lo = np.minimum.reduceat(np.minimum.reduceat(rows, starts, axis=0)[:, b],
                             starts, axis=1)
    a = left[starts]
    m = u1.mu[np.ix_(a, a)]
    return float(np.maximum(hi - m, m - lo).max())


@dataclass(frozen=True)
class LocalSolution:
    """Per-level ultrametrics plus adjacent correspondences and their metrics.

    ``scheme`` is one of :data:`SCHEMES`, checked when made.
    ``delta_vacuous`` marks the single-level case, where no adjacent pair
    exists and delta is reported as 0 by convention. A document stores each
    level as its dendrogram, whose constructor is the only check on reading;
    format 1 stored a height matrix, which is read as well.
    """

    sampling: TemporalSampling
    scheme: str
    ultrametrics: tuple[PseudoUltrametric, ...]
    correspondences: tuple[Correspondence, ...]
    chi: float
    delta: float
    rho: float

    def __post_init__(self):
        _require_scheme(self.scheme)

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
        metrics = ("chi", "delta", "rho")
        _json_object(data, "solution document",
                     ("sampling", "scheme", "ultrametrics", "correspondences", *metrics))
        solution = cls(
            sampling=TemporalSampling.from_dict(data["sampling"]),
            scheme=_json_str(data["scheme"], "scheme"),
            ultrametrics=tuple(
                Dendrogram.from_dict(u).to_ultrametric()
                if "merges" in _json_object(u, "level document")
                else PseudoUltrametric.from_dict(u)
                for u in _json_list(data["ultrametrics"], "ultrametrics")
            ),
            correspondences=tuple(
                Correspondence.from_pairs(_json_list(c, "correspondence"))
                for c in _json_list(data["correspondences"], "correspondences")
            ),
            **{name: _json_number(data[name], f"stored {name}") for name in metrics},
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
    corrs = [
        build_hausdorff_correspondence(
            sampling.levels[i], sampling.levels[i + 1], sampling.ambient
        )
        for i in range(sampling.t - 1)
    ]
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

    scheme: str
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
    s = sol.sampling
    if len(sol.ultrametrics) != s.t:
        raise ValidationError("solution has wrong number of ultrametrics")
    if len(sol.correspondences) != s.t - 1:
        raise ValidationError("solution has wrong number of correspondences")
    level_chi = []
    for i, fit in enumerate(sol.ultrametrics):
        space = s.level_space(i)
        if tuple(fit.points) != tuple(space.points):
            raise ValidationError(f"level {i} ultrametric points mismatch the sampling")
        level_chi.append(linf_distance(space, fit))
    pair_delta = []
    pair_rho = []
    for i, corr in enumerate(sol.correspondences):
        # distortion checks corr against both levels before locality runs
        pair_rho.append(distortion(sol.ultrametrics[i], sol.ultrametrics[i + 1], corr))
        pair_delta.append(locality(corr, s.ambient))
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
        scheme=sol.scheme,
        chi=chi,
        delta=delta,
        rho=rho,
        bound=bound,
        level_chi=tuple(level_chi),
        pair_delta=tuple(pair_delta),
        pair_rho=tuple(pair_rho),
    )
