"""Analysis layer: stability/plasticity decomposition, equivalence-based
regime classification, and the prediction confusion matrix.

Normalized returns are the unit throughout. The decomposition reads a full
evaluation curve; the regime tests compare the pretrained policy's
per-seed scores against the dataset's per-trajectory scores with two
one-sided Welch t-tests around a margin delta.

The Student-t CDF is evaluated here from first principles (regularized
incomplete beta via continued fraction) so the test suite can check it
against an independent statistical reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

SUPERIOR = "Superior"
COMPARABLE = "Comparable"
INFERIOR = "Inferior"
INCONCLUSIVE = "Inconclusive"
REGIMES = (SUPERIOR, COMPARABLE, INFERIOR)

WIN_POLICY = ">"  # policy-anchored methods ahead
WIN_TIE = "≈"
WIN_DATA = "<"  # data-anchored methods ahead
WINNERS = (WIN_POLICY, WIN_TIE, WIN_DATA)


@dataclass
class EvalPoint:
    step: int
    mean: float
    per_episode: list[float]


def stability(values, baseline: float) -> float:
    """Worst-case drop of the curve below the baseline; always <= 0."""
    values = list(values)
    if not values:
        raise ValueError("values must be non-empty")
    return min(min(values) - baseline, 0.0)


def plasticity(values) -> float:
    """Range of the curve, best minus worst; always >= 0."""
    values = list(values)
    if not values:
        raise ValueError("values must be non-empty")
    return max(values) - min(values)


def offline_baseline(j_policy: float, j_data: float) -> float:
    """The stronger of the two pre-fine-tuning knowledge anchors."""
    return max(j_policy, j_data)


@dataclass
class KnowledgeDecomposition:
    prior: float
    stability: float  # <= 0
    plasticity: float  # >= 0
    final: float


def decompose(curve: list[EvalPoint], j_data: float) -> KnowledgeDecomposition:
    """Split the curve's best value into prior knowledge, degradation, and
    online gain. The curve's step-0 point is the measured pretrained-policy
    score."""
    if not curve:
        raise ValueError("curve must be non-empty")
    means = [p.mean for p in curve]
    prior = offline_baseline(means[0], j_data)
    return KnowledgeDecomposition(
        prior=prior,
        stability=stability(means, prior),
        plasticity=plasticity(means),
        final=max(means),
    )


# --- Student-t machinery ---

_BETA_EPS = 1e-14
_BETA_FPMIN = 1e-300
_BETA_MAX_ITER = 300


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < _BETA_EPS:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def student_t_cdf(t: float, dof: float) -> float:
    """CDF of Student's t with ``dof`` degrees of freedom.

    Uses P(|T| >= t) = I_x(dof/2, 1/2) with x = dof/(dof + t^2), switching
    to the mirrored incomplete-beta form for small |t| so the beta argument
    never suffers cancellation.
    """
    if dof <= 0:
        raise ValueError("dof must be > 0")
    if math.isinf(t):
        return 0.0 if t < 0 else 1.0
    if t == 0.0:
        return 0.5
    t2 = t * t
    if t2 <= dof:
        x = t2 / (dof + t2)  # <= 1/2, exact
        upper = 0.5 + 0.5 * regularized_incomplete_beta(0.5, 0.5 * dof, x)
    else:
        x = dof / (dof + t2)  # < 1/2, exact
        upper = 1.0 - 0.5 * regularized_incomplete_beta(0.5 * dof, 0.5, x)
    return upper if t > 0 else 1.0 - upper


def student_t_ppf(p: float, dof: float) -> float:
    """Quantile of Student's t with ``dof`` degrees of freedom: the t at
    which ``student_t_cdf`` reaches ``p``, by bisection to float precision."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -student_t_ppf(1.0 - p, dof)
    lo, hi = 0.0, 1.0
    while student_t_cdf(hi, dof) < p:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if student_t_cdf(mid, dof) < p:
            lo = mid
        else:
            hi = mid


# --- Welch tests and regime classification ---


@dataclass
class SampleStats:
    mean: float
    std: float  # unbiased (ddof=1)
    n: int

    @classmethod
    def from_values(cls, values) -> "SampleStats":
        values = [float(v) for v in values]
        if len(values) < 2:
            raise ValueError("need at least 2 values")
        return cls(
            mean=float(np.mean(values)),
            std=float(np.std(values, ddof=1)),
            n=len(values),
        )


def _welch_se_dof(a: SampleStats, b: SampleStats):
    va = a.std**2 / a.n
    vb = b.std**2 / b.n
    se = math.sqrt(va + vb)
    if se == 0.0:
        return 0.0, 0.0
    dof = (va + vb) ** 2 / (va**2 / (a.n - 1) + vb**2 / (b.n - 1))
    return se, dof


def welch_two_sided(a: SampleStats, b: SampleStats) -> dict:
    """Unequal-variance t-test; returns {'t', 'dof', 'p'}.

    With both variances zero the test degenerates: p is 0 for unequal
    means and 1 for equal means.
    """
    if a.n < 2 or b.n < 2:
        raise ValueError("each sample needs n >= 2")
    diff = a.mean - b.mean
    se, dof = _welch_se_dof(a, b)
    if se == 0.0:
        if diff == 0.0:
            return {"t": 0.0, "dof": 0.0, "p": 1.0}
        return {"t": math.copysign(math.inf, diff), "dof": 0.0, "p": 0.0}
    t = diff / se
    p = 2.0 * (1.0 - student_t_cdf(abs(t), dof))
    return {"t": t, "dof": dof, "p": p}


def _one_sided_p(diff: float, shift: float, se: float, dof: float, upper: bool) -> float:
    """p-value of a one-sided Welch test on (diff - shift).

    upper=False tests H0: true diff <= shift (reject for large statistics);
    upper=True tests H0: true diff >= shift (reject for small statistics).
    """
    if se == 0.0:
        if upper:
            return 1.0 if diff >= shift else 0.0
        return 1.0 if diff <= shift else 0.0
    t = (diff - shift) / se
    return student_t_cdf(t, dof) if upper else 1.0 - student_t_cdf(t, dof)


@dataclass
class RegimeLabel:
    label: str  # Superior | Comparable | Inferior | Inconclusive
    p_lower: float  # test of H0: mean difference <= -delta
    p_upper: float  # test of H0: mean difference >= +delta
    mean_diff: float
    delta: float
    alpha: float

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "p_lower": self.p_lower,
            "p_upper": self.p_upper,
            "mean_diff": self.mean_diff,
            "delta": self.delta,
            "alpha": self.alpha,
        }


def tost_classify(
    policy_stats: SampleStats,
    data_stats: SampleStats,
    delta: float = 0.05,
    alpha: float = 0.05,
) -> RegimeLabel:
    """Two one-sided Welch tests on (policy score - dataset score).

    Both null hypotheses rejected: the scores are equivalent within the
    margin (Comparable). Exactly one rejected: the gap is significant and
    the sign of the mean difference picks Superior or Inferior. Neither
    rejected: Inconclusive.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    diff = policy_stats.mean - data_stats.mean
    se, dof = _welch_se_dof(policy_stats, data_stats)
    p_lower = _one_sided_p(diff, -delta, se, dof, upper=False)
    p_upper = _one_sided_p(diff, +delta, se, dof, upper=True)
    reject_lower = p_lower < alpha
    reject_upper = p_upper < alpha
    if reject_lower and reject_upper:
        label = COMPARABLE
    elif reject_lower or reject_upper:
        label = SUPERIOR if diff > 0 else INFERIOR
    else:
        label = INCONCLUSIVE
    return RegimeLabel(label, p_lower, p_upper, diff, delta, alpha)


def iqm(values) -> float:
    """Interquartile mean: drop floor(n/4) values from each end, average
    the rest."""
    values = sorted(float(v) for v in values)
    n = len(values)
    if n < 4:
        raise ValueError("iqm needs at least 4 values")
    trim = n // 4
    return float(np.mean(values[trim : n - trim]))


# --- class comparison and confusion matrix ---


@dataclass
class ClassComparison:
    winner: str  # ">", "≈", "<"
    policy_variant: str
    data_variant: str
    policy_iqm: float
    data_iqm: float
    policy_mean: float  # mean over per-seed scalars of the chosen variant
    data_mean: float
    p: float

    def to_dict(self) -> dict:
        return {
            "winner": self.winner,
            "policy_variant": self.policy_variant,
            "data_variant": self.data_variant,
            "policy_iqm": self.policy_iqm,
            "data_iqm": self.data_iqm,
            "policy_mean": self.policy_mean,
            "data_mean": self.data_mean,
            "p": self.p,
        }


def _select_variant(variants: dict[str, list[list[float]]]):
    """Pick the variant with the highest IQM over its pooled evaluation
    values; returns (name, per-seed scalars, iqm)."""
    if not variants:
        raise ValueError("need at least one variant")
    best = None
    for name in sorted(variants):
        per_seed = variants[name]
        if len(per_seed) < 2:
            raise ValueError(f"variant {name!r} has fewer than 2 seeds")
        pooled = [v for seed_values in per_seed for v in seed_values]
        score = iqm(pooled)
        if best is None or score > best[2]:
            best = (name, [float(np.mean(sv)) for sv in per_seed], score)
    return best


def compare_classes(
    policy_variants: dict[str, list[list[float]]],
    data_variants: dict[str, list[list[float]]],
    alpha: float = 0.05,
) -> ClassComparison:
    """Best-of-class comparison.

    Inputs map variant name -> per-seed lists of final evaluation means
    (the last-k window of each seed's curve). Within each class the
    variant with the highest pooled IQM is selected; the selected
    variants' per-seed scalars then meet in a two-sided Welch test.
    """
    p_name, p_scalars, p_iqm = _select_variant(policy_variants)
    d_name, d_scalars, d_iqm = _select_variant(data_variants)
    p_stats = SampleStats.from_values(p_scalars)
    d_stats = SampleStats.from_values(d_scalars)
    test = welch_two_sided(p_stats, d_stats)
    if test["p"] < alpha:
        winner = WIN_POLICY if p_stats.mean > d_stats.mean else WIN_DATA
    else:
        winner = WIN_TIE
    return ClassComparison(
        winner=winner,
        policy_variant=p_name,
        data_variant=d_name,
        policy_iqm=p_iqm,
        data_iqm=d_iqm,
        policy_mean=p_stats.mean,
        data_mean=d_stats.mean,
        p=test["p"],
    )


@dataclass
class ConfusionMatrix:
    """3x3 counts: rows = fine-tune outcome (>, ≈, <), columns = regime
    (Superior, Comparable, Inferior)."""

    counts: list[list[int]] = field(
        default_factory=lambda: [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    )

    @classmethod
    def from_counts(cls, counts: tuple[tuple[int, ...], ...]) -> "ConfusionMatrix":
        counts = [[int(c) for c in row] for row in counts]
        if len(counts) != 3 or any(len(row) != 3 for row in counts):
            raise ConfigError("counts must be 3x3")
        if any(c < 0 for row in counts for c in row):
            raise ConfigError("counts must not be negative")
        return cls(counts)

    def add(self, regime: str, winner: str) -> None:
        if regime == INCONCLUSIVE:
            raise ValueError("Inconclusive labels must be resolved before counting")
        self.counts[WINNERS.index(winner)][REGIMES.index(regime)] += 1

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    @property
    def correct(self) -> int:
        # diagonal in prediction order: (Superior, >), (Comparable, ≈), (Inferior, <)
        return self.counts[0][0] + self.counts[1][1] + self.counts[2][2]

    @property
    def opposite(self) -> int:
        # predictions wrong by two cells: (Superior, <) and (Inferior, >)
        return self.counts[2][0] + self.counts[0][2]

    @property
    def accuracy(self) -> float | None:
        """Share of correct predictions; None when nothing was counted."""
        return self.correct / self.total if self.total else None

    @property
    def opposite_rate(self) -> float | None:
        """Share of opposite mismatches; None when nothing was counted."""
        return self.opposite / self.total if self.total else None

    def to_dict(self) -> dict:
        return {
            "rows": list(WINNERS),
            "columns": list(REGIMES),
            "counts": [list(row) for row in self.counts],
            "total": self.total,
            "correct": self.correct,
            "opposite": self.opposite,
            "accuracy": self.accuracy,
            "opposite_rate": self.opposite_rate,
        }

    def summary_line(self) -> str:
        if not self.total:
            return "no setting counted, so no accuracy or opposite rate"
        return (
            f"{self.correct}/{self.total} correct predictions "
            f"({100.0 * self.accuracy:.0f}%), "
            f"{self.opposite}/{self.total} opposite mismatches "
            f"({100.0 * self.opposite_rate:.0f}%)"
        )
