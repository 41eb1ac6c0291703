"""Checks on metrics objects that only the tests use."""

import numpy as np

from o2olab.metrics import ConfusionMatrix, EvalPoint, KnowledgeDecomposition


def identity_residual(d: KnowledgeDecomposition) -> float:
    """How far ``final`` is from ``prior + stability + plasticity``."""
    return abs(d.final - (d.prior + d.stability + d.plasticity))


def confusion_from_pairs(pairs) -> ConfusionMatrix:
    """A matrix counting each (regime label, winner tag) pair."""
    matrix = ConfusionMatrix()
    for regime, winner in pairs:
        matrix.add(regime, winner)
    return matrix


def validate_curve(curve: list[EvalPoint]) -> None:
    """Raise ValueError unless the steps strictly increase and each point's
    mean is the mean of its per-episode returns."""
    steps = [p.step for p in curve]
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValueError(f"curve steps must be strictly increasing: {steps}")
    for p in curve:
        if abs(p.mean - float(np.mean(p.per_episode))) > 1e-12:
            raise ValueError(f"point at step {p.step}: mean != mean(per_episode)")
