"""Quantized-score evaluation: accuracy, per-class P/R/F1, macro F1.

Raw regressor outputs are continuous; evaluation snaps them to the nearest
level with round-half-up then clamps into [0, 3].  F1 is macro averaged over
the four levels and classes with zero support contribute an F1 of 0 (the
report flags them so a suspiciously low macro F1 is explainable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .common import DataError, NumericError
from .records import LEVEL_NAMES

N_LEVELS = 4


def quantize_score(score: float) -> int:
    """Round half up, then clamp to the 0..3 label range; NumericError if not finite."""
    if not math.isfinite(score):
        raise NumericError(f"non-finite score {score!r} cannot be quantized")
    return min(N_LEVELS - 1, max(0, int(math.floor(score + 0.5))))


@dataclass
class EvalReport:
    n: int
    confusion: list[list[int]]       # confusion[true][pred]
    accuracy: float
    per_class: list[dict]             # name, support, precision, recall, f1
    macro_f1: float
    zero_support: list[str]           # level names with no true samples

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "confusion": self.confusion,
            "accuracy": self.accuracy,
            "per_class": self.per_class,
            "macro_f1": self.macro_f1,
            "f1_average": "macro",
            "zero_support": self.zero_support,
        }


def evaluate(pairs) -> EvalReport:
    """pairs: iterable of (true_label, predicted_label), both already 0..3."""
    conf = [[0] * N_LEVELS for _ in range(N_LEVELS)]
    n = 0
    for true, pred in pairs:
        if not (0 <= true < N_LEVELS and 0 <= pred < N_LEVELS):
            raise DataError(f"label pair out of range: ({true}, {pred})")
        conf[true][pred] += 1
        n += 1
    if n == 0:
        raise DataError("cannot evaluate an empty set of pairs")

    correct = sum(conf[i][i] for i in range(N_LEVELS))
    per_class = []
    zero_support = []
    f1_sum = 0.0
    for c in range(N_LEVELS):
        tp = conf[c][c]
        support = sum(conf[c])
        pred_c = sum(conf[r][c] for r in range(N_LEVELS))
        precision = tp / pred_c if pred_c else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
        if support == 0:
            zero_support.append(LEVEL_NAMES[c])
        per_class.append({
            "name": LEVEL_NAMES[c], "support": support,
            "precision": precision, "recall": recall, "f1": f1,
        })
        f1_sum += f1
    return EvalReport(
        n=n,
        confusion=conf,
        accuracy=correct / n,
        per_class=per_class,
        macro_f1=f1_sum / N_LEVELS,
        zero_support=zero_support,
    )


def format_report(report: EvalReport) -> str:
    """Small fixed-width table: validation accuracy and macro F1 up top."""
    lines = []
    flag = f"  (zero-support: {', '.join(report.zero_support)})" if report.zero_support else ""
    lines.append(f"{'Model':<24}{'Validation Acc':>16}{'Validation F1':>16}")
    lines.append(f"{'quality-regressor':<24}{100 * report.accuracy:>15.1f}%{100 * report.macro_f1:>15.1f}%")
    lines.append(f"n={report.n}  f1=macro{flag}")
    lines.append("")
    lines.append(f"{'level':<18}{'support':>8}{'prec':>8}{'recall':>8}{'f1':>8}")
    for row in report.per_class:
        lines.append(f"{row['name']:<18}{row['support']:>8}"
                     f"{row['precision']:>8.3f}{row['recall']:>8.3f}{row['f1']:>8.3f}")
    return "\n".join(lines)
