"""Score quantization and the evaluation report."""

import numpy as np
import pytest

from unifilter.common import DataError, NumericError, child_rng
from unifilter.metrics import EvalReport, evaluate, format_report, quantize_score


def test_quantize_rounds_half_up_and_clamps():
    assert quantize_score(2.49) == 2
    assert quantize_score(2.5) == 3
    assert quantize_score(3.7) == 3
    assert quantize_score(-0.2) == 0
    assert quantize_score(0.5) == 1
    assert quantize_score(1.4999) == 1


@pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")])
def test_quantize_rejects_non_finite_scores(score):
    with pytest.raises(NumericError, match="non-finite"):
        quantize_score(score)


def test_quantize_is_monotone():
    rng = child_rng(0, "mono")
    scores = np.sort(rng.uniform(-2, 5, size=200))
    labels = [quantize_score(float(s)) for s in scores]
    assert all(a <= b for a, b in zip(labels, labels[1:]))


def test_perfect_predictions():
    report = evaluate([(i, i) for i in range(4)] * 3)
    assert report.accuracy == 1.0
    assert report.macro_f1 == 1.0
    assert report.zero_support == []


def test_forced_rounding_example():
    preds = [quantize_score(p) for p in (0.1, 1.2, 1.8, 2.6)]
    report = evaluate(list(zip([0, 1, 2, 3], preds)))
    assert report.accuracy == 1.0


def test_accuracy_equals_trace_over_n():
    rng = child_rng(1, "trace")
    pairs = [(int(rng.integers(4)), int(rng.integers(4))) for _ in range(250)]
    report = evaluate(pairs)
    trace = sum(report.confusion[i][i] for i in range(4))
    assert report.accuracy == trace / report.n
    assert report.n == 250


def test_confusion_row_sums_equal_support():
    rng = child_rng(2, "rows")
    pairs = [(int(rng.integers(4)), int(rng.integers(4))) for _ in range(100)]
    report = evaluate(pairs)
    for c, row in enumerate(report.confusion):
        assert sum(row) == report.per_class[c]["support"]


def _naive_oracle(pairs):
    """Per-pair counting with no matrix, coded independently."""
    n = len(pairs)
    acc = sum(1 for t, p in pairs if t == p) / n
    f1s = []
    for c in range(4):
        tp = sum(1 for t, p in pairs if t == c and p == c)
        fp = sum(1 for t, p in pairs if t != c and p == c)
        fn = sum(1 for t, p in pairs if t == c and p != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return acc, sum(f1s) / 4


def test_matches_naive_counting_oracle():
    rng = child_rng(3, "oracle")
    for trial in range(20):
        pairs = [(int(rng.integers(4)), int(rng.integers(4)))
                 for _ in range(int(rng.integers(1, 120)))]
        report = evaluate(pairs)
        acc, f1 = _naive_oracle(pairs)
        assert report.accuracy == pytest.approx(acc, abs=1e-12)
        assert report.macro_f1 == pytest.approx(f1, abs=1e-12)


def test_metrics_invariant_to_order():
    rng = child_rng(4, "perm")
    pairs = [(int(rng.integers(4)), int(rng.integers(4))) for _ in range(60)]
    a = evaluate(pairs)
    perm = rng.permutation(60)
    b = evaluate([pairs[i] for i in perm])
    assert a.accuracy == b.accuracy
    assert a.macro_f1 == b.macro_f1
    assert a.confusion == b.confusion


def test_zero_support_classes_flagged_with_zero_f1():
    report = evaluate([(0, 0), (1, 1)])  # levels 2 and 3 never appear as truth
    assert set(report.zero_support) == {"hard_negative", "positive"}
    assert report.per_class[2]["f1"] == 0.0
    assert report.per_class[3]["f1"] == 0.0
    assert report.macro_f1 == pytest.approx((1.0 + 1.0 + 0.0 + 0.0) / 4)


def test_evaluate_rejects_bad_input():
    with pytest.raises(DataError):
        evaluate([])
    with pytest.raises(DataError):
        evaluate([(0, 5)])
    with pytest.raises(DataError):
        evaluate([(-1, 0)])


def test_report_serialization_and_table():
    report = evaluate([(i, i) for i in range(4)])
    obj = report.to_obj()
    assert obj["f1_average"] == "macro"
    assert obj["accuracy"] == 1.0
    table = format_report(report)
    assert "Validation Acc" in table and "Validation F1" in table
    assert "easy_negative" in table


def test_report_is_reconstructible_from_obj():
    report = evaluate([(0, 1), (1, 1), (2, 2), (3, 0)])
    obj = report.to_obj()
    again = EvalReport(n=obj["n"], confusion=obj["confusion"], accuracy=obj["accuracy"],
                       per_class=obj["per_class"], macro_f1=obj["macro_f1"],
                       zero_support=obj["zero_support"])
    assert again == report
