"""scripts/bench_pairs.py's verdict on fixed paired samples, with no
benchmark run."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # quartiles 0.9825, 1.00, 1.0175
# a noisy parent: quartiles 0.6625, 0.775, 0.8875, a spread of 29% of the median
WIDE = [0.60, 0.95, 0.70, 0.90, 0.65, 0.85, 0.75, 0.80, 0.62, 0.92]


def test_quartiles_of_the_parent(bench_pairs):
    assert bench_pairs.quartiles(PARENT) == pytest.approx((0.9825, 1.0, 1.0175))


@pytest.mark.parametrize(
    "change, better, bound, want",
    [
        # 10/10 wins, median gap 0.05 against an interquartile range of 0.035
        ([p - 0.05 for p in PARENT], "lower", 0.25, (10, "gain")),
        # 9/10 wins are enough
        ([p - 0.05 for p in PARENT[:9]] + [PARENT[9] + 0.01], "lower", 0.25, (9, "gain")),
        # 8/10 wins are not
        ([p - 0.05 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]], "lower", 0.25, (8, "same")),
        # every pair won, but by less than the parent's own spread
        ([p - 0.01 for p in PARENT], "lower", 0.25, (10, "same")),
        # worse by 30% against a 25% bound, and by 20% within it
        ([p * 1.3 for p in PARENT], "lower", 0.25, (0, "regression")),
        ([p * 1.2 for p in PARENT], "lower", 0.25, (0, "same")),
        # higher is better: the same shifts read the other way
        ([p + 0.05 for p in PARENT], "higher", 0.2, (10, "gain")),
        ([p * 0.7 for p in PARENT], "higher", 0.2, (0, "regression")),
        # ties win nothing
        (list(PARENT), "lower", 0.25, (0, "same")),
    ],
)
def test_verdict_on_fixed_samples(bench_pairs, change, better, bound, want):
    assert bench_pairs.verdict(PARENT, change, better, bound) == want


@pytest.mark.parametrize(
    "change, better, want",
    [
        # the parent's spread is wider than the 25% bound: no run length shows these unchanged
        (list(WIDE), "lower", (0, "unresolved")),
        ([w - 0.02 for w in WIDE], "lower", (10, "unresolved")),
        ([w * 1.1 for w in WIDE], "lower", (0, "unresolved")),
        # ...unless every change run beats every parent run
        ([w - 0.36 for w in WIDE], "lower", (10, "gain")),
        ([w + 0.36 for w in WIDE], "higher", (10, "gain")),
        # a regression beyond the bound is still one
        ([w * 1.3 for w in WIDE], "lower", (0, "regression")),
    ],
)
def test_verdict_on_a_parent_wider_than_the_bound(bench_pairs, change, better, want):
    assert bench_pairs.verdict(WIDE, change, better, 0.25) == want


def test_a_zero_parent_median_is_never_a_regression_on_equal_values(bench_pairs):
    zeros = [0.0] * 10
    assert bench_pairs.verdict(zeros, zeros, "higher", 0.2) == (0, "same")
    assert bench_pairs.verdict(zeros, [-0.1] * 10, "higher", 0.2) == (0, "regression")
