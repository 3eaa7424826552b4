"""Section 4.3 claims: speed and accuracy of the fast max approximation.

The paper derives a fast approximation of the max of two normal random
variables — Clark's formulae with a quadratic cdf plus a ±2.6-sigma
dominance shortcut — and claims (a) it is much cheaper than evaluating the
exact expressions, (b) "in the vast majority [of] cases" one of the
dominance conditions applies so no arithmetic is needed at all, and (c) the
approximation stays accurate enough for subcircuit evaluation.

These benchmarks quantify all three on randomly drawn operand pairs and on
operand pairs harvested from a real circuit's arrival times, writing a
summary to ``benchmarks/results/fassta_accuracy.txt``.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from benchmarks.conftest import write_result
from repro.core import clark
from repro.core.baseline import MeanDelaySizer
from repro.core.fullssta import FULLSSTA
from repro.circuits.registry import build_benchmark


def _random_pairs(n, seed=0):
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        mu_a = rng.uniform(50.0, 1500.0)
        mu_b = mu_a + rng.uniform(-300.0, 300.0)
        pairs.append((mu_a, rng.uniform(1.0, 80.0), max(mu_b, 0.0), rng.uniform(1.0, 80.0)))
    return pairs


def _circuit_pairs(substrates):
    """Operand pairs taken from sibling-input arrival times of a real circuit."""
    _, delay_model, variation_model = substrates
    circuit = build_benchmark("c432")
    MeanDelaySizer(delay_model).optimize(circuit)
    moments = FULLSSTA(delay_model, variation_model).analyze(circuit).arrival_moments
    pairs = []
    for gate in circuit.gates.values():
        nets = [n for n in gate.inputs if n in moments]
        for a, b in zip(nets, nets[1:]):
            ra, rb = moments[a], moments[b]
            pairs.append((ra.mean, max(ra.sigma, 1e-3), rb.mean, max(rb.sigma, 1e-3)))
    return pairs


RANDOM_PAIRS = _random_pairs(2000)


@pytest.mark.benchmark(group="fassta-accuracy")
def test_fast_max_speed(benchmark):
    """Throughput of the paper's fast max over 2000 operand pairs."""
    def run():
        total = 0.0
        for pair in RANDOM_PAIRS:
            mean, _ = clark.clark_max_fast(*pair)
            total += mean
        return total

    assert benchmark(run) > 0


@pytest.mark.benchmark(group="fassta-accuracy")
def test_exact_max_speed(benchmark):
    """Throughput of the exact Clark evaluation (scipy cdf) for comparison."""
    def run():
        total = 0.0
        for pair in RANDOM_PAIRS:
            mean, _ = clark.clark_max_exact(*pair)
            total += mean
        return total

    assert benchmark(run) > 0


@pytest.mark.benchmark(group="fassta-accuracy")
def test_accuracy_and_dominance_rate(benchmark, substrates):
    """Error of the fast max vs exact Clark, and how often dominance fires."""
    def analyze():
        rows = []
        for label, pairs in (
            ("random", RANDOM_PAIRS),
            ("c432 arrival pairs", _circuit_pairs(substrates)),
        ):
            mean_errors, sigma_errors = [], []
            dominated = 0
            for mu_a, s_a, mu_b, s_b in pairs:
                if clark.dominance(mu_a, s_a, mu_b, s_b) != 0:
                    dominated += 1
                exact_mean, exact_var = clark.clark_max_exact(mu_a, s_a, mu_b, s_b)
                fast_mean, fast_var = clark.clark_max_fast(mu_a, s_a, mu_b, s_b)
                mean_errors.append(abs(fast_mean - exact_mean) / max(exact_mean, 1e-9))
                sigma_errors.append(
                    abs(math.sqrt(fast_var) - math.sqrt(exact_var))
                    / max(math.sqrt(exact_var), 1e-9)
                )
            rows.append(
                (
                    label,
                    len(pairs),
                    100.0 * dominated / len(pairs),
                    100.0 * float(np.mean(mean_errors)),
                    100.0 * float(np.max(mean_errors)),
                    100.0 * float(np.mean(sigma_errors)),
                )
            )
        return rows

    rows = benchmark.pedantic(analyze, rounds=1, iterations=1)
    lines = [
        "FASSTA max approximation: accuracy and dominance-shortcut rate",
        "",
        f"{'pair source':22s} {'pairs':>6s} {'dominance %':>12s} "
        f"{'mean err avg %':>15s} {'mean err max %':>15s} {'sigma err avg %':>16s}",
    ]
    for label, n, dom, mean_avg, mean_max, sigma_avg in rows:
        lines.append(
            f"{label:22s} {n:6d} {dom:12.1f} {mean_avg:15.3f} {mean_max:15.2f} {sigma_avg:16.2f}"
        )
    lines.append("")
    lines.append("paper claim: dominance applies in 'the vast majority' of real cases;")
    lines.append("the quadratic erf approximation is accurate to two decimal places.")
    report = "\n".join(lines)
    print("\n" + report)
    write_result("fassta_accuracy.txt", report)

    by_label = {row[0]: row for row in rows}
    # The dominance shortcut must fire on a meaningful fraction of real
    # arrival pairs (the paper says "the vast majority"; with this
    # reproduction's variation magnitudes we measure ~25 % on c432, as
    # results/fassta_accuracy.txt reports).
    assert by_label["c432 arrival pairs"][2] > 5.0
    # Mean error of the approximation stays small everywhere.
    assert by_label["random"][3] < 1.0
