"""SPSA optimizer: gain sequences, gradient estimator, calibration, and the
function-evaluation accounting contract."""

import numpy as np
import pytest

from oracles import minimize_reference, row_by_row
from qve.circuit import EstimatorResult
from qve.spsa import (TARGET_FIRST_STEP, SPSAConfig, SPSAError, calibrate,
                      gain_sequences, minimize, spsa_gradient)
from qve.circuit import derive_rng


def test_gain_sequence_values():
    # [DERIVED] c_k = c / k^gamma with the published constants:
    # c_1 = 0.2, c_2 = 0.2 / 2^0.101
    cfg = SPSAConfig(a=1.0)
    a1, c1 = gain_sequences(cfg, 1)
    assert c1 == pytest.approx(0.2)
    _, c2 = gain_sequences(cfg, 2)
    assert c2 == pytest.approx(0.18648, abs=1e-5)
    assert a1 == pytest.approx(1.0)  # A = 0, k = 1
    _, _ = gain_sequences(cfg, 100)
    with pytest.raises(SPSAError):
        gain_sequences(cfg, 0)
    with pytest.raises(SPSAError):
        gain_sequences(SPSAConfig(), 1)  # a unset


def test_config_validation():
    # [TRIVIAL]
    with pytest.raises(SPSAError):
        SPSAConfig(maxiter=0)


def test_gradient_exact_on_quadratics():
    # [DERIVED] for f(x) = x^T A x + b^T x the two-sided simultaneous
    # perturbation gives g_i = delta_i * delta^T (2 A x + b) exactly when A is
    # diagonal; check against the analytic value for a random diagonal A
    rng = np.random.default_rng(6)
    d = 5
    a_diag = rng.uniform(0.5, 2.0, size=d)
    b = rng.normal(size=d)
    x = rng.normal(size=d)

    def f(t):
        return float(np.sum(a_diag * t * t) + b @ t)

    delta = rng.integers(0, 2, size=d) * 2 - 1
    c_k = 0.1
    grad = spsa_gradient(row_by_row(f), x, c_k, delta)
    true = 2 * a_diag * x + b
    # (f(x+c d) - f(x-c d)) / 2c = d^T (2Ax + b) for quadratic f
    want = (delta @ true) / delta
    np.testing.assert_allclose(grad, want, atol=1e-10)
    with pytest.raises(SPSAError):
        spsa_gradient(row_by_row(f), x, c_k, np.zeros(d))


def test_calibration_on_linear_cost():
    # [DERIVED] for f = g * theta_0 every gradient magnitude is |g|, so the
    # calibrated gain is exactly TARGET_FIRST_STEP / |g|
    g = 4.0
    a = calibrate(row_by_row(lambda t: g * t[0]), np.zeros(1), derive_rng(0))
    assert a == pytest.approx(TARGET_FIRST_STEP / g, rel=1e-12)


def test_calibration_rejects_flat_landscape():
    # [TRIVIAL]
    from qve.spsa import CalibrationError
    with pytest.raises(CalibrationError):
        calibrate(row_by_row(lambda t: 0.0), np.zeros(3), derive_rng(0))


def test_minimize_quadratic_bowl():
    # [DERIVED] converges near the optimum of a smooth bowl
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=4)

    def f(t):
        return float(np.sum((t - 1.0) ** 2))

    result = minimize(row_by_row(f), x0, SPSAConfig(maxiter=300), seed=1)
    assert f(result.theta) < 1e-2


def test_evaluation_accounting():
    # [DERIVED] exact budget: calibration + (2 gradient + 1 tracking) per
    # iteration + 1 final; history carries cumulative counts 50 + 3k
    calls = [0]

    def f(t):
        calls[0] += 1
        return float(np.sum(t * t))

    m = 7
    result = minimize(row_by_row(f), np.ones(3), SPSAConfig(maxiter=m), seed=0)
    assert calls[0] == 50 + 3 * m + 1
    assert result.n_evaluations == calls[0]
    assert [r.function_evals_so_far for r in result.history] == \
        [50 + 3 * k for k in range(1, m + 1)]
    assert [r.k for r in result.history] == list(range(1, m + 1))
    # a preset a skips the calibration: 3 per iteration and the final one
    calls[0] = 0
    result = minimize(row_by_row(f), np.ones(3), SPSAConfig(maxiter=m, a=0.05), seed=0)
    assert calls[0] == result.n_evaluations == 3 * m + 1
    assert [r.function_evals_so_far for r in result.history] == [3 * k for k in range(1, m + 1)]


def test_single_iteration_accounting():
    # [DERIVED] maxiter=1: one history record with 53 evaluations so far,
    # 54 in total including the final evaluation
    result = minimize(row_by_row(lambda t: float(t @ t)), np.ones(2),
                      SPSAConfig(maxiter=1), seed=0)
    assert len(result.history) == 1
    assert result.history[0].function_evals_so_far == 53
    assert result.n_evaluations == 54


def test_first_step_magnitude_near_target():
    # [DERIVED] calibration puts the first update within 2x of the target step
    cfg = SPSAConfig(maxiter=1)
    theta0 = np.full(4, 0.3)

    def f(t):
        return float(np.sum(np.sin(t)))

    result = minimize(row_by_row(f), theta0, cfg, seed=3)
    step = float(np.max(np.abs(result.history[0].theta - theta0)))
    assert TARGET_FIRST_STEP / 2 <= step <= TARGET_FIRST_STEP * 2


def test_minimize_deterministic():
    # [TRIVIAL] fixed seed reproduces
    def f(t):
        return float(t @ t)

    r1 = minimize(row_by_row(f), np.ones(2), SPSAConfig(maxiter=5), seed=9)
    r2 = minimize(row_by_row(f), np.ones(2), SPSAConfig(maxiter=5), seed=9)
    np.testing.assert_array_equal(r1.theta, r2.theta)


def test_cost_may_return_estimator_result():
    # [TRIVIAL] EstimatorResult costs are accepted and the tracked energies
    # surface in the history
    def f(t):
        return EstimatorResult(float(t @ t), 0.01, 128, 0)

    result = minimize(row_by_row(f), np.ones(2), SPSAConfig(maxiter=3), seed=0)
    assert all(isinstance(r.energy, EstimatorResult) for r in result.history)
    assert result.final_energy.shots == 128


def test_minimize_input_validation():
    # [TRIVIAL]
    with pytest.raises(SPSAError):
        minimize(row_by_row(lambda t: 0.0), np.zeros((2, 2)), SPSAConfig(maxiter=1), seed=0)
    with pytest.raises(SPSAError):
        minimize(row_by_row(lambda t: 0.0), np.array([]), SPSAConfig(maxiter=1), seed=0)


@pytest.mark.parametrize("maxiter, a", [(1, None), (2, None), (7, None), (400, None),
                                        (1, 0.05), (7, 0.05)])
def test_stacked_schedule_matches_one_at_a_time(maxiter, a):
    # [DERIVED] minimize submits together every point that waits on no
    # pending result, in one-at-a-time order, so it equals the sequential
    # loop (oracles.minimize_reference) under a cost whose value depends on
    # the point and on its evaluation count, as an estimate's seed does: the
    # same theta history, records, final result and n_evaluations, every
    # point at the same count, and 1 + (maxiter - 1) + 1 cost calls, the
    # first holding calibration's 50 points (none with a preset a) and
    # iteration 1's pair, the last the last tracking and the final point
    cfg = SPSAConfig(maxiter=maxiter, a=a)
    points = {"stacked": [], "reference": []}

    def scalar(log):
        def f(theta):
            log.append(theta.copy())
            noise = derive_rng(17, len(log)).normal(scale=0.01)
            return EstimatorResult(float(np.sum(np.cos(theta))) + noise, 0.01, 64, len(log))
        return f

    stacks = []

    def stacked(stack):
        stacks.append(len(stack))
        return row_by_row(scalar(points["stacked"]))(stack)

    theta0 = np.array([0.3, -0.2, 0.5])
    records = {"stacked": [], "reference": []}
    got = minimize(stacked, theta0, cfg, seed=5, callback=records["stacked"].append)
    want = minimize_reference(scalar(points["reference"]), theta0, cfg, seed=5,
                              callback=records["reference"].append)
    assert len(points["stacked"]) == len(points["reference"]) == want.n_evaluations
    for p, q in zip(points["stacked"], points["reference"]):
        assert np.array_equal(p, q)
    for result in (got, want):
        assert [r.k for r in result.history] == list(range(1, maxiter + 1))
    for r, w in zip(got.history + records["stacked"], want.history + records["reference"]):
        assert (r.k, r.energy, r.function_evals_so_far) == (w.k, w.energy, w.function_evals_so_far)
        assert np.array_equal(r.theta, w.theta)
    assert np.array_equal(got.theta, want.theta)
    assert got.final_energy == want.final_energy
    assert got.n_evaluations == want.n_evaluations == (50 if a is None else 0) + 3 * maxiter + 1
    first = (50 if a is None else 0) + 2
    assert stacks == [first] + [3] * (maxiter - 1) + [2]
    assert len(stacks) == maxiter + 1


def test_cost_must_return_one_value_per_row():
    # [TRIVIAL] a cost that drops a row is refused, not zipped short
    with pytest.raises(SPSAError, match="1 values for 2 rows"):
        spsa_gradient(lambda stack: [0.0], np.zeros(2), 0.1, np.ones(2))
