"""Simultaneous Perturbation Stochastic Approximation with calibration.

Gains a_k = a / (A + k)^alpha and c_k = c / k^gamma use the module constants
below. A caller sets only maxiter and, optionally, a, which calibration
otherwise picks so that the first step is TARGET_FIRST_STEP.

A cost maps a stack of parameter vectors (rows x parameters) to one value
per row, an EstimatorResult or a float, so that points that wait on no
pending result are evaluated together. Evaluation accounting per run:
CALIBRATION_EVALS up front, then per iteration two gradient evaluations plus
one tracking evaluation, plus one final evaluation (50 + 3*maxiter + 1 = 1251
at the defaults). `minimize` makes them in maxiter + 1 cost calls (401 at the
defaults): calibration's points with iteration 1's pair, each iteration's
tracking point with the next iteration's pair, and the last tracking point
with the final evaluation. The rows keep the order of one-at-a-time
evaluation, so that a cost that counts its rows sees each point at the same
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .circuit import EstimatorResult, derive_rng


class SPSAError(ValueError):
    pass


class CalibrationError(SPSAError):
    pass


ALPHA = 0.602
GAMMA = 0.101
BIG_A = 0.0
C = 0.2
CALIBRATION_EVALS = 50  # even: two evaluations per gradient estimate
TARGET_FIRST_STEP = 2.0 * np.pi / 10.0


@dataclass(frozen=True)
class SPSAConfig:
    maxiter: int = 400
    a: float | None = None  # set by calibration when None

    def __post_init__(self):
        if self.maxiter < 1:
            raise SPSAError("maxiter must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    k: int  # 1-based iteration index
    theta: np.ndarray = field(hash=False)
    energy: EstimatorResult
    function_evals_so_far: int


def _evaluate(cost, rows: list[np.ndarray]) -> list[EstimatorResult]:
    """The cost at the stack of rows, one EstimatorResult per row."""
    values = list(cost(np.array(rows)))
    if len(values) != len(rows):
        raise SPSAError(f"cost returned {len(values)} values for {len(rows)} rows")
    return [v if isinstance(v, EstimatorResult) else EstimatorResult(float(v), 0.0, 0, 0)
            for v in values]


def _c_gain(k: int) -> float:
    return C / k ** GAMMA


def gain_sequences(cfg: SPSAConfig, k: int) -> tuple[float, float]:
    """(a_k, c_k) for 1-based iteration k."""
    if k < 1:
        raise SPSAError("gain sequences are defined for k >= 1")
    if cfg.a is None:
        raise SPSAError("a is unset; run calibrate first")
    return cfg.a / (BIG_A + k) ** ALPHA, _c_gain(k)


def _perturbation(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.integers(0, 2, size=size) * 2 - 1


def _pair(theta: np.ndarray, c_k: float, delta: np.ndarray) -> list[np.ndarray]:
    """The two points of a gradient estimate, plus then minus."""
    return [theta + c_k * delta, theta - c_k * delta]


def _gradient(pair: list[EstimatorResult], c_k: float, delta: np.ndarray) -> np.ndarray:
    return (pair[0].mean - pair[1].mean) / (2.0 * c_k) / delta


def spsa_gradient(cost, theta: np.ndarray, c_k: float, delta: np.ndarray):
    """Two-sided simultaneous-perturbation gradient estimate (2 evaluations,
    one cost call)."""
    if not np.all(np.abs(delta) == 1):
        raise SPSAError("perturbation must be a +-1 vector")
    return _gradient(_evaluate(cost, _pair(theta, c_k, delta)), c_k, delta)


def _calibrated_a(results: list[EstimatorResult], deltas: list[np.ndarray]) -> float:
    """The a gain that makes the first update step TARGET_FIRST_STEP, from
    the calibration pairs' results."""
    # every component of an estimate has the same magnitude, as |delta| = 1
    mags = [abs(_gradient(results[2 * i:2 * i + 2], C, delta)[0])
            for i, delta in enumerate(deltas)]
    mean_mag = float(np.mean(mags))
    if mean_mag == 0.0:
        raise CalibrationError("all calibration gradient estimates are zero")
    return TARGET_FIRST_STEP * (BIG_A + 1) ** ALPHA / mean_mag


def _calibration(theta0: np.ndarray, rng: np.random.Generator):
    """Calibration's perturbations and the stack of their pairs' points."""
    deltas = [_perturbation(rng, theta0.shape[0]) for _ in range(CALIBRATION_EVALS // 2)]
    return deltas, [p for delta in deltas for p in _pair(theta0, C, delta)]


def calibrate(cost, theta0: np.ndarray, rng: np.random.Generator) -> float:
    """Set the a gain so the first update step has the target magnitude
    (CALIBRATION_EVALS evaluations, one cost call)."""
    deltas, rows = _calibration(theta0, rng)
    return _calibrated_a(_evaluate(cost, rows), deltas)


@dataclass(frozen=True)
class SPSAResult:
    theta: np.ndarray = field(hash=False)
    history: list[IterationRecord] = field(hash=False)
    final_energy: EstimatorResult = None
    n_evaluations: int = 0


def minimize(cost, theta0, cfg: SPSAConfig, seed: int, callback=None) -> SPSAResult:
    """SPSA descent to a final theta with its per-iteration history.

    `cost` maps a stack of parameter vectors to one EstimatorResult or float
    per row. The run is deterministic for a fixed seed: perturbations come
    from the stream derived from (seed,), calibration's first. After the last
    iteration one extra evaluation is made at the final theta and reported as
    final_energy. Each cost call holds every point that waits on no pending
    result (see the module docstring); the history's evaluation counts are
    those of one-at-a-time evaluation, each record's up to its tracking point.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    if theta.ndim != 1 or theta.size == 0:
        raise SPSAError("theta0 must be a non-empty vector")
    rng = derive_rng(seed)
    deltas, rows = _calibration(theta, rng) if cfg.a is None else ([], [])
    delta = _perturbation(rng, theta.size)
    results = _evaluate(cost, rows + _pair(theta, _c_gain(1), delta))
    if deltas:
        cfg = replace(cfg, a=_calibrated_a(results[:-2], deltas))
    evals, pair = len(rows), results[-2:]
    history: list[IterationRecord] = []
    for k in range(1, cfg.maxiter + 1):
        a_k, c_k = gain_sequences(cfg, k)
        theta = theta - a_k * _gradient(pair, c_k, delta)
        evals += 3
        if k < cfg.maxiter:  # the tracking point with the next iteration's pair
            delta = _perturbation(rng, theta.size)
            tracked, *pair = _evaluate(cost, [theta] + _pair(theta, _c_gain(k + 1), delta))
        else:  # the last tracking point with the final evaluation
            tracked, final = _evaluate(cost, [theta, theta])
        record = IterationRecord(k, theta.copy(), tracked, evals)
        history.append(record)
        if callback is not None:
            callback(record)
    return SPSAResult(theta, history, final, evals + 1)
