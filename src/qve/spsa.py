"""Simultaneous Perturbation Stochastic Approximation with calibration.

Gains a_k = a / (A + k)^alpha and c_k = c / k^gamma use the module constants
below. A caller sets only maxiter and, optionally, a, which calibration
otherwise picks so that the first step is TARGET_FIRST_STEP.

Evaluation accounting per run: CALIBRATION_EVALS up front, then per
iteration two gradient evaluations plus one tracking evaluation, plus one
final evaluation (50 + 3*maxiter + 1 = 1251 at the defaults).
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


def _as_result(value, shots=0, seed=0) -> EstimatorResult:
    if isinstance(value, EstimatorResult):
        return value
    return EstimatorResult(float(value), 0.0, shots, seed)


def gain_sequences(cfg: SPSAConfig, k: int) -> tuple[float, float]:
    """(a_k, c_k) for 1-based iteration k."""
    if k < 1:
        raise SPSAError("gain sequences are defined for k >= 1")
    if cfg.a is None:
        raise SPSAError("a is unset; run calibrate first")
    a_k = cfg.a / (BIG_A + k) ** ALPHA
    c_k = C / k ** GAMMA
    return a_k, c_k


def spsa_gradient(cost, theta: np.ndarray, c_k: float, delta: np.ndarray):
    """Two-sided simultaneous-perturbation gradient estimate (2 evaluations)."""
    if not np.all(np.abs(delta) == 1):
        raise SPSAError("perturbation must be a +-1 vector")
    e_plus = _as_result(cost(theta + c_k * delta)).mean
    e_minus = _as_result(cost(theta - c_k * delta)).mean
    return (e_plus - e_minus) / (2.0 * c_k) / delta


def calibrate(cost, theta0: np.ndarray, rng: np.random.Generator) -> float:
    """Set the a gain so the first update step has the target magnitude."""
    mags = []
    for _ in range(CALIBRATION_EVALS // 2):
        delta = rng.integers(0, 2, size=theta0.shape[0]) * 2 - 1
        # every component of the estimate has the same magnitude, as |delta| = 1
        mags.append(abs(spsa_gradient(cost, theta0, C, delta)[0]))
    mean_mag = float(np.mean(mags))
    if mean_mag == 0.0:
        raise CalibrationError("all calibration gradient estimates are zero")
    return TARGET_FIRST_STEP * (BIG_A + 1) ** ALPHA / mean_mag


@dataclass(frozen=True)
class SPSAResult:
    theta: np.ndarray = field(hash=False)
    history: list[IterationRecord] = field(hash=False)
    final_energy: EstimatorResult = None
    n_evaluations: int = 0


def minimize(cost, theta0, cfg: SPSAConfig, seed: int, callback=None) -> SPSAResult:
    """SPSA descent to a final theta with its per-iteration history.

    `cost` maps a parameter vector to an EstimatorResult or a float. The run
    is deterministic for a fixed seed: perturbations come from the stream
    derived from (seed,). After the last iteration one extra evaluation is
    made at the final theta and reported as final_energy.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    if theta.ndim != 1 or theta.size == 0:
        raise SPSAError("theta0 must be a non-empty vector")
    rng = derive_rng(seed)
    if cfg.a is None:
        cfg = replace(cfg, a=calibrate(cost, theta, rng))
        evals = CALIBRATION_EVALS
    else:
        evals = 0
    history: list[IterationRecord] = []
    for k in range(1, cfg.maxiter + 1):
        a_k, c_k = gain_sequences(cfg, k)
        delta = rng.integers(0, 2, size=theta.size) * 2 - 1
        grad = spsa_gradient(cost, theta, c_k, delta)
        evals += 2
        theta = theta - a_k * grad
        tracked = _as_result(cost(theta))
        evals += 1
        record = IterationRecord(k, theta.copy(), tracked, evals)
        history.append(record)
        if callback is not None:
            callback(record)
    final = _as_result(cost(theta))
    evals += 1
    return SPSAResult(theta, history, final, evals)
