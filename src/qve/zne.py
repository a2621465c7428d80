"""Zero-noise extrapolation: global circuit folding and fits to the zero-noise
limit. Only mean energies are fitted; standard errors are carried for
reporting, not weighting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, EstimatorResult, NoiseModel, estimate, inverse_circuit
from .pauli import PauliSum


class ZNEError(ValueError):
    pass


@dataclass(frozen=True)
class ZNEPoint:
    fold: int
    energy: EstimatorResult


@dataclass(frozen=True)
class FitResult:
    model: str
    e_zero: float
    params: tuple[float, ...]
    residual: float
    fallback: bool = False


@dataclass(frozen=True)
class ZNEResult:
    raw: float
    points: list[ZNEPoint] = field(hash=False)
    fits: dict[str, FitResult] = field(hash=False)


def fold_circuit(c: Circuit, n: int) -> Circuit:
    """Global fold C (C^dagger C)^((n-1)/2); noiselessly identical to C."""
    if n < 1 or n % 2 == 0:
        raise ZNEError(f"fold factor must be an odd positive integer, got {n}")
    if n == 1:
        return c.copy()
    inv = inverse_circuit(c)
    out = c.copy()
    for _ in range((n - 1) // 2):
        out.extend(inv.gates)
        out.extend(c.gates)
    return out


FIT_MODELS = ("linear", "quadratic", "exponential")

# Rates c the exponential fit scans before refining, as c * (fold span), 8 per
# decade. At the low end the model is all but a line, at the high end all but
# a step; there exp(-c gap) for the smallest fold gap, at most half the span,
# is still above 1e-7, so the residual has not yet flattened to a plateau.
_EXP_RATES = np.geomspace(1e-3, 30.0, 37)


def _exponential_profile(lam, e, c):
    """a, b of the best a + b exp(-c lam) for a fixed rate c, by a
    two-column linear least-squares fit, and its residual sum of squares."""
    shift = lam.min()
    # exp(-c (lam - shift)) keeps the column at 1 on the lowest fold for any c
    u = np.exp(-c * (lam - shift))
    (a, b), *_ = np.linalg.lstsq(np.column_stack([np.ones_like(lam), u]), e, rcond=None)
    return float(a), float(b * np.exp(c * shift)), float(np.sum((a + b * u - e) ** 2))


def _fit_exponential(lam, e):
    """Least-squares (a, b, c) of a + b exp(-c lam) and its residual, or None
    when the residual is smallest at either end of the rate grid, where no
    exponential fits.

    With a and b projected out, the residual depends on c alone (variable
    projection: Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)). The
    grid brackets its minimum, and golden section refines it between the
    grid neighbours of the smallest grid value.
    """
    def resid(c):
        return _exponential_profile(lam, e, c)[2]

    rates = _EXP_RATES / (lam.max() - lam.min())
    i = int(np.argmin([resid(c) for c in rates]))
    if i in (0, len(rates) - 1):
        return None
    lo, hi = rates[i - 1], rates[i + 1]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = resid(x1), resid(x2)
    while hi - lo > 1e-12 * hi:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = resid(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = resid(x2)
    c = float(0.5 * (lo + hi))
    a, b, r = _exponential_profile(lam, e, c)
    return (a, b, c), r


def extrapolate(points: list[ZNEPoint], model: str) -> FitResult:
    """Least-squares fit of mean energy vs fold; evaluate at zero noise.

    The exponential model a + b exp(-c lam) needs c > 0. Its least-squares
    rate is sought on c * (fold span) from 1e-3 to 30. When the residual is
    smallest at either end, the means do not decay geometrically and no
    exponential fits them: c -> 0 is a line, c -> infinity a step. For three
    equally spaced folds with successive differences d1, d2 this is the case
    when d2/d1 <= 0 or >= 1, or so close to 0 or 1 that the rate leaves the
    grid. The fit then reports the quadratic fit's values with fallback=True.
    """
    lam = np.array([p.fold for p in points], dtype=float)
    e = np.array([p.energy.mean for p in points])
    if len(set(lam)) != len(lam):
        raise ZNEError("duplicate fold factors")
    need = 2 if model == "linear" else 3
    if len(lam) < need:
        raise ZNEError(f"{model} fit needs at least {need} points, got {len(lam)}")
    if model == "linear":
        coeffs = np.polyfit(lam, e, 1)
        resid = float(np.sum((np.polyval(coeffs, lam) - e) ** 2))
        return FitResult(model, float(np.polyval(coeffs, 0.0)), tuple(coeffs), resid)
    if model == "quadratic":
        coeffs = np.polyfit(lam, e, 2)
        resid = float(np.sum((np.polyval(coeffs, lam) - e) ** 2))
        return FitResult(model, float(np.polyval(coeffs, 0.0)), tuple(coeffs), resid)
    if model == "exponential":
        fit = _fit_exponential(lam, e)
        if fit is None:
            quad = extrapolate(points, "quadratic")
            return FitResult(model, quad.e_zero, quad.params, quad.residual, fallback=True)
        (a, b, c), resid = fit
        return FitResult(model, a + b, (a, b, c), resid)
    raise ZNEError(f"unknown extrapolation model {model!r}")


def run_zne(c: Circuit, bindings, h: PauliSum, folds: list[int], shots: int,
            seed: int, noise: NoiseModel, models=FIT_MODELS) -> ZNEResult:
    """Measure every fold under the same noise model and extrapolate.

    Every fold is measured with the same seed and noise model, mirroring a
    single measurement session.
    """
    if sorted(folds) != list(folds) or not folds or folds[0] != 1:
        raise ZNEError("folds must be ascending and include 1")
    points = []
    for f in folds:
        folded = fold_circuit(c, f)
        points.append(ZNEPoint(f, estimate(folded, bindings, h, shots, seed, noise=noise)))
    fits = {}
    for model in models:
        need = 2 if model == "linear" else 3
        if len(points) >= need:
            fits[model] = extrapolate(points, model)
    return ZNEResult(points[0].energy.mean, points, fits)
