"""Zero-noise extrapolation: folding, model fits, and the end-to-end helper."""

import numpy as np
import pytest

from oracles import circuit_unitary
from qve.circuit import Circuit, EstimatorResult, NoiseModel, estimate, run_circuit
from qve.pauli import PauliSum
from qve.zne import (FIT_MODELS, ZNEError, ZNEPoint, extrapolate, fold_circuit,
                     run_zne)


def sample_circuit():
    c = Circuit(2)
    c.h(0).cx(0, 1).ry(0.4, 1).rz(0.9, 0)
    return c


def point(fold, mean):
    return ZNEPoint(fold, EstimatorResult(mean, 0.0, 1024, 0))


def test_fold_invariance_of_unitary():
    # [DERIVED] C (C^dagger C)^k is noiselessly identical to C (1e-10)
    c = sample_circuit()
    u = circuit_unitary(c)
    for n in (1, 3, 5):
        folded = fold_circuit(c, n)
        assert len(folded.gates) == n * len(c.gates)
        np.testing.assert_allclose(circuit_unitary(folded), u, atol=1e-10)


def test_fold_rejects_even_or_nonpositive():
    # [TRIVIAL]
    c = sample_circuit()
    for bad in (0, 2, -1, 4):
        with pytest.raises(ZNEError):
            fold_circuit(c, bad)


def test_linear_fit_exact_recovery():
    # [DERIVED] exact recovery of a synthetic linear response (1e-8)
    pts = [point(l, -15.5 + 0.03 * l) for l in (1, 3, 5)]
    fit = extrapolate(pts, "linear")
    assert fit.e_zero == pytest.approx(-15.5, abs=1e-8)
    assert not fit.fallback


def test_quadratic_fit_exact_recovery():
    # [DERIVED] exact recovery of a synthetic quadratic response (1e-10)
    pts = [point(l, -15.5 + 0.03 * l + 0.004 * l * l) for l in (1, 3, 5)]
    fit = extrapolate(pts, "quadratic")
    assert fit.e_zero == pytest.approx(-15.5, abs=1e-10)
    assert fit.params[2] == pytest.approx(-15.5, abs=1e-10)  # highest first


def test_exponential_fit_exact_recovery():
    # [DERIVED] a + b exp(-c lam) recovered from exact samples (1e-6);
    # the asymptote parameter is a, the zero-noise value is a + b
    a, b, c = -15.6, 0.2, 0.35
    pts = [point(l, a + b * np.exp(-c * l)) for l in (1, 3, 5)]
    fit = extrapolate(pts, "exponential")
    assert fit.params[0] == pytest.approx(a, abs=1e-6)
    assert fit.params[1] == pytest.approx(b, abs=1e-6)
    assert fit.params[2] == pytest.approx(c, abs=1e-6)
    assert fit.e_zero == pytest.approx(a + b, abs=1e-6)
    assert not fit.fallback


def test_extrapolate_input_validation():
    # [TRIVIAL]
    with pytest.raises(ZNEError):
        extrapolate([point(1, 0.0), point(1, 0.1)], "linear")
    with pytest.raises(ZNEError):
        extrapolate([point(1, 0.0), point(3, 0.1)], "quadratic")
    with pytest.raises(ZNEError):
        extrapolate([point(1, 0.0), point(3, 0.1), point(5, 0.2)], "cubic")


def test_run_zne_fold_validation():
    # [TRIVIAL] folds must be ascending and start at 1
    c = sample_circuit()
    h = PauliSum.from_labels([("ZZ", 1.0)])
    for bad in ([3, 5], [5, 3, 1], []):
        with pytest.raises(ZNEError):
            run_zne(c, {}, h, bad, 256, 0, NoiseModel())


def test_run_zne_trivial_noise_collapses():
    # [DERIVED] with zero noise every fold reproduces the same sampled energy
    # (shared per-group seeds), so the linear fit returns the raw value
    c = sample_circuit()
    h = PauliSum.from_labels([("ZZ", 1.0), ("XI", 0.3)])
    result = run_zne(c, {}, h, [1, 3, 5], 512, 7, NoiseModel())
    means = [p.energy.mean for p in result.points]
    assert means[0] == means[1] == means[2]
    assert result.raw == means[0]
    assert result.fits["linear"].e_zero == pytest.approx(result.raw, abs=1e-10)
    assert set(result.fits) == set(FIT_MODELS)


def test_run_zne_noise_bias_grows_with_fold():
    # [DERIVED] folding multiplies gate count, so depolarizing bias on a
    # simple X-gate circuit increases monotonically with the fold factor
    c = Circuit(1)
    c.x(0)
    h = PauliSum.from_labels([("Z", 1.0)])
    result = run_zne(c, {}, h, [1, 3, 5, 7], 40000, 1, NoiseModel(p1=0.05))
    means = [p.energy.mean for p in result.points]
    # exact Z expectations are -(1 - 4p/3)^fold; just require the sampled
    # means to move toward zero from below
    assert means[0] < means[1] < means[2] < means[3] < 0.0


def test_run_zne_deterministic():
    # [TRIVIAL] same seed, same result
    c = sample_circuit()
    h = PauliSum.from_labels([("ZZ", 1.0)])
    r1 = run_zne(c, {}, h, [1, 3, 5], 512, 3, NoiseModel(p1=0.01, p2=0.02))
    r2 = run_zne(c, {}, h, [1, 3, 5], 512, 3, NoiseModel(p1=0.01, p2=0.02))
    assert [p.energy for p in r1.points] == [p.energy for p in r2.points]


def test_linear_only_when_two_points():
    # [TRIVIAL] 2 folds: only the linear model is fitted
    c = sample_circuit()
    h = PauliSum.from_labels([("ZZ", 1.0)])
    result = run_zne(c, {}, h, [1, 3], 256, 0, NoiseModel())
    assert set(result.fits) == {"linear"}


@pytest.mark.parametrize("means", [
    (-15.60, -15.58, -15.59),    # d2/d1 = -0.5: not monotone
    (-15.60, -15.59, -15.56),    # d2/d1 = 3: differences grow
])
def test_exponential_fit_falls_back_without_decay(means):
    # [DERIVED] three equally spaced folds fit a + b exp(-c lam) with c > 0
    # only when 0 < d2/d1 < 1; otherwise the least-squares rate runs to a
    # grid end and the fit reports the quadratic one, flagged
    pts = [point(l, m) for l, m in zip((1, 3, 5), means)]
    fit = extrapolate(pts, "exponential")
    quad = extrapolate(pts, "quadratic")
    assert fit.fallback
    assert (fit.e_zero, fit.params, fit.residual) == (quad.e_zero, quad.params, quad.residual)


def _curve_fit(lam, e, p0):
    # converged to rounding: at its default 1e-8 tolerances curve_fit stops
    # up to 1e-6 short of an exact fit
    from scipy.optimize import curve_fit
    popt, _ = curve_fit(lambda x, a, b, c: a + b * np.exp(-c * x), lam, e, p0=p0,
                        bounds=([-np.inf, -np.inf, 0.0], np.inf), maxfev=10000,
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return popt, float(np.sum((popt[0] + popt[1] * np.exp(-popt[2] * lam) - e) ** 2))


@pytest.mark.filterwarnings("ignore:Covariance of the parameters could not be estimated")
def test_exponential_fit_matches_curve_fit():
    # [ORACLE] scipy.optimize.curve_fit (c >= 0), started near the generating
    # parameters: on exact geometric data at folds 1, 3, 5 the same
    # e_zero and parameters (1e-9); on noisy data at folds 1, 3, 5, 7 and
    # 1, 3, 7 a residual no higher than curve_fit's (1e-12)
    rng = np.random.default_rng(8)
    lam = np.array([1.0, 3.0, 5.0])
    for _ in range(50):
        a, b, c = rng.uniform(-16, -15), rng.choice([-1, 1]) * rng.uniform(0.01, 0.5), \
            rng.uniform(0.02, 2.0)
        e = a + b * np.exp(-c * lam)
        fit = extrapolate([point(l, v) for l, v in zip(lam, e)], "exponential")
        popt, _ = _curve_fit(lam, e, [a + 0.01, 1.1 * b, 0.9 * c])
        assert not fit.fallback
        assert fit.e_zero == pytest.approx(popt[0] + popt[1], abs=1e-9)
        np.testing.assert_allclose(fit.params, popt, rtol=0, atol=1e-9)
    for folds in ((1, 3, 5, 7), (1, 3, 7)):
        lam = np.array(folds, dtype=float)
        fitted = 0
        for _ in range(50):
            a, b, c = rng.uniform(-16, -15), rng.uniform(0.01, 0.5), rng.uniform(0.05, 1.0)
            e = a + b * np.exp(-c * lam) + rng.normal(0.0, 0.002, len(lam))
            fit = extrapolate([point(l, v) for l, v in zip(lam, e)], "exponential")
            if fit.fallback:
                continue
            fitted += 1
            _, resid = _curve_fit(lam, e, [a, b, c])
            assert fit.residual <= resid + 1e-12
        assert fitted >= 40
