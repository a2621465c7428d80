#!/usr/bin/env python3
"""Zero-noise extrapolation on a noisy BeH2 energy measurement.

Measures a fixed hardware-efficient state at fold factors 1, 3, 5 under
depolarizing noise and extrapolates back to the zero-noise limit with
linear, quadratic, and exponential fits.

Run from the repository root:  python3 demos/zne_beh2.py
"""

from pathlib import Path

import numpy as np

import qve
from qve.ansatz import build_hea
from qve.circuit import NoiseModel, derive_rng, estimate
from qve.pipeline import load_fixture, problem_to_pauli
from qve.zne import run_zne

FIXTURE = Path(qve.__file__).parent / "data" / "beh2_cas_2e3o_sto3g.txt"


def main():
    h = problem_to_pauli(load_fixture(FIXTURE), "parity", True)
    circuit = build_hea(4, 3)
    theta = derive_rng(123).uniform(0, 2 * np.pi, len(circuit.parameter_names))
    bindings = dict(zip(circuit.parameter_names, theta))
    exact = estimate(circuit, bindings, h, 0, 0).mean

    noise = NoiseModel(p1=0.002, p2=0.02)
    result = run_zne(circuit, bindings, h, [1, 3, 5], 8192, seed=1, noise=noise)

    print(f"exact energy of the prepared state: {exact:.5f} Ha\n")
    print(f"{'fold':>5}{'measured (Ha)':>16}{'std err':>10}")
    for p in result.points:
        print(f"{p.fold:>5}{p.energy.mean:>16.5f}{p.energy.std_error:>10.5f}")

    print(f"\n{'fit':<13}{'E(0) (Ha)':>12}{'|error| (mHa)':>15}")
    print(f"{'raw (fold 1)':<13}{result.raw:>12.5f}"
          f"{abs(result.raw - exact) * 1000:>15.2f}")
    for name, fit in result.fits.items():
        tag = name + (" (fallback)" if fit.fallback else "")
        print(f"{tag:<13}{fit.e_zero:>12.5f}"
              f"{abs(fit.e_zero - exact) * 1000:>15.2f}")


if __name__ == "__main__":
    main()
