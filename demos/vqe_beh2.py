#!/usr/bin/env python3
"""Shot-based VQE on the BeH2 fixture with a hardware-efficient ansatz.

Runs a short noisy optimization, then replays the logged parameters with
exact expectations to show that SPSA finds good parameters even when every
energy estimate is biased upward by the noise.

Run from the repository root:  python3 demos/vqe_beh2.py
"""

import json
from pathlib import Path

import qve
from qve.circuit import NoiseModel
from qve.pipeline import RunConfig, load_fixture, replay_on_exact, run_vqe

FIXTURE = Path(qve.__file__).parent / "data" / "beh2_cas_2e3o_sto3g.txt"


def main():
    cfg = RunConfig(fixture=str(FIXTURE), ansatz="hea", shots=2048, maxiter=60,
                    seed=0, noise=NoiseModel(p1=0.001, p2=0.01,
                                             readout01=0.01, readout10=0.01),
                    output_dir="runs/demo")
    print("optimizing (60 SPSA iterations, 2048 shots, depolarizing + readout "
          "noise)...")
    run_dir = run_vqe(cfg)
    report = json.loads((run_dir / "result.json").read_text())

    e0 = report["exact_energy_ha"]
    rows = replay_on_exact(run_dir / "params.jsonl", load_fixture(FIXTURE), cfg)

    print(f"\nartifacts in        : {run_dir}")
    print(f"exact ground energy : {e0:.5f} Ha")
    print(f"noisy final estimate: {report['final_energy_ha']:.5f} Ha")
    print(f"exact replay (final): {rows[-1][1]:.5f} Ha")
    print(f"evaluations used    : {report['n_evaluations']}")
    print("\nthe replayed energy sits below the noisy estimate: the optimizer "
          "made real progress\nthat the noisy readout under-reports.")


if __name__ == "__main__":
    main()
