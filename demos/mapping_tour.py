#!/usr/bin/env python3
"""Tour of the fermion-to-qubit mappings on the bundled BeH2 fixture.

Prints the qubit count, Pauli-term count, and average Pauli weight of every
encoding, then the exact ground-state energy in the (1, 1) electron sector
and the Hartree-Fock energy of the 4-qubit tapered Hamiltonian.

Run from the repository root:  python3 demos/mapping_tour.py
"""

from pathlib import Path

import qve
from qve.ansatz import hf_state_circuit
from qve.circuit import run_circuit
from qve.fermion import hartree_fock_occupation
from qve.mapping import mapping_stats, sector_basis
from qve.pauli import exact_ground_energy, expectation_exact
from qve.pipeline import load_fixture, problem_to_pauli

FIXTURE = Path(qve.__file__).parent / "data" / "beh2_cas_2e3o_sto3g.txt"


def main():
    problem = load_fixture(FIXTURE)
    print(f"BeH2 active space: {problem.n_spatial} spatial orbitals, "
          f"{problem.n_alpha + problem.n_beta} electrons, "
          f"constant shift {problem.e_offset:+.6f} Ha\n")

    print(f"{'encoding':<18}{'qubits':>7}{'terms':>7}{'avg weight':>12}")
    for mapper, taper, name in [("jw", False, "Jordan-Wigner"),
                                ("parity", False, "Parity"),
                                ("parity", True, "Parity (tapered)"),
                                ("bk", False, "Bravyi-Kitaev")]:
        stats = mapping_stats(problem_to_pauli(problem, mapper, taper))
        print(f"{name:<18}{stats.n_qubits:>7}{stats.n_pauli_terms:>7}"
              f"{stats.avg_weight:>12.2f}")

    h = problem_to_pauli(problem, "parity", True)
    e0, _ = exact_ground_energy(h, sector_basis(
        problem.n_spatial, problem.n_alpha, problem.n_beta, "parity", True))
    occ = hartree_fock_occupation(problem.n_alpha, problem.n_beta, problem.n_spatial)
    e_hf = expectation_exact(h, run_circuit(hf_state_circuit(occ, "parity", True)))
    print(f"\nexact ground energy : {e0:.5f} Ha")
    print(f"Hartree-Fock energy : {e_hf:.5f} Ha")
    print(f"correlation energy  : {(e_hf - e0) * 1000:.3f} mHa")


if __name__ == "__main__":
    main()
