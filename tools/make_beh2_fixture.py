#!/usr/bin/env python3
"""Regenerate the bundled BeH2 CAS(2e, 3o) / STO-3G Hamiltonian fixture.

Linear BeH2 at Be-H = 1.326 angstrom goes through the package's
geometry -> problem path (McMurchie-Davidson integrals, RHF, MO transform)
with MOs 0 and 1 frozen and MOs 2, 3, 4 active. The built-in STO-3G table
stops at He, so the Be shells are supplied here. The script prints the RHF
energy and the exact energy of the tapered parity Hamiltonian, then writes
src/qve/data/beh2_cas_2e3o_sto3g.txt.

Run from the repository root:  PYTHONPATH=src python tools/make_beh2_fixture.py
"""

from pathlib import Path

from qve.basis import ANGSTROM_TO_BOHR, STO3G_TABLE, Molecule
from qve.pauli import exact_ground_energy
from qve.pipeline import problem_from_geometry, problem_to_pauli, save_fixture

OUT = Path(__file__).resolve().parents[1] / "src" / "qve" / "data" / "beh2_cas_2e3o_sto3g.txt"

# Published STO-3G shells of Be: 1s, 2s and 2p (2s and 2p share exponents).
TABLE = {**STO3G_TABLE, "Be": [
    (0, [(30.16787069, 0.1543289673), (5.495115306, 0.5353281423),
         (1.487192653, 0.4446345422)]),
    (0, [(1.314833110, -0.09996722919), (0.3055389383, 0.3995128261),
         (0.09937074560, 0.7001154689)]),
    (1, [(1.314833110, 0.1559162750), (0.3055389383, 0.6076837186),
         (0.09937074560, 0.3919573931)]),
]}


def main(out=OUT):
    d = 1.326 * ANGSTROM_TO_BOHR
    mol = Molecule(((1, (-d, 0.0, 0.0)), (4, (0.0, 0.0, 0.0)), (1, (d, 0.0, 0.0))))
    problem, scf = problem_from_geometry(mol, TABLE, core=[0, 1], active=[2, 3, 4])
    e_exact, _ = exact_ground_energy(problem_to_pauli(problem, "parity", True))
    print(f"RHF total energy:    {scf.total_energy:.7f} Ha (reference -15.56033)")
    print(f"exact active energy: {e_exact:.7f} Ha (reference -15.56089)")
    save_fixture(problem, out, comment=(
        "BeH2 / STO-3G at Be-H = 1.326 A, linear geometry.\n"
        "Active space: 2 electrons in 3 spatial orbitals (MOs 2,3,4), MOs 0,1 frozen.\n"
        "Generated by tools/make_beh2_fixture.py."))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
