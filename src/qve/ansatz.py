"""Ansatz construction: UCCSD (one Trotter step, each mapped generator term
one Pauli rotation), hardware-efficient circuit, and Hartree-Fock state
preparation."""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, ParamExpr, PauliRotation
from .fermion import ANNIHILATE, CREATE, FermionOperator, hartree_fock_occupation
from .mapping import encode_occupation, qubit_operator

GENERATOR_REAL_TOL = 1e-12


class AnsatzError(ValueError):
    pass


@dataclass(frozen=True)
class ExcitationList:
    """Spin-conserving excitations out of the HF determinant (blocked indices)."""

    singles: tuple[tuple[int, int], ...]
    doubles: tuple[tuple[int, int, int, int], ...]

    @property
    def n_parameters(self) -> int:
        return len(self.singles) + len(self.doubles)


def excitations(n_alpha: int, n_beta: int, n_spatial: int) -> ExcitationList:
    """All spin-conserving singles and doubles, lexicographically ordered."""
    occ = hartree_fock_occupation(n_alpha, n_beta, n_spatial)
    occupied = [m for m, b in enumerate(occ) if b]
    virtual = [m for m, b in enumerate(occ) if not b]
    spin = [m // n_spatial for m in range(2 * n_spatial)]
    singles = tuple((i, a) for i in occupied for a in virtual if spin[i] == spin[a])
    doubles = []
    for ii, i in enumerate(occupied):
        for j in occupied[ii + 1:]:
            for ka, k in enumerate(virtual):
                for l in virtual[ka + 1:]:
                    if sorted((spin[i], spin[j])) == sorted((spin[k], spin[l])):
                        doubles.append((i, j, k, l))
    return ExcitationList(singles, tuple(doubles))


def _generator_rotation(x: int, z: int, c: complex, param: ParamExpr) -> PauliRotation:
    """exp(theta * c * P) for an anti-Hermitian term c = i*lambda on the word
    P with masks (x, z), as the rotation exp(i * lambda * theta * P)."""
    if abs(c.real) > GENERATOR_REAL_TOL:
        raise AnsatzError(f"generator coefficient {c} is not purely imaginary")
    if not x | z:
        raise AnsatzError("cannot synthesize evolution of an identity term")
    return PauliRotation(x, z, param.scaled(c.imag))  # lambda = c.imag


def hf_state_circuit(occupation: tuple[int, ...], mapper: str, taper: bool = False) -> Circuit:
    """X gates preparing the mapped basis state of an occupation tuple."""
    bits = encode_occupation(occupation, mapper, taper)
    c = Circuit(len(bits))
    for q, b in enumerate(bits):
        if b:
            c.x(q)
    return c


def build_uccsd(n_alpha: int, n_beta: int, n_spatial: int,
                mapper: str = "parity", taper: bool = False) -> Circuit:
    """HF preparation followed by one Trotter step of the UCCSD generator.

    The generator of each excitation is mapped with the same mapper/tapering
    as the Hamiltonian, and each mapped term becomes one PauliRotation;
    parameters are theta0, theta1, ... in excitation order (singles then
    doubles, lexicographic).
    """
    n_modes = 2 * n_spatial
    exc = excitations(n_alpha, n_beta, n_spatial)
    occ = hartree_fock_occupation(n_alpha, n_beta, n_spatial)
    circuit = hf_state_circuit(occ, mapper, taper)
    for idx, e in enumerate(list(exc.singles) + list(exc.doubles)):
        if len(e) == 2:
            i, a = e
            factors = ((a, CREATE), (i, ANNIHILATE))
        else:
            i, j, k, l = e
            factors = ((k, CREATE), (l, CREATE), (j, ANNIHILATE), (i, ANNIHILATE))
        t = FermionOperator.from_term(n_modes, factors)
        mapped = qubit_operator(t - t.dagger(), mapper, taper, n_alpha, n_beta)
        param = ParamExpr(f"theta{idx}")
        for (x, z), c in mapped.items():
            circuit.add(_generator_rotation(x, z, c, param))
    return circuit


def build_hea(n_qubits: int, reps: int) -> Circuit:
    """RY+RZ rotation layers interleaved with linear CX chains."""
    if reps < 0:
        raise AnsatzError("reps must be >= 0")
    c = Circuit(n_qubits)
    p = 0
    for layer in range(reps + 1):
        for q in range(n_qubits):
            c.ry(ParamExpr(f"theta{p}"), q)
            p += 1
        for q in range(n_qubits):
            c.rz(ParamExpr(f"theta{p}"), q)
            p += 1
        if layer < reps:
            for q in range(n_qubits - 1):
                c.cx(q, q + 1)
    return c
