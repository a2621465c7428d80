"""Ansatz construction: excitations, Pauli exponentials, HF preparation,
UCCSD and hardware-efficient circuits."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import oracles
from oracles import circuit_unitary
from qve.ansatz import (AnsatzError, _generator_rotation, build_hea, build_uccsd,
                        excitations, hf_state_circuit)
from qve.circuit import Circuit, CircuitStats, ParamExpr, PauliRotation, \
    circuit_stats, run_circuit, transpile
from qve.fermion import hartree_fock_occupation
from qve.mapping import MAPPERS, MappingError, encode_occupation
from qve.pauli import PauliSum, expectation_exact
from qve.pipeline import problem_to_pauli
from qve.zne import fold_circuit


def test_excitation_counts_h2():
    # [DERIVED] (1,1,2): 2 spin-conserving singles + 1 double = 3 parameters
    exc = excitations(1, 1, 2)
    assert exc.singles == ((0, 1), (2, 3))
    assert exc.doubles == ((0, 2, 1, 3),)
    assert exc.n_parameters == 3


def test_excitation_counts_beh2_active_space():
    # [PAPER] (1,1,3): 4 singles + 4 doubles = 8 parameters
    exc = excitations(1, 1, 3)
    assert len(exc.singles) == 4
    assert len(exc.doubles) == 4
    assert exc.n_parameters == 8
    # every excitation conserves per-spin electron numbers
    spin = lambda m: m // 3
    for i, a in exc.singles:
        assert spin(i) == spin(a)
    for i, j, k, l in exc.doubles:
        assert sorted((spin(i), spin(j))) == sorted((spin(k), spin(l)))


def test_pauli_evolution_matches_matrix_exponential():
    # [DERIVED] synthesized circuit equals expm(theta * c * P) exactly,
    # including phase, for anti-Hermitian generators c = i*lambda
    rng = np.random.default_rng(2)
    for lbl in ("XY", "ZZ", "YIX", "XYZ"):
        lam = float(rng.normal())
        x, z = oracles.pauli_masks(lbl)
        theta = float(rng.uniform(-2, 2))
        gates = _generator_rotation(x, z, 1j * lam, ParamExpr("t")).decompose(len(lbl))
        c = Circuit(len(lbl))
        c.extend(gates)
        got = circuit_unitary(c, {"t": theta})
        want = expm(theta * 1j * lam * oracles.pauli_label_matrix(lbl))
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_pauli_evolution_rejects_bad_generators():
    # [TRIVIAL] real coefficients and identity terms are not anti-Hermitian
    with pytest.raises(AnsatzError):
        _generator_rotation(*oracles.pauli_masks("XY"), 1.0 + 0j, ParamExpr("t"))
    with pytest.raises(AnsatzError):
        _generator_rotation(*oracles.pauli_masks("II"), 1j, ParamExpr("t"))


@pytest.mark.parametrize("mapper", ["jw", "parity", "bk"])
def test_hf_state_energy(beh2_problem, mapper):
    # [DERIVED] encoded HF basis state gives the same energy in every mapping
    occ = hartree_fock_occupation(1, 1, 3)
    h = problem_to_pauli(beh2_problem, mapper, False)
    c = hf_state_circuit(occ, mapper, False)
    e = expectation_exact(h, run_circuit(c))
    assert e == pytest.approx(-15.56033, abs=5e-6)  # [PAPER] HF reference energy


def test_hf_state_energy_tapered(beh2_problem, beh2_tapered):
    # [PAPER] tapered parity HF expectation hits the same HF energy
    occ = hartree_fock_occupation(1, 1, 3)
    c = hf_state_circuit(occ, "parity", True)
    assert c.n_qubits == 4
    e = expectation_exact(beh2_tapered, run_circuit(c))
    assert e == pytest.approx(-15.56033, abs=5e-6)


def test_hf_state_bit_patterns():
    # [DERIVED] prepared basis states match the encodings
    occ = hartree_fock_occupation(1, 1, 3)
    jw = run_circuit(hf_state_circuit(occ, "jw", False))
    assert np.argmax(np.abs(jw)) == sum(b << m for m, b in enumerate(occ))
    par = run_circuit(hf_state_circuit(occ, "parity", False))
    bits = encode_occupation(occ, "parity", False)
    assert np.argmax(np.abs(par)) == sum(b << q for q, b in enumerate(bits))


def test_uccsd_theta_zero_is_hf(beh2_problem, beh2_tapered):
    # [DERIVED] at theta = 0 the UCCSD circuit reduces to the HF state
    c = build_uccsd(1, 1, 3, "parity", True)
    zeros = {name: 0.0 for name in c.parameter_names}
    psi = run_circuit(c, zeros)
    e = expectation_exact(beh2_tapered, psi)
    assert e == pytest.approx(-15.56033, abs=5e-6)


def test_uccsd_parameter_count(beh2_problem):
    # [PAPER] BeH2 active space: 8 UCCSD parameters on 4 qubits
    c = build_uccsd(1, 1, 3, "parity", True)
    assert c.n_qubits == 4
    assert len(c.parameter_names) == 8
    assert c.parameter_names == [f"theta{i}" for i in range(8)]


def test_uccsd_conserves_particle_number():
    # [DERIVED] JW-mapped total-number operator is invariant under UCCSD
    from qve.fermion import CREATE, ANNIHILATE, FermionOperator
    n_spatial = 2
    num = FermionOperator(2 * n_spatial)
    for m in range(2 * n_spatial):
        num.add_term(((m, CREATE), (m, ANNIHILATE)), 1.0)
    n_op = MAPPERS["jw"](num)
    c = build_uccsd(1, 1, n_spatial, "jw", False)
    rng = np.random.default_rng(0)
    theta = {name: float(rng.uniform(-1, 1)) for name in c.parameter_names}
    psi = run_circuit(c, theta)
    assert expectation_exact(n_op, psi) == pytest.approx(2.0, abs=1e-10)


MAPPER_ROWS = [("jw", False), ("bk", False), ("parity", False), ("parity", True)]


@pytest.mark.parametrize("mapper,taper", MAPPER_ROWS)
@pytest.mark.parametrize("sector", [(1, 1, 3), (2, 2, 4)])
def test_compiled_uccsd_state_equals_gate_list(sector, mapper, taper):
    # [DERIVED] the statevector of the Pauli-rotation circuit equals that of
    # its decomposed gate list (a gate-only circuit never takes the rotation
    # path), at random theta in [-pi, pi], within 1e-12
    c = build_uccsd(*sector, mapper, taper)
    assert sum(isinstance(op, PauliRotation) for op in c.operations) > 0
    gates_only = Circuit(c.n_qubits).extend(c.gates)
    rng = np.random.default_rng(sum(sector) + len(mapper) + taper)
    for _ in range(3):
        theta = rng.uniform(-math.pi, math.pi, len(c.parameter_names))
        bindings = dict(zip(c.parameter_names, theta))
        np.testing.assert_allclose(run_circuit(c, bindings),
                                   run_circuit(gates_only, bindings), rtol=0, atol=1e-12)


def test_uccsd_gate_list_contract():
    # [DERIVED] every consumer of the gate list sees the decomposed circuit:
    # BeH2 tapered UCCSD keeps the parent's 542 gates, 8 parameters and
    # statistics (depth and counts recorded before rotations were compiled)
    c = build_uccsd(1, 1, 3, "parity", True)
    assert len(c.operations) == 42  # 2 X + 40 rotations
    assert len(c.gates) == 542
    assert len(c.parameter_names) == 8
    assert circuit_stats(c) == CircuitStats(
        320, {"X": 2, "RZ": 152, "H": 216, "CX": 172}, 8)
    assert len(fold_circuit(c, 3).gates) == 3 * 542
    copied = c.copy()
    assert copied.operations == c.operations and copied.gates == c.gates
    # an add after a read of .gates updates the list; the original is untouched
    copied.x(0)
    assert len(copied.gates) == 543 and copied.gates[-1].kind == "X"
    assert len(c.gates) == 542 and len(c.operations) == 42
    copied.add(PauliRotation(0b11, 0b01, ParamExpr("extra", 0.5)))
    assert len(copied.gates) == 543 + 9  # Y0 X1: 3 basis changes each way, 2 CX, 1 RZ
    assert copied.parameter_names[-1] == "extra"


def test_uccsd_taper_requires_parity():
    # [TRIVIAL]
    with pytest.raises(MappingError):
        build_uccsd(1, 1, 2, "bk", True)
    with pytest.raises(MappingError):
        build_uccsd(1, 1, 2, "jw", True)


def test_hea_structure():
    # [PAPER] 4 qubits, reps 1: 16 parameters, logical depth 7, 3 CX
    c = build_hea(4, 1)
    stats = circuit_stats(c)
    assert stats.n_parameters == 16
    assert stats.depth == 7
    assert stats.gate_counts["CX"] == 3
    assert stats.gate_counts["RY"] == 8 and stats.gate_counts["RZ"] == 8


def test_hea_transpiled_two_qubit_count():
    # [PAPER] transpiling the (4,1) ansatz onto a 4-qubit line keeps exactly
    # 3 two-qubit gates (now CZ)
    c = build_hea(4, 1)
    _, _, n_cz = transpile(c, [(0, 1), (1, 2), (2, 3)])
    assert n_cz == 3


def test_hea_reps_scaling():
    # [TRIVIAL] parameters: 2 n (reps+1); entangler count: (n-1) reps
    for n, reps in ((4, 0), (4, 3), (6, 2)):
        c = build_hea(n, reps)
        stats = circuit_stats(c)
        assert stats.n_parameters == 2 * n * (reps + 1)
        assert stats.gate_counts.get("CX", 0) == (n - 1) * reps
    with pytest.raises(AnsatzError):
        build_hea(4, -1)


def test_h2_uccsd_reaches_fci(h2_problem):
    # [DERIVED] 3-parameter UCCSD on 4 qubits minimizes to the FCI energy
    # (exact expectations, 1e-6)
    from scipy.optimize import minimize
    _, _, _, problem = h2_problem
    h = problem_to_pauli(problem, "jw", False)
    c = build_uccsd(1, 1, 2, "jw", False)
    names = c.parameter_names

    def energy(theta):
        return expectation_exact(h, run_circuit(c, dict(zip(names, theta))))

    res = minimize(energy, np.zeros(3), method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
    assert res.fun == pytest.approx(-1.1372838351103938, abs=1e-6)
