"""Circuit simulation, shot estimation, noise, and transpilation checks."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

import qve.circuit as circuit_module
from oracles import (circuit_unitary, pauli_label_matrix, pauli_sum_matrix,
                     run_fused_reference, run_operations_reference)
from qve.ansatz import build_hea, build_uccsd
from qve.basis import parse_geometry
from qve.circuit import (Circuit, CircuitError, EstimatorResult, Gate,
                         NoiseModel, ParamExpr, PauliRotation, TranspileError,
                         circuit_stats, derive_rng, estimate,
                         group_commuting_terms, inverse_circuit, run_circuit,
                         transpile)
from qve.pauli import DenseCapError, PauliSum, PauliTerm, expectation_exact
from qve.pipeline import problem_from_geometry, problem_to_pauli
from qve.zne import fold_circuit


def random_circuit(rng, n, depth):
    c = Circuit(n)
    for _ in range(depth):
        kind = rng.choice(["X", "H", "SqrtX", "RX", "RY", "RZ", "CX", "CZ", "SWAP"])
        if kind in ("CX", "CZ", "SWAP"):
            a, b = rng.choice(n, size=2, replace=False)
            c.add(Gate(kind, (int(a), int(b))))
        elif kind in ("RX", "RY", "RZ"):
            c.add(Gate(kind, (int(rng.integers(n)),), float(rng.uniform(0, 2 * np.pi))))
        else:
            c.add(Gate(kind, (int(rng.integers(n)),)))
    return c


# single-qubit reference matrices
def u_rz(t):
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


def u_ry(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def u_rx(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def embed(u1, q, n):
    """Kronecker embedding with qubit 0 least significant."""
    mat = np.eye(1, dtype=complex)
    for i in range(n):
        mat = np.kron(u1 if i == q else np.eye(2), mat)
    return mat


def test_single_qubit_gate_matrices():
    # [DERIVED] every 1-qubit gate vs its reference matrix via kron embedding;
    # every kind in the gate table without an angle has the one-flip form of
    # the statevector step: row i nonzero only at columns i and i ^ f
    t = 0.7321
    refs = {
        ("X", None): pauli_label_matrix("X"),
        ("H", None): np.array([[1, 1], [1, -1]]) / math.sqrt(2),
        ("SqrtX", None): 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]),
        ("RX", t): u_rx(t), ("RY", t): u_ry(t), ("RZ", t): u_rz(t),
    }
    for (kind, angle), ref in refs.items():
        for q in range(3):
            c = Circuit(3)
            c.add(Gate(kind, (q,), angle))
            np.testing.assert_allclose(circuit_unitary(c), embed(ref, q, 3), atol=1e-12)
    for kind, (m, takes_angle) in circuit_module._GATES.items():
        if not takes_angle:
            k = len(m).bit_length() - 1  # on qubits k-1..0 the step's rows are m's
            flip, _, (a, b) = circuit_module._gate_step(Gate(kind, tuple(range(k)[::-1])), k)
            i = np.arange(len(m))
            rebuilt = np.diag(a)
            rebuilt[i, flip] += b
            assert np.array_equal(rebuilt, m), kind


def test_two_qubit_gate_matrices():
    # [DERIVED] CX/CZ/SWAP truth tables on basis states
    c = Circuit(2)
    c.x(0).cx(0, 1)
    state = run_circuit(c)
    assert np.argmax(np.abs(state)) == 3  # |11>
    c = Circuit(2)
    c.x(1).cx(1, 0)
    assert np.argmax(np.abs(run_circuit(c))) == 3
    c = Circuit(2)
    c.x(0).swap(0, 1)
    assert np.argmax(np.abs(run_circuit(c))) == 2  # |10>
    cz = Circuit(2)
    cz.h(0).x(1).cz(0, 1)
    state = run_circuit(cz)
    # CZ flips the sign of |11> only
    assert state[2] == pytest.approx(1 / math.sqrt(2))
    assert state[3] == pytest.approx(-1 / math.sqrt(2))


def bit_rule_matrix(kind, a, b, n):
    """Dense matrix of CX(a, b), CZ(a, b) or SWAP(a, b) on n qubits, column by
    column from what the gate does to each basis index."""
    mat = np.zeros((1 << n, 1 << n))
    for i in range(1 << n):
        ba, bb = (i >> a) & 1, (i >> b) & 1
        if kind == "CX":
            mat[i ^ (ba << b), i] = 1.0
        elif kind == "CZ":
            mat[i, i] = -1.0 if ba and bb else 1.0
        else:  # SWAP
            mat[i ^ ((ba ^ bb) << a) ^ ((ba ^ bb) << b), i] = 1.0
    return mat


@pytest.mark.parametrize("kind", ["CX", "CZ", "SWAP"])
def test_two_qubit_gates_on_every_operand_order(kind):
    # [DERIVED] every ordered qubit pair on 3 qubits against the basis-index
    # bit rules: CX(a, b) flips b where a is set, CZ negates where both are
    # set, SWAP exchanges the two bits
    for a, b in itertools.permutations(range(3), 2):
        got = circuit_unitary(Circuit(3).add(Gate(kind, (a, b))))
        np.testing.assert_array_equal(got, bit_rule_matrix(kind, a, b, 3),
                                      err_msg=f"{kind}({a}, {b})")


def test_bell_state():
    # [DERIVED]
    c = Circuit(2)
    c.h(0).cx(0, 1)
    state = run_circuit(c)
    np.testing.assert_allclose(state, np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-12)


def test_param_expr():
    # [TRIVIAL] affine parameter references
    p = ParamExpr("a", 2.0, 0.5)
    assert p.resolve({"a": 1.5}) == pytest.approx(3.5)
    assert (-p).resolve({"a": 1.5}) == pytest.approx(-3.5)
    assert p.shifted(1.0).resolve({"a": 1.5}) == pytest.approx(4.5)
    with pytest.raises(CircuitError):
        p.resolve({})


def test_parameter_names_first_reference_order():
    # [TRIVIAL]
    c = Circuit(2)
    c.rz(ParamExpr("b"), 0).ry(ParamExpr("a"), 1).rz(ParamExpr("b"), 1)
    assert c.parameter_names == ["b", "a"]


def test_gate_validation():
    # [TRIVIAL]
    with pytest.raises(CircuitError):
        Gate("CX", (1, 1))
    with pytest.raises(CircuitError):
        Gate("RZ", (0,))  # missing angle
    with pytest.raises(CircuitError):
        Gate("H", (0,), 1.0)  # spurious angle
    with pytest.raises(CircuitError):
        Circuit(2).add(Gate("H", (2,)))
    with pytest.raises(CircuitError, match="unknown gate kind"):
        Gate("T", (0,))
    with pytest.raises(CircuitError, match="expects 2 qubit"):
        Gate("CZ", (0,))
    with pytest.raises(CircuitError, match="at least one qubit"):
        Circuit(0)


def test_pauli_rotation_matches_matrix_exponential():
    # [DERIVED] one rotation, run as a single operation and as its decomposed
    # gates, equals expm(i a P) with a = scale * t + offset, phase included
    rng = np.random.default_rng(11)
    for lbl in ("Y", "XY", "ZZ", "YIX", "XYZ", "IZY"):
        term = PauliTerm.from_label(lbl)
        angle = ParamExpr("t", float(rng.normal()), float(rng.normal()))
        rot = PauliRotation(term.x, term.z, angle)
        t = float(rng.uniform(-math.pi, math.pi))
        want = expm(1j * angle.resolve({"t": t}) * pauli_label_matrix(lbl))
        compiled = Circuit(len(lbl)).add(rot)
        np.testing.assert_allclose(circuit_unitary(compiled, {"t": t}), want, atol=1e-12)
        gates = Circuit(len(lbl)).extend(rot.decompose(len(lbl)))
        np.testing.assert_allclose(circuit_unitary(gates, {"t": t}), want, atol=1e-12)
    with pytest.raises(CircuitError):
        PauliRotation(0, 0, ParamExpr("t"))
    with pytest.raises(CircuitError):
        Circuit(2).add(PauliRotation(0b100, 0, ParamExpr("t")))


def test_fixed_angle_pauli_rotation_matches_bound_parameter():
    # [DERIVED] a Pauli rotation at a fixed angle 0.3 equals the same rotation
    # on a parameter bound to 0.3, within 1e-12, wherever its decomposed
    # gates are used: a noisy exact estimate, a fold (through the inverse
    # circuit) and a transpiled unitary; the statevector runs it as a stack
    # row at scale 0
    term = PauliTerm.from_label("XYZ")
    fixed = Circuit(3).h(0).add(PauliRotation(term.x, term.z, 0.3))
    bound = Circuit(3).h(0).add(PauliRotation(term.x, term.z, ParamExpr("t")))
    at = {"t": 0.3}
    h = PauliSum.from_labels([("ZZI", 0.5), ("XYZ", -0.25), ("IYX", 0.375)])
    noise = NoiseModel(p1=0.01, p2=0.02, readout01=0.01, readout10=0.03)
    np.testing.assert_allclose(run_circuit(fixed), run_circuit(bound, at), rtol=0, atol=1e-12)
    for f in (1, 3):
        want = estimate(fold_circuit(bound, f), at, h, 0, 0, noise=noise).mean
        got = estimate(fold_circuit(fixed, f), {}, h, 0, 0, noise=noise).mean
        assert got == pytest.approx(want, abs=1e-12)
    coupling = [(0, 1), (1, 2)]
    np.testing.assert_allclose(circuit_unitary(transpile(fixed, coupling)[0]),
                               circuit_unitary(transpile(bound, coupling)[0], at),
                               rtol=0, atol=1e-12)
    assert circuit_stats(fixed).gate_counts == circuit_stats(bound).gate_counts


def random_program_circuit(rng, n, depth):
    """Pauli rotations and parameterised gates with fixed gates after them,
    over parameters shared between operations."""
    c = Circuit(n).x(int(rng.integers(n)))
    for i in range(depth):
        name = f"t{rng.integers(3)}"
        scale, offset = (float(v) for v in rng.normal(size=2))
        if i % 3 == 0:
            x, z = (int(v) for v in rng.integers(1 << n, size=2))
            c.add(PauliRotation(x or 1, z, ParamExpr(name, scale, offset)))
        elif i % 3 == 1:
            kind = str(rng.choice(["RX", "RY", "RZ"]))
            c.add(Gate(kind, (int(rng.integers(n)),), ParamExpr(name, scale, offset)))
        else:
            c.extend(random_circuit(rng, n, 2).operations)
    return c


def uccsd_circuits(sectors):
    return [build_uccsd(*sector, m, t) for sector in sectors for m, t in ENCODINGS]


def program_circuits(rng):
    """UCCSD for BeH2 and H4 under every encoding, HEA, and random circuits in
    which fixed gates follow rotations."""
    circuits = uccsd_circuits([(1, 1, 3), (2, 2, 4)]) + [build_hea(4, 2), build_hea(6, 1)]
    return circuits + [random_program_circuit(rng, n, 12) for n in (2, 3, 5) for _ in range(3)]


def test_program_is_bit_identical_to_fused_reference():
    # [DERIVED] run_circuit and circuit_unitary (each basis column) equal the
    # plain fused-step reference bit for bit (array_equal) on the program
    # circuits; an unbound parameter raises CircuitError, on the noisy
    # engine too
    rng = np.random.default_rng(41)
    for c in program_circuits(rng):
        n = c.n_qubits
        names = c.parameter_names
        for theta in rng.uniform(-1.0, 1.0, (2, len(names))):
            bindings = dict(zip(names, theta))
            psi = np.eye(1, 1 << n, dtype=complex)[0]
            assert np.array_equal(run_circuit(c, bindings),
                                  run_fused_reference(c, bindings, psi))
            if n <= 6:
                cols = np.eye(1 << n, dtype=complex)
                assert np.array_equal(circuit_unitary(c, bindings),
                                      run_fused_reference(c, bindings, cols.T).T)
        with pytest.raises(CircuitError, match=f"unbound parameter '{names[-1]}'"):
            run_circuit(c, dict(zip(names[:-1], theta)))
        with pytest.raises(CircuitError, match=f"unbound parameter '{names[-1]}'"):
            estimate(c, dict(zip(names[:-1], theta)), PauliSum.from_labels([("Z" * n, 1.0)]),
                     0, 0, noise=NoiseModel(p1=0.01))
        with pytest.raises(CircuitError, match="unbound parameter"):
            circuit_unitary(c)


def test_program_matches_per_operation_reference():
    # [DERIVED] the fused program's state equals the per-operation reference
    # within 1e-13 on the program circuits and on H6 UCCSD under every
    # encoding (828 rotations); each UCCSD excitation is one stacked step, and
    # BeH2's HEA(4, 1) compiles to its 16 rotations as the rows of one stack,
    # which keeps one r per row (each is 1), and its 3 CX as fixed steps
    rng = np.random.default_rng(42)
    for c in program_circuits(rng) + uccsd_circuits([(3, 3, 6)]):
        names = c.parameter_names
        for theta in rng.uniform(-1.0, 1.0, (2, len(names))):
            bindings = dict(zip(names, theta))
            psi = np.eye(1, 1 << c.n_qubits, dtype=complex)[0]
            np.testing.assert_allclose(run_circuit(c, bindings),
                                       run_operations_reference(c, bindings, psi),
                                       rtol=0, atol=1e-13)
    for c in uccsd_circuits([(1, 1, 3), (2, 2, 4), (3, 3, 6)]):
        steps = circuit_module._compiled(c).steps
        assert sum(step[1] is not None for step in steps) == len(c.parameter_names)
    steps = circuit_module._compiled(build_hea(4, 1)).steps
    stacks = {id(step[1]): step[1] for step in steps if step[1] is not None}
    assert [(len(s.angles.positions), s.r.shape) for s in stacks.values()] == [(16, (16, 1))]
    assert sum(step[1] is None for step in steps) == 3 and len(steps) == 16 + 3


def test_fused_runs_match_matrix_exponentials():
    # [DERIVED] a circuit of Pauli rotations equals the product of their
    # expm(i a_j P_j) within 1e-12, and the program fuses exactly the runs on
    # one parameter, flip mask and offset/scale ratio whose words commute:
    # XX and YY with equal weights fuse (|w| = 0 on even parity); YY at
    # another ratio stands alone; YX anticommutes with YY; IX commutes with
    # ZX but on another parameter; XZ and XI at one ratio fuse with weights 1
    # and -1/2, and RX(t) on qubit 0, exp(i (-t/2) XI), joins them at that
    # ratio; each rotation of scale 0 stands alone, and so do a fixed RZ and a
    # CX between runs
    t = ParamExpr("t", 0.75, 0.375)
    ops = [("XX", t), ("YY", t), ("YY", ParamExpr("t", 1.0, 0.25)),
           ("YX", ParamExpr("t", 1.0, 0.25)), Gate("RZ", (1,), 0.3), Gate("CX", (0, 1)),
           ("ZX", ParamExpr("u", -1.25)),
           ("IX", ParamExpr("t", 0.5)), ("XZ", ParamExpr("t", 0.5, 0.125)),
           ("XI", ParamExpr("t", -0.25, -0.0625)), Gate("RX", (0,), ParamExpr("t", 0.5, 0.125)),
           ("XY", ParamExpr("t", 0.0, 0.8)), ("XY", ParamExpr("t", 0.0, 0.8))]
    c = Circuit(2).h(0)
    for op in ops:
        if isinstance(op, Gate):
            c.add(op)
        else:
            term = PauliTerm.from_label(op[0])
            c.add(PauliRotation(term.x, term.z, op[1]))
    assert len(circuit_module._compiled(c).steps) == 1 + 8 + 2
    at = {"t": 0.83, "u": -0.41}
    want = embed(np.array([[1, 1], [1, -1]]) / math.sqrt(2), 0, 2)
    for op in ops:
        if not isinstance(op, Gate):
            want = expm(1j * op[1].resolve(at) * pauli_label_matrix(op[0])) @ want
        elif op.kind == "CX":
            want = bit_rule_matrix("CX", 0, 1, 2) @ want
        elif op.kind == "RZ":
            want = embed(u_rz(op.angle), 1, 2) @ want
        else:
            want = embed(u_rx(op.angle.resolve(at)), 0, 2) @ want
    np.testing.assert_allclose(circuit_unitary(c, at), want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(run_circuit(c, at), want[:, 0], rtol=0, atol=1e-12)


def test_program_is_compiled_once_per_circuit(monkeypatch):
    # [DERIVED] a circuit compiles its program at its first run and reuses it
    # in run_circuit, circuit_unitary and estimate; add compiles it again, and
    # add on a copy leaves the original's program and states unchanged. The
    # cached state after the leading fixed gates is never handed out.
    builds = []
    original = circuit_module._compile
    monkeypatch.setattr(circuit_module, "_compile", lambda c: builds.append(1) or original(c))
    c = Circuit(2).x(0).h(1).add(PauliRotation(0b11, 0b01, ParamExpr("t", 0.7)))
    at = {"t": 0.3}
    h = PauliSum.from_labels([("ZZ", 0.5), ("XY", -0.25)])
    first = run_circuit(c, at)
    circuit_unitary(c, at)
    estimate(c, at, h, 64, 0)
    assert len(builds) == 1
    copy = c.copy()
    c.ry(ParamExpr("t"), 1)
    grown = run_circuit(c, at)
    assert len(builds) == 2 and not np.array_equal(grown, first)
    assert np.array_equal(run_circuit(copy, at), first) and len(builds) == 2
    copy.cz(0, 1)
    run_circuit(copy, at)
    assert len(builds) == 3
    assert np.array_equal(run_circuit(c, at), grown) and len(builds) == 3
    fixed = Circuit(2).x(0).h(1)
    state = run_circuit(fixed)
    state[:] = 0.0
    assert np.array_equal(run_circuit(fixed), np.array([0, 1, 0, 1]) / math.sqrt(2))


def test_inverse_circuit():
    # [DERIVED] U U^{-1} = identity for random circuits (including SqrtX)
    rng = np.random.default_rng(4)
    for _ in range(5):
        c = random_circuit(rng, 3, 12)
        full = c.copy().extend(inverse_circuit(c).gates)
        np.testing.assert_allclose(circuit_unitary(full), np.eye(8), atol=1e-10)


def test_estimate_exact_mode():
    # [TRIVIAL] shots=0 equals the dense expectation; with noise it is the
    # exact noisy expectation: depolarized X gives -(1 - 4p/3), symmetric
    # readout flips on |0> give 1 - 2p; a Hamiltonian on another qubit count
    # and negative shots are refused
    c = Circuit(2)
    c.h(0).cx(0, 1)
    h = PauliSum.from_labels([("ZZ", 1.0), ("XX", 0.5), ("II", 0.25)])
    r = estimate(c, {}, h, 0, 0)
    assert r.mean == pytest.approx(expectation_exact(h, run_circuit(c)), abs=1e-12)
    assert r.std_error == 0.0
    z = PauliSum.from_labels([("Z", 1.0)])
    p = 0.12
    r = estimate(Circuit(1).x(0), {}, z, 0, 0, noise=NoiseModel(p1=p))
    assert r.mean == pytest.approx(-(1 - 4 * p / 3), abs=1e-12)
    assert r.std_error == 0.0
    p = 0.05
    r = estimate(Circuit(1).rz(0.0, 0), {}, z, 0, 0,
                 noise=NoiseModel(readout01=p, readout10=p))
    assert r.mean == pytest.approx(1 - 2 * p, abs=1e-12)
    with pytest.raises(CircuitError, match="qubit-count mismatch"):
        estimate(c, {}, z, 0, 0)
    with pytest.raises(CircuitError, match="shots must be >= 0"):
        estimate(c, {}, h, -1, 0)


def test_estimate_deterministic_and_trivial_noise_identical():
    # [DERIVED] fixed seed reproduces bit-identically; an all-zero noise model
    # takes the same code path as no noise at all
    c = Circuit(2)
    c.h(0).cx(0, 1).ry(0.3, 1)
    h = PauliSum.from_labels([("ZZ", 1.0), ("XI", -0.4), ("YY", 0.2)])
    r1 = estimate(c, {}, h, 512, 7)
    r2 = estimate(c, {}, h, 512, 7)
    r3 = estimate(c, {}, h, 512, 7, noise=NoiseModel())
    assert r1 == r2 == r3


def test_estimate_statistics():
    # [DERIVED] shot mean converges to the exact value (5 sigma) and the
    # reported standard error shrinks like 1/sqrt(shots)
    c = Circuit(2)
    c.ry(0.8, 0).cx(0, 1)
    h = PauliSum.from_labels([("ZZ", 1.0), ("XX", 0.5)])
    exact = expectation_exact(h, run_circuit(c))
    r = estimate(c, {}, h, 40000, 3)
    assert abs(r.mean - exact) < 5 * r.std_error + 1e-12
    r_small = estimate(c, {}, h, 400, 3)
    assert r.std_error < r_small.std_error
    assert r.std_error == pytest.approx(r_small.std_error / 10, rel=0.5)


def test_grouping_is_qubit_wise_commuting():
    # [DERIVED] greedy groups: pairwise qubit-wise commuting, identity dropped,
    # every non-identity term placed exactly once
    h = PauliSum.from_labels([("II", 1.0), ("ZI", 0.1), ("IZ", 0.2), ("ZZ", 0.3),
                              ("XI", 0.4), ("XX", 0.5), ("YY", 0.6)])
    groups = group_commuting_terms(h)
    placed = [t.label() for g in groups for t in g]
    assert sorted(placed) == sorted(["ZI", "IZ", "ZZ", "XI", "XX", "YY"])
    for g in groups:
        for i, a in enumerate(g):
            for b in g[i + 1:]:
                for q in range(2):
                    pa = ((a.x >> q) & 1, (a.z >> q) & 1)
                    pb = ((b.x >> q) & 1, (b.z >> q) & 1)
                    assert pa == (0, 0) or pb == (0, 0) or pa == pb


ENCODINGS = [("jw", False), ("parity", False), ("bk", False), ("parity", True)]


def random_pauli_sums(seed, count):
    """Seeded sums of up to 24 random words on 1-6 qubits, identity included."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 7))
        items = {(int(rng.integers(1 << n)), int(rng.integers(1 << n))): complex(rng.normal())
                 for _ in range(int(rng.integers(1, 25)))}
        yield PauliSum(n, items)


def pairwise_first_fit(h):
    """Greedy first-fit grouping that compares a term's letters with those of
    every member of a group."""
    groups = []
    for t in h.terms():
        if t.weight == 0:
            continue
        for g in groups:
            if all(a == "I" or b == "I" or a == b
                   for u in g for a, b in zip(t.label(), u.label())):
                g.append(t)
                break
        else:
            groups.append([t])
    return groups


def test_grouping_matches_pairwise_first_fit(beh2_problem):
    # [DERIVED] the one-mask-test grouping equals first-fit grouping by
    # pairwise letter comparison, group by group and in order, on the four
    # BeH2 encodings and 200 seeded random sums
    sums = [problem_to_pauli(beh2_problem, m, t) for m, t in ENCODINGS]
    for h in sums + list(random_pauli_sums(21, 200)):
        assert group_commuting_terms(h) == pairwise_first_fit(h)


def basis_rotation(letters):
    """The plan's basis change for these letters as one dense unitary: the
    Kronecker product of each qubit's rotation, qubit 0 least significant."""
    mat = np.eye(1)
    for i in letters:
        mat = np.kron(circuit_module._basis_rotations()[i], mat)
    return mat


def z_string(label):
    """The label with every non-identity letter replaced by Z."""
    return "".join("I" if ch == "I" else "Z" for ch in label)


def test_basis_changes_turn_terms_into_z_strings(beh2_problem):
    # [DERIVED] each measurement group's basis change U, the rotation of its
    # letter on each qubit, and the entry gates of each term's Pauli
    # rotation, give U P U^dagger = the Z string on P's support for every
    # member term P (1e-12): the BeH2 encodings and 20 seeded random sums
    sums = [problem_to_pauli(beh2_problem, m, t) for m, t in ENCODINGS]
    for h in sums + list(random_pauli_sums(22, 20)):
        n = h.n_qubits
        plan = circuit_module._measurement_plan(h)
        for group, letters in zip(plan.groups, plan.letters):
            u = basis_rotation(letters)
            for t in group:
                rot = PauliRotation(t.x, t.z, ParamExpr("a")).decompose(n)
                enter = itertools.takewhile(
                    lambda g: g.kind != "CX" and not isinstance(g.angle, ParamExpr), rot)
                v = circuit_unitary(Circuit(n).extend(enter))
                p, z = pauli_label_matrix(t.label()), pauli_label_matrix(z_string(t.label()))
                for w in (u, v):
                    np.testing.assert_allclose(w @ p @ w.conj().T, z, rtol=0, atol=1e-12)


def test_readout_error_bias():
    # [DERIVED] measuring Z on |0> with symmetric readout flip p gives
    # mean 1 - 2p (exactly in expectation; 5 sigma statistically)
    c = Circuit(1)
    c.rz(0.0, 0)  # identity-equivalent gate so the circuit is non-empty
    h = PauliSum.from_labels([("Z", 1.0)])
    p = 0.05
    r = estimate(c, {}, h, 60000, 11, noise=NoiseModel(readout01=p, readout10=p))
    se = math.sqrt((1 - (1 - 2 * p) ** 2) / 60000)
    assert abs(r.mean - (1 - 2 * p)) < 5 * se


def test_depolarizing_bias():
    # [DERIVED] one X gate with 1-qubit depolarizing p: E[Z] = -(1 - 4p/3)
    c = Circuit(1)
    c.x(0)
    h = PauliSum.from_labels([("Z", 1.0)])
    p = 0.12
    r = estimate(c, {}, h, 60000, 5, noise=NoiseModel(p1=p))
    want = -(1 - 4 * p / 3)
    assert abs(r.mean - want) < 5 * math.sqrt((1 - want**2) / 60000)


def noisy_density_oracle(gates, n, noise, rho=None):
    """rho (|0...0><0...0| by default) after each gate's unitary and its
    explicit Kraus sum over the 4^k - 1 non-identity Pauli words on the
    gate's k qubits."""
    if rho is None:
        rho = np.zeros((1 << n, 1 << n), dtype=complex)
        rho[0, 0] = 1.0
    for g in gates:
        u = circuit_unitary(Circuit(n).add(g))
        rho = u @ rho @ u.conj().T
        k = len(g.qubits)
        p = noise.p1 if k == 1 else noise.p2
        words = []
        for letters in itertools.product("IXYZ", repeat=k):
            if set(letters) != {"I"}:
                label = ["I"] * n
                for q, ch in zip(g.qubits, letters):
                    label[q] = ch
                words.append(pauli_label_matrix("".join(label)))
        kraus = sum(w @ rho @ w for w in words)
        rho = (1 - p) * rho + p / (4**k - 1) * kraus
    return rho


def noisy_expectation_oracle(c, h, noise):
    """Each term measured on its own: X rotated by H, Y by RZ(-pi/2) then H
    (both noisy), readout folded into a diagonal observable per qubit."""
    n = c.n_qubits
    total = h.coefficient("I" * n).real
    readout = {0: 1 - 2 * noise.readout01, 1: -(1 - 2 * noise.readout10)}
    for t in h.terms():
        if t.weight == 0:
            continue
        gates = list(c.gates)
        for q, ch in enumerate(t.label()):
            if ch == "X":
                gates.append(Gate("H", (q,)))
            elif ch == "Y":
                gates += [Gate("RZ", (q,), -math.pi / 2), Gate("H", (q,))]
        rho = noisy_density_oracle(gates, n, noise)
        support = [q for q, ch in enumerate(t.label()) if ch != "I"]
        obs = [math.prod(readout[(b >> q) & 1] for q in support) for b in range(1 << n)]
        total += t.coefficient.real * float(np.real(np.diagonal(rho)) @ obs)
    return total


def test_noisy_exact_estimate_matches_density_oracle():
    # [DERIVED] shots=0 under gate and readout noise equals a dense oracle
    # built from one-gate unitaries and explicit Pauli Kraus sums (1e-12)
    rng = np.random.default_rng(17)
    noise = NoiseModel(p1=0.03, p2=0.08, readout01=0.02, readout10=0.07)
    labels = ["".join(w) for w in itertools.product("IXYZ", repeat=3)]
    for _ in range(4):
        c = random_circuit(rng, 3, 12)
        assert {len(g.qubits) for g in c.gates} == {1, 2}
        picks = rng.choice(labels, size=10, replace=False)
        h = PauliSum.from_labels([(str(lbl), float(rng.normal())) for lbl in picks])
        r = estimate(c, {}, h, 0, 0, noise=noise)
        assert r.mean == pytest.approx(noisy_expectation_oracle(c, h, noise), abs=1e-12)
        assert r.std_error == 0.0


def bound_gates(c, bindings):
    """The circuit's gate list with every parameter replaced by its value."""
    return [Gate(g.kind, g.qubits, g.angle.resolve(bindings))
            if isinstance(g.angle, ParamExpr) else g for g in c.gates]


def measured_letters(group, n):
    """Each qubit's letter in the group's terms, Z where none touches it."""
    letters = ["Z"] * n
    for t in group:
        for q, ch in enumerate(t.label()):
            if ch != "I":
                letters[q] = ch
    return letters


def confusion_oracle(n, noise):
    """The Kronecker product of every qubit's confusion matrix."""
    r01, r10 = noise.readout01, noise.readout10
    confusion = np.eye(1)
    for _ in range(n):
        confusion = np.kron(np.array([[1 - r01, r10], [r01, 1 - r10]]), confusion)
    return confusion


def distribution_oracle(rho, letters, noise):
    """One group's read-out distribution from dense matrices: the Kraus
    oracle's rho after the basis change (H for X, RZ(-pi/2) then H for Y,
    both noisy), its diagonal, then the Kronecker product of every qubit's
    confusion matrix."""
    gates = []
    for q, ch in enumerate(letters):
        if ch == "Y":
            gates.append(Gate("RZ", (q,), -math.pi / 2))
        if ch in "XY":
            gates.append(Gate("H", (q,)))
    probs = np.real(np.diagonal(noisy_density_oracle(gates, len(letters), noise, rho)))
    return confusion_oracle(len(letters), noise) @ probs


def pure_distribution_oracle(psi, letters, noise):
    """One group's read-out distribution of the pure state psi: |V psi|^2 for
    V the Kronecker product of each qubit's basis change (I for Z, H for X,
    H S^dagger for Y), then the Kronecker product of the confusion matrices."""
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    change = {"Z": np.eye(2), "X": hadamard, "Y": hadamard @ np.diag([1, -1j])}
    v = np.eye(1)
    for ch in letters:  # qubit 0 the least significant factor
        v = np.kron(change[ch], v)
    return confusion_oracle(len(letters), noise) @ np.abs(v @ psi) ** 2


def distributions(c, bindings, plan, noise):
    """The estimator's stacks of group distributions at one point, each
    (groups, 2^n)."""
    rows, _ = circuit_module._parameter_rows(c, bindings)
    return [probs[0] for probs in circuit_module._distributions(c, rows, plan, noise)]


@pytest.mark.parametrize("dense_cap", [circuit_module.DENSE_CAP, 3])
@pytest.mark.parametrize("noise", [None, NoiseModel(p1=0.03, p2=0.08),
                                   NoiseModel(readout01=0.02, readout10=0.07),
                                   NoiseModel(p1=0.03, p2=0.08, readout01=0.07, readout10=0.02)],
                         ids=["noiseless", "gates", "readout", "both"])
def test_group_distributions_match_dense_oracle(noise, dense_cap, monkeypatch):
    # [DERIVED] each group's read-out distribution, as the estimator computes
    # it, equals the dense oracle within 1e-12: random circuits with
    # parameters on 1-9 qubits without gate noise (across the read-out block
    # boundaries 4|5 and 8|9; the per-operation reference state) and on 1-6
    # with it (the Kraus oracle), random sums with Y terms, asymmetric
    # readout; a DENSE_CAP of 3 stacks the groups in chunks of 1 to 4
    monkeypatch.setattr(circuit_module, "DENSE_CAP", dense_cap)
    rng = np.random.default_rng(31)
    pure = noise is None or noise.p1 == noise.p2 == 0.0
    for n in range(1, 10 if pure else 7):
        c = random_circuit(rng, n, 4 * n) if n > 1 else Circuit(1).h(0).rz(0.3, 0).sx(0)
        c.ry(ParamExpr("a"), 0).rz(ParamExpr("a", -0.6, 0.2), n - 1).h(n - 1)
        bindings = {"a": float(rng.uniform(-np.pi, np.pi))}
        labels = {"".join(rng.choice(list("IXYZ"), size=n)) for _ in range(3 * n)}
        h = PauliSum.from_labels([(lbl, float(rng.normal())) for lbl in labels | {"Y" * n}])
        plan = circuit_module._measurement_plan(h)
        dists = np.concatenate(distributions(c, bindings, plan, noise))
        assert len(dists) == len(plan.groups)
        if pure:
            psi = run_operations_reference(c, bindings, np.eye(1, 1 << n, dtype=complex)[0])
        else:
            rho = noisy_density_oracle(bound_gates(c, bindings), n, noise)
        for group, probs in zip(plan.groups, dists):
            letters = measured_letters(group, n)
            want = (pure_distribution_oracle(psi, letters, noise or NoiseModel()) if pure
                    else distribution_oracle(rho, letters, noise))
            np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)


def test_block_plan_is_built_once_per_circuit_and_noise_model(monkeypatch):
    # [DERIVED] a circuit cuts its gates into noisy steps once per noise
    # model; add clears its plans, so it then estimates like a freshly built
    # circuit; add on a copy leaves the original's plan and result unchanged;
    # two noise models on one circuit each give a fresh circuit's result
    calls = []
    original = circuit_module._split
    monkeypatch.setattr(circuit_module, "_split",
                        lambda gates: calls.append(1) or original(gates))

    def build(grown=False):
        c = Circuit(3).h(0).cx(0, 1).ry(ParamExpr("a"), 2).cz(1, 2).rx(ParamExpr("b", 0.5), 0)
        return c.cx(2, 0).rz(ParamExpr("a", -1.0), 1) if grown else c

    h = PauliSum.from_labels([("ZZI", 0.6), ("XIY", -0.3), ("IYX", 0.2), ("ZIZ", 0.1)])
    noise = NoiseModel(p1=0.01, p2=0.05, readout01=0.02)
    other = NoiseModel(p1=0.04, p2=0.002)
    at = {"a": 0.7, "b": -0.4}
    c = build()
    first = estimate(c, at, h, 256, 3, noise=noise)
    assert estimate(c, {"a": -0.2, "b": 1.1}, h, 0, 0, noise=noise).mean != first.mean
    assert estimate(c, at, h, 256, 3, noise=noise) == first
    assert len(calls) == 1
    assert estimate(build(), at, h, 256, 3, noise=noise) == first

    grown = c.copy().cx(2, 0).rz(ParamExpr("a", -1.0), 1)
    result = estimate(grown, at, h, 256, 3, noise=noise)
    assert result == estimate(build(True), at, h, 256, 3, noise=noise)
    assert result.mean != first.mean
    calls.clear()
    assert estimate(c, at, h, 256, 3, noise=noise) == first
    assert calls == []

    c.cx(2, 0).rz(ParamExpr("a", -1.0), 1)
    assert estimate(c, at, h, 256, 3, noise=noise) == result
    assert len(calls) == 1
    want = {m: estimate(build(True), at, h, 0, 0, noise=m).mean for m in (noise, other)}
    calls.clear()
    for m in (other, noise, other):
        assert estimate(c, at, h, 0, 0, noise=m).mean == want[m]
    assert len(calls) == 1


def word_matrix(w, n):
    """The Pauli word at index sum_q 4^q d_q, d_q its letter's index in IXYZ
    on qubit q, as a dense matrix."""
    return pauli_label_matrix("".join("IXYZ"[(w >> 2 * q) & 3] for q in range(n)))


def pauli_vector_oracle(rho, n):
    """tr(Q rho) for every n-qubit word Q of the dense rho, in that index."""
    return np.array([np.sum(word_matrix(w, n).T * rho).real for w in range(4**n)])


def fused_density(c, bindings, noise):
    """The noisy engine's Pauli vector tr(Q rho) of the circuit's output."""
    return circuit_module._run_pauli(c, circuit_module._parameter_rows(c, bindings)[0], noise)[0]


def assert_matches_kraus_oracle(c, bindings, noise):
    n = c.n_qubits
    want = pauli_vector_oracle(noisy_density_oracle(bound_gates(c, bindings), n, noise), n)
    np.testing.assert_allclose(fused_density(c, bindings, noise), want, rtol=0, atol=1e-12)


def beh2_circuits():
    """(name, circuit, bindings): BeH2 UCCSD and HEA at random theta."""
    rng = np.random.default_rng(21)
    uccsd = build_uccsd(1, 1, 3, "parity", True)
    hea = build_hea(4, 1)
    return [(name, c, dict(zip(c.parameter_names,
                               rng.uniform(-0.5, 0.5, len(c.parameter_names)))))
            for name, c in (("uccsd", uccsd), ("hea", hea))]


def test_fused_density_matches_oracle_on_operand_orders_and_parameters():
    # [DERIVED] the Pauli vector of the noisy output equals tr(Q rho) of the
    # per-gate Kraus oracle (1e-12) for reversed and non-adjacent 2-qubit
    # operands, parameterised rotations and fixed non-Clifford angles, and
    # noise on 1-qubit gates only, on 2-qubit gates only, or on both
    c = Circuit(4)
    c.h(0).rx(ParamExpr("a"), 1).cx(2, 0).ry(ParamExpr("b", -0.7, 0.3), 3)
    c.swap(0, 3).rz(ParamExpr("a", 2.0), 0).cz(3, 1).sx(2).cx(1, 3)
    c.rz(ParamExpr("b"), 2).x(1).ry(0.4, 0).cx(0, 2).rx(-1.1, 3).swap(3, 1)
    bindings = {"a": 0.83, "b": -2.1}
    for noise in (NoiseModel(p1=0.04), NoiseModel(p2=0.09), NoiseModel(p1=0.02, p2=0.07)):
        assert_matches_kraus_oracle(c, bindings, noise)


def test_fused_density_matches_oracle_above_segment_span():
    # [DERIVED] on 5 qubits, above SEGMENT_SPAN, segments act on their own
    # qubits' axes, non-adjacent ones and consecutive ones at the bottom
    # (from qubit 0), in the middle and at the top (to qubit 4), and
    # rotations on every qubit, the first and last included: the Pauli vector
    # equals the Kraus oracle's (1e-12)
    rng = np.random.default_rng(9)
    c = random_circuit(rng, 5, 30)
    for q in range(5):
        c.ry(ParamExpr("a", 1.0 + q), q).cx(q, (q + 2) % 5).rz(ParamExpr("b", -0.5, q), q)
    c.cx(0, 1).h(2).cz(2, 1).rx(ParamExpr("a", 0.3), 4)
    c.swap(1, 3).sx(2).rz(ParamExpr("b"), 0)
    c.cz(4, 3).h(2).cx(3, 2).ry(ParamExpr("a", -0.8), 0)
    segments = [sorted({q for g in members for q in g.qubits})
                for clifford, members in circuit_module._split(c.gates) if clifford]
    assert max(map(len, segments)) == circuit_module.SEGMENT_SPAN
    assert any(qs[-1] - qs[0] >= len(qs) for qs in segments)  # some are not adjacent
    assert all(qs in segments for qs in ([0, 1, 2], [1, 2, 3], [2, 3, 4]))
    assert_matches_kraus_oracle(c, {"a": 0.61, "b": -1.3}, NoiseModel(p1=0.03, p2=0.06))


def one_qubit_steps(plan):
    """Each one-qubit step of a noisy plan as (qubit, its rotations in order)."""
    members = [[int(i)] for i in plan.first]
    for steps, rotations in plan.merged:
        for j, i in zip(steps, rotations):
            members[j].append(int(i))
    return [(step[0], members[step[1]]) for step in plan.steps if len(step) == 2]


def test_rotations_merge_across_steps_that_leave_their_qubit():
    # [DERIVED] a rotation joins the previous one-qubit step on its qubit when
    # no step since then acts on that qubit: across a segment on other qubits
    # and across other qubits' rotations, not across a gate on its qubit. On
    # 6 qubits: qubit 0's three rotations form one step, qubit 4's two do
    # not, nor qubit 1's, qubit 5's two do, and the Pauli vector equals the
    # Kraus oracle's (1e-12); BeH2 HEA runs 8 one-qubit steps, each layer's
    # RY and RZ on a qubit, and 1 segment, UCCSD 40 and 41
    c = Circuit(6)
    c.ry(ParamExpr("a"), 0).rx(ParamExpr("b"), 4).rz(0.4, 5).ry(ParamExpr("b", 0.5), 1)
    c.cx(1, 2).h(4).rz(ParamExpr("a", -1.0, 0.3), 0)  # a segment on 1, 2 and 4
    c.rz(ParamExpr("b"), 4).rx(ParamExpr("a"), 3).ry(ParamExpr("a", 2.0), 5)
    c.cz(2, 3).rx(ParamExpr("b", 0.7), 0).ry(ParamExpr("b"), 1)
    noise = NoiseModel(p1=0.03, p2=0.07)
    plan = circuit_module._noisy_plan(c, noise)
    assert one_qubit_steps(plan) == [(0, [0, 4, 8]), (4, [1]), (5, [2, 7]), (1, [3]),
                                     (4, [5]), (3, [6]), (1, [9])]
    assert sum(len(step) == 3 for step in plan.steps) == 2
    assert_matches_kraus_oracle(c, {"a": 0.83, "b": -1.4}, noise)
    for (name, beh2, _), want in zip(beh2_circuits(), ((40, 41), (8, 1))):
        plan = circuit_module._noisy_plan(beh2, noise)
        assert (len(one_qubit_steps(plan)), len(plan.steps) - len(one_qubit_steps(plan))) == want
        if name == "hea":
            assert all(len(m) == 2 for _, m in one_qubit_steps(plan))


@pytest.mark.parametrize("fold", [1, 3])
def test_fused_density_matches_oracle_on_beh2_ansatze(fold):
    # [DERIVED] BeH2 UCCSD and HEA at random theta, folded 1 and 3 times: the
    # Pauli vector equals the per-gate Kraus oracle's within 1e-12
    noise = NoiseModel(p1=0.002, p2=0.02)
    for _, c, bindings in beh2_circuits():
        assert_matches_kraus_oracle(fold_circuit(c, fold), bindings, noise)


def test_fused_density_matches_oracle_on_transpiled_uccsd():
    # [DERIVED] UCCSD lowered to {SqrtX, RZ, CZ} on a linear chain: the Pauli
    # vector equals the per-gate Kraus oracle's within 1e-12
    _, c, bindings = beh2_circuits()[0]
    t, _, _ = transpile(c, [(0, 1), (1, 2), (2, 3)])
    assert_matches_kraus_oracle(t, bindings, NoiseModel(p1=0.001, p2=0.01))


def test_clifford_transfer_is_the_dense_conjugation():
    # [DERIVED] each fixed kind, and RX/RY/RZ at multiples of pi/2, is stored
    # as a signed permutation R with U^dagger P_a U = R[a, b] P_b for its one
    # nonzero R[a, b], computed densely (1e-12); other angles are not Clifford
    cases = [(kind, None) for kind in ("X", "H", "SqrtX", "CX", "CZ", "SWAP")]
    cases += [(kind, k * math.pi / 2) for kind in ("RX", "RY", "RZ") for k in range(-2, 4)]
    for kind, angle in cases:
        k = 2 if kind in ("CX", "CZ", "SWAP") else 1
        u = circuit_unitary(Circuit(k).add(Gate(kind, tuple(range(k)), angle)))
        r, clifford = circuit_module._transfer(kind, angle)
        assert clifford
        assert set(np.unique(r)) <= {-1.0, 0.0, 1.0}
        assert (np.abs(r).sum(axis=1) == 1).all()
        for a in range(4**k):
            b = int(np.abs(r[a]).argmax())
            np.testing.assert_allclose(u.conj().T @ word_matrix(a, k) @ u,
                                       r[a, b] * word_matrix(b, k), rtol=0, atol=1e-12)
    for kind in ("RX", "RY", "RZ"):
        assert not circuit_module._transfer(kind, 0.3)[1]


def test_partition_invariants():
    # [DERIVED] the noisy steps keep every gate once and in order; a segment
    # is a run of fixed Clifford gates on at most SEGMENT_SPAN qubits that
    # ends only at a rotation step or where the next gate would make it span
    # more; every other step is one rotation by a parameter or a non-Clifford
    # angle; BeH2 UCCSD has 542 gates in 40 rotation steps and 41 segments,
    # HEA 19 in 16 and 1
    span = circuit_module.SEGMENT_SPAN
    rng = np.random.default_rng(4)
    cases = [(c, None) for c in (random_circuit(rng, 6, 60), random_circuit(rng, 2, 10))]
    cases += [(c, want) for (_, c, _), want in zip(beh2_circuits(), ((40, 41), (16, 1)))]
    for c, want in cases:
        steps = circuit_module._split(c.gates)
        assert [g for _, members in steps for g in members] == list(c.gates)
        for clifford, members in steps:
            fixed_clifford = [not isinstance(g.angle, ParamExpr)
                              and circuit_module._transfer(g.kind, g.angle)[1] for g in members]
            if clifford:
                assert all(fixed_clifford)
                assert len({q for g in members for q in g.qubits}) <= span
            else:
                assert len(members) == 1 and members[0].kind in ("RX", "RY", "RZ")
                assert not fixed_clifford[0]
        for (clifford, members), (next_clifford, after) in zip(steps, steps[1:]):
            if clifford and next_clifford:
                assert len({q for g in members + after[:1] for q in g.qubits}) > span
        if want is not None:
            assert (sum(not cl for cl, _ in steps), sum(cl for cl, _ in steps)) == want


def test_fold_five_compiles_no_new_segment():
    # [DERIVED] segments are cached by their gates, n and p: after folds 1 and
    # 3 of BeH2 UCCSD and HEA, fold 5 finds every segment in the cache, and
    # fold 3 reuses those of fold 1
    noise = NoiseModel(p1=0.001, p2=0.01)
    circuit_module._segment.cache_clear()
    for _, c, _ in beh2_circuits():
        circuit_module._noisy_plan(fold_circuit(c, 1), noise)
        before = circuit_module._segment.cache_info()
        circuit_module._noisy_plan(fold_circuit(c, 3), noise)
        after = circuit_module._segment.cache_info()
        assert after.hits > before.hits
        circuit_module._noisy_plan(fold_circuit(c, 5), noise)
        assert circuit_module._segment.cache_info().misses == after.misses


def test_noisy_estimate_peak_memory_is_bounded():
    # [DERIVED] at 8 qubits a noisy estimate, measurement included, allocates
    # at most the three copies of the Pauli vector's 8 * 4^n bytes that the
    # SIMULATOR_BYTES comment allows, plus 1 MiB (and so less than the three
    # copies of a 16 * 4^n-byte density matrix allowed before)
    n = 8
    c = build_hea(n, 2)
    bindings = dict(zip(c.parameter_names,
                        np.random.default_rng(2).uniform(-np.pi, np.pi, len(c.parameter_names))))
    h = PauliSum.from_labels([("Z" * n, 1.0), ("X" * n, 0.5), ("Y" * n, 0.25),
                              ("XY" * (n // 2), -0.3), ("I" * n, 0.1)])
    noise = NoiseModel(p1=0.001, p2=0.01, readout01=0.02, readout10=0.02)
    estimate(c, bindings, h, 64, 0, noise=noise)  # fill the caches first
    tracemalloc.start()
    try:
        estimate(c, bindings, h, 64, 0, noise=noise)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 16 * 4**n + 2**20
    assert peak < 3 * 8 * 4**n + 2**20


def test_noiseless_estimate_peak_memory_does_not_grow_with_groups():
    # [DERIVED] groups are stacked at most max(2^n, 2^DENSE_CAP) amplitudes at
    # a time: a 15-qubit estimate measured in 4 groups and in 64 groups peaks
    # within 10 % of each other
    n = 15
    c = build_hea(n, 1)
    bindings = dict(zip(c.parameter_names,
                        np.random.default_rng(5).uniform(-np.pi, np.pi, len(c.parameter_names))))
    rng = np.random.default_rng(6)
    few = PauliSum.from_labels([("Z" * n, 1.0), ("X" * n, 0.5), ("Y" * n, 0.25),
                                ("XY" * (n // 2) + "X", -0.3)])
    many = PauliSum.from_labels([("".join(rng.choice(list("XYZ"), size=n)), float(rng.normal()))
                                 for _ in range(64)])
    peaks = []
    for h, groups in ((few, 4), (many, 64)):
        assert len(circuit_module._measurement_plan(h).groups) == groups
        estimate(c, bindings, h, 64, 0)  # fill the caches first
        tracemalloc.start()
        try:
            estimate(c, bindings, h, 64, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 1.1 * min(peaks)


def test_noisy_sampled_mean_matches_exact_on_folded_uccsd(beh2_tapered):
    # [DERIVED] BeH2 UCCSD at fold 3 (1626 gates): the 4096-shot noisy mean
    # lies within 5 sigma of the exact noisy expectation
    c = fold_circuit(build_uccsd(1, 1, 3, "parity", True), 3)
    theta = np.random.default_rng(8).uniform(-0.1, 0.1, len(c.parameter_names))
    bindings = dict(zip(c.parameter_names, theta))
    noise = NoiseModel(p1=0.0002, p2=0.002)
    exact = estimate(c, bindings, beh2_tapered, 0, 0, noise=noise).mean
    r = estimate(c, bindings, beh2_tapered, 4096, 3, noise=noise)
    assert abs(r.mean - exact) < 5 * r.std_error


def uccsd_bindings(seed):
    c = build_uccsd(1, 1, 3, "parity", True)
    theta = np.random.default_rng(seed).uniform(-0.1, 0.1, len(c.parameter_names))
    return c, dict(zip(c.parameter_names, theta))


def test_counts_match_per_shot_energies(beh2_tapered):
    # [DERIVED] one generator, derive_rng(seed), draws one count vector per
    # group from the stacked rows of all groups' distributions in plan order;
    # each group's mean and unbiased variance equal those of the per-shot
    # energy list np.repeat(table, counts) (1e-12). At shots=1 the standard
    # error is 0.
    c, bindings = uccsd_bindings(4)
    n = c.n_qubits
    shots, seed = 1000, 6
    mean = beh2_tapered.coefficient("I" * n).real
    variance = 0.0
    plan = circuit_module._measurement_plan(beh2_tapered)
    probs = np.array([np.abs(basis_rotation(letters) @ run_circuit(c, bindings)) ** 2
                      for letters in plan.letters])
    counts = derive_rng(seed).multinomial(shots, probs / probs.sum(axis=1, keepdims=True))
    for row, table in zip(counts, plan.tables):
        assert row.sum() == shots
        energies = np.repeat(table, row)
        mean += energies.mean()
        variance += energies.var(ddof=1) / shots
    r = estimate(c, bindings, beh2_tapered, shots, seed)
    assert r.mean == pytest.approx(mean, abs=1e-12)
    assert r.std_error == pytest.approx(math.sqrt(variance), abs=1e-12)
    assert estimate(c, bindings, beh2_tapered, 1, seed).std_error == 0.0


@pytest.mark.parametrize("noise", [None, NoiseModel(p1=0.001, p2=0.01, readout01=0.02)],
                         ids=["noiseless", "noisy"])
def test_one_generator_across_stacks(beh2_tapered, noise, monkeypatch):
    # [DERIVED] the estimate draws every stack of groups from one generator in
    # plan order: with a DENSE_CAP of 5 (stacks of two groups) and of 3 (one
    # group per stack, outcome tables built per estimate) it equals, within
    # 1e-12, the single-stack estimate, and the draws equal one generator's
    # multinomial calls row by row; restarting the stream for each group
    # gives another mean
    c, bindings = uccsd_bindings(7)
    shots, seed = 500, 11
    whole = estimate(c, bindings, beh2_tapered, shots, seed, noise=noise)
    plan = circuit_module._measurement_plan(beh2_tapered)
    probs = np.concatenate(distributions(c, bindings, plan, noise))
    probs /= probs.sum(axis=1, keepdims=True)
    rng = derive_rng(seed)
    rows = np.array([rng.multinomial(shots, p) for p in probs])
    assert np.array_equal(rows, derive_rng(seed).multinomial(shots, probs))
    means = np.vecdot(rows, plan.tables) / shots
    assert whole.mean == pytest.approx(plan.identity + means.sum(), abs=1e-12)
    fresh = sum(derive_rng(seed).multinomial(shots, p) @ t for p, t in zip(probs, plan.tables))
    assert abs(plan.identity + fresh / shots - whole.mean) > 1e-6
    for dense_cap in (5, 3):
        monkeypatch.setattr(circuit_module, "DENSE_CAP", dense_cap)
        h = PauliSum.from_terms(beh2_tapered.terms())  # a plan at this cap
        stacks = distributions(c, bindings, plan, noise)
        assert [len(p) for p in stacks] == ([2, 2, 2, 1] if dense_cap == 5 else [1] * 7)
        r = estimate(c, bindings, h, shots, seed, noise=noise)
        assert (circuit_module._measurement_plan(h).tables is None) == (dense_cap == 3)
        assert r.mean == pytest.approx(whole.mean, abs=1e-12)
        assert r.std_error == pytest.approx(whole.std_error, abs=1e-12)


def test_sampled_means_are_unbiased_over_seeds(beh2_tapered):
    # [DERIVED] over 400 seeds at 256 shots, the mean of the noiseless and of
    # the readout-noisy UCCSD estimates lies within 4 standard errors of the
    # exact expectation (z-score), and the reported standard errors agree
    # with the seeds' spread within 20 %
    c, bindings = uccsd_bindings(12)
    for noise in (None, NoiseModel(readout01=0.03, readout10=0.05)):
        exact = estimate(c, bindings, beh2_tapered, 0, 0, noise=noise).mean
        results = [estimate(c, bindings, beh2_tapered, 256, seed, noise=noise)
                   for seed in range(400)]
        means = np.array([r.mean for r in results])
        errors = np.array([r.std_error for r in results])
        z = (means.mean() - exact) / (np.sqrt(np.mean(errors ** 2)) / math.sqrt(len(means)))
        assert abs(z) < 4.0
        assert 0.8 < means.std(ddof=1) / np.sqrt(np.mean(errors ** 2)) < 1.2


def test_terashot_estimate_is_cheap(beh2_tapered):
    # [DERIVED] 10^12 shots per group cost one count vector each: the estimate
    # returns well within a second and lies within 5 sigma of shots=0
    c, bindings = uccsd_bindings(5)
    exact = estimate(c, bindings, beh2_tapered, 0, 0).mean
    start = time.perf_counter()
    r = estimate(c, bindings, beh2_tapered, 10**12, 9)
    assert time.perf_counter() - start < 1.0
    assert r.shots == 10**12
    assert 0.0 < r.std_error < 1e-5
    assert abs(r.mean - exact) < 5 * r.std_error


def test_noisy_readout_sampled_means_match_exact(beh2_tapered):
    # [DERIVED] with gate and readout noise, the sampled mean of each of 20
    # seeds lies within 5 sigma of the exact noisy expectation (shots=0); at
    # 10^6 shots sigma is far below the readout bias, so every draw must come
    # from the distribution after readout
    c = build_hea(beh2_tapered.n_qubits, 1)
    theta = np.random.default_rng(3).uniform(-np.pi, np.pi, len(c.parameter_names))
    bindings = dict(zip(c.parameter_names, theta))
    noise = NoiseModel(p1=0.001, p2=0.01, readout01=0.02, readout10=0.03)
    exact = estimate(c, bindings, beh2_tapered, 0, 0, noise=noise).mean
    bare = estimate(c, bindings, beh2_tapered, 0, 0, noise=NoiseModel(p1=0.001, p2=0.01)).mean
    for seed in range(20):
        r = estimate(c, bindings, beh2_tapered, 10**6, seed, noise=noise)
        assert abs(r.mean - exact) < 5 * r.std_error
        assert abs(bare - exact) > 20 * r.std_error


def test_noisy_estimate_over_density_cap_is_refused():
    # [TRIVIAL] at 13 qubits three copies of the 512 MiB Pauli vector exceed
    # the 1 GiB byte cap: the noisy compile refuses them before any 4^n
    # array, allocating less than 1 MiB; 12 qubits (384 MiB) compile. The
    # compile comes before the measurement plan, so a sum of 27 groups,
    # whose outcome tables would hold 27 * 8 * 2^13 B = 1.7 MiB, is refused
    # within the same 1 MiB
    noise = NoiseModel(p1=0.01)
    c = Circuit(13).x(0)
    many = [("".join(word) + "I" * 10, 1.0) for word in itertools.product("XYZ", repeat=3)]
    for h in (PauliSum.from_labels([("Z" + "I" * 12, 1.0)]), PauliSum.from_labels(many)):
        tracemalloc.start()
        try:
            with pytest.raises(DenseCapError, match="noisy run on 13 qubits .* over the cap"):
                estimate(c, {}, h, 16, 0, noise=noise)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    assert len(circuit_module._noisy_plan(Circuit(12).x(0), noise).steps) == 1


def test_oversized_statevector_program_is_refused():
    # [DERIVED] a 40-qubit HEA program would hold 2^40-entry tables: run_circuit
    # and circuit_unitary refuse it with DenseCapError before any 2^n array,
    # allocating less than 1 MiB on the way
    c = build_hea(40, 1)
    bindings = dict.fromkeys(c.parameter_names, 0.1)
    tracemalloc.start()
    try:
        with pytest.raises(DenseCapError, match="statevector program of 199 steps on 40 qubits"):
            run_circuit(c, bindings)
        with pytest.raises(DenseCapError, match="over the cap"):
            circuit_unitary(c, bindings)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_measurement_plan_keyed_on_contents(monkeypatch):
    # [DERIVED] terms are grouped once per sum, whatever the circuit or noise
    calls = []
    original = circuit_module.group_commuting_terms
    monkeypatch.setattr(circuit_module, "group_commuting_terms",
                        lambda h: calls.append(1) or original(h))
    c = Circuit(2).h(0).cx(0, 1)
    h = PauliSum.from_labels([("ZZ", 0.731), ("XX", -0.269), ("II", 0.125)])
    first = estimate(c, {}, h, 64, 1)
    assert estimate(c, {}, h, 64, 1) == first
    estimate(Circuit(2).h(1), {}, h, 0, 0, noise=NoiseModel(p1=0.01))
    assert len(calls) == 1


def test_stacked_normalisation_matches_per_group(beh2_tapered, monkeypatch):
    # [DERIVED] each stack of distributions is C-ordered, and normalising it
    # with one sum per row gives, bit for bit, each group's own p / p.sum():
    # BeH2 UCCSD and HEA, noiseless, readout-only and noisy (clipped at 0),
    # all groups in one stack and, with a DENSE_CAP of 5, in stacks of two
    rng = np.random.default_rng(43)
    noises = [None, NoiseModel(readout01=0.02, readout10=0.05),
              NoiseModel(p1=0.001, p2=0.01, readout01=0.02, readout10=0.01)]
    plan = circuit_module._measurement_plan(beh2_tapered)
    for dense_cap in (circuit_module.DENSE_CAP, 5):
        monkeypatch.setattr(circuit_module, "DENSE_CAP", dense_cap)
        for c in (build_uccsd(1, 1, 3, "parity", True), build_hea(4, 1)):
            bindings = dict(zip(c.parameter_names,
                                rng.uniform(-1.0, 1.0, len(c.parameter_names))))
            for noise in noises:
                stacks = distributions(c, bindings, plan, noise)
                assert len(stacks) == (1 if dense_cap > 5 else 4)
                for probs in stacks:
                    assert probs.flags.c_contiguous
                    stacked = probs / probs.sum(axis=1, keepdims=True)
                    for row, p in zip(stacked, probs):
                        assert np.array_equal(row, p / p.sum())


H4_GEOMETRY = "units angstrom\n" + "".join(f"H 0 0 {0.9 * i}\n" for i in range(4))


@pytest.fixture(scope="module")
def h4_jw():
    h4, _ = problem_from_geometry(parse_geometry(H4_GEOMETRY))
    return problem_to_pauli(h4, "jw", False)


STACK_NOISES = [None, NoiseModel(readout01=0.02, readout10=0.05),
                NoiseModel(p1=0.001, p2=0.01, readout01=0.02, readout10=0.01)]


def assert_rows_equal_one_row_calls(c, h, rows, seeds, noise, sizes):
    """Each row of the stacked estimate (shots 0 and 4096) and run_circuit
    over the first k rows, k in sizes, equals its one-row call under ==."""
    names = c.parameter_names
    points = [dict(zip(names, row)) for row in rows]
    for shots in (0, 4096):
        want = [estimate(c, b, h, shots, s, noise=noise) for b, s in zip(points, seeds)]
        for k in sizes:
            assert estimate(c, rows[:k], h, shots, seeds[:k], noise=noise) == want[:k], (shots, k)
    if noise is None:
        states = run_circuit(c, rows)
        for k in sizes:
            assert all(np.array_equal(got, run_circuit(c, b))
                       for got, b in zip(run_circuit(c, rows[:k]), points))
        assert states.shape == (len(rows), 1 << c.n_qubits)


@pytest.mark.parametrize("noise", STACK_NOISES, ids=["noiseless", "readout", "gates"])
def test_stacked_rows_equal_one_row_calls(noise, beh2_tapered, h4_jw):
    # [DERIVED] a stack of parameter rows runs every step, read-out block and
    # draw with a leading row axis, each row from its own seed's generator,
    # so each row equals its one-row call bit for bit: UCCSD and HEA on BeH2
    # under tapered parity (4 qubits; stacks of 1, 3 and 52 in one chunk)
    # and on linear H4 under jw (8 qubits: two read-out blocks, noisy
    # segments on non-adjacent qubits, and one row per chunk; UCCSD under
    # gate noise in stacks of 1 and 2), shots 0 and 4096
    rng = np.random.default_rng(45)
    cases = [(build_uccsd(1, 1, 3, "parity", True), beh2_tapered, 52),
             (build_hea(4, 1), beh2_tapered, 52),
             (build_hea(8, 1), h4_jw, 3 if noise and noise.p2 else 52),
             (build_uccsd(2, 2, 4, "jw", False), h4_jw, 2 if noise and noise.p2 else 52)]
    for c, h, count in cases:
        rows = rng.uniform(-0.5, 0.5, (count, len(c.parameter_names)))
        seeds = [int(s) for s in rng.integers(0, 1 << 32, count)]
        sizes = [k for k in (1, 3, 52) if k <= count] + ([count] if count < 3 else [])
        assert_rows_equal_one_row_calls(c, h, rows, seeds, noise, sizes)


@pytest.mark.parametrize("noise", STACK_NOISES, ids=["noiseless", "readout", "gates"])
def test_stack_is_cut_into_chunks_under_a_small_cap(noise, beh2_tapered, monkeypatch):
    # [DERIVED] with a DENSE_CAP of 9, a chunk holds at most 2^9 values in
    # its widest array: BeH2 UCCSD's rotation tables (8 steps x 16) and
    # group stacks (7 x 16) make chunks of 4 rows, the noisy Pauli vector
    # (256) chunks of 2; the 52-row stack runs as 13 or 26 chunks, and each
    # row still equals its one-row call
    monkeypatch.setattr(circuit_module, "DENSE_CAP", 9)
    c = build_uccsd(1, 1, 3, "parity", True)  # compiled under the cap
    rows = np.random.default_rng(46).uniform(-0.5, 0.5, (52, len(c.parameter_names)))
    seeds = list(range(200, 252))
    chunks, steps = [], []
    estimate_rows, run_steps = circuit_module._estimate_rows, circuit_module._run_steps

    def counted_run_steps(state, todo, theta):
        if theta is not None:  # the compile's prefix has no parameters
            steps.append(len(theta))
        return run_steps(state, todo, theta)

    monkeypatch.setattr(circuit_module, "_estimate_rows",
                        lambda c, params, *args: chunks.append(len(params)) or
                        estimate_rows(c, params, *args))
    monkeypatch.setattr(circuit_module, "_run_steps", counted_run_steps)
    estimate(c, rows, beh2_tapered, 4096, seeds, noise=noise)
    per_chunk = 2 if noise and noise.p2 else 4
    assert chunks == [per_chunk] * (52 // per_chunk)
    assert steps == ([] if noise and noise.p2 else [4] * 13)
    assert_rows_equal_one_row_calls(c, beh2_tapered, rows, seeds, noise, [3, 52])


@pytest.mark.parametrize("noise", STACK_NOISES, ids=["noiseless", "readout", "gates"])
def test_exact_mode_derives_no_generator(noise, beh2_tapered, monkeypatch):
    # [DERIVED] at shots 0 nothing is drawn, so a stacked estimate runs with
    # derive_rng raising, and its rows equal the one-row calls made with it
    c = build_hea(4, 1)
    rows = np.random.default_rng(48).uniform(-0.5, 0.5, (5, len(c.parameter_names)))
    want = [estimate(c, dict(zip(c.parameter_names, row)), beh2_tapered, 0, 0, noise=noise)
            for row in rows]

    def no_generator(*args):
        raise AssertionError("shots 0 draws nothing")

    monkeypatch.setattr(circuit_module, "derive_rng", no_generator)
    assert estimate(c, rows, beh2_tapered, 0, [0] * 5, noise=noise) == want


def test_parameter_stack_shape_and_seeds_are_checked(beh2_tapered):
    # [TRIVIAL] a stack is (rows >= 1, parameters) with one seed per row;
    # anything else is refused with CircuitError before it runs
    c = build_hea(4, 1)
    good = np.zeros((2, 16))
    for bad in (np.zeros(16), np.zeros((2, 15)), np.zeros((0, 16)), np.zeros((1, 2, 16))):
        with pytest.raises(CircuitError, match="parameter stack must have shape"):
            estimate(c, bad, beh2_tapered, 16, [1], noise=None)
        with pytest.raises(CircuitError, match="parameter stack must have shape"):
            run_circuit(c, bad)
    with pytest.raises(CircuitError, match="2 parameter rows need as many seeds, got 3"):
        estimate(c, good, beh2_tapered, 16, [1, 2, 3])


def test_outcome_tables_match_dense_oracle(beh2_tapered):
    # [DERIVED] each group's outcome table is the diagonal of U_g H_g U_g^dagger,
    # with U_g the group's basis change and H_g the dense matrix of its terms,
    # for BeH2 (tapered parity) and H4 under JW, within 1e-12
    h4, _ = problem_from_geometry(parse_geometry(H4_GEOMETRY))
    for h in (beh2_tapered, problem_to_pauli(h4, "jw", False)):
        n = h.n_qubits
        plan = circuit_module._measurement_plan(h)
        assert len(plan.groups) > 1
        for group, letters, table in zip(plan.groups, plan.letters, plan.tables):
            u = basis_rotation(letters)
            h_g = pauli_sum_matrix(PauliSum.from_terms(list(group)))
            diag = np.diagonal(u @ h_g @ u.conj().T)
            np.testing.assert_allclose(table, diag.real, rtol=0, atol=1e-12)
            assert np.abs(diag.imag).max() < 1e-12


def test_estimate_above_dense_cap_keeps_no_tables():
    # [DERIVED] a 15-qubit noiseless estimate runs; its plan stores no outcome
    # table (each call builds and drops them), and the estimate is exact on
    # this eigenstate: <Z0> = -1 on |1>, <X3> = +1 on |+>
    n = 15
    c = Circuit(n).x(0).h(3)
    h = PauliSum.from_labels([("Z" + "I" * (n - 1), 0.5), ("III" + "X" + "I" * (n - 4), 0.25),
                              ("Z" + "I" * (n - 2) + "Z", -0.125)])
    r = estimate(c, {}, h, 64, 0)
    assert r.mean == pytest.approx(-0.5 + 0.25 + 0.125, abs=1e-12)
    assert r.std_error == 0.0
    assert circuit_module._measurement_plan(h).tables is None


def test_noise_model_validation():
    # [TRIVIAL]
    with pytest.raises(CircuitError):
        NoiseModel(p1=-0.1)
    with pytest.raises(CircuitError):
        NoiseModel(readout01=1.5)


def test_transpile_preserves_unitary():
    # [DERIVED] lowering + routing is unitarily equivalent up to global phase
    rng = np.random.default_rng(9)
    line = [(0, 1), (1, 2), (2, 3)]
    for _ in range(4):
        c = random_circuit(rng, 4, 10)
        out, depth, n2q = transpile(c, line)
        u0 = circuit_unitary(c)
        u1 = circuit_unitary(out)
        phase = u1[0, 0] / u0[0, 0] if abs(u0[0, 0]) > 1e-9 else \
            (u1.flatten()[np.argmax(np.abs(u0))] / u0.flatten()[np.argmax(np.abs(u0))])
        np.testing.assert_allclose(u1, phase * u0, atol=1e-9)
        assert {g.kind for g in out.gates} <= {"SqrtX", "RZ", "CZ"}
        assert depth >= 1 and n2q >= 0


def test_transpile_cx_costs_one_cz():
    # [DERIVED] adjacent CX lowers to exactly one CZ
    c = Circuit(2)
    c.cx(0, 1)
    out, _, n_cz = transpile(c, [(0, 1)])
    assert n_cz == 1


def test_transpile_routes_distant_cx():
    # [DERIVED] CX between line ends routes via SWAPs there and back:
    # 2 SWAPs (3 CZ each) + 1 CZ = 7 on a 3-qubit line
    c = Circuit(3)
    c.cx(0, 2)
    out, _, n_cz = transpile(c, [(0, 1), (1, 2)])
    assert n_cz == 7
    u0 = circuit_unitary(c)
    u1 = circuit_unitary(out)
    phase = u1[0, 0] / u0[0, 0]
    np.testing.assert_allclose(u1, phase * u0, atol=1e-9)


def test_transpile_rejects_bad_coupling():
    # [TRIVIAL]
    c = Circuit(3)
    c.cx(0, 2)
    with pytest.raises(TranspileError):
        transpile(c, [(0, 1)])  # qubit 2 disconnected
    with pytest.raises(TranspileError):
        transpile(Circuit(3).h(2), [(0, 1)])  # no gate needs routing
    with pytest.raises(TranspileError):
        transpile(c, [(0, 5)])


def test_circuit_stats_depth():
    # [TRIVIAL] parallel gates share a level; two-qubit gates join levels
    c = Circuit(3)
    c.h(0).h(1).cx(0, 1).rz(0.1, 2)
    s = circuit_stats(c)
    assert s.depth == 2
    assert s.gate_counts == {"H": 2, "CX": 1, "RZ": 1}


def test_derive_rng_streams_independent():
    # [TRIVIAL] distinct counters give distinct deterministic streams
    a = derive_rng(42, 0).random(4)
    b = derive_rng(42, 1).random(4)
    a2 = derive_rng(42, 0).random(4)
    np.testing.assert_array_equal(a, a2)
    assert not np.allclose(a, b)


def test_estimator_result_fields():
    # [TRIVIAL]
    r = EstimatorResult(1.0, 0.1, 100, 7)
    assert (r.mean, r.std_error, r.shots, r.seed) == (1.0, 0.1, 100, 7)
