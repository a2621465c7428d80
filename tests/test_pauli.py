"""Pauli algebra checks against an independent Kronecker-product oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pauli_label_matrix, pauli_sum_matrix, restricted_coo_reference
from qve import pauli
from qve.basis import parse_geometry
from qve.mapping import sector_basis
from qve.pauli import (DenseCapError, LanczosError, PauliError, PauliSum, PauliTerm,
                       exact_ground_energy, expectation_exact)
from qve.pipeline import load_fixture, problem_from_geometry, problem_to_pauli

labels = st.text(alphabet="IXYZ", min_size=1, max_size=5)


def solver_matrix(h):
    """h assembled densely from the exact solver's sparse triples over all
    2^n basis states."""
    dim = 1 << h.n_qubits
    rows, cols, vals = pauli._restricted_coo(h, np.arange(dim))
    mat = np.zeros((dim, dim), dtype=complex)
    mat[rows, cols] = vals
    return mat


def test_label_round_trip():
    # [TRIVIAL] symplectic storage must reproduce the label exactly
    for lbl in ("I", "X", "Y", "Z", "XYZI", "YYZX", "IIII"):
        assert PauliTerm.from_label(lbl).label() == lbl
    with pytest.raises(PauliError, match="invalid Pauli letter 'Q'"):
        PauliTerm.from_label("XQ")


def test_from_label_keeps_the_label_coefficient():
    # [TRIVIAL] a term stores the coefficient of its label word, Ys included
    assert PauliTerm.from_label("YY", 2.0).coefficient == 2.0


@given(labels)
@settings(max_examples=60, deadline=None)
def test_term_matrix_matches_kron_oracle(lbl):
    # [DERIVED] the exact solver's sparse realization and the oracle's signed
    # permutation vs independent Kronecker assembly
    h = PauliSum.from_terms([PauliTerm.from_label(lbl, 1.0)])
    np.testing.assert_allclose(solver_matrix(h), pauli_label_matrix(lbl), atol=1e-12)
    np.testing.assert_array_equal(pauli_sum_matrix(h), pauli_label_matrix(lbl))


def test_sum_matrix_matches_oracle():
    # [DERIVED] linear combination in the exact solver's sparse realization
    # vs oracle assembly
    h = PauliSum.from_labels([("XZ", 0.5), ("YI", -1.25), ("ZZ", 2.0), ("II", 3.0)])
    np.testing.assert_allclose(solver_matrix(h), pauli_sum_matrix(h), atol=1e-12)


def test_from_terms_cancellation():
    # [TRIVIAL] exact cancellation removes the term; an empty term list and
    # terms on different qubit counts are refused
    h = PauliSum.from_labels([("XY", 1.0), ("XY", -1.0)])
    assert len(h) == 0
    with pytest.raises(PauliError, match="empty term list"):
        PauliSum.from_terms([])
    with pytest.raises(PauliError, match="qubit-count mismatch"):
        PauliSum.from_terms([PauliTerm.from_label("XY"), PauliTerm.from_label("XYZ")])


def test_weight():
    # [TRIVIAL]
    assert PauliTerm.from_label("IXYZ").weight == 3
    assert PauliTerm.from_label("III").weight == 0


def test_dagger_and_hermiticity():
    # [DERIVED] is_hermitian agrees with the oracle matrix and its conjugate
    # transpose: a complex label coefficient makes the sum non-Hermitian
    h = PauliSum.from_labels([("XY", 1 + 2j), ("ZI", -0.5)])
    m = pauli_sum_matrix(h)
    assert np.abs(m - m.conj().T).max() > 1.0
    assert not h.is_hermitian()
    h = PauliSum.from_labels([("XY", 2.0), ("ZI", -0.5)])
    m = pauli_sum_matrix(h)
    np.testing.assert_allclose(m, m.conj().T, rtol=0, atol=1e-12)
    assert h.is_hermitian()


def test_coefficient_lookup():
    # [TRIVIAL] label-basis coefficient retrieval
    h = PauliSum.from_labels([("YZ", 1.5), ("XX", -2.0)])
    assert h.coefficient("YZ") == pytest.approx(1.5)
    assert h.coefficient("XX") == pytest.approx(-2.0)
    assert h.coefficient("ZZ") == 0.0


def test_exact_ground_energy_transverse_pair():
    # [DERIVED] H = -Z0 Z1 - 0.5 X0: analytic ground energy -sqrt(1 + 0.25)
    h = PauliSum.from_labels([("ZZ", -1.0), ("XI", -0.5)])
    e, v = exact_ground_energy(h)
    assert e == pytest.approx(-np.sqrt(1.25), abs=1e-12)
    np.testing.assert_allclose(pauli_sum_matrix(h) @ v, e * v, atol=1e-10)
    # the zero sum has no matrix entries, and its ground energy is 0
    assert exact_ground_energy(PauliSum.zero(2))[0] == 0.0


def test_exact_ground_energy_rejects_non_hermitian():
    # [TRIVIAL]
    with pytest.raises(PauliError):
        exact_ground_energy(PauliSum.from_labels([("X", 1j)]))


def test_exact_ground_energy_over_cap_is_refused():
    # [TRIVIAL] 2^15 states exceed SECTOR_CAP: refused before any allocation
    with pytest.raises(DenseCapError, match="15 qubits"):
        exact_ground_energy(PauliSum.from_labels([("Z" * 15, 1.0)]))


MIXED = PauliSum.from_labels([("XYZ", 0.3), ("YXZ", -0.3), ("ZZI", -1.1),
                              ("XIX", 0.4), ("IYY", 0.25), ("ZIZ", 0.7)])


@pytest.mark.parametrize("dense_max", [1024, 1])
def test_exact_ground_energy_on_a_basis_is_the_projected_block(monkeypatch, dense_max):
    # [DERIVED] on a basis subset the solver diagonalizes the oracle matrix's
    # block on those states, complex entries included; dense_max 1 forces the
    # Lanczos path
    monkeypatch.setattr(pauli, "DENSE_SOLVE_MAX", dense_max)
    basis = np.array([0, 3, 5, 6, 7])
    block = pauli_sum_matrix(MIXED)[np.ix_(basis, basis)]
    assert np.abs(block.imag).max() > 0.1
    e, v = exact_ground_energy(MIXED, basis)
    assert e == pytest.approx(np.linalg.eigvalsh(block)[0], abs=1e-12)
    np.testing.assert_allclose(block @ v, e * v, atol=1e-9)


@pytest.fixture(scope="module")
def h_chains():
    """Linear H2 (0.74 angstrom), H4 and H6 (0.9 and 1.5 angstrom) problems."""
    out = {}
    for n, bond in ((2, 0.74), (4, 0.9), (4, 1.5), (6, 0.9), (6, 1.5)):
        geom = "units angstrom\n" + "".join(f"H 0 0 {i * bond}\n" for i in range(n))
        out[(n, bond)] = problem_from_geometry(parse_geometry(geom))[0]
    return out


ENCODINGS = [("jw", False), ("bk", False), ("parity", False), ("parity", True)]


@pytest.mark.parametrize("mapper, taper", ENCODINGS)
def test_sector_solver_matches_full_dense_on_beh2(beh2_problem, mapper, taper):
    # [DERIVED] BeH2's (1, 1) ground state is the global minimum: the 9-state
    # sector solve matches eigh of the oracle matrix over all 2^n states
    h = problem_to_pauli(beh2_problem, mapper, taper)
    basis = sector_basis(3, 1, 1, mapper, taper)
    e, _ = exact_ground_energy(h, basis)
    assert len(basis) == 9
    assert e == pytest.approx(np.linalg.eigvalsh(pauli_sum_matrix(h))[0], abs=1e-10)


@pytest.mark.parametrize("chain", [(2, 0.74), (4, 0.9), (4, 1.5), (6, 0.9), (6, 1.5)])
def test_sector_solver_matches_full_dense_on_hydrogen_chains(h_chains, chain):
    # [DERIVED] the half-filled sector holds the ground state of a hydrogen
    # chain: tapered parity and jw sector solves agree with eigvalsh of the
    # oracle matrix over all 2^n tapered states (1024 for H6)
    problem = h_chains[chain]
    n, k = problem.n_spatial, problem.n_alpha
    tapered = problem_to_pauli(problem, "parity", True)
    full = np.linalg.eigvalsh(pauli_sum_matrix(tapered))[0]
    for mapper, taper in (("parity", True), ("jw", False)):
        h = tapered if taper else problem_to_pauli(problem, mapper, taper)
        e, _ = exact_ground_energy(h, sector_basis(n, k, k, mapper, taper))
        assert e == pytest.approx(full, abs=1e-10)


def test_lanczos_matches_dense_on_h6_sector(h_chains, monkeypatch):
    # [DERIVED] the Lanczos branch reproduces the dense branch on the
    # 400-state H6 sector, eigenvector included
    problem = h_chains[(6, 0.9)]
    h = problem_to_pauli(problem, "parity", True)
    basis = sector_basis(6, 3, 3, "parity", True)
    assert len(basis) == 400
    e_dense, v_dense = exact_ground_energy(h, basis)
    monkeypatch.setattr(pauli, "DENSE_SOLVE_MAX", 100)
    e_lanczos, v_lanczos = exact_ground_energy(h, basis)
    assert e_lanczos == pytest.approx(e_dense, abs=1e-10)
    assert abs(np.vdot(v_dense, v_lanczos)) == pytest.approx(1.0, abs=1e-8)


def assert_same_triples(got, want):
    """Equal dtypes and entries in the same order, which Lanczos's matvec
    sums in."""
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("mapper, taper", ENCODINGS)
def test_restricted_coo_matches_term_loop(beh2_problem, hchain_fixtures, mapper, taper):
    # [DERIVED] the grouped sign arrays give the term-by-term loop's triples
    # exactly, on the bundled fixture and on `qve hamiltonian`'s H2, H4 and
    # H6 fixtures, with one block or many
    problems = [beh2_problem] + [load_fixture(hchain_fixtures[n]) for n in (2, 4, 6)]
    for problem in problems:
        h = problem_to_pauli(problem, mapper, taper)
        basis = sector_basis(problem.n_spatial, problem.n_alpha, problem.n_beta, mapper, taper)
        want = restricted_coo_reference(h, basis)
        assert_same_triples(pauli._restricted_coo(h, basis), want)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pauli, "COO_BLOCK", 7)
            assert_same_triples(pauli._restricted_coo(h, basis), want)


def test_restricted_coo_matches_term_loop_on_complex_sums():
    # [DERIVED] complex coefficients, Y words and x masks that first appear
    # out of sorted order give the loop's triples too
    rng = np.random.default_rng(3)
    words = ["".join(rng.choice(list("IXYZ"), 6)) for _ in range(60)]
    h = PauliSum.from_labels([(w, complex(rng.normal(), rng.normal())) for w in words])
    basis = np.sort(rng.choice(64, 40, replace=False))
    assert_same_triples(pauli._restricted_coo(h, basis), restricted_coo_reference(h, basis))


def test_restricted_coo_on_h8_sector_holds_one_block(hchain_fixtures, monkeypatch):
    # [DERIVED] the (4, 4) sector of linear H8 (4900 states, solved by
    # Lanczos) gives the loop's triples, and with 4096-entry blocks the peak
    # beyond the unfiltered and the returned triples (55 MiB) stays under
    # 2 MiB: the nonzero mask (0.9 MiB) and one block; an unblocked (x masks
    # x states) search alone holds 60 MiB
    problem = load_fixture(hchain_fixtures[8])
    h = problem_to_pauli(problem, "jw", False)
    basis = sector_basis(8, 4, 4, "jw", False)
    assert len(basis) == 4900 > pauli.DENSE_SOLVE_MAX
    want = restricted_coo_reference(h, basis)
    monkeypatch.setattr(pauli, "COO_BLOCK", 1 << 12)
    tracemalloc.start()
    try:
        got = pauli._restricted_coo(h, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_triples(got, want)
    assert peak - 2 * sum(a.nbytes for a in got) < 2 << 20


def test_expectation_exact_matches_quadratic_form():
    # [DERIVED] <psi|H|psi> vs dense quadratic form on a random state
    rng = np.random.default_rng(7)
    h = PauliSum.from_labels([("XZY", 0.3), ("ZII", -1.1), ("YYX", 0.25)])
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    expected = np.vdot(psi, pauli_sum_matrix(h) @ psi).real
    assert expectation_exact(h, psi) == pytest.approx(expected, abs=1e-12)


def test_expectation_exact_rejects_unnormalized():
    # [TRIVIAL] an unnormalized state, and a state of another dimension
    h = PauliSum.from_labels([("Z", 1.0)])
    with pytest.raises(PauliError):
        expectation_exact(h, np.array([1.0, 1.0]))
    with pytest.raises(PauliError, match="state dimension mismatch"):
        expectation_exact(h, np.array([1.0, 0.0, 0.0, 0.0]))


def test_lanczos_step_limit_raises():
    # [TRIVIAL] 3 steps cannot resolve a 50-level diagonal: an error, not an
    # unconverged Ritz value
    idx = np.arange(50)
    with pytest.raises(LanczosError, match="3 steps"):
        pauli._lanczos(idx, idx, np.arange(50.0), 50, max_steps=3)
