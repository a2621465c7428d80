"""Second-quantization checks against explicit occupation-basis matrices."""

import numpy as np
import pytest

import oracles
from qve.fermion import (ANNIHILATE, CREATE, FermionError, FermionOperator, build_hamiltonian,
                        hartree_fock_occupation, multiply)
from qve.pipeline import load_fixture
from qve.scf import spin_orbital_expand


def random_string(rng, n_modes, length):
    return tuple((int(rng.integers(n_modes)), bool(rng.integers(2)))
                 for _ in range(length))


def test_normal_ordering_matches_dense_products():
    # [DERIVED] normal-ordered storage of random raw strings vs explicit
    # ladder-matrix products (1e-12)
    rng = np.random.default_rng(11)
    n = 4
    for _ in range(40):
        factors = random_string(rng, n, int(rng.integers(1, 5)))
        coeff = complex(rng.normal(), rng.normal())
        op = FermionOperator.from_term(n, factors, coeff)
        expected = coeff * np.eye(1 << n)
        for mode, create in factors:
            expected = expected @ oracles.ladder_matrix(n, mode, create)
        np.testing.assert_allclose(oracles.fermion_matrix(op), expected, atol=1e-12)


def test_anticommutation_relations():
    # [DERIVED] {a_p, a_q^+} = delta_pq, {a_p, a_q} = 0 at the matrix level
    n = 3
    for p in range(n):
        for q in range(n):
            ap = oracles.ladder_matrix(n, p, False)
            aqd = oracles.ladder_matrix(n, q, True)
            aq = oracles.ladder_matrix(n, q, False)
            anti = ap @ aqd + aqd @ ap
            np.testing.assert_allclose(anti, (p == q) * np.eye(1 << n), atol=1e-12)
            np.testing.assert_allclose(ap @ aq + aq @ ap, 0.0, atol=1e-12)
            # and the FermionOperator algebra agrees
            op = multiply(FermionOperator.ladder(n, p, ANNIHILATE),
                          FermionOperator.ladder(n, q, CREATE)) \
                + multiply(FermionOperator.ladder(n, q, CREATE),
                           FermionOperator.ladder(n, p, ANNIHILATE))
            np.testing.assert_allclose(oracles.fermion_matrix(op), anti, atol=1e-12)


def test_nilpotency():
    # [TRIVIAL] a_p a_p = 0 after normal ordering
    op = FermionOperator.from_term(2, ((0, ANNIHILATE), (0, ANNIHILATE)))
    assert len(op) == 0


def test_dagger_is_conjugate_transpose():
    # [DERIVED]
    rng = np.random.default_rng(3)
    op = FermionOperator(3)
    for _ in range(6):
        op.add_term(random_string(rng, 3, 2), complex(rng.normal(), rng.normal()))
    np.testing.assert_allclose(oracles.fermion_matrix(op.dagger()),
                               oracles.fermion_matrix(op).conj().T, atol=1e-12)


def test_hartree_fock_occupation_blocked():
    # [TRIVIAL] (1,1,3) -> 100 100
    assert hartree_fock_occupation(1, 1, 3) == (1, 0, 0, 1, 0, 0)
    with pytest.raises(FermionError):
        hartree_fock_occupation(4, 0, 3)


def test_mode_range_check():
    # [TRIVIAL] a mode past the operator's, operators on different mode
    # counts, and integral tensors of mismatched shapes are refused
    op = FermionOperator(2)
    with pytest.raises(FermionError):
        op.add_term(((2, CREATE),), 1.0)
    with pytest.raises(FermionError, match="mode-count mismatch"):
        multiply(op, FermionOperator(3))
    with pytest.raises(FermionError, match="tensor shape mismatch"):
        build_hamiltonian(np.zeros((2, 2)), np.zeros((2, 2, 2, 3)), 0.0)


def test_build_hamiltonian_matches_dense_oracle():
    # [DERIVED] assembled H vs independent dense construction (1e-12)
    rng = np.random.default_rng(5)
    n = 4
    h_so = rng.normal(size=(n, n))
    h_so = (h_so + h_so.T) / 2
    g_so = rng.normal(size=(n, n, n, n))
    g_so = g_so + g_so.transpose(1, 0, 3, 2)  # <pq|rs> = <qp|sr>
    g_so = (g_so + g_so.transpose(2, 3, 0, 1)) / 2
    op = build_hamiltonian(h_so, g_so, 0.25)
    expected = 0.25 * np.eye(1 << n, dtype=complex)
    for p in range(n):
        for q in range(n):
            expected += h_so[p, q] * (oracles.ladder_matrix(n, p, True)
                                      @ oracles.ladder_matrix(n, q, False))
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    expected += 0.5 * g_so[p, q, r, s] * (
                        oracles.ladder_matrix(n, p, True)
                        @ oracles.ladder_matrix(n, q, True)
                        @ oracles.ladder_matrix(n, s, False)
                        @ oracles.ladder_matrix(n, r, False))
    np.testing.assert_allclose(oracles.fermion_matrix(op), expected, atol=1e-10)
    # the same term dict, values and insertion order, as term-by-term loops
    loops = oracles.build_hamiltonian_reference(h_so, g_so, 0.25)
    assert list(op._terms.items()) == list(loops._terms.items())


@pytest.mark.parametrize("source", ["bundled", 2, 4, 6])
def test_build_hamiltonian_matches_generic_rewrite(beh2_problem, hchain_fixtures, source):
    # [DERIVED] on the bundled fixture and on `qve hamiltonian`'s H2, H4 and
    # H6 fixtures, direct assembly gives the generic normal-ordering
    # rewrite's term dict: the same strings in the same order, each value ==
    problem = beh2_problem if source == "bundled" else load_fixture(hchain_fixtures[source])
    h_so, g_so = spin_orbital_expand(problem)
    op = build_hamiltonian(h_so, g_so, problem.e_offset)
    ref = oracles.build_hamiltonian_reference(h_so, g_so, problem.e_offset)
    assert len(op) > 1
    assert list(op._terms.items()) == list(ref._terms.items())


def test_h2_hamiltonian_ground_state_is_fci(h2_problem):
    # [DERIVED] dense ground eigenvalue over all 2^4 Fock states equals the
    # 2-electron FCI value obtained downstream (1e-8)
    from qve.scf import spin_orbital_expand
    _, _, _, problem = h2_problem
    h_so, g_so = spin_orbital_expand(problem)
    mat = oracles.fermion_matrix(build_hamiltonian(h_so, g_so, problem.e_offset))
    # restrict to the 2-electron sector: lowest eigenvalue there is FCI
    sector = [i for i in range(16) if bin(i).count("1") == 2]
    evals = np.linalg.eigvalsh(mat[np.ix_(sector, sector)])
    assert evals[0] == pytest.approx(-1.1372838351103938, abs=1e-8)
