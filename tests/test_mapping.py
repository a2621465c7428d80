"""Fermion-to-qubit mapping checks: matrix-level equivalence oracles plus the
published BeH2 mapping statistics."""

import itertools

import numpy as np
import pytest

import oracles
from qve import ansatz
from qve.basis import parse_geometry
from qve.fermion import (ANNIHILATE, CREATE, FermionOperator, build_hamiltonian,
                        hartree_fock_occupation)
from qve.mapping import (MAPPERS, MappingError, _encoding_rows, _ladder, encode_occupation,
                         mapping_stats, qubit_operator, sector_basis, taper_two_qubits)
from qve.pauli import COEFF_TOL, DenseCapError, PauliSum, exact_ground_energy
from qve.pipeline import load_fixture, problem_from_geometry, problem_to_pauli
from qve.scf import spin_orbital_expand


def mapped_matrix(mapper, op):
    return oracles.pauli_sum_matrix(MAPPERS[mapper](op))


@pytest.mark.parametrize("mapper", ["jw", "parity", "bk"])
def test_single_mode_number_operator(mapper):
    # [DERIVED] n_0 = a+_0 a_0 on one mode must map to (I - Z)/2 in every encoding
    num = FermionOperator.from_term(1, ((0, CREATE), (0, ANNIHILATE)))
    np.testing.assert_allclose(mapped_matrix(mapper, num),
                               np.diag([0.0, 1.0]), atol=1e-12)


@pytest.mark.parametrize("mapper", ["jw", "parity", "bk"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ladder_anticommutation_preserved(mapper, n):
    # [DERIVED] mapped ladder operators satisfy {A_p, A_q^+} = delta_pq (1e-10)
    mats = {(p, c): mapped_matrix(mapper, FermionOperator.ladder(n, p, c))
            for p in range(n) for c in (True, False)}
    eye = np.eye(1 << n)
    for p in range(n):
        for q in range(n):
            a, bd = mats[(p, False)], mats[(q, True)]
            np.testing.assert_allclose(a @ bd + bd @ a, (p == q) * eye, atol=1e-10)
            b = mats[(q, False)]
            np.testing.assert_allclose(a @ b + b @ a, 0.0, atol=1e-10)


@pytest.mark.parametrize("mapper", ["jw", "parity", "bk"])
def test_random_operator_spectrum_preserved(mapper):
    # [DERIVED] mapped spectrum equals the Fock-space spectrum (1e-10)
    rng = np.random.default_rng(17)
    op = oracles.random_number_conserving(2, rng)
    ref = np.linalg.eigvalsh(oracles.fermion_matrix(op))
    got = np.linalg.eigvalsh(mapped_matrix(mapper, op))
    np.testing.assert_allclose(got, ref, atol=1e-10)


def test_mapped_matrix_is_the_encoded_fock_matrix():
    # [DERIVED] element by element, each mapped operator is its Fock matrix
    # carried to the encoded basis, P F P^T with P|f> = |encode_occupation(f)>
    # (1e-12). A spectrum comparison would miss a sign or phase slip in a product.
    rng = np.random.default_rng(23)
    ops = [oracles.random_number_conserving(k, rng) for k in (1, 2, 3)]
    for _ in range(30):  # strings with repeated modes, vanishing ones included
        factors = [(int(rng.integers(4)), bool(rng.integers(2)))
                   for _ in range(int(rng.integers(1, 5)))]
        ops.append(FermionOperator.from_term(4, factors, complex(rng.normal(), rng.normal())))
    for op in ops:
        fock = oracles.fermion_matrix(op)
        n = op.n_modes
        for mapper in ("jw", "parity", "bk"):
            perm = np.zeros((1 << n, 1 << n))
            for f in range(1 << n):
                bits = encode_occupation(tuple((f >> p) & 1 for p in range(n)), mapper, False)
                perm[sum(b << q for q, b in enumerate(bits)), f] = 1.0
            np.testing.assert_allclose(mapped_matrix(mapper, op), perm @ fock @ perm.T,
                                       atol=1e-12, err_msg=mapper)


def term_by_term(op, mapper):
    """The mapped operator as per-term products of the two-term ladder sums,
    each sum accumulated in a dict that drops entries under COEFF_TOL."""
    lx, lz = _ladder(mapper, op.n_modes)

    def add(acc, key, c):
        c = acc.get(key, 0.0) + c
        if abs(c) < COEFF_TOL:
            acc.pop(key, None)
        else:
            acc[key] = c

    out = {}
    for factors, coefficient in op.terms():
        acc = {(0, 0): complex(coefficient)}
        for mode, create in factors:
            x, prod = int(lx[mode]), {}
            for (ax, az), c in sorted(acc.items()):
                sign = -1.0 if (az & x).bit_count() % 2 else 1.0
                for z, w in ((int(lz[mode, 0]), 0.5), (int(lz[mode, 1]), 0.5 if create else -0.5)):
                    add(prod, (ax ^ x, az ^ z), c * w * sign)
            acc = prod
        for key, c in sorted(acc.items()):
            add(out, key, c)
    return out


@pytest.mark.parametrize("mapper", ["jw", "parity", "bk"])
def test_array_rule_sums_like_term_by_term_products(beh2_problem, mapper):
    # [DERIVED] the same words with bit-identical coefficients as per-term
    # products, so fixed-seed runs do not move: BeH2, H4 at 0.9 angstrom and
    # random one- and two-body operators. The products give X^x Z^z
    # coefficients; X^x Z^z is (-i)^popcount(x & z) times the label word.
    h4 = problem_from_geometry(parse_geometry(
        "units angstrom\n" + "".join(f"H 0 0 {0.9 * i}\n" for i in range(4))))[0]
    rng = np.random.default_rng(29)
    ops = [oracles.random_number_conserving(k, rng) for k in (2, 3)]
    for problem in (beh2_problem, h4):
        h_so, g_so = spin_orbital_expand(problem)
        ops.append(build_hamiltonian(h_so, g_so, problem.e_offset))
    for op in ops:
        reference = {(x, z): c * (-1j) ** (x & z).bit_count()
                     for (x, z), c in term_by_term(op, mapper).items()}
        assert MAPPERS[mapper](op).items() == tuple(sorted(reference.items()))


def test_label_coefficients_are_real_or_imaginary_exactly(beh2_problem, monkeypatch):
    # [DERIVED] in the label basis a mapped Hamiltonian is real and each UCCSD
    # generator term is imaginary, exactly: with its tolerance at 0,
    # build_uccsd refuses a generator term with any real part. BeH2 in the
    # four encodings and H4 at 0.9 angstrom
    monkeypatch.setattr(ansatz, "GENERATOR_REAL_TOL", 0.0)
    h4 = problem_from_geometry(parse_geometry(
        "units angstrom\n" + "".join(f"H 0 0 {0.9 * i}\n" for i in range(4))))[0]
    for problem in (beh2_problem, h4):
        for mapper, taper in (("jw", False), ("parity", False), ("bk", False), ("parity", True)):
            h = problem_to_pauli(problem, mapper, taper)
            assert all(c.imag == 0.0 for _, c in h.items())
            ansatz.build_uccsd(problem.n_alpha, problem.n_beta, problem.n_spatial, mapper, taper)


def test_mapping_refuses_more_modes_than_int64_masks_hold():
    # [TRIVIAL] 64 modes need a 64th mask bit; refused before any array is built
    op = FermionOperator.from_term(64, [(63, CREATE)])
    for mapper in ("jw", "parity", "bk"):
        with pytest.raises(MappingError, match="64 modes exceed the 63-mode limit"):
            qubit_operator(op, mapper, False, 0, 0)
    assert len(MAPPERS["jw"](FermionOperator.from_term(63, [(62, CREATE)]))) == 2


def test_jw_number_operator_and_hopping():
    # [DERIVED] JW: n_p = (I - Z_p)/2 and the hopping term keeps the Z string
    n = 3
    num = FermionOperator.from_term(n, ((1, CREATE), (1, ANNIHILATE)))
    h = MAPPERS["jw"](num)
    assert h.coefficient("III") == pytest.approx(0.5)
    assert h.coefficient("IZI") == pytest.approx(-0.5)
    hop = FermionOperator.from_term(n, ((0, CREATE), (2, ANNIHILATE)))
    hop = hop + hop.dagger()
    h = MAPPERS["jw"](hop)
    assert h.coefficient("XZX") == pytest.approx(0.5)
    assert h.coefficient("YZY") == pytest.approx(0.5)


def test_jw_ladder_signs_follow_mode_order():
    # [DERIVED] the fermion module's sign convention, |n_0 n_1 n_2> at index
    # n_0 + 2 n_1 + 4 n_2: a_1 |110> = -|100> (one occupied mode below mode 1)
    # and a_0 |110> = +|010>
    for mode, target, sign in ((1, 1, -1.0), (0, 2, 1.0)):
        ladder = FermionOperator.ladder(3, mode, ANNIHILATE)
        mat = oracles.pauli_sum_matrix(MAPPERS["jw"](ladder))
        column = np.zeros(8)
        column[target] = sign
        np.testing.assert_allclose(mat[:, 3], column, atol=1e-12)


def test_parity_number_operator_uses_neighbor_z():
    # [DERIVED] parity encoding: n_p = (I - Z_{p-1} Z_p)/2 for p > 0
    n = 3
    num = FermionOperator.from_term(n, ((1, CREATE), (1, ANNIHILATE)))
    h = MAPPERS["parity"](num)
    assert h.coefficient("III") == pytest.approx(0.5)
    assert h.coefficient("ZZI") == pytest.approx(-0.5)


def _basis_vector(bits):
    v = np.zeros(1 << len(bits))
    v[sum(b << q for q, b in enumerate(bits))] = 1.0
    return v


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 8])
def test_mapped_ladders_act_on_encoded_states(n):
    # [DERIVED] in every encoding, the mapped a+_p and a_p take the encoded
    # occupation to (-1)^(occupied modes below p) times the encoded occupation
    # with mode p toggled, or to zero (1e-12)
    for mapper in ("jw", "parity", "bk"):
        mats = {(p, c): mapped_matrix(mapper, FermionOperator.ladder(n, p, c))
                for p in range(n) for c in (True, False)}
        rng = np.random.default_rng(n)
        for _ in range(20):
            occ = tuple(int(b) for b in rng.integers(0, 2, size=n))
            state = _basis_vector(encode_occupation(occ, mapper, False))
            for p in range(n):
                toggled = occ[:p] + (1 - occ[p],) + occ[p + 1:]
                sign = (-1) ** sum(occ[:p])
                for create in (True, False):
                    want = np.zeros_like(state)
                    if occ[p] != create:
                        want = sign * _basis_vector(encode_occupation(toggled, mapper, False))
                    np.testing.assert_allclose(mats[(p, create)] @ state, want, atol=1e-12)


# beta_8 of Seeley, Richard & Love, J. Chem. Phys. 137, 224109 (2012), in its
# published orientation: row r is qubit 7-r and column c is mode 7-c
SEELEY_BK_BETA_8 = [
    "11111111",
    "01000000",
    "00110000",
    "00010000",
    "00001111",
    "00000100",
    "00000011",
    "00000001",
]


def test_bk_rows_match_published_beta_8():
    # [DERIVED] the Bravyi-Kitaev rows for 8 modes are beta_8 as published
    rows = _encoding_rows("bk", 8)
    for r, line in enumerate(SEELEY_BK_BETA_8):
        qubit = 7 - r
        assert rows[qubit] == int(line, 2), qubit


def test_encode_parity_state():
    # [TRIVIAL] inclusive cumulative parities
    assert encode_occupation((1, 0, 0, 1, 0, 0), "parity", False) == (1, 1, 1, 0, 0, 0)
    assert encode_occupation((0, 1, 1, 0), "parity", False) == (0, 1, 0, 0)


@pytest.mark.parametrize("mapper,taper", [("jw", False), ("parity", False),
                                          ("bk", False), ("parity", True)])
@pytest.mark.parametrize("n_spatial", [2, 3])
def test_encode_occupation_is_number_eigenstate(mapper, taper, n_spatial):
    # [DERIVED] the encoded basis state is an eigenstate of every mapped (and
    # tapered) number operator a+_p a_p with eigenvalue occ_p. Tapered: every
    # (n_alpha, n_beta) sector with the occupations whose spin parities match it
    n = 2 * n_spatial
    sectors = [(na, nb) for na in range(n_spatial + 1) for nb in range(n_spatial + 1)]
    if not taper:
        sectors = [(0, 0)]  # the sector only enters through tapering
    for n_alpha, n_beta in sectors:
        numbers = [oracles.pauli_sum_matrix(qubit_operator(
            FermionOperator.from_term(n, ((p, CREATE), (p, ANNIHILATE))),
            mapper, taper, n_alpha, n_beta)) for p in range(n)]
        for occ in itertools.product((0, 1), repeat=n):
            if taper and ((sum(occ[:n_spatial]) - n_alpha) % 2
                          or (sum(occ[n_spatial:]) - n_beta) % 2):
                continue
            bits = encode_occupation(occ, mapper, taper)
            assert len(bits) == n - (2 if taper else 0)
            state = np.zeros(1 << len(bits))
            state[sum(b << q for q, b in enumerate(bits))] = 1.0
            for p in range(n):
                np.testing.assert_allclose(numbers[p] @ state, occ[p] * state, atol=1e-12)


def test_taper_requires_conserving_operator():
    # [TRIVIAL] an X on a parity qubit flags a non-conserving operator
    h = PauliSum.from_labels([("IXII", 1.0)])  # X on the alpha-parity qubit
    with pytest.raises(MappingError):
        taper_two_qubits(h, 1, 1)
    with pytest.raises(MappingError):
        taper_two_qubits(PauliSum.from_labels([("IIIY", 1.0)]), 1, 1)
    with pytest.raises(MappingError):  # odd qubit count
        taper_two_qubits(PauliSum.from_labels([("ZZZ", 1.0)]), 1, 1)


@pytest.mark.parametrize("source", ["bundled", 2, 4, 6])
def test_taper_and_stats_match_term_loops(beh2_problem, hchain_fixtures, source):
    # [DERIVED] the taper and the statistics read the sum's pairs and agree
    # exactly with the PauliTerm loops: the same words in the same insertion
    # order, each coefficient ==, for the Hamiltonian and every UCCSD
    # generator of the bundled fixture and of linear H2, H4 and H6, each also
    # with its terms inserted in reverse, and for a sum whose tapered words
    # cancel
    problem = beh2_problem if source == "bundled" else load_fixture(hchain_fixtures[source])
    na, nb, n = problem.n_alpha, problem.n_beta, problem.n_spatial
    h_so, g_so = spin_orbital_expand(problem)
    ops = [build_hamiltonian(h_so, g_so, problem.e_offset)]
    exc = ansatz.excitations(na, nb, n)
    for e in exc.singles + exc.doubles:
        modes = (e[1], e[0]) if len(e) == 2 else (e[2], e[3], e[1], e[0])
        t = FermionOperator.from_term(
            2 * n, [(m, i < len(modes) // 2) for i, m in enumerate(modes)])
        ops.append(t - t.dagger())
    cases = [(MAPPERS["parity"](op), na, nb) for op in ops]
    cases += [(PauliSum(h.n_qubits, dict(reversed(h._terms.items()))), na, nb) for h, _, _ in cases]
    # with one alpha electron ZZII tapers to -0.5 ZI, cancelling ZIII until
    # ZIIZ brings ZI back after IIZI's word; XZXI cancels XIXI for good
    cases.append((PauliSum.from_labels([("IZIZ", 1.0), ("ZIII", 0.5), ("XIXI", 0.25),
                                        ("ZZII", 0.5), ("ZIIZ", -0.25), ("IIZI", 0.75),
                                        ("XZXI", 0.25)]), 1, 1))
    for full, a, b in cases:
        tapered = taper_two_qubits(full, a, b)
        want = oracles.taper_two_qubits_reference(full, a, b)
        assert tapered.n_qubits == want.n_qubits
        assert list(tapered._terms.items()) == list(want._terms.items())
    for op in ops:
        for h in (MAPPERS["parity"](op), qubit_operator(op, "parity", True, na, nb),
                  MAPPERS["jw"](op), MAPPERS["bk"](op)):
            s = mapping_stats(h)
            assert (s.n_qubits, s.n_pauli_terms, s.avg_weight) == oracles.mapping_stats_reference(h)


def test_taper_preserves_sector_ground_energy(beh2_problem):
    # [DERIVED] tapering replaces the two parity qubits by eigenvalues, so the
    # correct-sector ground energy is unchanged
    full = problem_to_pauli(beh2_problem, "parity", False)
    tapered = problem_to_pauli(beh2_problem, "parity", True)
    e_full = exact_sector_minimum(full, beh2_problem)
    e_tapered, _ = exact_ground_energy(tapered)
    assert e_tapered == pytest.approx(e_full, abs=1e-10)
    # the solver's own sector basis gives the same minimum, tapered or not
    for h, taper in ((full, False), (tapered, True)):
        e_sector, _ = exact_ground_energy(h, sector_basis(3, 1, 1, "parity", taper))
        assert e_sector == pytest.approx(e_full, abs=1e-10)


def test_sector_basis_encodes_each_occupation():
    # [DERIVED] under jw the (1, 1) sector of two orbitals is one alpha bit
    # (qubits 0-1) times one beta bit (qubits 2-3); every sector state of a
    # tapered encoding is the encoding of its occupation, HF included
    assert sector_basis(2, 1, 1, "jw", False).tolist() == [5, 6, 9, 10]
    basis = sector_basis(3, 1, 1, "parity", True)
    hf = encode_occupation(hartree_fock_occupation(1, 1, 3), "parity", True)
    assert len(basis) == 9 and sum(b << q for q, b in enumerate(hf)) in basis
    assert np.all(np.diff(basis) > 0)


@pytest.mark.parametrize("mapper, taper", [("jw", False), ("bk", False), ("parity", False),
                                           ("parity", True)])
def test_sector_basis_matches_occupation_loop(mapper, taper):
    # [DERIVED] the one-array encoding gives the occupation-by-occupation
    # loop's sorted indices exactly: on the sectors of the bundled fixture and
    # of linear H2, H4 and H6, and on sectors with no alpha, no beta or all
    # alpha electrons
    for sector in ((3, 1, 1), (2, 1, 1), (4, 2, 2), (6, 3, 3), (3, 0, 2), (4, 2, 0), (3, 3, 1)):
        got = sector_basis(*sector, mapper, taper)
        want = oracles.sector_basis_reference(*sector, mapper, taper)
        assert got.dtype == want.dtype and np.array_equal(got, want), sector


def test_sector_basis_refuses_oversized_and_empty_sectors():
    # [TRIVIAL] the size check needs no enumeration; an empty sector is an error
    with pytest.raises(DenseCapError, match="34134779536 states"):
        sector_basis(20, 10, 10, "jw", False)
    with pytest.raises(MappingError, match="no \\(3, 0\\) occupation"):
        sector_basis(2, 3, 0, "jw", False)


def exact_sector_minimum(h, problem):
    """Minimum eigenvalue restricted to the physical electron-number sector."""
    n = 2 * problem.n_spatial
    mat = oracles.pauli_sum_matrix(h)
    keep = []
    for idx in range(1 << n):
        bits = [(idx >> q) & 1 for q in range(n)]
        # invert the inclusive parity encoding back to occupations
        occ = [bits[0]] + [bits[q] ^ bits[q - 1] for q in range(1, n)]
        if (sum(occ[:problem.n_spatial]) == problem.n_alpha
                and sum(occ[problem.n_spatial:]) == problem.n_beta):
            keep.append(idx)
    sub = mat[np.ix_(keep, keep)]
    return float(np.linalg.eigvalsh(sub)[0])


def test_mapping_stats_small_example():
    # [TRIVIAL] identity counts toward the average weight
    h = PauliSum.from_labels([("II", 1.0), ("XZ", 0.5), ("IZ", 0.25)])
    s = mapping_stats(h)
    assert (s.n_qubits, s.n_pauli_terms) == (2, 3)
    assert s.avg_weight == pytest.approx(1.0)


TABLE_ROWS = [
    ("jw", False, 6, 34, 2.71),
    ("parity", False, 6, 34, 3.12),
    ("parity", True, 4, 28, 2.57),
    ("bk", False, 6, 34, 3.24),
]


@pytest.mark.parametrize("mapper,taper,qubits,terms,avg", TABLE_ROWS)
def test_beh2_mapping_statistics(beh2_problem, mapper, taper, qubits, terms, avg):
    # [PAPER] published mapping statistics for the BeH2 3-orbital fixture;
    # counts exact, average weight to 0.01
    s = mapping_stats(problem_to_pauli(beh2_problem, mapper, taper))
    assert s.n_qubits == qubits
    assert s.n_pauli_terms == terms
    assert s.avg_weight == pytest.approx(avg, abs=0.01)


def test_beh2_exact_energy(beh2_tapered):
    # [PAPER] exact diagonalization of the tapered fixture
    e, _ = exact_ground_energy(beh2_tapered)
    assert e == pytest.approx(-15.56089, abs=5e-6)


@pytest.mark.parametrize("mapper", ["jw", "parity", "bk"])
def test_beh2_spectra_agree_across_mappings(beh2_problem, mapper):
    # [DERIVED] all encodings share the full spectrum
    from qve.fermion import build_hamiltonian
    from qve.scf import spin_orbital_expand
    h_so, g_so = spin_orbital_expand(beh2_problem)
    op = build_hamiltonian(h_so, g_so, beh2_problem.e_offset)
    ref = np.linalg.eigvalsh(oracles.fermion_matrix(op))
    h = problem_to_pauli(beh2_problem, mapper, False)
    got = np.linalg.eigvalsh(oracles.pauli_sum_matrix(h))
    np.testing.assert_allclose(got, ref, atol=1e-8)
