"""Fermion-to-qubit transformations: Jordan-Wigner, Parity, Bravyi-Kitaev.

Each encoding is a binary matrix beta over one qubit per spin-orbital mode:
qubit i stores the parity of the occupations of the modes in row i
(Seeley, Richard & Love, J. Chem. Phys. 137, 224109 (2012)). Jordan-Wigner
stores each occupation, Parity the inclusive cumulative parities, and
Bravyi-Kitaev the Fenwick-tree partial sums. The mapped ladder operators and
the encoded basis states all follow from the rows, so the three encodings
agree on spectra. Ladder strings are mapped as arrays by one rule, all
strings of a pattern at once. Under blocked spin ordering the Parity encoding
pins the total alpha-parity on qubit n-1 and the total parity on qubit 2n-1;
those two qubits can then be tapered off.

`qubit_operator` (operators) and `encode_occupation` (basis states) are the
entry points, so the Hamiltonian, the UCCSD generators, the Hartree-Fock
state and the exact solver's sector basis share one encoding.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .fermion import FermionOperator
from .pauli import COEFF_TOL, SECTOR_CAP, DenseCapError, PauliSum, _accumulate


class MappingError(ValueError):
    pass


def _encoding_rows(mapper: str, n: int) -> tuple[int, ...]:
    """Row i of beta as a mode mask: qubit i stores the parity of those modes."""
    if mapper == "jw":
        return tuple(1 << i for i in range(n))
    if mapper == "parity":
        return tuple((2 << i) - 1 for i in range(n))
    # bk: Fenwick node i+1 sums modes i+1-lowbit(i+1) .. i
    return tuple((2 << i) - (1 << (i + 1 - ((i + 1) & -(i + 1)))) for i in range(n))


def _qubits_storing(rows: tuple[int, ...], modes: int) -> int:
    """Mask of the qubits whose stored parities XOR to the parity of `modes`.

    Row i holds mode i and no higher mode (beta is lower unit triangular), so
    back-substitution from the highest mode finds the unique set.
    """
    qubits = 0
    while modes:
        i = modes.bit_length() - 1
        qubits |= 1 << i
        modes ^= rows[i]
    return qubits


# Pauli masks are int64 arrays, so an operator may span at most 63 modes.
MAX_MODES = 63


@lru_cache(maxsize=None)
def _ladder(mapper: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks of every mode's two ladder terms: x[p] for both, z[p, j] for term
    j, each the word X^x Z^z, not the label word. Term 0 has coefficient 1/2;
    term 1 has -1/2 in a_p and +1/2 in a_p^+, since its word X_p Z_p is -iY_p.
    Cached, so read-only.

    a_p = 1/2 (X_U Z_P + i X_{U-p} Y_p Z_R); the dagger flips the Y sign.
    U is column p of beta (the qubits whose stored parity flips with
    occupation p, p among them), P the qubits storing the parity of the modes
    below p, and R = P xor F, where F holds the rest of qubit p's stored
    parity, so that Z_F Z_p measures occupation p itself.
    """
    rows = _encoding_rows(mapper, n)
    x, z = np.zeros(n, dtype=np.int64), np.zeros((n, 2), dtype=np.int64)
    for p in range(n):
        x[p] = sum(1 << i for i, row in enumerate(rows) if (row >> p) & 1)
        parity = _qubits_storing(rows, (1 << p) - 1)
        flip = _qubits_storing(rows, rows[p] ^ (1 << p))
        z[p] = parity, (parity ^ flip) | (1 << p)
    x.flags.writeable = z.flags.writeable = False
    return x, z


def _map_operator(op: FermionOperator, mapper: str) -> PauliSum:
    """Map the normal-ordered ladder strings as arrays, one per ladder pattern.

    A string of k ladders expands into 2^k Pauli words, word w taking term
    (w >> i) & 1 of factor i, each with coefficient +/- c / 2^k. Words multiply
    by XOR of their masks times the sign (-1)^popcount(z_left & x_right) of
    moving each X past the Zs on its left. Equal words are summed, and sums
    under COEFF_TOL dropped, at the end; then each X^x Z^z is written as
    (-i)^popcount(x & z) times its label word.
    """
    n = op.n_modes
    if n > MAX_MODES:
        raise MappingError(f"{n} modes exceed the {MAX_MODES}-mode limit of int64 Pauli masks")
    lx, lz = _ladder(mapper, n)
    terms = op.terms()
    if not terms:
        return PauliSum(n)
    groups: dict[tuple[bool, ...], list[int]] = {}
    for s, (factors, _) in enumerate(terms):
        groups.setdefault(tuple(k for _, k in factors), []).append(s)
    strings, xs, zs, signs = [], [], [], []
    for pattern, members in groups.items():
        modes = np.array([[m for m, _ in terms[s][0]] for s in members], dtype=np.intp)
        z = np.zeros((len(members), 1), dtype=np.int64)
        sign = np.ones(z.shape)
        for i, create in enumerate(pattern):  # factor i's two terms double the words
            sign *= 1.0 - 2.0 * (np.bitwise_count(z & lx[modes[:, i], None]) & 1)
            sign = np.hstack([sign, sign if create else -sign])
            z = np.hstack([z ^ lz[modes[:, i], 0, None], z ^ lz[modes[:, i], 1, None]])
        strings.append(np.repeat(members, z.shape[1]))
        xs.append(np.repeat(np.bitwise_xor.reduce(lx[modes], axis=1), z.shape[1]))
        zs.append(z.ravel())
        signs.append(sign.ravel())
    # rank x and z separately, so one integer key orders the words by (x, z)
    # without packing both masks into 64 bits
    ux, ix = np.unique(np.concatenate(xs), return_inverse=True)
    uz, iz = np.unique(np.concatenate(zs), return_inverse=True)
    words, word = np.unique(ix * len(uz) + iz, return_inverse=True)
    # Each string's equal words merge first, as integer sums of signs m, so a
    # string's coefficient c m / 2^k on a word is exact (|m| is 0, 1, 2 or 4 for
    # one- and two-body strings). Across strings the words then add up in term
    # order, the order in which term-by-term products would add them.
    pairs, pair = np.unique(np.concatenate(strings) * len(words) + word, return_inverse=True)
    scaled = np.array([c * 0.5 ** len(factors) for factors, c in terms])
    c = scaled[pairs // len(words)] * np.bincount(pair, np.concatenate(signs))
    total = (np.bincount(pairs % len(words), c.real, len(words))
             + 1j * np.bincount(pairs % len(words), c.imag, len(words)))
    keep = np.abs(total) >= COEFF_TOL
    x, z = ux[words[keep] // len(uz)], uz[words[keep] % len(uz)]
    c = total[keep] * np.array([1, -1j, -1, 1j])[np.bitwise_count(x & z) % 4]
    return PauliSum(n, dict(zip(zip(x.tolist(), z.tolist()), c.tolist())))


def jordan_wigner(op: FermionOperator) -> PauliSum:
    return _map_operator(op, "jw")


def parity_map(op: FermionOperator) -> PauliSum:
    return _map_operator(op, "parity")


def bravyi_kitaev(op: FermionOperator) -> PauliSum:
    return _map_operator(op, "bk")


MAPPERS = {
    "jw": jordan_wigner,
    "parity": parity_map,
    "bk": bravyi_kitaev,
}


def _drop_bit(mask: int, q: int) -> int:
    low = mask & ((1 << q) - 1)
    high = mask >> (q + 1)
    return low | (high << q)


def _parity_qubits(n_qubits: int) -> tuple[int, int]:
    """The alpha-parity and total-parity qubits under blocked spin ordering."""
    if n_qubits % 2:
        raise MappingError("expected an even qubit count (blocked spin ordering)")
    return n_qubits // 2 - 1, n_qubits - 1


def taper_two_qubits(h: PauliSum, n_alpha: int, n_beta: int) -> PauliSum:
    """Remove the two fixed parity qubits of a blocked parity-mapped sum.

    Qubit n-1 is replaced by its eigenvalue (-1)^n_alpha and qubit 2n-1 by
    (-1)^(n_alpha + n_beta); a term with X or Y there means the input did not
    conserve the per-spin electron numbers.
    """
    q1, q2 = _parity_qubits(h.n_qubits)
    ev1 = -1.0 if n_alpha % 2 else 1.0
    ev2 = -1.0 if (n_alpha + n_beta) % 2 else 1.0
    out = PauliSum(h.n_qubits - 2)
    for (x, z), c in h.items():
        if (x >> q1) & 1 or (x >> q2) & 1:
            raise MappingError(
                "X/Y on a parity qubit: operator does not conserve spin-sector parity")
        if (z >> q1) & 1:
            c *= ev1
        if (z >> q2) & 1:
            c *= ev2
        x, z = _drop_bit(_drop_bit(x, q2), q1), _drop_bit(_drop_bit(z, q2), q1)
        _accumulate(out._terms, (x, z), c)
    return out


def _check_encoding(mapper: str, taper: bool) -> None:
    if mapper not in MAPPERS:
        raise MappingError(f"unknown mapper {mapper!r}")
    if taper and mapper != "parity":
        raise MappingError("two-qubit tapering requires the parity mapping")


def qubit_operator(op: FermionOperator, mapper: str, taper: bool,
                   n_alpha: int, n_beta: int) -> PauliSum:
    """Map op with the named encoding; with taper, also remove the two parity
    qubits, fixed by the (n_alpha, n_beta) sector."""
    _check_encoding(mapper, taper)
    h = MAPPERS[mapper](op)
    if taper:
        h = taper_two_qubits(h, n_alpha, n_beta)
    return h


def _encoded(occupied: np.ndarray, mapper: str, taper: bool, n: int) -> np.ndarray:
    """`encode_occupation` as basis indices, for an array of occupations of
    n modes, each a mode mask (mode p at bit p)."""
    state = np.zeros_like(occupied)
    for i, row in enumerate(_encoding_rows(mapper, n)):
        state |= (np.bitwise_count(occupied & row) & 1).astype(state.dtype) << i
    if taper:
        q1, q2 = _parity_qubits(n)
        state = _drop_bit(_drop_bit(state, q2), q1)
    return state


def encode_occupation(occupations: tuple[int, ...], mapper: str,
                      taper: bool) -> tuple[int, ...]:
    """Qubit bits (qubit 0 first) of the basis state encoding a Fock occupation.

    Qubit i holds the parity of the occupied modes in row i of beta. With
    taper, the two parity qubits are dropped.
    """
    _check_encoding(mapper, taper)
    n = len(occupations)
    occupied = sum(1 << p for p, b in enumerate(occupations) if b)
    state = int(_encoded(np.array([occupied]), mapper, taper, n)[0])
    return tuple((state >> q) & 1 for q in range(n - 2 if taper else n))


def sector_basis(n_spatial: int, n_alpha: int, n_beta: int, mapper: str,
                 taper: bool) -> np.ndarray:
    """Sorted qubit basis indices of every occupation with n_alpha alpha and
    n_beta beta electrons (blocked spin ordering), encoded as
    `encode_occupation` encodes one, all in one array. Sectors over
    SECTOR_CAP states are refused before any is enumerated."""
    size = comb(n_spatial, n_alpha) * comb(n_spatial, n_beta)
    if size > SECTOR_CAP:
        raise DenseCapError(
            f"the ({n_alpha}, {n_beta}) sector of {n_spatial} orbitals has {size} "
            f"states, over the exact-solver cap {SECTOR_CAP}")
    if size == 0:
        raise MappingError(
            f"no ({n_alpha}, {n_beta}) occupation fits in {n_spatial} orbitals")
    _check_encoding(mapper, taper)
    alpha = [sum(1 << p for p in c) for c in combinations(range(n_spatial), n_alpha)]
    beta = [sum(1 << p for p in c) << n_spatial for c in combinations(range(n_spatial), n_beta)]
    occupied = np.bitwise_or.outer(alpha, beta).ravel()
    return np.sort(_encoded(occupied, mapper, taper, 2 * n_spatial))


def mapping_stats(h: PauliSum) -> dict:
    """Qubit count, term count and mean Pauli weight, the last two counting
    the identity term, as `qve map` prints them."""
    items = h.items()
    avg = sum((x | z).bit_count() for (x, z), _ in items) / len(items) if items else 0.0
    return {"n_qubits": h.n_qubits, "n_pauli_terms": len(items), "avg_weight": avg}
