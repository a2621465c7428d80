"""Fermion-to-qubit transformations: Jordan-Wigner, Parity, Bravyi-Kitaev.

All three encode one spin-orbital mode per qubit and preserve the ladder
anticommutation relations, so they agree on spectra. The Parity encoding
stores inclusive cumulative occupation parities, which pins the total
alpha-parity on qubit n-1 and the total parity on qubit 2n-1 under blocked
spin ordering; those two qubits can then be tapered off.

`qubit_operator` (operators) and `encode_occupation` (basis states) are the
entry points, so the Hamiltonian, the UCCSD generators and the Hartree-Fock
state share one encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fermion import FermionOperator
from .pauli import PauliSum, PauliTerm


class MappingError(ValueError):
    pass


@dataclass(frozen=True)
class MappingStats:
    n_qubits: int
    n_pauli_terms: int
    avg_weight: float


def _map_operator(op: FermionOperator, ladder) -> PauliSum:
    """Map each normal-ordered ladder string via a per-factor rule."""
    n = op.n_modes
    out = PauliSum.zero(n)
    for term in op.terms():
        acc = PauliSum.identity(n, term.coefficient)
        for mode, create in term.factors:
            acc = acc @ ladder(n, mode, create)
        out = out + acc
    return out


def _jw_ladder(n: int, p: int, create: bool) -> PauliSum:
    """a_p = 1/2 (X_p + iY_p) Z_0 ... Z_{p-1}; dagger flips the Y sign."""
    zmask = (1 << p) - 1
    x_term = PauliTerm(n, 1 << p, zmask, 0.5)
    # stored (x=z=1 at p) word is X_p Z_p = -iY_p, so coefficient i/2 encodes +Y/2
    y_sign = -0.5j if create else 0.5j
    y_term = PauliTerm(n, 1 << p, zmask | (1 << p), 1j * y_sign)
    return PauliSum.from_terms([x_term, y_term])


def _parity_ladder(n: int, p: int, create: bool) -> PauliSum:
    """a_p = 1/2 (X_p Z_{p-1} + iY_p) X_{p+1} ... X_{n-1}; dagger flips the Y sign.

    The Y sign follows the inclusive-parity storage convention, fixed so the
    one-mode number operator maps to (I - Z)/2.
    """
    tail = ((1 << n) - 1) & ~((1 << (p + 1)) - 1)
    zmask = (1 << (p - 1)) if p > 0 else 0
    x_term = PauliTerm(n, tail | (1 << p), zmask, 0.5)
    y_sign = -0.5j if create else 0.5j
    y_term = PauliTerm(n, tail | (1 << p), 1 << p, 1j * y_sign)
    return PauliSum.from_terms([x_term, y_term])


class _FenwickTree:
    """Binary-indexed tree over mode indices.

    Parent/child structure follows standard Fenwick index arithmetic on the
    1-based index i = j + 1: ancestors are i + (i & -i), prefix-parity nodes
    are the query chain i - (i & -i), and the children of i are i - 2^t for
    each power below i & -i. Mode counts that are not powers of two are
    embedded in the next power of two with out-of-range indices dropped.
    """

    def __init__(self, n: int):
        self.n = n
        self._cap = 1 << max(n - 1, 0).bit_length()

    def update_set(self, j: int) -> set[int]:
        """Qubits whose stored partial sums contain mode j (tree ancestors)."""
        out = set()
        i = j + 1
        i += i & -i
        while i <= self._cap:
            if i - 1 < self.n:
                out.add(i - 1)
            i += i & -i
        return out

    def parity_set(self, j: int) -> set[int]:
        """Qubits encoding the occupation parity of modes 0..j-1."""
        out = set()
        i = j
        while i > 0:
            out.add(i - 1)
            i -= i & -i
        return out

    def flip_set(self, j: int) -> set[int]:
        """Children of node j: qubits whose flip toggles the stored sum at j."""
        out = set()
        i = j + 1
        step = (i & -i) >> 1
        while step:
            out.add(i - step - 1)
            step >>= 1
        return out

    def remainder_set(self, j: int) -> set[int]:
        return self.parity_set(j) - self.flip_set(j)


def _bk_ladder_factory(n: int):
    tree = _FenwickTree(n)
    cache: dict[tuple[int, bool], PauliSum] = {}

    def ladder(_n: int, j: int, create: bool) -> PauliSum:
        key = (j, create)
        if key not in cache:
            u = sum(1 << q for q in tree.update_set(j))
            par = sum(1 << q for q in tree.parity_set(j))
            rem = sum(1 << q for q in tree.remainder_set(j))
            x_term = PauliTerm(n, u | (1 << j), par, 0.5)
            y_sign = -0.5j if create else 0.5j
            y_term = PauliTerm(n, u | (1 << j), rem | (1 << j), 1j * y_sign)
            cache[key] = PauliSum.from_terms([x_term, y_term])
        return cache[key]

    return ladder


def jordan_wigner(op: FermionOperator) -> PauliSum:
    return _map_operator(op, _jw_ladder)


def parity_map(op: FermionOperator) -> PauliSum:
    return _map_operator(op, _parity_ladder)


def bravyi_kitaev(op: FermionOperator) -> PauliSum:
    return _map_operator(op, _bk_ladder_factory(op.n_modes))


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
    out = PauliSum.zero(h.n_qubits - 2)
    for t in h.terms():
        if (t.x >> q1) & 1 or (t.x >> q2) & 1:
            raise MappingError(
                "X/Y on a parity qubit: operator does not conserve spin-sector parity")
        c = t.coefficient
        if (t.z >> q1) & 1:
            c *= ev1
        if (t.z >> q2) & 1:
            c *= ev2
        x = _drop_bit(_drop_bit(t.x, q2), q1)
        z = _drop_bit(_drop_bit(t.z, q2), q1)
        out.add_term(PauliTerm(h.n_qubits - 2, x, z, c))
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


def encode_occupation(occupations: tuple[int, ...], mapper: str,
                      taper: bool) -> tuple[int, ...]:
    """Qubit bits (qubit 0 first) of the basis state encoding a Fock occupation.

    Every encoding maps the vacuum to |0...0>, and both terms of a mapped a+_p
    carry the same X mask: the qubits that a+_p flips. The state is therefore
    the XOR of those masks over the occupied modes. With taper, the two parity
    qubits are dropped.
    """
    _check_encoding(mapper, taper)
    n = len(occupations)
    state = 0
    for p, occupied in enumerate(occupations):
        if occupied:
            state ^= MAPPERS[mapper](FermionOperator.ladder(n, p, True)).terms()[0].x
    if taper:
        q1, q2 = _parity_qubits(n)
        state = _drop_bit(_drop_bit(state, q2), q1)
        n -= 2
    return tuple((state >> q) & 1 for q in range(n))


def mapping_stats(h: PauliSum) -> MappingStats:
    """Term count and mean Pauli weight, both counting the identity term."""
    terms = h.terms()
    avg = sum(t.weight for t in terms) / len(terms) if terms else 0.0
    return MappingStats(h.n_qubits, len(terms), avg)
