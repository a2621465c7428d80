"""Sparse n-qubit Pauli-sum arithmetic and exact diagonalization.

Terms are stored in symplectic form: a pair of bitmasks (x, z) denotes the
operator word ``prod_q X^x_q Z^z_q``. A ``Y`` on qubit q corresponds to
x_q = z_q = 1 with a factor of i folded into the stored coefficient
(Y = i X Z), so label round-trips like ``"XYZI"`` are exact and term
multiplication reduces to mask XORs plus integer phase bookkeeping.

Qubit 0 is the least significant bit of all basis-state indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

COEFF_TOL = 1e-12
# Largest qubit count with a dense matrix: 2^14 x 2^14 complex is 4 GiB.
DENSE_CAP = 14

_LABEL_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_LABEL = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


class PauliError(ValueError):
    pass


class DenseCapError(PauliError):
    """A dense matrix was requested for more qubits than the cap allows."""


def parity_signs(indices: np.ndarray, mask: int) -> np.ndarray:
    """(-1)^popcount(b & mask) for each basis index b in indices."""
    return 1.0 - 2.0 * (np.bitwise_count(indices & mask) & 1)


@lru_cache(maxsize=512)
def flip_index(n: int, mask: int) -> np.ndarray:
    """b ^ mask for every n-qubit basis index b: X^mask sends |b> to |b ^ mask>.
    Cached and shared, so read-only."""
    out = np.arange(1 << n) ^ mask
    out.flags.writeable = False
    return out


@lru_cache(maxsize=512)
def z_signs(n: int, mask: int) -> np.ndarray:
    """The diagonal of Z^mask on n qubits. Cached and shared, so read-only."""
    out = parity_signs(np.arange(1 << n), mask)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PauliTerm:
    """One Pauli word with a complex coefficient, in (x, z) mask form."""

    n_qubits: int
    x: int
    z: int
    coefficient: complex

    @classmethod
    def from_label(cls, label: str, coefficient: complex = 1.0) -> "PauliTerm":
        """Build a term from a string like "XYZI"; index 0 is qubit 0."""
        x = z = 0
        n_y = 0
        for q, ch in enumerate(label):
            try:
                xb, zb = _LABEL_TO_XZ[ch]
            except KeyError:
                raise PauliError(f"invalid Pauli letter {ch!r}") from None
            x |= xb << q
            z |= zb << q
            n_y += xb & zb
        return cls(len(label), x, z, complex(coefficient) * (1j**n_y))

    @property
    def label_coefficient(self) -> complex:
        """Coefficient with the folded Y-phases removed (the XYZ-string basis)."""
        return self.coefficient * (-1j) ** (self.x & self.z).bit_count()

    def label(self) -> str:
        return "".join(
            _XZ_TO_LABEL[((self.x >> q) & 1, (self.z >> q) & 1)]
            for q in range(self.n_qubits)
        )

    @property
    def weight(self) -> int:
        """Number of non-identity single-qubit factors."""
        return (self.x | self.z).bit_count()


def multiply_terms(a: PauliTerm, b: PauliTerm) -> PauliTerm:
    """Product of two Pauli words; phase tracked exactly."""
    if a.n_qubits != b.n_qubits:
        raise PauliError("qubit-count mismatch")
    sign = -1.0 if (a.z & b.x).bit_count() % 2 else 1.0
    return PauliTerm(a.n_qubits, a.x ^ b.x, a.z ^ b.z, a.coefficient * b.coefficient * sign)


class PauliSum:
    """Weighted sum of Pauli words over a fixed qubit count."""

    __slots__ = ("n_qubits", "_terms")

    def __init__(self, n_qubits: int, terms: dict[tuple[int, int], complex] | None = None):
        self.n_qubits = n_qubits
        self._terms: dict[tuple[int, int], complex] = dict(terms or {})

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliSum":
        return cls(n_qubits)

    @classmethod
    def identity(cls, n_qubits: int, coefficient: complex = 1.0) -> "PauliSum":
        return cls(n_qubits, {(0, 0): complex(coefficient)})

    @classmethod
    def from_terms(cls, terms: list[PauliTerm]) -> "PauliSum":
        if not terms:
            raise PauliError("empty term list; use PauliSum.zero")
        s = cls(terms[0].n_qubits)
        for t in terms:
            s.add_term(t)
        return s

    @classmethod
    def from_labels(cls, pairs: list[tuple[str, complex]]) -> "PauliSum":
        return cls.from_terms([PauliTerm.from_label(lbl, c) for lbl, c in pairs])

    # -- basic algebra --------------------------------------------------

    def add_term(self, term: PauliTerm) -> None:
        if term.n_qubits != self.n_qubits:
            raise PauliError("qubit-count mismatch")
        key = (term.x, term.z)
        c = self._terms.get(key, 0.0) + term.coefficient
        if abs(c) < COEFF_TOL:
            self._terms.pop(key, None)
        else:
            self._terms[key] = c

    def terms(self) -> list[PauliTerm]:
        return [
            PauliTerm(self.n_qubits, x, z, c)
            for (x, z), c in sorted(self._terms.items())
        ]

    def items(self) -> tuple[tuple[tuple[int, int], complex], ...]:
        """Hashable snapshot of the contents: ((x, z), coefficient) pairs, sorted."""
        return tuple(sorted(self._terms.items()))

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if other.n_qubits != self.n_qubits:
            raise PauliError("qubit-count mismatch")
        out = PauliSum(self.n_qubits, self._terms)
        for t in other.terms():
            out.add_term(t)
        return out

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (other * -1.0)

    def __mul__(self, scalar: complex) -> "PauliSum":
        out = PauliSum(self.n_qubits)
        for (x, z), c in self._terms.items():
            cc = c * scalar
            if abs(cc) >= COEFF_TOL:
                out._terms[(x, z)] = cc
        return out

    __rmul__ = __mul__

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        if other.n_qubits != self.n_qubits:
            raise PauliError("qubit-count mismatch")
        out = PauliSum(self.n_qubits)
        for ta in self.terms():
            for tb in other.terms():
                out.add_term(multiply_terms(ta, tb))
        return out

    def dagger(self) -> "PauliSum":
        out = PauliSum(self.n_qubits)
        for (x, z), c in self._terms.items():
            # (X^x Z^z)^dagger = (-1)^{x.z} X^x Z^z
            sign = -1.0 if (x & z).bit_count() % 2 else 1.0
            out._terms[(x, z)] = np.conj(c) * sign
        return out

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        for (x, z), c in self._terms.items():
            lbl_c = c * (-1j) ** (x & z).bit_count()
            if abs(lbl_c.imag) > tol:
                return False
        return True

    def coefficient(self, label: str) -> complex:
        t = PauliTerm.from_label(label)
        return self._terms.get((t.x, t.z), 0.0) * (-1j) ** (t.x & t.z).bit_count()

    # -- dense realization ----------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix of the sum; refused above DENSE_CAP qubits."""
        if self.n_qubits > DENSE_CAP:
            raise DenseCapError(
                f"{self.n_qubits} qubits exceeds dense-matrix cap {DENSE_CAP}"
            )
        dim = 1 << self.n_qubits
        basis = np.arange(dim)
        mat = np.zeros((dim, dim), dtype=complex)
        for (x, z), c in self._terms.items():
            # X^x Z^z |b> = (-1)^{popcount(b & z)} |b ^ x>
            mat[basis ^ x, basis] += c * parity_signs(basis, z)
        return mat


def exact_ground_energy(h: PauliSum) -> tuple[float, np.ndarray]:
    """Minimum eigenvalue and a unit ground vector of a Hermitian sum."""
    if not h.is_hermitian():
        raise PauliError("ground-energy request for a non-Hermitian sum")
    mat = h.to_matrix()
    evals, evecs = np.linalg.eigh(mat)
    return float(evals[0]), evecs[:, 0]


def expectation_exact(h: PauliSum, state: np.ndarray) -> float:
    """<state|h|state> for a normalized state vector."""
    state = np.asarray(state, dtype=complex)
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-10:
        raise PauliError(f"state is not normalized (norm {norm})")
    n = h.n_qubits
    if state.shape != (1 << n,):
        raise PauliError("state dimension mismatch")
    val = 0.0 + 0.0j
    for (x, z), c in h._terms.items():
        val += c * np.vdot(state[flip_index(n, x)], z_signs(n, z) * state)
    if h.is_hermitian() and abs(val.imag) > 1e-10:
        raise PauliError("expectation of a Hermitian sum came out complex")
    return float(val.real)
