"""Sparse n-qubit Pauli-sum arithmetic and exact diagonalization.

A term is a label word such as ``"XYZI"`` with the coefficient of that word,
so a Hermitian sum has real coefficients. The word is stored as a pair of
bitmasks (x, z): qubit q holds X, Y or Z when only x_q, both, or only z_q is
set. Since Y = i X Z, the word acts as `word_phase(x, z)` X^x Z^z; only that
helper and the mapper, which multiplies words in X^x Z^z form, use the phase.

Qubit 0 is the least significant bit of all basis-state indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

COEFF_TOL = 1e-12
# Largest basis the exact solver accepts. Its sparse matrix holds one entry per
# connected pair of basis states, a few hundred per state for a molecule.
SECTOR_CAP = 1 << 14
# Largest basis diagonalized densely by eigh; above it, Lanczos.
DENSE_SOLVE_MAX = 1024
# (group or term, column) entries that one step of the sparse-matrix build
# holds, at most 34 bytes of temporaries each.
COO_BLOCK = 1 << 18

_LABEL_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_LABEL = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


class PauliError(ValueError):
    pass


class DenseCapError(PauliError):
    """A dense array or an exact solve was requested above its size cap."""


class LanczosError(PauliError):
    """The Lanczos iteration did not converge within its step limit."""


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


def _accumulate(terms: dict, key, c) -> None:
    """terms[key] += c, and the key dropped while its sum is under COEFF_TOL:
    the one sum-and-drop rule of Pauli sums and fermion operators."""
    c = terms.get(key, 0.0) + c
    if abs(c) < COEFF_TOL:
        terms.pop(key, None)
    else:
        terms[key] = c


def word_phase(x: int, z: int) -> complex:
    """i^popcount(x & z): the label word with masks (x, z) is this phase times
    X^x Z^z, one factor i per Y."""
    return (1, 1j, -1, -1j)[(x & z).bit_count() % 4]


@dataclass(frozen=True)
class PauliTerm:
    """One label word with its complex coefficient, in (x, z) mask form."""

    n_qubits: int
    x: int
    z: int
    coefficient: complex

    @classmethod
    def from_label(cls, label: str, coefficient: complex = 1.0) -> "PauliTerm":
        """Build a term from a string like "XYZI"; index 0 is qubit 0."""
        x = z = 0
        for q, ch in enumerate(label):
            try:
                xb, zb = _LABEL_TO_XZ[ch]
            except KeyError:
                raise PauliError(f"invalid Pauli letter {ch!r}") from None
            x |= xb << q
            z |= zb << q
        return cls(len(label), x, z, complex(coefficient))

    def label(self) -> str:
        return "".join(
            _XZ_TO_LABEL[((self.x >> q) & 1, (self.z >> q) & 1)]
            for q in range(self.n_qubits)
        )

    @property
    def weight(self) -> int:
        """Number of non-identity single-qubit factors."""
        return (self.x | self.z).bit_count()


class PauliSum:
    """Weighted sum of Pauli words over a fixed qubit count, built once: by
    `PauliSum(n, terms)`, `from_terms` or `from_labels`."""

    __slots__ = ("n_qubits", "_terms", "_plan")

    def __init__(self, n_qubits: int, terms: dict[tuple[int, int], complex] | None = None):
        self.n_qubits = n_qubits
        self._terms: dict[tuple[int, int], complex] = dict(terms or {})
        # the estimator's measurement plan, built from the terms at the first
        # estimate and kept for the sum's life
        self._plan = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliSum":
        return cls(n_qubits)

    @classmethod
    def from_terms(cls, terms: list[PauliTerm]) -> "PauliSum":
        if not terms:
            raise PauliError("empty term list; use PauliSum.zero")
        s = cls(terms[0].n_qubits)
        for t in terms:
            if t.n_qubits != s.n_qubits:
                raise PauliError("qubit-count mismatch")
            _accumulate(s._terms, (t.x, t.z), t.coefficient)
        return s

    @classmethod
    def from_labels(cls, pairs: list[tuple[str, complex]]) -> "PauliSum":
        return cls.from_terms([PauliTerm.from_label(lbl, c) for lbl, c in pairs])

    # -- contents -------------------------------------------------------

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

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return all(abs(c.imag) <= tol for c in self._terms.values())

    def coefficient(self, label: str) -> complex:
        t = PauliTerm.from_label(label)
        return self._terms.get((t.x, t.z), 0.0)


def _restricted_coo(h: PauliSum, basis: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, column, value) triples of h restricted to a sorted array of basis
    indices; rows and columns are positions in `basis`.

    X^x Z^z |b> = (-1)^popcount(b & z) |b ^ x>, so each term, c word_phase(x, z)
    X^x Z^z, sends column b to row searchsorted(basis, b ^ x); targets outside
    the basis are dropped. The terms sharing an x mask form a group, and the
    groups come in order of first appearance. A group's value at column b is
    the sum of its terms' c (-1)^popcount(b & z), added in term order along
    the term axis of one (terms x columns) array. Distinct x masks send a
    column to distinct rows, so no (row, column) pair repeats. No step holds
    more than COO_BLOCK (group or term, column) entries at once.
    """
    by_x: dict[int, tuple[list[int], list[complex]]] = {}
    for (x, z), c in h._terms.items():
        zs, cs = by_x.setdefault(x, ([], []))
        zs.append(z)
        cs.append(c * word_phase(x, z))
    if not by_x:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0, dtype=complex)
    dim = len(basis)
    # each group's columns whose target lies in the basis, and their rows
    padded = np.append(basis, -1)  # searchsorted gives dim past the last state
    xs = np.array(list(by_x))
    cols, rows, bounds = [], [], [0]
    step = max(1, COO_BLOCK // dim)
    for g0 in range(0, len(xs), step):
        target = basis ^ xs[g0:g0 + step, None]
        row = np.searchsorted(basis, target)
        hit = padded[row] == target
        g, col = np.nonzero(hit)
        cols.append(col)
        rows.append(row[g, col])
        bounds += (bounds[-1] + np.cumsum(hit.sum(axis=1))).tolist()
    cols, rows = np.concatenate(cols), np.concatenate(rows)
    val = np.empty(len(cols), dtype=complex)
    for (zs, cs), p0, p1 in zip(by_x.values(), bounds, bounds[1:]):
        z, c = np.array(zs)[:, None], np.array(cs)[:, None]
        if not c.imag.any():
            c = c.real  # the loop's imaginary parts would all sum to +0.0
        step = max(1, COO_BLOCK // len(zs))
        for a in range(p0, p1, step):
            b = min(a + step, p1)
            odd = np.bitwise_count(basis[cols[a:b]] & z) & 1
            total = np.zeros(b - a, dtype=c.dtype)
            for term in c - 2 * c * odd:  # each term's c (-1)^popcount(b & z)
                total += term
            val[a:b] = total
    nonzero = val != 0
    return rows[nonzero], cols[nonzero], val[nonzero]


def _lanczos(rows, cols, vals, dim: int, max_steps: int = 400,
             tol: float = 1e-10) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the Hermitian COO matrix by Lanczos with full
    reorthogonalisation, stopping once the Ritz residual |beta_k s_k| < tol."""
    if np.iscomplexobj(vals):
        def matvec(v):
            prod = vals * v[cols]
            return (np.bincount(rows, prod.real, dim)
                    + 1j * np.bincount(rows, prod.imag, dim))
    else:
        def matvec(v):
            return np.bincount(rows, vals * v[cols], dim)
    steps = min(dim, max_steps)
    basis = np.zeros((steps, dim), dtype=vals.dtype)
    # a fixed random start overlaps every eigenvector, whatever its symmetry
    v = np.random.default_rng(0).standard_normal(dim).astype(vals.dtype)
    basis[0] = v / np.linalg.norm(v)
    alpha, beta = [], []
    for k in range(steps):
        w = matvec(basis[k])
        alpha.append(np.vdot(basis[k], w).real)
        for _ in range(2):  # full reorthogonalisation, twice for stability
            w -= (basis[:k + 1].conj() @ w) @ basis[:k + 1]
        b = float(np.linalg.norm(w))
        tri = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        theta, s = np.linalg.eigh(tri)
        if abs(b * s[k, 0]) < tol or b < tol or k + 1 == dim:
            vec = s[:, 0] @ basis[:k + 1]
            return float(theta[0]), vec / np.linalg.norm(vec)
        if k + 1 < steps:
            beta.append(b)
            basis[k + 1] = w / b
    raise LanczosError(f"Lanczos did not converge in {steps} steps on {dim} states")


def exact_ground_energy(h: PauliSum, basis: np.ndarray | None = None
                        ) -> tuple[float, np.ndarray]:
    """Minimum eigenvalue of a Hermitian sum's block on `basis`, a sorted
    array of basis indices (all 2^n states by default), and a unit ground
    vector of amplitudes on those indices. On a symmetry sector of h, such as
    a fixed electron count, the block's spectrum is h's spectrum there.

    Dense eigh up to DENSE_SOLVE_MAX states, Lanczos above; more than
    SECTOR_CAP states are refused before anything is allocated.
    """
    if not h.is_hermitian():
        raise PauliError("ground-energy request for a non-Hermitian sum")
    dim = (1 << h.n_qubits) if basis is None else len(basis)
    if dim > SECTOR_CAP:
        raise DenseCapError(f"{dim} basis states on {h.n_qubits} qubits exceed "
                            f"the exact-solver cap {SECTOR_CAP}")
    if basis is None:
        basis = np.arange(dim)
    rows, cols, vals = _restricted_coo(h, basis)
    if not vals.imag.any():
        vals = vals.real
    if dim > DENSE_SOLVE_MAX:
        return _lanczos(rows, cols, vals, dim)
    mat = np.zeros((dim, dim), dtype=vals.dtype)
    mat[rows, cols] = vals
    evals, evecs = np.linalg.eigh(mat)
    return float(evals[0]), evecs[:, 0]


def expectation_exact(h: PauliSum, state: np.ndarray) -> float:
    """<state|h|state> for a normalized state vector, term by term. The run
    path's exact expectation is the estimator's at shots=0; this loop is the
    tests' per-term reference, and the benchmark wraps it by name, so it
    moves to the test oracles once the benchmark reads a trace instead."""
    state = np.asarray(state, dtype=complex)
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-10:
        raise PauliError(f"state is not normalized (norm {norm})")
    n = h.n_qubits
    if state.shape != (1 << n,):
        raise PauliError("state dimension mismatch")
    val = 0.0 + 0.0j
    for (x, z), c in h._terms.items():
        val += c * word_phase(x, z) * np.vdot(state[flip_index(n, x)], z_signs(n, z) * state)
    if h.is_hermitian() and abs(val.imag) > 1e-10:
        raise PauliError("expectation of a Hermitian sum came out complex")
    return float(val.real)
