"""Second-quantized operators: ladder strings, normal ordering, Hamiltonian assembly.

Operators act on Fock states |n_0 n_1 ... n_{k}> over spin-orbital modes with
the sign convention tied to mode-index order: a mode-p ladder operator picks up
(-1)^(number of occupied modes below p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import COEFF_TOL

CREATE = True
ANNIHILATE = False


class FermionError(ValueError):
    pass


@dataclass(frozen=True)
class FockState:
    """Occupation bit list over spin-orbital modes."""

    occupations: tuple[int, ...]

    @property
    def n_modes(self) -> int:
        return len(self.occupations)

    def index(self) -> int:
        """Basis index with mode 0 as the least significant bit."""
        return sum(b << i for i, b in enumerate(self.occupations))

    @classmethod
    def from_index(cls, idx: int, n_modes: int) -> "FockState":
        return cls(tuple((idx >> i) & 1 for i in range(n_modes)))


@dataclass(frozen=True)
class LadderTerm:
    """Ordered product of ladder operators with a complex coefficient.

    ``factors`` applies left to right as written; an empty tuple is a scalar.
    """

    factors: tuple[tuple[int, bool], ...]
    coefficient: complex


class FermionOperator:
    """Linear combination of ladder strings over a fixed mode count.

    Stored in normal order: creations (indices strictly increasing) to the
    left of annihilations (indices strictly increasing).
    """

    __slots__ = ("n_modes", "_terms")

    def __init__(self, n_modes: int):
        self.n_modes = n_modes
        self._terms: dict[tuple[tuple[int, bool], ...], complex] = {}

    @classmethod
    def zero(cls, n_modes: int) -> "FermionOperator":
        return cls(n_modes)

    @classmethod
    def scalar(cls, n_modes: int, value: complex) -> "FermionOperator":
        op = cls(n_modes)
        op._add_normal((), complex(value))
        return op

    @classmethod
    def from_term(cls, n_modes: int, factors, coefficient: complex = 1.0) -> "FermionOperator":
        op = cls(n_modes)
        op.add_term(LadderTerm(tuple(factors), complex(coefficient)))
        return op

    @classmethod
    def ladder(cls, n_modes: int, mode: int, create: bool) -> "FermionOperator":
        return cls.from_term(n_modes, [(mode, create)])

    def terms(self) -> list[LadderTerm]:
        return [LadderTerm(f, c) for f, c in sorted(self._terms.items(),
                                                    key=lambda kv: (len(kv[0]), kv[0]))]

    def __len__(self) -> int:
        return len(self._terms)

    # -- normal ordering ------------------------------------------------

    def _add_normal(self, factors: tuple[tuple[int, bool], ...], coeff: complex) -> None:
        c = self._terms.get(factors, 0.0) + coeff
        if abs(c) < COEFF_TOL:
            self._terms.pop(factors, None)
        else:
            self._terms[factors] = c

    def add_term(self, term: LadderTerm) -> None:
        """Add one ladder string, rewriting it into normal order."""
        for mode, _ in term.factors:
            if not 0 <= mode < self.n_modes:
                raise FermionError(f"mode {mode} out of range for {self.n_modes} modes")
        stack = [(list(term.factors), term.coefficient)]
        while stack:
            factors, coeff = stack.pop()
            swapped = False
            for i in range(len(factors) - 1):
                (p, kp), (q, kq) = factors[i], factors[i + 1]
                if kp == ANNIHILATE and kq == CREATE:
                    # a_p a_q^+ = delta_pq - a_q^+ a_p
                    rest = factors[:i] + factors[i + 2:]
                    if p == q:
                        stack.append((rest, coeff))
                    swapped_factors = factors[:i] + [(q, kq), (p, kp)] + factors[i + 2:]
                    stack.append((swapped_factors, -coeff))
                    swapped = True
                    break
                if kp == kq and p == q:
                    swapped = None  # nilpotent: term vanishes
                    break
                if kp == kq and p > q:
                    swapped_factors = factors[:i] + [(q, kq), (p, kp)] + factors[i + 2:]
                    stack.append((swapped_factors, -coeff))
                    swapped = True
                    break
            if swapped is None:
                continue
            if not swapped:
                self._add_normal(tuple(factors), coeff)

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        self._check(other)
        out = FermionOperator(self.n_modes)
        out._terms = dict(self._terms)
        for f, c in other._terms.items():
            out._add_normal(f, c)
        return out

    def __sub__(self, other: "FermionOperator") -> "FermionOperator":
        return self + (other * -1.0)

    def __mul__(self, scalar: complex) -> "FermionOperator":
        out = FermionOperator(self.n_modes)
        for f, c in self._terms.items():
            cc = c * scalar
            if abs(cc) >= COEFF_TOL:
                out._terms[f] = cc
        return out

    __rmul__ = __mul__

    def dagger(self) -> "FermionOperator":
        out = FermionOperator(self.n_modes)
        for f, c in self._terms.items():
            rev = tuple((m, not k) for m, k in reversed(f))
            out.add_term(LadderTerm(rev, np.conj(c)))
        return out

    def _check(self, other: "FermionOperator") -> None:
        if other.n_modes != self.n_modes:
            raise FermionError("mode-count mismatch")


def multiply(a: FermionOperator, b: FermionOperator) -> FermionOperator:
    """Operator product, normal-ordered via the anticommutation relations."""
    a._check(b)
    out = FermionOperator(a.n_modes)
    for fa, ca in a._terms.items():
        for fb, cb in b._terms.items():
            out.add_term(LadderTerm(fa + fb, ca * cb))
    return out


def apply_to_fock(op: FermionOperator, state: FockState) -> list[tuple[FockState, complex]]:
    """Expansion of op|state> as (state, amplitude) pairs."""
    results: dict[tuple[int, ...], complex] = {}
    for term in op.terms():
        bits = list(state.occupations)
        phase = 1.0 + 0.0j
        dead = False
        for mode, create in reversed(term.factors):
            sign = -1.0 if sum(bits[:mode]) % 2 else 1.0
            if create:
                if bits[mode]:
                    dead = True
                    break
                bits[mode] = 1
            else:
                if not bits[mode]:
                    dead = True
                    break
                bits[mode] = 0
            phase *= sign
        if dead:
            continue
        key = tuple(bits)
        amp = results.get(key, 0.0) + term.coefficient * phase
        if abs(amp) < COEFF_TOL:
            results.pop(key, None)
        else:
            results[key] = amp
    return [(FockState(k), v) for k, v in sorted(results.items())]


def to_matrix(op: FermionOperator) -> np.ndarray:
    """Dense matrix over the full 2^n Fock space (test-scale sizes only)."""
    dim = 1 << op.n_modes
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        for out_state, amp in apply_to_fock(op, FockState.from_index(col, op.n_modes)):
            mat[out_state.index(), col] += amp
    return mat


def hartree_fock_occupation(n_alpha: int, n_beta: int, n_spatial: int) -> FockState:
    """Reference determinant in blocked (alpha then beta) spin ordering."""
    if n_alpha > n_spatial or n_beta > n_spatial:
        raise FermionError("electron count exceeds orbital count")
    occ = [1] * n_alpha + [0] * (n_spatial - n_alpha) \
        + [1] * n_beta + [0] * (n_spatial - n_beta)
    return FockState(tuple(occ))


def build_hamiltonian(h_so: np.ndarray, g_so: np.ndarray, e_offset: float) -> FermionOperator:
    """Assemble H = e_offset + sum h_pq a+_p a_q + 1/2 sum <pq|rs> a+_p a+_q a_s a_r.

    ``h_so`` and ``g_so`` are spin-orbital tensors (g in physicist notation).
    """
    n = h_so.shape[0]
    if h_so.shape != (n, n) or g_so.shape != (n, n, n, n):
        raise FermionError("tensor shape mismatch")
    op = FermionOperator.scalar(n, e_offset)
    for p in range(n):
        for q in range(n):
            if abs(h_so[p, q]) >= COEFF_TOL:
                op.add_term(LadderTerm(((p, CREATE), (q, ANNIHILATE)), h_so[p, q]))
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    c = 0.5 * g_so[p, q, r, s]
                    if abs(c) >= COEFF_TOL:
                        op.add_term(LadderTerm(
                            ((p, CREATE), (q, CREATE), (s, ANNIHILATE), (r, ANNIHILATE)), c))
    return op
