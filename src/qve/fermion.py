"""Second-quantized operators: ladder strings, normal ordering, Hamiltonian assembly.

Operators act on Fock states |n_0 n_1 ... n_{k}> over spin-orbital modes with
the sign convention tied to mode-index order: a mode-p ladder operator picks up
(-1)^(number of occupied modes below p).
"""

from __future__ import annotations

import numpy as np

from .pauli import COEFF_TOL, _accumulate

CREATE = True
ANNIHILATE = False


class FermionError(ValueError):
    pass


class FermionOperator:
    """Linear combination of ladder strings over a fixed mode count.

    Stored in normal order: creations (indices strictly increasing) to the
    left of annihilations (indices strictly increasing). A ladder string is a
    tuple of (mode, create) factors, applied left to right as written; an
    empty tuple is a scalar.
    """

    __slots__ = ("n_modes", "_terms")

    def __init__(self, n_modes: int):
        self.n_modes = n_modes
        self._terms: dict[tuple[tuple[int, bool], ...], complex] = {}

    @classmethod
    def scalar(cls, n_modes: int, value: complex) -> "FermionOperator":
        op = cls(n_modes)
        _accumulate(op._terms, (), complex(value))
        return op

    @classmethod
    def from_term(cls, n_modes: int, factors, coefficient: complex = 1.0) -> "FermionOperator":
        op = cls(n_modes)
        op.add_term(tuple(factors), complex(coefficient))
        return op

    @classmethod
    def ladder(cls, n_modes: int, mode: int, create: bool) -> "FermionOperator":
        return cls.from_term(n_modes, [(mode, create)])

    def terms(self) -> list[tuple[tuple[tuple[int, bool], ...], complex]]:
        """(factors, coefficient) pairs, shortest strings first, each length
        in factor order."""
        return sorted(self._terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __len__(self) -> int:
        return len(self._terms)

    # -- normal ordering ------------------------------------------------

    def add_term(self, factors: tuple[tuple[int, bool], ...], coefficient: complex) -> None:
        """Add one ladder string times coefficient, rewriting it into normal order."""
        for mode, _ in factors:
            if not 0 <= mode < self.n_modes:
                raise FermionError(f"mode {mode} out of range for {self.n_modes} modes")
        stack = [(list(factors), coefficient)]
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
                _accumulate(self._terms, tuple(factors), coeff)

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        self._check(other)
        out = FermionOperator(self.n_modes)
        out._terms = dict(self._terms)
        for f, c in other._terms.items():
            _accumulate(out._terms, f, c)
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
            out.add_term(rev, np.conj(c))
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
            out.add_term(fa + fb, ca * cb)
    return out


def hartree_fock_occupation(n_alpha: int, n_beta: int, n_spatial: int) -> tuple[int, ...]:
    """Occupation bits of the reference determinant, one per spin-orbital
    mode in blocked (alpha then beta) spin ordering."""
    if n_alpha > n_spatial or n_beta > n_spatial:
        raise FermionError("electron count exceeds orbital count")
    return (1,) * n_alpha + (0,) * (n_spatial - n_alpha) \
        + (1,) * n_beta + (0,) * (n_spatial - n_beta)


def build_hamiltonian(h_so: np.ndarray, g_so: np.ndarray, e_offset: float) -> FermionOperator:
    """Assemble H = e_offset + sum h_pq a+_p a_q + 1/2 sum <pq|rs> a+_p a+_q a_s a_r.

    ``h_so`` and ``g_so`` are spin-orbital tensors (g in physicist notation).
    Each entry is added in its normal order, in C order: a+_p a_q already is
    normal-ordered; a+_p a+_q a_s a_r vanishes for p = q or r = s, and is
    otherwise a+_min(p,q) a+_max(p,q) a_min(r,s) a_max(r,s), its sign flipped
    once for p > q and once for s > r.
    """
    n = h_so.shape[0]
    if h_so.shape != (n, n) or g_so.shape != (n, n, n, n):
        raise FermionError("tensor shape mismatch")
    op = FermionOperator.scalar(n, e_offset)
    create = [(m, CREATE) for m in range(n)]
    annihilate = [(m, ANNIHILATE) for m in range(n)]
    # nonzero lists indices in C order, the order of the nested index loops
    p, q = np.nonzero(abs(h_so) >= COEFF_TOL)
    for a, b, v in zip(p.tolist(), q.tolist(), h_so[p, q].tolist()):
        _accumulate(op._terms, (create[a], annihilate[b]), v)
    half_g = 0.5 * g_so
    p, q, r, s = np.nonzero(abs(half_g) >= COEFF_TOL)
    keep = (p != q) & (r != s)
    value = half_g[p, q, r, s] * np.where((p > q) == (s > r), 1.0, -1.0)
    modes = np.stack([np.minimum(p, q), np.maximum(p, q), np.minimum(r, s), np.maximum(r, s)])
    for (a, b, c, d), v in zip(modes[:, keep].T.tolist(), value[keep].tolist()):
        _accumulate(op._terms, (create[a], create[b], annihilate[c], annihilate[d]), v)
    return op
