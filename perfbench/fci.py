"""Reference energies for the benchmark's output checks, independent of qve.

A determinant-basis full CI over the fixed (n_alpha, n_beta) sector of a
Hamiltonian fixture file. It parses the fixture itself, applies the
Hamiltonian with its own bit-string ladder algebra and finds the lowest
eigenvalue by Lanczos with full reorthogonalisation and Sturm bisection.
Pure standard library: it imports nothing from qve (no fermion, mapping or
Pauli code) and no NumPy, so a fault there cannot hide in the reference.
"""

from __future__ import annotations

import itertools
import math


def _orbit(p, q, r, s):
    """The 8-fold symmetry orbit of a real physicist-notation <pq|rs>."""
    return {(p, q, r, s), (q, p, s, r), (r, s, p, q), (s, r, q, p),
            (r, q, p, s), (s, p, q, r), (p, s, r, q), (q, r, s, p)}


def parse_fixture(text: str) -> dict:
    """Headers, one-electron h[p][q] and two-electron g[(p,q,r,s)] = <pq|rs>."""
    head = {"norb": 1, "nalpha": 0, "nbeta": 0, "constant": 0.0}
    h1, g = {}, {}
    for raw in text.splitlines():
        tok = raw.split("#")[0].split()
        if not tok:
            continue
        if tok[0] in ("norb", "nalpha", "nbeta"):
            head[tok[0]] = int(tok[1])
        elif tok[0] == "constant":
            head["constant"] = float(tok[1])
        elif tok[0] == "h":
            p, q, v = int(tok[1]), int(tok[2]), float(tok[3])
            h1[(p, q)] = h1[(q, p)] = v
        elif tok[0] == "g":
            v = float(tok[5])
            for idx in _orbit(*(int(t) for t in tok[1:5])):
                g[idx] = v
        else:
            raise ValueError(f"unrecognised fixture line {raw!r}")
    return {**head, "h": h1, "g": g}


def _sign(det: int, k: int) -> int:
    return -1 if (det & ((1 << k) - 1)).bit_count() & 1 else 1


class _Hamiltonian:
    """Spin orbital k < n is (k, alpha); k >= n is (k - n, beta)."""

    def __init__(self, fx: dict):
        self.n = fx["norb"]
        self.const = fx["constant"]
        self.h = fx["h"]
        self.g = fx["g"]

    def _one(self, p: int, q: int) -> float:
        n = self.n
        if (p < n) != (q < n):
            return 0.0
        return self.h.get((p % n, q % n), 0.0)

    def _two(self, p: int, q: int, r: int, s: int) -> float:
        """Spin-orbital <pq|rs>: spatial integral times spin deltas."""
        n = self.n
        if (p < n) != (r < n) or (q < n) != (s < n):
            return 0.0
        return self.g.get((p % n, q % n, r % n, s % n), 0.0)

    def apply(self, det: int) -> dict[int, float]:
        """H|det> as {det': amplitude}, from sum h a+p aq and the
        antisymmetrised sum over p<q, r<s of <pq||rs> a+p a+q as ar."""
        out: dict[int, float] = {det: self.const}
        m = 2 * self.n
        occ = [k for k in range(m) if det >> k & 1]
        for q in occ:
            d1 = det ^ (1 << q)
            s1 = _sign(det, q)
            for p in range(m):
                if d1 >> p & 1:
                    continue
                v = self._one(p, q)
                if v:
                    d2 = d1 | (1 << p)
                    out[d2] = out.get(d2, 0.0) + s1 * _sign(d1, p) * v
        for r, s in itertools.combinations(occ, 2):
            d1 = det ^ (1 << r)
            s1 = _sign(det, r)
            s1 *= _sign(d1, s)
            d1 ^= 1 << s
            free = [k for k in range(m) if not d1 >> k & 1]
            for p, q in itertools.combinations(free, 2):
                v = self._two(p, q, r, s) - self._two(p, q, s, r)
                if not v:
                    continue
                sq = _sign(d1, q)
                d2 = d1 | (1 << q)
                d3 = d2 | (1 << p)
                out[d3] = out.get(d3, 0.0) + s1 * sq * _sign(d2, p) * v
        return out


def _sector(n: int, n_alpha: int, n_beta: int) -> list[int]:
    alphas = [sum(1 << k for k in c) for c in itertools.combinations(range(n), n_alpha)]
    betas = [sum(1 << (n + k) for k in c) for c in itertools.combinations(range(n), n_beta)]
    return [a | b for a in alphas for b in betas]


def _lowest_tridiagonal(alpha: list[float], beta: list[float]) -> float:
    """Lowest eigenvalue of the symmetric tridiagonal (alpha, beta) by bisection."""
    k = len(alpha)
    lo = min(alpha[i] - (abs(beta[i - 1]) if i else 0.0)
             - (abs(beta[i]) if i < k - 1 else 0.0) for i in range(k))
    hi = max(alpha)

    def below(x: float) -> int:
        count, d = 0, 1.0
        for i in range(k):
            d = alpha[i] - x - (beta[i - 1] ** 2 / d if i else 0.0)
            if d == 0.0:
                d = 1e-300
            if d < 0:
                count += 1
        return count

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if below(mid) >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _lowest_eigenvalue(rows: list[dict[int, float]], start: list[float]) -> float:
    dim = len(rows)

    def matvec(v):
        return [sum(a * v[j] for j, a in row.items()) for row in rows]

    def dot(a, b):
        return math.fsum(x * y for x, y in zip(a, b))

    norm = math.sqrt(dot(start, start))
    basis = [[x / norm for x in start]]
    alpha: list[float] = []
    beta: list[float] = []
    history = [math.inf] * 3
    while True:
        w = matvec(basis[-1])
        alpha.append(dot(w, basis[-1]))
        for _ in range(2):  # full reorthogonalisation, twice for stability
            for b in basis:
                c = dot(w, b)
                w = [x - c * y for x, y in zip(w, b)]
        e = _lowest_tridiagonal(alpha, beta)
        bnorm = math.sqrt(dot(w, w))
        # converged once the Ritz value has stood still for three steps
        if len(basis) == dim or bnorm < 1e-12 or max(history) - e < 1e-13:
            return e
        history = history[1:] + [e]
        beta.append(bnorm)
        basis.append([x / bnorm for x in w])


def fci_energies(fixture_text: str) -> tuple[float, float]:
    """(E0, E_HF): the sector's lowest eigenvalue and the diagonal element of
    the determinant occupying the lowest n_alpha and n_beta orbitals."""
    fx = parse_fixture(fixture_text)
    n = fx["norb"]
    ham = _Hamiltonian(fx)
    dets = _sector(n, fx["nalpha"], fx["nbeta"])
    index = {d: i for i, d in enumerate(dets)}
    rows = []
    for d in dets:
        row: dict[int, float] = {}
        for d2, v in ham.apply(d).items():
            j = index[d2]
            row[j] = row.get(j, 0.0) + v
        rows.append(row)
    hf = dets[0]  # the lowest n_alpha and n_beta orbitals
    e_hf = rows[index[hf]][index[hf]]
    # HF plus a small deterministic spread over every determinant, so the
    # Krylov space is not confined to the HF determinant's symmetry.
    start = [1.0 + 0.1 * math.sin(1.0 + 7.0 * i) for i in range(len(dets))]
    start[index[hf]] += len(dets)
    return _lowest_eigenvalue(rows, start), e_hf
