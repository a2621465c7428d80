"""STO-3G basis machinery and McMurchie-Davidson Gaussian integrals.

All quantities are in atomic units (bohr, hartree). Overlap, kinetic,
nuclear-attraction and repulsion integrals over Cartesian Gaussians of any
angular momentum follow McMurchie & Davidson, J. Comput. Phys. 26, 218
(1978): a product of two Gaussians is expanded in Hermite Gaussians (the E
coefficients), and Coulomb integrals over Hermite Gaussians come from the R
recurrence over Boys functions. An s function is the l = 0 case.

The kernels take a primitive or a contraction; a contraction is evaluated
over its whole primitive grid at once. The built-in STO-3G table covers H
and He; elements outside the table raise UnsupportedAngularMomentumError so
callers can fall back to a Hamiltonian fixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np
from scipy.special import gamma, gammainc

ANGSTROM_TO_BOHR = 1.8897259886

# Boys-function small-argument switch; below this the 4-term Taylor series
# and the incomplete-gamma form agree to better than 1e-14.
BOYS_TAYLOR_SWITCH = 1e-6

SHELL_LETTERS = "spdfg"


class BasisError(ValueError):
    pass


class UnsupportedAngularMomentumError(BasisError):
    """Raised for an element the basis table has no shells for."""


class GeometryError(BasisError):
    pass


def normalize_primitive(exponent: float, angular: tuple[int, int, int]) -> float:
    """Normalization constant of a Cartesian Gaussian x^i y^j z^k e^{-a r^2}."""
    if exponent <= 0:
        raise BasisError(f"exponent must be positive, got {exponent}")
    i, j, k = angular
    if min(i, j, k) < 0:
        raise BasisError(f"negative angular component in {angular}")
    l = i + j + k
    num = (8 * exponent) ** l * math.factorial(i) * math.factorial(j) * math.factorial(k)
    den = math.factorial(2 * i) * math.factorial(2 * j) * math.factorial(2 * k)
    return (2 * exponent / math.pi) ** 0.75 * math.sqrt(num / den)


@dataclass(frozen=True)
class GaussianPrimitive:
    exponent: float
    angular: tuple[int, int, int]
    center: tuple[float, float, float]
    norm: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "norm", normalize_primitive(self.exponent, self.angular))


@dataclass(frozen=True)
class ContractedOrbital:
    """Fixed linear combination of primitives sharing one center and angular part."""

    primitives: tuple[tuple[float, GaussianPrimitive], ...]

    def __post_init__(self):
        if not self.primitives:
            raise BasisError("contracted orbital needs at least one primitive")
        ang = {p.angular for _, p in self.primitives}
        cen = {p.center for _, p in self.primitives}
        if len(ang) > 1 or len(cen) > 1:
            raise BasisError("primitives of a contraction must share angular and center")


@dataclass(frozen=True)
class Molecule:
    atoms: tuple[tuple[int, tuple[float, float, float]], ...]
    charge: int = 0
    multiplicity: int = 1

    @property
    def n_electrons(self) -> int:
        n = sum(z for z, _ in self.atoms) - self.charge
        if n < 0:
            raise BasisError("negative electron count")
        return n


@dataclass(frozen=True)
class IntegralSet:
    """Contracted AO integrals; eri is physicist notation <ab|cd>."""

    overlap: np.ndarray
    kinetic: np.ndarray
    nuclear: np.ndarray
    eri: np.ndarray
    e_nuc: float


# -- McMurchie-Davidson kernels ---------------------------------------------


def boys(n: int, t):
    """Boys function F_n(t) = int_0^1 u^{2n} exp(-t u^2) du, elementwise."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise BasisError(f"Boys argument must be non-negative, got {t.min()}")
    a = n + 0.5
    tb = np.maximum(t, BOYS_TAYLOR_SWITCH)
    out = gamma(a) * gammainc(a, tb) / (2.0 * tb ** a)
    small = t < BOYS_TAYLOR_SWITCH
    if np.any(small):
        taylor = sum((-t) ** k / (math.factorial(k) * (2 * n + 2 * k + 1)) for k in range(4))
        out = np.where(small, taylor, out)
    return out[()]


def hermite_e(i: int, j: int, t: int, qx: float, a, b):
    """Hermite coefficient E^{ij}_t of the 1-D product x_A^i e^{-a x_A^2}
    x_B^j e^{-b x_B^2}, with qx = A_x - B_x; a and b may be arrays."""
    if t < 0 or t > i + j:
        return 0.0
    p = a + b
    q = a * b / p
    if i == j == t == 0:
        return np.exp(-q * qx * qx)
    if j == 0:
        return (hermite_e(i - 1, j, t - 1, qx, a, b) / (2 * p)
                - (q * qx / a) * hermite_e(i - 1, j, t, qx, a, b)
                + (t + 1) * hermite_e(i - 1, j, t + 1, qx, a, b))
    return (hermite_e(i, j - 1, t - 1, qx, a, b) / (2 * p)
            + (q * qx / b) * hermite_e(i, j - 1, t, qx, a, b)
            + (t + 1) * hermite_e(i, j - 1, t + 1, qx, a, b))


def hermite_r(p, pc):
    """Hermite Coulomb integrals R_{tuv}(p, PC) as a memoized function of
    (t, u, v). pc carries the Cartesian components on its last axis; p
    broadcasts against the rest."""
    x, y, z = pc[..., 0], pc[..., 1], pc[..., 2]
    tpc = p * (x * x + y * y + z * z)

    @cache
    def r(t, u, v, n=0):
        if t < 0 or u < 0 or v < 0:
            return 0.0
        if t:
            return (t - 1) * r(t - 2, u, v, n + 1) + x * r(t - 1, u, v, n + 1)
        if u:
            return (u - 1) * r(t, u - 2, v, n + 1) + y * r(t, u - 1, v, n + 1)
        if v:
            return (v - 1) * r(t, u, v - 2, n + 1) + z * r(t, u, v - 1, n + 1)
        return (-2.0 * p) ** n * boys(n, tpc)

    return r


def _expansion(f):
    """Exponents, normalized coefficients, angular part and center of a
    contraction; a primitive is a one-term contraction."""
    prims = ((1.0, f),) if isinstance(f, GaussianPrimitive) else f.primitives
    first = prims[0][1]
    return (np.array([p.exponent for _, p in prims]), np.array([d * p.norm for d, p in prims]),
            first.angular, np.asarray(first.center))


def _one_electron_axes(f, g):
    """Pair weights and the per-axis overlaps S_d and kinetic factors T_d
    over the primitive-pair grid of f and g."""
    xa, ca, la, ra = _expansion(f)
    xb, cb, lb, rb = _expansion(g)
    a, b = xa[:, None], xb[None, :]
    root = np.sqrt(math.pi / (a + b))

    def s1(d, j):
        return hermite_e(la[d], j, 0, ra[d] - rb[d], a, b) * root if j >= 0 else 0.0

    s = [s1(d, lb[d]) for d in range(3)]
    t = [b * (2 * lb[d] + 1) * s[d] - 2 * b * b * s1(d, lb[d] + 2)
         - 0.5 * lb[d] * (lb[d] - 1) * s1(d, lb[d] - 2) for d in range(3)]
    return ca[:, None] * cb[None, :], s, t


def overlap(f, g) -> float:
    """<f|g>."""
    w, s, _ = _one_electron_axes(f, g)
    return float(np.sum(w * s[0] * s[1] * s[2]))


def kinetic(f, g) -> float:
    """<f| -1/2 laplacian |g>."""
    w, s, t = _one_electron_axes(f, g)
    return float(np.sum(w * (t[0] * s[1] * s[2] + s[0] * t[1] * s[2] + s[0] * s[1] * t[2])))


def _pair(f, g):
    """Product of f and g as Hermite Gaussians on the primitive-pair grid:
    exponents p, centers rp, and weighted E coefficients keyed (t, u, v)."""
    xa, ca, la, ra = _expansion(f)
    xb, cb, lb, rb = _expansion(g)
    a, b = xa[:, None], xb[None, :]
    p = a + b
    rp = (a[..., None] * ra + b[..., None] * rb) / p[..., None]
    e = [[hermite_e(la[d], lb[d], t, ra[d] - rb[d], a, b) for t in range(la[d] + lb[d] + 1)]
         for d in range(3)]
    w = ca[:, None] * cb[None, :]
    coef = {(t, u, v): w * ex * ey * ez for t, ex in enumerate(e[0])
            for u, ey in enumerate(e[1]) for v, ez in enumerate(e[2])}
    return p, rp, coef


def _nuclear(pair, nucleus_center, z: int) -> float:
    p, rp, coef = pair
    r = hermite_r(p, rp - np.asarray(nucleus_center, dtype=float))
    return -z * float(np.sum(2.0 * math.pi / p * sum(e * r(*tuv) for tuv, e in coef.items())))


def _eri(bra, ket) -> float:
    (p, rp, e_bra), (q, rq, e_ket) = bra, ket
    p, q = p[:, :, None, None], q[None, None]
    r = hermite_r(p * q / (p + q), rp[:, :, None, None] - rq[None, None])
    val = 0.0
    for (t, u, v), e1 in e_bra.items():
        for (tt, uu, vv), e2 in e_ket.items():
            sign = -1.0 if (tt + uu + vv) % 2 else 1.0
            val = val + sign * e1[:, :, None, None] * e2[None, None] * r(t + tt, u + uu, v + vv)
    return float(np.sum(val * 2.0 * math.pi ** 2.5 / (p * q * np.sqrt(p + q))))


def nuclear_attraction(f, g, nucleus_center, z: int) -> float:
    """-Z <f| 1/|r - C| |g>."""
    return _nuclear(_pair(f, g), nucleus_center, z)


def eri(a, b, c, d) -> float:
    """Chemist-notation repulsion integral (ab|cd), a and b on electron 1."""
    return _eri(_pair(a, b), _pair(c, d))


def nuclear_repulsion(mol: Molecule) -> float:
    e = 0.0
    for m in range(len(mol.atoms)):
        zm, rm = mol.atoms[m]
        for n in range(m + 1, len(mol.atoms)):
            zn, rn = mol.atoms[n]
            d = math.dist(rm, rn)
            if d < 1e-10:
                raise GeometryError(f"coincident nuclei at atoms {m} and {n}")
            e += zm * zn / d
    return e


# Standard published STO-3G parameterization: per element symbol, a list of
# shells, each (angular momentum, [(exponent, contraction coefficient), ...]).
STO3G_TABLE: dict[str, list[tuple[int, list[tuple[float, float]]]]] = {
    "H": [(0, [(3.425250914, 0.1543289673),
               (0.6239137298, 0.5353281423),
               (0.1688554040, 0.4446345422)])],
    "He": [(0, [(6.362421394, 0.1543289673),
                (1.158922999, 0.5353281423),
                (0.3136497915, 0.4446345422)])],
}

ELEMENT_SYMBOLS = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8,
    "F": 9, "Ne": 10,
}
_Z_TO_SYMBOL = {z: s for s, z in ELEMENT_SYMBOLS.items()}


def load_basis_table(path) -> dict[str, list[tuple[int, list[tuple[float, float]]]]]:
    """Optional override table: one `element shell exponent coefficient` per
    line. The shell label's letter gives its angular momentum (`1s`, `2p`)."""
    table: dict[str, dict[str, tuple[int, list[tuple[float, float]]]]] = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        tok = line.split()
        if len(tok) != 4:
            raise BasisError(f"{path}:{ln}: expected `element shell exponent coefficient`")
        elem, shell = tok[0], tok[1]
        l = SHELL_LETTERS.find(shell[-1].lower())
        if l < 0:
            raise BasisError(f"{path}:{ln}: shell label {shell!r} must end in one of "
                             f"{', '.join(SHELL_LETTERS)}")
        try:
            expo, coef = float(tok[2]), float(tok[3])
        except ValueError:
            raise BasisError(f"{path}:{ln}: non-numeric exponent/coefficient") from None
        table.setdefault(elem, {}).setdefault(shell, (l, []))[1].append((expo, coef))
    return {elem: list(shells.values()) for elem, shells in table.items()}


def basis_for(mol: Molecule, table=None) -> list[ContractedOrbital]:
    """Contracted Cartesian orbitals for every atom (a p shell gives x, y, z),
    each renormalized to unit self-overlap."""
    table = STO3G_TABLE if table is None else table
    orbitals = []
    for z, center in mol.atoms:
        symbol = _Z_TO_SYMBOL.get(z, str(z))
        if symbol not in table:
            raise UnsupportedAngularMomentumError(
                f"element {symbol} (Z={z}) is not in the basis table (the built-in "
                "STO-3G covers H and He); supply its Hamiltonian as a fixture instead")
        for l, shell in table[symbol]:
            for i in range(l, -1, -1):
                for j in range(l - i, -1, -1):
                    angular = (i, j, l - i - j)
                    raw = ContractedOrbital(tuple(
                        (coef, GaussianPrimitive(expo, angular, tuple(center)))
                        for expo, coef in shell))
                    scale = 1.0 / math.sqrt(overlap(raw, raw))
                    orbitals.append(ContractedOrbital(
                        tuple((c * scale, p) for c, p in raw.primitives)))
    return orbitals


def build_integrals(mol: Molecule, table=None) -> IntegralSet:
    """Contracted S, T, V, and physicist-notation ERI tensor plus e_nuc."""
    orbitals = basis_for(mol, table)
    n = len(orbitals)
    s = np.zeros((n, n))
    t = np.zeros((n, n))
    v = np.zeros((n, n))
    pairs = {}
    for i in range(n):
        for j in range(i + 1):
            pairs[i, j] = pair = _pair(orbitals[i], orbitals[j])
            s[i, j] = s[j, i] = overlap(orbitals[i], orbitals[j])
            t[i, j] = t[j, i] = kinetic(orbitals[i], orbitals[j])
            v[i, j] = v[j, i] = sum(_nuclear(pair, rc, z) for z, rc in mol.atoms)
    chem = np.zeros((n, n, n, n))
    keys = list(pairs)
    for x, (i, j) in enumerate(keys):
        for k, l in keys[:x + 1]:
            val = _eri(pairs[i, j], pairs[k, l])
            for a, b, c, d in ((i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k)):
                chem[a, b, c, d] = chem[c, d, a, b] = val
    # physicist <pq|rs> = chemist (pr|qs)
    eri_phys = chem.transpose(0, 2, 1, 3).copy()
    return IntegralSet(s, t, v, eri_phys, nuclear_repulsion(mol))


def parse_geometry(text: str) -> Molecule:
    """Parse `units angstrom|bohr` header plus `SYMBOL x y z` atom lines."""
    scale = None
    atoms = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0].lower() == "units":
            if len(tok) != 2 or tok[1].lower() not in ("angstrom", "bohr"):
                raise GeometryError(f"line {ln}: units must be `angstrom` or `bohr`")
            scale = ANGSTROM_TO_BOHR if tok[1].lower() == "angstrom" else 1.0
            continue
        if scale is None:
            raise GeometryError(f"line {ln}: missing `units` header before atoms")
        if len(tok) != 4:
            raise GeometryError(f"line {ln}: expected `SYMBOL x y z`")
        if tok[0] not in ELEMENT_SYMBOLS:
            raise GeometryError(f"line {ln}: unknown element symbol {tok[0]!r}")
        try:
            xyz = tuple(float(u) * scale for u in tok[1:])
        except ValueError:
            raise GeometryError(f"line {ln}: non-numeric coordinate") from None
        atoms.append((ELEMENT_SYMBOLS[tok[0]], xyz))
    if not atoms:
        raise GeometryError("geometry file contains no atoms")
    return Molecule(tuple(atoms))


def load_geometry(path) -> Molecule:
    return parse_geometry(Path(path).read_text())
