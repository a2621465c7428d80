"""STO-3G basis machinery and McMurchie-Davidson Gaussian integrals.

All quantities are in atomic units (bohr, hartree). Overlap, kinetic,
nuclear-attraction and repulsion integrals over Cartesian Gaussians of any
angular momentum follow McMurchie & Davidson, J. Comput. Phys. 26, 218
(1978): a product of two Gaussians is expanded in Hermite Gaussians (the E
coefficients), and Coulomb integrals over Hermite Gaussians come from the R
recurrence over Boys functions. An s function is the l = 0 case. The Boys
function is plain NumPy: a series of positive terms below a cut-over that
grows with the order, the asymptotic form above it, and downward recursion
to the lower orders a Coulomb integral needs.

The kernels take a primitive or a contraction; a contraction is evaluated
over its whole primitive grid at once. STO-3G covers H to Ne by one rule:
a universal zeta = 1 expansion per shell (1s; 2s and 2p with shared
exponents), scaled by each element's Slater exponents. Elements past Ne
raise UnsupportedElementError so callers can fall back to a
Hamiltonian fixture.

A geometry file may name the active space with `core` and `active` lines;
`Molecule.active_space` checks them against the MO count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

ANGSTROM_TO_BOHR = 1.8897259886


class BasisError(ValueError):
    pass


class UnsupportedElementError(BasisError):
    """Raised for an element past Ne, which has no built-in STO-3G shells."""


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
    """Nuclei (Z, position in bohr) and an active space: `core` lists the
    doubly occupied MOs to freeze, `active` the MOs to keep (None: every MO
    outside the core)."""

    atoms: tuple[tuple[int, tuple[float, float, float]], ...]
    charge: int = 0
    core: tuple[int, ...] = ()
    active: tuple[int, ...] | None = None

    @property
    def n_electrons(self) -> int:
        n = sum(z for z, _ in self.atoms) - self.charge
        if n < 0:
            raise BasisError("negative electron count")
        return n

    def active_space(self, n_mo: int) -> tuple[list[int], list[int], int]:
        """Core MOs, active MOs and active electron pairs over n_mo MOs;
        GeometryError when the lists do not fit the MOs or the electrons."""
        core = list(self.core)
        active = ([m for m in range(n_mo) if m not in core] if self.active is None
                  else list(self.active))
        for name, mos in (("core", core), ("active", active)):
            bad = [m for m in mos if not 0 <= m < n_mo]
            if bad:
                raise GeometryError(f"{name} MO {bad[0]} is outside 0..{n_mo - 1}")
            if len(set(mos)) != len(mos):
                raise GeometryError(f"{name} MOs {mos} repeat an index")
        if set(core) & set(active):
            raise GeometryError(f"MOs {sorted(set(core) & set(active))} are both core "
                                "and active")
        pairs = self.n_electrons // 2 - len(core)
        if pairs < 0:
            raise GeometryError(f"{len(core)} core MOs but only "
                                f"{self.n_electrons // 2} electron pairs")
        if pairs > len(active):
            raise GeometryError(f"{2 * pairs} active electrons do not fit in "
                                f"{len(active)} active MOs")
        return core, active, pairs


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
    """Boys function F_n(t) = int_0^1 u^{2n} exp(-t u^2) du, elementwise.

    Below t = 36 + 4n, the series of positive terms
    e^{-t} sum_k (2t)^k / ((2n+1)(2n+3)...(2n+2k+1)). Above it, the asymptotic
    form (2n-1)!!/2^{n+1} sqrt(pi/t^{2n+1}), which is high by the fraction
    Gamma(n+1/2, t)/Gamma(n+1/2), below 4e-17 there (Helgaker, Jorgensen &
    Olsen, Molecular Electronic-Structure Theory, sec. 9.8).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise BasisError(f"Boys argument must be non-negative, got {t.min()}")
    large = t >= 36.0 + 4.0 * n
    ts = np.where(large, 0.0, t)
    # the terms peak near k = t and fall off over a few sqrt(t) more
    tmax = float(ts.max(initial=0.0))
    k = np.arange(int(tmax + 7.0 * math.sqrt(tmax)) + 21)
    ratios = np.multiply.outer(2.0 * ts, 1.0 / (2 * n + 2 * k + 1))
    ratios[..., 0] = 1.0 / (2 * n + 1)
    series = np.exp(-ts) * np.cumprod(ratios, axis=-1).sum(axis=-1)
    with np.errstate(divide="ignore"):
        asymptotic = (math.prod(range(1, 2 * n, 2)) / 2 ** (n + 1)
                      * np.sqrt(math.pi / t ** (2 * n + 1)))
    return np.where(large, asymptotic, series)[()]


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


def hermite_r(p, pc, order: int):
    """Hermite Coulomb integrals R_{tuv}(p, PC), t + u + v <= order, as a
    memoized function of (t, u, v). pc carries the Cartesian components on
    its last axis; p broadcasts against the rest."""
    x, y, z = pc[..., 0], pc[..., 1], pc[..., 2]
    tpc = p * (x * x + y * y + z * z)
    # F_order directly, the lower orders by the stable downward recursion
    fn = [boys(order, tpc)]
    decay = np.exp(-tpc)
    for n in range(order - 1, -1, -1):
        fn.append((2.0 * tpc * fn[-1] + decay) / (2 * n + 1))
    fn.reverse()

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
        return (-2.0 * p) ** n * fn[n]

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
    r = hermite_r(p, rp - np.asarray(nucleus_center, dtype=float), max(map(sum, coef)))
    return -z * float(np.sum(2.0 * math.pi / p * sum(e * r(*tuv) for tuv, e in coef.items())))


def _eri(bra, ket) -> float:
    (p, rp, e_bra), (q, rq, e_ket) = bra, ket
    p, q = p[:, :, None, None], q[None, None]
    r = hermite_r(p * q / (p + q), rp[:, :, None, None] - rq[None, None],
                  max(map(sum, e_bra)) + max(map(sum, e_ket)))
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


# STO-3G (Hehre, Stewart & Pople, J. Chem. Phys. 51, 2657 (1969)): one
# universal three-Gaussian fit per shell at Slater exponent zeta = 1, scaled to
# an element's zeta by multiplying every exponent by zeta^2. The 2s and 2p
# shells share their exponents and have their own coefficients.
STO3G_1S = ((2.227660584, 0.4057711562, 0.1098175104),
            (0.1543289673, 0.5353281423, 0.4446345422))
STO3G_2SP = ((0.9942027297, 0.2310313333, 0.07513856000),
             (-0.09996722919, 0.3995128261, 0.7001154689),
             (0.1559162750, 0.6076837186, 0.3919573931))
# Slater exponents: the 1s zeta, then the 2sp zeta from Li on.
STO3G_ZETA = {
    "H": (1.24,), "He": (1.69,), "Li": (2.69, 0.80), "Be": (3.68, 1.15),
    "B": (4.68, 1.50), "C": (5.67, 1.72), "N": (6.67, 1.95), "O": (7.66, 2.25),
    "F": (8.65, 2.55), "Ne": (9.64, 2.88),
}

ELEMENT_SYMBOLS = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8,
    "F": 9, "Ne": 10, "Na": 11, "Mg": 12, "Al": 13, "Si": 14, "P": 15, "S": 16,
    "Cl": 17, "Ar": 18,
}
_Z_TO_SYMBOL = {z: s for s, z in ELEMENT_SYMBOLS.items()}


def sto3g_shells(symbol: str) -> list[tuple[int, list[tuple[float, float]]]]:
    """STO-3G shells of an element: (angular momentum, [(exponent,
    contraction coefficient), ...]) for 1s and, from Li on, 2s and 2p."""
    if symbol not in STO3G_ZETA:
        raise UnsupportedElementError(
            f"element {symbol} has no built-in STO-3G shells (they cover H to Ne); "
            "supply its Hamiltonian as a fixture instead")
    zeta = STO3G_ZETA[symbol]
    shells = [(0, *STO3G_1S, zeta[0])]
    if len(zeta) == 2:
        expo, coef_2s, coef_2p = STO3G_2SP
        shells += [(0, expo, coef_2s, zeta[1]), (1, expo, coef_2p, zeta[1])]
    return [(l, [(a * z * z, d) for a, d in zip(expo, coef)])
            for l, expo, coef, z in shells]


def basis_for(mol: Molecule) -> list[ContractedOrbital]:
    """Contracted Cartesian STO-3G orbitals for every atom (a p shell gives
    x, y, z), each renormalized to unit self-overlap."""
    orbitals = []
    for z, center in mol.atoms:
        for l, shell in sto3g_shells(_Z_TO_SYMBOL.get(z, f"Z={z}")):
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


def build_integrals(mol: Molecule) -> IntegralSet:
    """Contracted S, T, V, and physicist-notation ERI tensor plus e_nuc."""
    orbitals = basis_for(mol)
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
    """Parse one `units angstrom|bohr` header, `SYMBOL x y z` atom lines and
    the optional active-space lines `core I J ...` and `active I J ...`
    (0-based MO indices), each at most once."""
    scale = None
    atoms = []
    mos: dict[str, tuple[int, ...]] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        tok = line.split()
        key = tok[0].lower()
        if key in ("core", "active"):
            if key in mos:
                raise GeometryError(f"line {ln}: second `{key}` line")
            try:
                mos[key] = tuple(int(u) for u in tok[1:])
            except ValueError:
                raise GeometryError(f"line {ln}: non-integer MO index") from None
            if not mos[key]:
                raise GeometryError(f"line {ln}: expected `{key} I J ...`")
            continue
        if key == "units":
            if scale is not None:
                raise GeometryError(f"line {ln}: second `units` line")
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
        if not all(map(math.isfinite, xyz)):
            raise GeometryError(f"line {ln}: non-finite coordinate in {line!r}")
        atoms.append((ELEMENT_SYMBOLS[tok[0]], xyz))
    if not atoms:
        raise GeometryError("geometry file contains no atoms")
    return Molecule(tuple(atoms), core=mos.get("core", ()), active=mos.get("active"))


def load_geometry(path) -> Molecule:
    """The geometry file parsed; an error names the file and the line."""
    try:
        return parse_geometry(Path(path).read_text())
    except GeometryError as exc:
        raise GeometryError(f"{path}: {exc}") from None
