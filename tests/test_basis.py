"""Gaussian integral engine vs numeric quadrature / Monte-Carlo oracles."""

import math

import numpy as np
import pytest

import oracles
from qve.basis import (ANGSTROM_TO_BOHR, BasisError, GaussianPrimitive,
                       GeometryError, Molecule, UnsupportedAngularMomentumError,
                       basis_for, boys, build_integrals, eri, hermite_e, kinetic,
                       nuclear_attraction, nuclear_repulsion, overlap,
                       parse_geometry, sto3g_shells)
from qve.scf import run_rhf

S = (0, 0, 0)


def prim(alpha, center=(0.0, 0.0, 0.0)):
    return GaussianPrimitive(alpha, S, center)


def test_primitive_normalization_by_quadrature():
    # [DERIVED] unit self-overlap of normalized primitives (numeric quadrature)
    for alpha in (0.15, 1.0, 3.4):
        p = prim(alpha)
        assert oracles.quad_overlap(p, p) == pytest.approx(1.0, abs=1e-10)


def test_normalization_input_validation():
    # [TRIVIAL]
    from qve.basis import normalize_primitive
    with pytest.raises(BasisError):
        normalize_primitive(-1.0, S)
    with pytest.raises(BasisError):
        normalize_primitive(1.0, (-1, 0, 0))


def test_gaussian_product_theorem():
    # [DERIVED] product of two displaced s Gaussians is a single Gaussian of
    # exponent a + b at the weighted center, scaled by the Hermite
    # coefficients E^{00}_0 of the three axes: evaluate both sides on a grid
    a = prim(0.8, (0.0, 0.0, 0.0))
    b = prim(1.7, (0.0, 0.5, -1.2))
    p = a.exponent + b.exponent
    rp = (a.exponent * np.array(a.center) + b.exponent * np.array(b.center)) / p
    pref = math.prod(hermite_e(0, 0, 0, a.center[d] - b.center[d], a.exponent, b.exponent)
                     for d in range(3))
    rng = np.random.default_rng(0)
    pts = rng.normal(scale=1.5, size=(50, 3))
    for r in pts:
        lhs = (math.exp(-a.exponent * np.sum((r - np.array(a.center)) ** 2))
               * math.exp(-b.exponent * np.sum((r - np.array(b.center)) ** 2)))
        rhs = pref * math.exp(-p * np.sum((r - np.array(rp)) ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_primitive_overlap_vs_quadrature():
    # [DERIVED] closed form vs 3-D quadrature (1e-10)
    cases = [(0.5, (0, 0, 0), 1.2, (0, 0, 1.4)),
             (3.42525091, (0, 0, 0), 0.16885540, (0.3, -0.7, 1.0)),
             (1.0, (0, 0, 0), 1.0, (0, 0, 0))]
    for aa, ca, ab, cb in cases:
        a, b = prim(aa, ca), prim(ab, cb)
        assert overlap(a, b) == pytest.approx(oracles.quad_overlap(a, b), abs=1e-10)


def test_primitive_kinetic_vs_quadrature():
    # [DERIVED] closed form vs quadrature of -1/2 the analytic laplacian (1e-10)
    cases = [(0.6, (0, 0, 0), 0.9, (0, 0, 1.4)),
             (2.2, (0.1, 0.2, 0.3), 0.4, (-0.5, 0.8, 0.0))]
    for aa, ca, ab, cb in cases:
        a, b = prim(aa, ca), prim(ab, cb)
        assert kinetic(a, b) == pytest.approx(oracles.quad_kinetic(a, b), abs=1e-10)


def test_boys_function_vs_quadrature():
    # [DERIVED] F0(t) = int_0^1 exp(-t u^2) du, including the Taylor region
    for t in (0.0, 1e-9, 1e-7, 1e-4, 0.1, 1.0, 7.5, 40.0):
        assert boys(0, t) == pytest.approx(oracles.quad_boys_f0(t), abs=1e-13)
    # spot value: F0(1) = 1/2 sqrt(pi) erf(1)
    assert boys(0, 1.0) == pytest.approx(0.7468241328, abs=1e-9)
    with pytest.raises(BasisError):
        boys(0, -0.5)


def test_boys_function_vs_incomplete_gamma():
    # [ORACLE] F_n(t) = Gamma(n+1/2) P(n+1/2, t) / (2 t^{n+1/2}) from
    # scipy.special, n = 0-8, from t = 0 (limit 1/(2n+1)) through the
    # series/asymptotic switch at 36 + 4n up to 1e3 (1e-14 absolute); from
    # t = 10 on, where F_n is small, also 5e-15 relative, which an
    # asymptotic form switched in too early misses
    from scipy.special import gamma, gammainc
    for n in range(9):
        switch = 36.0 + 4.0 * n
        t = np.concatenate([[1e-12, 1e-6], np.linspace(0.01, 80.0, 400),
                            switch + np.array([-1e-9, 0.0, 1e-9]), [200.0, 1e3]])
        a = n + 0.5
        want = gamma(a) * gammainc(a, t) / (2.0 * t ** a)
        np.testing.assert_allclose(boys(n, t), want, rtol=0, atol=1e-14)
        np.testing.assert_allclose(boys(n, t[t >= 10]), want[t >= 10], rtol=5e-15)
        assert boys(n, 0.0) == pytest.approx(1.0 / (2 * n + 1), abs=1e-14)


def test_primitive_nuclear_attraction_vs_quadrature():
    # [DERIVED] closed form vs radial-reduction quadrature oracle (1e-9)
    cases = [(0.9, (0, 0, 0), 1.3, (0, 0, 1.4), (0, 0, 1.4), 1),
             (0.35, (0, 0, 0), 0.35, (0, 0, 0), (0.4, 0.4, 0.4), 2),
             (2.0, (0.2, 0, 0), 0.7, (0, 0, 0.9), (0, 0.3, 0), 4)]
    for aa, ca, ab, cb, rc, z in cases:
        a, b = prim(aa, ca), prim(ab, cb)
        got = nuclear_attraction(a, b, rc, z)
        want = oracles.quad_nuclear_attraction(a, b, rc, z)
        assert got == pytest.approx(want, abs=1e-9)


def test_primitive_eri_vs_quadrature():
    # [DERIVED] 2 pi^{5/2} prefactor validated against the relative-coordinate
    # quadrature oracle (1e-9)
    cases = [
        (1.0, (0, 0, 0), 1.0, (0, 0, 0), 1.0, (0, 0, 0), 1.0, (0, 0, 0)),
        (0.5, (0, 0, 0), 1.2, (0, 0, 1.4), 0.8, (0, 0, 1.4), 2.0, (0, 0, 0)),
        (3.4, (0.3, 0, 0), 0.2, (0, 0.5, 0), 1.1, (0, 0, 0.7), 0.6, (0.2, 0.2, 0.2)),
    ]
    for a1, c1, a2, c2, a3, c3, a4, c4 in cases:
        a, b, c, d = prim(a1, c1), prim(a2, c2), prim(a3, c3), prim(a4, c4)
        assert eri(a, b, c, d) == pytest.approx(oracles.quad_eri(a, b, c, d), abs=1e-9)


def test_primitive_eri_vs_monte_carlo():
    # [DERIVED] independent 6-D Monte-Carlo estimate of the all-identical case;
    # 4e6 importance samples give a standard error near 4e-4
    a = prim(1.0)
    got = eri(a, a, a, a)
    # analytic value of the fully symmetric case is 2/sqrt(pi)
    assert got == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-12)
    mc = oracles.mc_eri(a, a, a, a, n_samples=4_000_000, seed=99)
    assert got == pytest.approx(mc, abs=2.5e-3)


def test_eri_symmetries():
    # [DERIVED] chemist-notation 8-fold symmetry of real s integrals
    a, b = prim(0.7, (0, 0, 0)), prim(1.1, (0, 0, 1.0))
    c, d = prim(0.4, (0.5, 0, 0)), prim(2.3, (0, 0.5, 0.5))
    ref = eri(a, b, c, d)
    for perm in ((b, a, c, d), (a, b, d, c), (c, d, a, b), (d, c, b, a)):
        assert eri(*perm) == pytest.approx(ref, rel=1e-12)


def _differentiated(oracle, alpha, center, axis, h=1e-4):
    """Oracle value for a normalized p primitive, from the s oracle: since
    (x - A_x) e^{-a |r - A|^2} = (1/2a) d/dA_x e^{-a |r - A|^2}, it is the
    central difference of `oracle(s primitive centered at A)` over A_x."""
    step = np.eye(3)[axis] * h
    plus = oracle(prim(alpha, tuple(np.add(center, step))))
    minus = oracle(prim(alpha, tuple(np.subtract(center, step))))
    ratio = (GaussianPrimitive(alpha, tuple(np.eye(3, dtype=int)[axis]), center).norm
             / prim(alpha).norm)
    return ratio / (2 * alpha) * (plus - minus) / (2 * h)


def test_p_primitives_vs_differentiated_s_oracles():
    # [DERIVED] p-shell kernels vs central differences of the s-shell
    # quadrature oracles along each axis (1e-7)
    alpha, ca = 0.8, (0.1, -0.2, 0.3)
    b, c, d = prim(1.3, (0.0, 0.4, 1.1)), prim(0.6, (-0.3, 0.0, 0.5)), prim(2.1, (0.2, 0.2, 0.0))
    rc, z = (0.0, 0.3, -0.4), 4
    for axis in range(3):
        p = GaussianPrimitive(alpha, tuple(np.eye(3, dtype=int)[axis]), ca)
        want = _differentiated(lambda s: oracles.quad_overlap(s, b), alpha, ca, axis)
        assert overlap(p, b) == pytest.approx(want, abs=1e-7)
        assert overlap(b, p) == pytest.approx(want, abs=1e-7)
        want = _differentiated(lambda s: oracles.quad_kinetic(s, b), alpha, ca, axis)
        assert kinetic(p, b) == pytest.approx(want, abs=1e-7)
        assert kinetic(b, p) == pytest.approx(want, abs=1e-7)
        want = _differentiated(lambda s: oracles.quad_nuclear_attraction(s, b, rc, z),
                               alpha, ca, axis)
        assert nuclear_attraction(p, b, rc, z) == pytest.approx(want, abs=1e-7)
        want = _differentiated(lambda s: oracles.quad_eri(s, b, c, d), alpha, ca, axis)
        assert eri(p, b, c, d) == pytest.approx(want, abs=1e-7)
        assert eri(c, d, b, p) == pytest.approx(want, abs=1e-7)


def test_nuclear_repulsion():
    # [TRIVIAL] H2 at 1.4 bohr -> 1/1.4
    mol = Molecule(((1, (0.0, 0.0, 0.0)), (1, (0.0, 0.0, 1.4))))
    assert nuclear_repulsion(mol) == pytest.approx(1.0 / 1.4, abs=1e-12)


def test_nuclear_repulsion_beh2_hand_value():
    # [DERIVED] Be at origin, H at +-1.326 angstrom: 2*(4/2.50578) + 1/5.01156
    d = 1.326 * ANGSTROM_TO_BOHR
    mol = Molecule(((4, (0.0, 0.0, 0.0)), (1, (0.0, 0.0, d)), (1, (0.0, 0.0, -d))))
    assert nuclear_repulsion(mol) == pytest.approx(2 * 4 / d + 1 / (2 * d), abs=1e-12)
    assert nuclear_repulsion(mol) == pytest.approx(3.39217, abs=1e-4)


def test_coincident_nuclei_rejected():
    # [TRIVIAL]
    mol = Molecule(((1, (0.0, 0.0, 0.0)), (1, (0.0, 0.0, 0.0))))
    with pytest.raises(GeometryError):
        nuclear_repulsion(mol)


def test_contracted_h2_integrals_vs_quadrature():
    # [DERIVED] contracted STO-3G H2 matrix elements at 1.4 bohr vs quadrature
    # oracles summed over the contraction (1e-8)
    mol = Molecule(((1, (0.0, 0.0, 0.0)), (1, (0.0, 0.0, 1.4))))
    orbs = basis_for(mol)
    phi0, phi1 = orbs

    def contract2(kernel, oa, ob):
        return sum(da * db * kernel(pa, pb)
                   for da, pa in oa.primitives for db, pb in ob.primitives)

    ints = build_integrals(mol)
    assert ints.overlap[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert ints.overlap[0, 1] == pytest.approx(
        contract2(oracles.quad_overlap, phi0, phi1), abs=1e-8)
    assert ints.kinetic[0, 1] == pytest.approx(
        contract2(oracles.quad_kinetic, phi0, phi1), abs=1e-8)
    v01 = sum(contract2(lambda a, b, rc=rc, z=z: oracles.quad_nuclear_attraction(a, b, rc, z),
                        phi0, phi1) for z, rc in mol.atoms)
    assert ints.nuclear[0, 1] == pytest.approx(v01, abs=1e-8)
    # physicist <01|01> = chemist (00|11)
    want = sum(d1 * d2 * d3 * d4 * oracles.quad_eri(p1, p2, p3, p4)
               for d1, p1 in phi0.primitives for d2, p2 in phi0.primitives
               for d3, p3 in phi1.primitives for d4, p4 in phi1.primitives)
    assert ints.eri[0, 1, 0, 1] == pytest.approx(want, abs=1e-7)


def test_eri_tensor_physicist_symmetry():
    # [DERIVED] physicist <pq|rs> = <qp|sr> = <rs|pq> for real orbitals
    mol = Molecule(((1, (0.0, 0.0, 0.0)), (1, (0.0, 0.0, 1.4))))
    g = build_integrals(mol).eri
    np.testing.assert_allclose(g, g.transpose(1, 0, 3, 2), atol=1e-14)
    np.testing.assert_allclose(g, g.transpose(2, 3, 0, 1), atol=1e-14)


def test_basis_for_unknown_element():
    # [TRIVIAL] elements past Ne have no built-in STO-3G shells and are
    # rejected with the angular-momentum error so callers fall back to fixtures
    mol = parse_geometry("units bohr\nNa 0 0 0\n")
    with pytest.raises(UnsupportedAngularMomentumError, match="fixture"):
        basis_for(mol)


def test_sto3g_rule_reproduces_published_shells():
    # [DERIVED] the zeta-scaled universal expansions give the published H and He
    # shells and the published Be 1s, 2s and 2p shells (exponents 1e-9
    # relative, coefficients exactly)
    s_coef = (0.1543289673, 0.5353281423, 0.4446345422)
    published = {
        "H": [(0, (3.425250914, 0.6239137298, 0.1688554040), s_coef)],
        "He": [(0, (6.362421394, 1.158922999, 0.3136497915), s_coef)],
        "Be": [(0, (30.16787069, 5.495115306, 1.487192653), s_coef),
               (0, (1.314833110, 0.3055389383, 0.09937074560),
                (-0.09996722919, 0.3995128261, 0.7001154689)),
               (1, (1.314833110, 0.3055389383, 0.09937074560),
                (0.1559162750, 0.6076837186, 0.3919573931))],
    }
    for symbol, want in published.items():
        shells = sto3g_shells(symbol)
        assert [l for l, _ in shells] == [l for l, _, _ in want]
        for (_, prims), (_, expo, coef) in zip(shells, want):
            np.testing.assert_allclose([a for a, _ in prims], expo, rtol=1e-9, atol=0)
            assert tuple(d for _, d in prims) == coef


def test_p_shell_expands_to_three_orbitals():
    # [TRIVIAL] Li has 1s, 2s and a 2p shell that gives x, y, z orbitals
    orbs = basis_for(Molecule(((3, (0.0, 0.0, 0.0)),)))
    assert len(orbs) == 5
    assert [o.primitives[0][1].angular for o in orbs[2:]] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def _nh3(r, angle_deg):
    # C3v: each N-H bond at polar angle beta from -z, with
    # cos(HNH) = cos^2(beta) - sin^2(beta)/2
    sin2 = 2.0 / 3.0 * (1.0 - math.cos(math.radians(angle_deg)))
    rho, h = r * math.sqrt(sin2), -r * math.sqrt(1.0 - sin2)
    return "N 0 0 0\n" + "".join(
        f"H {rho * math.cos(2 * math.pi * k / 3)!r} {rho * math.sin(2 * math.pi * k / 3)!r} {h!r}\n"
        for k in range(3))


def _h2o(r, angle_deg):
    half = math.radians(angle_deg) / 2
    x, z = r * math.sin(half), r * math.cos(half)
    return f"O 0 0 0\nH {x!r} 0 {z!r}\nH {-x!r} 0 {z!r}\n"


def _ch4(r):
    a = r / math.sqrt(3.0)
    return "C 0 0 0\n" + "".join(f"H {sx * a!r} {sy * a!r} {sx * sy * a!r}\n"
                                  for sx in (1, -1) for sy in (1, -1))


@pytest.mark.parametrize("atoms, published", [
    (_h2o(1.809, 104.52), -74.963),
    (_ch4(2.050), -39.727),
    (_nh3(1.912, 106.7), -55.454),
    ("F 0 0 0\nH 0 0 1.733\n", -98.571),
    ("N 0 0 0\nN 0 0 2.074\n", -107.496),
    ("C 0 0 0\nO 0 0 2.132\n", -111.225),
], ids=["H2O", "CH4", "NH3", "FH", "N2", "CO"])
def test_rhf_matches_published_sto3g_energies(atoms, published):
    # [DERIVED] STO-3G RHF energies at the geometries (bohr) of Szabo &
    # Ostlund, Modern Quantum Chemistry, Table 3.13, within 5e-4 Ha
    mol = parse_geometry("units bohr\n" + atoms)
    scf = run_rhf(build_integrals(mol), mol.n_electrons)
    assert scf.converged
    assert scf.total_energy == pytest.approx(published, abs=5e-4)


def test_parse_geometry_units_and_errors(tmp_path):
    # [TRIVIAL] header handling and conversion
    mol = parse_geometry("units bohr\nH 0 0 0\nH 0 0 1.4\n")
    assert mol.atoms[1][1][2] == pytest.approx(1.4)
    mol = parse_geometry("units angstrom\nH 0 0 0\nH 0 0 0.74\n")
    assert mol.atoms[1][1][2] == pytest.approx(0.74 * ANGSTROM_TO_BOHR)
    with pytest.raises(GeometryError):
        parse_geometry("H 0 0 0\n")  # no units header
    with pytest.raises(GeometryError):
        parse_geometry("units parsec\nH 0 0 0\n")
    with pytest.raises(GeometryError):
        parse_geometry("units bohr\nXx 0 0 0\n")
    with pytest.raises(GeometryError):
        parse_geometry("units bohr\nH 0 0\n")
    with pytest.raises(GeometryError):
        parse_geometry("units bohr\n# only comments\n")


def test_geometry_active_space_lines():
    # [TRIVIAL] `core` and `active` lines land on the molecule; bad MO lists
    # raise GeometryError (CLI exit code 2) before any orbital is indexed
    lih = "units bohr\nLi 0 0 0\nH 0 0 3.0\n"
    mol = parse_geometry(lih + "core 0\nactive 1 2 5\n")
    assert (mol.core, mol.active) == ((0,), (1, 2, 5))
    assert mol.active_space(6) == ([0], [1, 2, 5], 1)
    assert parse_geometry(lih).active_space(6) == ([], list(range(6)), 2)
    assert parse_geometry(lih + "core 0\n").active_space(6) == ([0], [1, 2, 3, 4, 5], 1)
    for bad in ("core 0\ncore 1\n", "core 0 x\n", "active\n"):
        with pytest.raises(GeometryError):
            parse_geometry(lih + bad)
    for core, active in (((), (0, 6)),      # index past the last MO
                         ((-1,), None),     # negative index
                         ((0, 0), None),    # repeated index
                         ((0,), (0, 1)),    # core and active overlap
                         ((0, 1, 2), None),  # more core MOs than electron pairs
                         ((0,), ())):       # one active pair, no active MO
        with pytest.raises(GeometryError):
            Molecule(mol.atoms, core=core, active=active).active_space(6)
