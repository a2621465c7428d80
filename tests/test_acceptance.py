"""End-to-end acceptance suite.

Each test covers one headline criterion and prints a single PASS/FAIL line so
the suite doubles as a checklist (`pytest -v -s tests/test_acceptance.py`).
The two simulation studies (noisy replay, ZNE) take a few minutes combined.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

import oracles
from conftest import FIXTURE
from oracles import circuit_unitary, row_by_row
from qve.ansatz import build_hea, build_uccsd, hf_state_circuit
from qve.circuit import (NoiseModel, circuit_stats, derive_rng, estimate, run_circuit,
                         transpile)
from qve.fermion import hartree_fock_occupation
from qve.mapping import MAPPERS, mapping_stats
from qve.pauli import exact_ground_energy, expectation_exact
from qve.pipeline import (RunConfig, load_fixture, problem_to_pauli,
                          replay_on_exact, run_vqe)
from qve.spsa import SPSAConfig, gain_sequences, minimize as spsa_minimize, \
    spsa_gradient
from qve.zne import extrapolate, fold_circuit, run_zne, ZNEPoint
from qve.circuit import EstimatorResult

E_EXACT = -15.56089
E_HF = -15.56033
H2_FCI = -1.1372838351103938


REPORT_LINES = []


def report(label, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    REPORT_LINES.append(line)
    print("\n" + line)
    assert ok, label


def test_criterion_1_mapping_statistics(beh2_problem):
    """Mapping statistics table: counts exact, average weights to 0.01."""
    t0 = time.time()
    rows = {
        ("jw", False): (6, 34, 2.71),
        ("parity", False): (6, 34, 3.12),
        ("parity", True): (4, 28, 2.57),
        ("bk", False): (6, 34, 3.24),
    }
    ok = True
    for (mapper, taper), (nq, nt, avg) in rows.items():
        s = mapping_stats(problem_to_pauli(beh2_problem, mapper, taper))
        ok &= s["n_qubits"] == nq and s["n_pauli_terms"] == nt
        ok &= abs(s["avg_weight"] - avg) <= 0.01
    ok &= (time.time() - t0) < 5.0
    report("criterion 1: mapping statistics (4 rows, counts exact, "
           "avg weight +-0.01, < 5 s)", ok)


def test_criterion_2_target_energies(beh2_tapered):
    """Exact ground energy and HF expectation of the tapered fixture."""
    t0 = time.time()
    e0, _ = exact_ground_energy(beh2_tapered)
    hf = hf_state_circuit(hartree_fock_occupation(1, 1, 3), "parity", True)
    e_hf = expectation_exact(beh2_tapered, run_circuit(hf))
    ok = abs(e0 - E_EXACT) <= 5e-6 and abs(e_hf - E_HF) <= 5e-6
    ok &= (time.time() - t0) < 5.0
    report(f"criterion 2: E0 = {e0:.5f} (target {E_EXACT}), "
           f"E_HF = {e_hf:.5f} (target {E_HF}), both +-5e-6", ok)


def test_criterion_3_ansatz_accounting():
    """Parameter/depth/entangler accounting for both ansaetze."""
    ucc = build_uccsd(1, 1, 3, "parity", True)
    hea = build_hea(4, 1)
    s = circuit_stats(hea)
    _, _, n_cz = transpile(hea, [(0, 1), (1, 2), (2, 3)])
    ok = (len(ucc.parameter_names) == 8
          and s.n_parameters == 16 and s.depth == 7
          and s.gate_counts["CX"] == 3 and n_cz == 3)
    report("criterion 3: UCCSD 8 parameters; HEA(4,1) 16 parameters, "
           "depth 7, 3 CX, transpiled 3 CZ", ok)


def test_criterion_4_noiseless_vqe(tmp_path):
    """Full noiseless VQE: best of 5 seeds within 1.6 mHa for each ansatz."""
    best = {}
    for ansatz in ("uccsd", "hea"):
        deltas = []
        for seed in range(5):
            cfg = RunConfig(fixture=str(FIXTURE), ansatz=ansatz, shots=4096,
                            maxiter=400, seed=seed,
                            output_dir=str(tmp_path / ansatz))
            run_dir = run_vqe(cfg)
            rep = json.loads((run_dir / "result.json").read_text())
            deltas.append(abs(rep["last_10pct_mean_ha"] - E_EXACT))
        best[ansatz] = min(deltas)
    ok = best["uccsd"] <= 1.6e-3 and best["hea"] <= 1.6e-3
    report(f"criterion 4: noiseless VQE best-of-5 last-10% error "
           f"UCCSD {best['uccsd']*1e3:.2f} mHa, HEA {best['hea']*1e3:.2f} mHa "
           "(<= 1.6 mHa each)", ok)


def test_criterion_5_h2_chain(h2_problem):
    """H2 chemistry chain: integrals vs quadrature, RHF golden, UCCSD = FCI."""
    mol, ints, scf, problem = h2_problem
    orbs_ok = True
    from qve.basis import basis_for
    phi0, phi1 = basis_for(mol)

    def contract2(kernel, oa, ob):
        return sum(da * db * kernel(pa, pb)
                   for da, pa in oa.primitives for db, pb in ob.primitives)

    orbs_ok &= abs(ints.overlap[0, 1]
                   - contract2(oracles.quad_overlap, phi0, phi1)) < 1e-7
    orbs_ok &= abs(ints.kinetic[0, 1]
                   - contract2(oracles.quad_kinetic, phi0, phi1)) < 1e-7
    v01 = sum(contract2(lambda a, b, rc=rc, z=z:
                        oracles.quad_nuclear_attraction(a, b, rc, z), phi0, phi1)
              for z, rc in mol.atoms)
    orbs_ok &= abs(ints.nuclear[0, 1] - v01) < 1e-7
    eri = sum(d1 * d2 * d3 * d4 * oracles.quad_eri(p1, p2, p3, p4)
              for d1, p1 in phi0.primitives for d2, p2 in phi0.primitives
              for d3, p3 in phi1.primitives for d4, p4 in phi1.primitives)
    orbs_ok &= abs(ints.eri[0, 1, 0, 1] - eri) < 1e-7

    rhf_ok = abs(scf.total_energy - (-1.1167)) < 1e-4

    h = problem_to_pauli(problem, "jw", False)
    c = build_uccsd(1, 1, 2, "jw", False)
    names = c.parameter_names

    def energy(theta):
        return expectation_exact(h, run_circuit(c, dict(zip(names, theta))))

    res = scipy_minimize(energy, np.zeros(3), method="Nelder-Mead",
                         options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
    vqe_ok = abs(res.fun - H2_FCI) < 1e-4
    ok = orbs_ok and rhf_ok and vqe_ok
    report(f"criterion 5: H2 chain (integrals vs quadrature 1e-7: {orbs_ok}; "
           f"RHF {scf.total_energy:.5f} +-1e-4: {rhf_ok}; "
           f"UCCSD minimum {res.fun:.7f} vs FCI 1e-4: {vqe_ok})", ok)


def test_criterion_6_spsa_accounting():
    """SPSA: 1251 evaluations at the defaults, exact quadratic gradients,
    published gain values."""
    calls = [0]

    def f(t):
        calls[0] += 1
        return float(t @ t)

    result = spsa_minimize(row_by_row(f), np.ones(4), SPSAConfig(maxiter=400), seed=0)
    count_ok = calls[0] == 1251 and result.n_evaluations == 1251

    rng = np.random.default_rng(0)
    a_diag = rng.uniform(0.5, 2.0, size=4)
    x = rng.normal(size=4)
    delta = rng.integers(0, 2, size=4) * 2 - 1
    grad = spsa_gradient(row_by_row(lambda t: float(np.sum(a_diag * t * t))), x, 0.1, delta)
    want = (delta @ (2 * a_diag * x)) / delta
    grad_ok = np.allclose(grad, want, atol=1e-10)

    cfg = SPSAConfig(a=1.0)
    _, c1 = gain_sequences(cfg, 1)
    _, c2 = gain_sequences(cfg, 2)
    gain_ok = abs(c1 - 0.2) < 1e-12 and abs(c2 - 0.18648) < 1e-5
    ok = count_ok and grad_ok and gain_ok
    report(f"criterion 6: SPSA accounting (1251 evals: {count_ok}; exact "
           f"quadratic gradient: {grad_ok}; c1=0.2, c2~0.18648: {gain_ok})", ok)


def test_criterion_7_noise_behavior(beh2_problem, beh2_tapered, tmp_path):
    """Noise bias is monotone in p2; noisy optimization still finds good
    parameters (replay beats the noisy estimate in >= 9/10 seeds)."""
    hf = hf_state_circuit(hartree_fock_occupation(1, 1, 3), "parity", True)
    means = []
    for p2 in (0.0, 0.005, 0.01, 0.02):
        noise = NoiseModel(p1=p2 / 10, p2=p2)
        means.append(estimate(hf, {}, beh2_tapered, 100000, 42, noise=noise).mean)
    mono_ok = all(a <= b + 1e-12 for a, b in zip(means, means[1:]))

    noise = NoiseModel(0.001, 0.01, 0.01, 0.01)
    wins = 0
    for seed in range(10):
        cfg = RunConfig(fixture=str(FIXTURE), ansatz="hea", shots=1024,
                        maxiter=40, seed=seed, noise=noise,
                        output_dir=str(tmp_path / f"s{seed}"))
        run_dir = run_vqe(cfg)
        rep = json.loads((run_dir / "result.json").read_text())
        rows = replay_on_exact(run_dir / "params.jsonl", beh2_problem, cfg)
        if rows[-1][1] < rep["final_energy_ha"]:
            wins += 1
    replay_ok = wins >= 9
    ok = mono_ok and replay_ok
    report(f"criterion 7: noise behavior (HF energy non-decreasing in p2: "
           f"{mono_ok}; exact replay below noisy estimate in {wins}/10 seeds, "
           f"need >= 9)", ok)


def test_criterion_8_zne(beh2_tapered):
    """ZNE: fold invariance, synthetic-model recovery, and a depolarizing
    study where the quadratic fit beats the raw energy in >= 8/10 seeds."""
    hea = build_hea(4, 3)
    u = circuit_unitary(hea, {n: 0.3 for n in hea.parameter_names})
    folded = fold_circuit(hea, 3)
    fold_ok = np.allclose(
        circuit_unitary(folded, {n: 0.3 for n in hea.parameter_names}), u,
        atol=1e-10)

    def pts(f):
        return [ZNEPoint(l, EstimatorResult(f(l), 0.0, 0, 0)) for l in (1, 3, 5)]

    lin = extrapolate(pts(lambda l: -15.5 + 0.03 * l), "linear")
    quad = extrapolate(pts(lambda l: -15.5 + 0.03 * l + 0.004 * l * l), "quadratic")
    expo = extrapolate(pts(lambda l: -15.6 + 0.2 * math.exp(-0.35 * l)), "exponential")
    fit_ok = (abs(lin.e_zero - (-15.5)) < 1e-8
              and abs(quad.e_zero - (-15.5)) < 1e-10
              and abs(expo.params[0] - (-15.6)) < 1e-6)

    theta = derive_rng(123).uniform(0, 2 * np.pi, len(hea.parameter_names))
    bindings = dict(zip(hea.parameter_names, theta))
    exact = expectation_exact(beh2_tapered, run_circuit(hea, bindings))
    noise = NoiseModel(p1=0.002, p2=0.02)
    wins = 0
    for seed in range(10):
        r = run_zne(hea, bindings, beh2_tapered, [1, 3, 5], 8192, seed, noise)
        if abs(r.fits["quadratic"].e_zero - exact) < abs(r.raw - exact):
            wins += 1
    ok = fold_ok and fit_ok and wins >= 8
    report(f"criterion 8: ZNE (fold invariance: {fold_ok}; synthetic fits "
           f"recovered: {fit_ok}; quadratic beats raw in {wins}/10 seeds, "
           f"need >= 8)", ok)


def test_criterion_9_operator_algebra_oracle():
    """Random number-conserving operators over <= 3 spatial orbitals: every
    mapping preserves spectrum and anticommutation (1e-10); normal ordering
    matches dense products (1e-12)."""
    from qve.fermion import FermionOperator
    rng = np.random.default_rng(2024)
    ok = True
    for n_spatial in (1, 2, 3):
        op = oracles.random_number_conserving(n_spatial, rng)
        ref = np.linalg.eigvalsh(oracles.fermion_matrix(op))
        n = 2 * n_spatial
        for mapper in ("jw", "parity", "bk"):
            got = np.linalg.eigvalsh(oracles.pauli_sum_matrix(MAPPERS[mapper](op)))
            ok &= np.allclose(got, ref, atol=1e-10)
            mats = {(p, c): oracles.pauli_sum_matrix(
                MAPPERS[mapper](FermionOperator.ladder(n, p, c)))
                for p in range(n) for c in (True, False)}
            eye = np.eye(1 << n)
            for p in range(n):
                for q in range(n):
                    a, bd = mats[(p, False)], mats[(q, True)]
                    ok &= np.allclose(a @ bd + bd @ a, (p == q) * eye, atol=1e-10)

    from qve.fermion import FermionOperator
    for _ in range(20):
        n = 4
        length = int(rng.integers(1, 5))
        factors = tuple((int(rng.integers(n)), bool(rng.integers(2)))
                        for _ in range(length))
        coeff = complex(rng.normal(), rng.normal())
        got = oracles.fermion_matrix(FermionOperator.from_term(n, factors, coeff))
        want = coeff * np.eye(1 << n)
        for mode, create in factors:
            want = want @ oracles.ladder_matrix(n, mode, create)
        ok &= np.allclose(got, want, atol=1e-12)
    report("criterion 9: operator-algebra oracle suite (spectra + "
           "anticommutation 1e-10, normal ordering 1e-12)", ok)
