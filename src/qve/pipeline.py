"""End-to-end orchestration: fixture I/O, VQE runs with artifact logging,
last-fraction summaries, and exact replays of logged parameters."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ansatz import build_hea, build_uccsd
from .basis import Molecule, build_integrals, load_geometry
from .circuit import Circuit, NoiseModel, estimate
from .fermion import build_hamiltonian, hartree_fock_occupation
from .mapping import qubit_operator
from .pauli import COEFF_TOL, DENSE_CAP, PauliSum, exact_ground_energy, expectation_exact
from .scf import (ActiveSpaceProblem, ConvergenceError, SCFResult, active_space_reduce,
                  mo_transform, run_rhf, spin_orbital_expand)


class FixtureError(ValueError):
    pass


class PipelineError(ValueError):
    pass


def _symmetry_orbit(p, q, r, s):
    """8-fold physicist-notation <pq|rs> symmetry orbit for real orbitals."""
    return {(p, q, r, s), (q, p, s, r), (r, s, p, q), (s, r, q, p),
            (r, q, p, s), (s, p, q, r), (p, s, r, q), (q, r, s, p)}


def load_fixture(path) -> ActiveSpaceProblem:
    """Parse the line-oriented Hamiltonian fixture format.

    Headers `norb/nalpha/nbeta/constant`, body `h p q F` and `g p q r s F`
    (physicist <pq|rs>, 0-based); `#` starts a comment. Stored entries are
    expanded to their full symmetry orbits.
    """
    headers = {"norb": 1, "nalpha": 0, "nbeta": 0, "constant": 0.0}
    h_entries: dict[tuple[int, int], float] = {}
    g_entries: dict[tuple[int, int, int, int], float] = {}
    seen_h: set = set()
    seen_g: set = set()
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        tok = line.split()
        try:
            if tok[0] in ("norb", "nalpha", "nbeta") and len(tok) == 2:
                headers[tok[0]] = int(tok[1])
            elif tok[0] == "constant" and len(tok) == 2:
                headers["constant"] = float(tok[1])
            elif tok[0] == "h" and len(tok) == 4:
                p, q = int(tok[1]), int(tok[2])
                key = (min(p, q), max(p, q))
                if key in seen_h:
                    raise FixtureError(f"{path}:{ln}: duplicate h entry ({p},{q})")
                seen_h.add(key)
                v = float(tok[3])
                h_entries[(p, q)] = v
                h_entries[(q, p)] = v
            elif tok[0] == "g" and len(tok) == 6:
                p, q, r, s = (int(t) for t in tok[1:5])
                key = min(_symmetry_orbit(p, q, r, s))
                if key in seen_g:
                    raise FixtureError(f"{path}:{ln}: duplicate g entry ({p},{q},{r},{s})")
                seen_g.add(key)
                v = float(tok[5])
                for idx in _symmetry_orbit(p, q, r, s):
                    g_entries[idx] = v
            else:
                raise FixtureError(f"{path}:{ln}: malformed line {raw.strip()!r}")
        except FixtureError:
            raise
        except ValueError:
            raise FixtureError(f"{path}:{ln}: malformed number in {raw.strip()!r}") from None
    n = headers["norb"]
    if n < 1:
        raise FixtureError("norb must be >= 1")
    h1 = np.zeros((n, n))
    h2 = np.zeros((n, n, n, n))
    for (p, q), v in h_entries.items():
        if not (0 <= p < n and 0 <= q < n):
            raise FixtureError(f"h index ({p},{q}) out of range for norb {n}")
        h1[p, q] = v
    for idx, v in g_entries.items():
        if not all(0 <= i < n for i in idx):
            raise FixtureError(f"g index {idx} out of range for norb {n}")
        h2[idx] = v
    return ActiveSpaceProblem(n, headers["nalpha"], headers["nbeta"],
                              h1, h2, headers["constant"])


def save_fixture(problem: ActiveSpaceProblem, path, comment: str = "") -> None:
    """Write unique entries with |v| >= COEFF_TOL, 17 significant digits each.

    Entries that vanish by symmetry come out of the integrals as roundoff
    (1e-21 and smaller) and are left out."""
    n = problem.n_spatial
    lines = []
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines += [f"norb {n}", f"nalpha {problem.n_alpha}", f"nbeta {problem.n_beta}",
              f"constant {problem.e_offset:.17g}"]
    for p in range(n):
        for q in range(p, n):
            if abs(problem.h1[p, q]) >= COEFF_TOL:
                lines.append(f"h {p} {q} {problem.h1[p, q]:.17g}")
    written = set()
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    key = min(_symmetry_orbit(p, q, r, s))
                    if key in written or abs(problem.h2[key]) < COEFF_TOL:
                        continue
                    written.add(key)
                    kp, kq, kr, ks = key
                    lines.append(f"g {kp} {kq} {kr} {ks} {problem.h2[key]:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def problem_from_geometry(mol: Molecule) -> tuple[ActiveSpaceProblem, SCFResult]:
    """Molecule -> integrals -> RHF -> MO transform -> active-space problem,
    over the molecule's core and active MOs (by default the full space)."""
    ints = build_integrals(mol)
    n_mo = ints.overlap.shape[0]
    core, active, pairs = mol.active_space(n_mo)
    scf = run_rhf(ints, mol.n_electrons)
    if not scf.converged:
        raise ConvergenceError(f"SCF did not converge in {scf.iterations} iterations")
    h1, h2 = mo_transform(ints, scf.mo_coefficients, range(n_mo))
    return active_space_reduce(h1, h2, core, active, pairs, pairs, ints.e_nuc), scf


def problem_to_pauli(problem: ActiveSpaceProblem, mapper: str, taper: bool) -> PauliSum:
    """Fixture/SCF problem -> mapped (and optionally tapered) qubit Hamiltonian."""
    h_so, g_so = spin_orbital_expand(problem)
    return qubit_operator(build_hamiltonian(h_so, g_so, problem.e_offset),
                          mapper, taper, problem.n_alpha, problem.n_beta)


@dataclass(frozen=True)
class RunConfig:
    fixture: str | None = None
    geometry: str | None = None
    mapper: str = "parity"
    taper: bool = True
    ansatz: str = "uccsd"
    reps: int = 1
    shots: int = 4096
    maxiter: int = 400
    seed: int = 0
    noise: NoiseModel | None = None
    output_dir: str = "runs"

    def __post_init__(self):
        if (self.fixture is None) == (self.geometry is None):
            raise PipelineError("exactly one of fixture/geometry must be given")
        if self.shots < 1:
            raise PipelineError("shots must be >= 1 for a VQE run")
        if self.ansatz not in ("uccsd", "hea"):
            raise PipelineError(f"unknown ansatz {self.ansatz!r}")


def _load_problem(cfg: RunConfig) -> ActiveSpaceProblem:
    if cfg.fixture is not None:
        return load_fixture(cfg.fixture)
    return problem_from_geometry(load_geometry(cfg.geometry))[0]


def build_ansatz(problem: ActiveSpaceProblem, cfg: RunConfig) -> Circuit:
    n_qubits = 2 * problem.n_spatial - (2 if cfg.taper else 0)
    if cfg.ansatz == "uccsd":
        return build_uccsd(problem.n_alpha, problem.n_beta, problem.n_spatial,
                           cfg.mapper, cfg.taper)
    return build_hea(n_qubits, cfg.reps)


def initial_parameters(circuit: Circuit, cfg: RunConfig) -> np.ndarray:
    """HEA starts uniform over [0, 2pi); UCCSD near the HF point."""
    from .circuit import derive_rng
    rng = derive_rng(cfg.seed, 0)
    m = len(circuit.parameter_names)
    if cfg.ansatz == "hea":
        return rng.uniform(0.0, 2.0 * math.pi, size=m)
    return rng.uniform(-0.1, 0.1, size=m)


def _eval_seed(master: int, counter: int) -> int:
    return int(np.random.SeedSequence([master, 1, counter]).generate_state(1)[0])


def summarize_last_fraction(energies, fraction: float = 0.10):
    """Mean and (population) std of the last ceil(fraction*N) entries."""
    vals = np.asarray(list(energies), dtype=float)
    if vals.size == 0:
        raise PipelineError("empty history")
    window = math.ceil(fraction * vals.size)
    tail = vals[-window:]
    return float(tail.mean()), float(tail.std())


def run_vqe(cfg: RunConfig, run_dir=None) -> Path:
    """Execute one VQE run and write its artifact directory.

    Artifacts: convergence.csv, params.jsonl, result.json, config.resolved.
    Deterministic for a fixed (config, seed) apart from the elapsed_ms column.
    """
    from .spsa import SPSAConfig, minimize

    if run_dir is None:
        run_dir = Path(cfg.output_dir) / f"{cfg.ansatz}_{cfg.mapper}_seed{cfg.seed}"
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    resolved = {k: (v if not isinstance(v, NoiseModel) else vars(v))
                for k, v in vars(cfg).items()}
    (run_dir / "config.resolved").write_text(json.dumps(resolved, indent=2) + "\n")

    stage = "problem"
    try:
        problem = _load_problem(cfg)
        stage = "hamiltonian"
        h = problem_to_pauli(problem, cfg.mapper, cfg.taper)
        stage = "ansatz"
        circuit = build_ansatz(problem, cfg)
        names = circuit.parameter_names
        theta0 = initial_parameters(circuit, cfg)
        stage = "optimize"
        counter = [0]
        t_start = time.perf_counter()

        def cost(theta):
            counter[0] += 1
            bindings = dict(zip(names, theta))
            return estimate(circuit, bindings, h, cfg.shots,
                            _eval_seed(cfg.seed, counter[0]), noise=cfg.noise)

        rows = ["iteration,fevals,energy_ha,std_error_ha,elapsed_ms"]
        params_lines = []

        def on_iteration(rec):
            ms = (time.perf_counter() - t_start) * 1000.0
            rows.append(f"{rec.k},{rec.function_evals_so_far},"
                        f"{rec.energy.mean:.12f},{rec.energy.std_error:.12f},{ms:.1f}")
            params_lines.append(json.dumps(
                {"iteration": rec.k, "theta": [float(x) for x in rec.theta]}))

        spsa_cfg = SPSAConfig(maxiter=cfg.maxiter)
        result = minimize(cost, theta0, spsa_cfg, cfg.seed, callback=on_iteration)

        stage = "report"
        (run_dir / "convergence.csv").write_text("\n".join(rows) + "\n")
        (run_dir / "params.jsonl").write_text("\n".join(params_lines) + "\n")
        tracked = [r.energy.mean for r in result.history]
        last_mean, last_std = summarize_last_fraction(tracked)
        report = {
            "final_theta": [float(x) for x in result.theta],
            "final_energy_ha": result.final_energy.mean,
            "final_std_error_ha": result.final_energy.std_error,
            "last_10pct_mean_ha": last_mean,
            "last_10pct_std_ha": last_std,
            "n_evaluations": result.n_evaluations,
        }
        if h.n_qubits <= DENSE_CAP:
            e_exact, _ = exact_ground_energy(h)
            report["exact_energy_ha"] = e_exact
            report["delta_e_ha"] = abs(last_mean - e_exact)
        (run_dir / "result.json").write_text(json.dumps(report, indent=2) + "\n")
    except Exception as exc:
        (run_dir / "result.json").write_text(json.dumps(
            {"error": str(exc), "stage": stage}, indent=2) + "\n")
        raise
    return run_dir


def replay_on_exact(params_log_path, problem: ActiveSpaceProblem,
                    cfg: RunConfig) -> list[tuple[int, float]]:
    """Noiseless exact expectations of the ansatz at every logged theta."""
    h = problem_to_pauli(problem, cfg.mapper, cfg.taper)
    circuit = build_ansatz(problem, cfg)
    names = circuit.parameter_names
    out = []
    from .circuit import run_circuit
    for raw in Path(params_log_path).read_text().splitlines():
        if not raw.strip():
            continue
        rec = json.loads(raw)
        theta = rec["theta"]
        if len(theta) != len(names):
            raise PipelineError("params log does not match the ansatz parameter count")
        psi = run_circuit(circuit, dict(zip(names, theta)))
        out.append((int(rec["iteration"]), expectation_exact(h, psi)))
    return out


def write_replay_csv(rows, path) -> None:
    lines = ["iteration,energy_ha"]
    lines += [f"{k},{e:.12f}" for k, e in rows]
    Path(path).write_text("\n".join(lines) + "\n")
