"""End-to-end orchestration: fixture I/O, the geometry-to-fixture path of
`qve hamiltonian`, the sector-exact target, VQE runs with artifact logging,
last-fraction summaries, and exact replays of logged parameters. A run's
problem always comes from a fixture."""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .fermion import build_hamiltonian
from .mapping import MAX_MODES, qubit_operator, sector_basis
from .pauli import COEFF_TOL, DenseCapError, PauliSum, exact_ground_energy
from .scf import (ActiveSpaceProblem, ConvergenceError, SCFResult, active_space_reduce,
                  mo_transform, run_rhf, spin_orbital_expand)

if TYPE_CHECKING:  # the integrals and the circuit stack load where a run needs them
    from .basis import Molecule
    from .circuit import Circuit, NoiseModel


class FixtureError(ValueError):
    pass


class PipelineError(ValueError):
    pass


def _symmetry_orbit(p, q, r, s):
    """8-fold physicist-notation <pq|rs> symmetry orbit for real orbitals."""
    return {(p, q, r, s), (q, p, s, r), (r, s, p, q), (s, r, q, p),
            (r, q, p, s), (s, p, q, r), (p, s, r, q), (q, r, s, p)}


def _finite(tok: str, where: str) -> float:
    """The token as a finite float; nan and inf are refused with the place."""
    v = float(tok)
    if not math.isfinite(v):
        raise FixtureError(f"{where}: non-finite number {tok!r}")
    return v


def load_fixture(path) -> ActiveSpaceProblem:
    """Parse the line-oriented Hamiltonian fixture format.

    Headers `norb/nalpha/nbeta/constant`, body `h p q F` and `g p q r s F`
    (physicist <pq|rs>, 0-based); `#` starts a comment. Stored entries are
    expanded to their full symmetry orbits. `norb`, `nalpha` and `nbeta` are
    required: they fix the orbital space and the exact solver's electron
    sector. `constant` defaults to 0. Each header appears at most once.
    Non-finite numbers are refused, and the orbital count is checked against
    the mapper's mode limit before any tensor is allocated. Every error names
    the file; an error in an entry (its index range included) or a repeated
    header also names its line.
    """
    headers: dict[str, float] = {}
    # each entry's value and the `path:line` it came from
    h_entries: dict[tuple[int, int], tuple[float, str]] = {}
    g_entries: dict[tuple[int, int, int, int], tuple[float, str]] = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        tok = line.split()
        where = f"{path}:{ln}"
        try:
            if tok[0] in headers:
                raise FixtureError(f"{where}: repeated header {tok[0]}")
            if tok[0] in ("norb", "nalpha", "nbeta") and len(tok) == 2:
                headers[tok[0]] = int(tok[1])
            elif tok[0] == "constant" and len(tok) == 2:
                headers["constant"] = _finite(tok[1], where)
            elif tok[0] == "h" and len(tok) == 4:
                p, q = int(tok[1]), int(tok[2])
                if (p, q) in h_entries:  # each entry is held in both orientations
                    raise FixtureError(f"{where}: duplicate h entry ({p},{q})")
                v = _finite(tok[3], where)
                h_entries[(p, q)] = h_entries[(q, p)] = (v, where)
            elif tok[0] == "g" and len(tok) == 6:
                p, q, r, s = (int(t) for t in tok[1:5])
                if (p, q, r, s) in g_entries:  # each entry is held at its whole orbit
                    raise FixtureError(f"{where}: duplicate g entry ({p},{q},{r},{s})")
                v = _finite(tok[5], where)
                for idx in _symmetry_orbit(p, q, r, s):
                    g_entries[idx] = (v, where)
            else:
                raise FixtureError(f"{where}: malformed line {raw.strip()!r}")
        except FixtureError:
            raise
        except ValueError:
            raise FixtureError(f"{where}: malformed number in {raw.strip()!r}") from None
    missing = [k for k in ("norb", "nalpha", "nbeta") if k not in headers]
    if "norb" in missing:  # no index can be range-checked without it
        raise FixtureError(f"{path}: missing header {' and '.join(missing)}")
    n = headers["norb"]
    if not 1 <= n <= MAX_MODES // 2:
        raise FixtureError(f"{path}: header norb {n} outside [1, {MAX_MODES // 2}]: "
                           f"the mapper takes at most {MAX_MODES} spin orbitals")
    for k in ("nalpha", "nbeta"):
        if headers.get(k, 0) < 0:
            raise FixtureError(f"{path}: header {k} {headers[k]} is negative")
    h1 = np.zeros((n, n))
    h2 = np.zeros((n, n, n, n))
    for (p, q), (v, where) in h_entries.items():
        if not (0 <= p < n and 0 <= q < n):
            raise FixtureError(f"{where}: h index ({p},{q}) out of range for norb {n}")
        h1[p, q] = v
    for idx, (v, where) in g_entries.items():
        if not all(0 <= i < n for i in idx):
            raise FixtureError(f"{where}: g index {idx} out of range for norb {n}")
        h2[idx] = v
    if missing:
        raise FixtureError(f"{path}: missing header {' and '.join(missing)}")
    return ActiveSpaceProblem(n, headers["nalpha"], headers["nbeta"],
                              h1, h2, headers.get("constant", 0.0))


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
    for p, q in itertools.combinations_with_replacement(range(n), 2):
        if abs(problem.h1[p, q]) >= COEFF_TOL:
            lines.append(f"h {p} {q} {problem.h1[p, q]:.17g}")
    # C order meets each symmetry orbit first at its smallest member
    for key in itertools.product(range(n), repeat=4):
        if key == min(_symmetry_orbit(*key)) and abs(problem.h2[key]) >= COEFF_TOL:
            lines.append(f"g {' '.join(map(str, key))} {problem.h2[key]:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def problem_from_geometry(mol: Molecule) -> tuple[ActiveSpaceProblem, SCFResult]:
    """Molecule -> integrals -> RHF -> MO transform -> active-space problem,
    over the molecule's core and active MOs (by default the full space)."""
    from .basis import build_integrals
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


def sector_exact_energy(problem: ActiveSpaceProblem, mapper: str, taper: bool,
                        h: PauliSum | None = None) -> tuple[float, int]:
    """Lowest energy in the problem's (n_alpha, n_beta) sector and the sector
    size. The sector basis is built from the headers before anything is
    mapped, so a sector over the exact-solver cap raises DenseCapError at
    once; `h` is the mapped Hamiltonian when the caller already has it."""
    basis = sector_basis(problem.n_spatial, problem.n_alpha, problem.n_beta, mapper, taper)
    if h is None:
        h = problem_to_pauli(problem, mapper, taper)
    energy, _ = exact_ground_energy(h, basis)
    return energy, len(basis)


@dataclass(frozen=True)
class RunConfig:
    fixture: str
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
        if self.ansatz not in ("uccsd", "hea"):
            raise PipelineError(f"unknown ansatz {self.ansatz!r}")


def build_ansatz(problem: ActiveSpaceProblem, cfg: RunConfig) -> Circuit:
    from .ansatz import build_hea, build_uccsd
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


def run_vqe(cfg: RunConfig) -> Path:
    """Execute one VQE run and write its artifact directory.

    Artifacts: convergence.csv, params.jsonl, result.json, config.resolved.
    Deterministic for a fixed (config, seed) apart from the elapsed_ms column.
    A bad shot count or maxiter, fixture, encoding or ansatz is refused before
    the directory exists, and so is a circuit over the simulators' byte cap:
    the run evaluates theta0 exactly first, which compiles the circuit. A
    failure after that writes result.json with the failing stage, optimize
    or report.
    """
    from .circuit import estimate
    from .spsa import SPSAConfig, minimize

    if cfg.shots < 1:
        raise PipelineError("shots must be >= 1 for a VQE run")
    spsa_cfg = SPSAConfig(maxiter=cfg.maxiter)
    problem = load_fixture(cfg.fixture)
    h = problem_to_pauli(problem, cfg.mapper, cfg.taper)
    circuit = build_ansatz(problem, cfg)
    names = circuit.parameter_names
    theta0 = initial_parameters(circuit, cfg)
    # the result is dropped: the estimate compiles the circuit, so that one
    # over the byte cap is refused before anything is written
    estimate(circuit, dict(zip(names, theta0)), h, 0, 0, noise=cfg.noise)
    run_dir = Path(cfg.output_dir) / f"{cfg.ansatz}_{cfg.mapper}_seed{cfg.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.resolved").write_text(json.dumps(asdict(cfg), indent=2) + "\n")

    stage = "optimize"
    try:
        counter = [0]
        t_start = time.perf_counter()

        def cost(stack):
            # one seed per row, from the count of evaluations before it
            seeds = [_eval_seed(cfg.seed, counter[0] + i) for i in range(1, len(stack) + 1)]
            counter[0] += len(stack)
            return estimate(circuit, stack, h, cfg.shots, seeds, noise=cfg.noise)

        rows = ["iteration,fevals,energy_ha,std_error_ha,elapsed_ms"]
        params_lines = []

        def on_iteration(rec):
            ms = (time.perf_counter() - t_start) * 1000.0
            rows.append(f"{rec.k},{rec.function_evals_so_far},"
                        f"{rec.energy.mean:.12f},{rec.energy.std_error:.12f},{ms:.1f}")
            params_lines.append(json.dumps(
                {"iteration": rec.k, "theta": [float(x) for x in rec.theta]}))

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
        try:
            e_exact, _ = sector_exact_energy(problem, cfg.mapper, cfg.taper, h)
        except DenseCapError:
            pass  # above the sector cap the report carries no exact target
        else:
            report["exact_energy_ha"] = e_exact
            report["exact_sector"] = [problem.n_alpha, problem.n_beta]
            report["delta_e_ha"] = abs(last_mean - e_exact)
        (run_dir / "result.json").write_text(json.dumps(report, indent=2) + "\n")
    except Exception as exc:
        (run_dir / "result.json").write_text(json.dumps(
            {"error": str(exc), "stage": stage}, indent=2) + "\n")
        raise
    return run_dir


def parameter_vector(theta, names, source: str) -> list[float]:
    """theta, read from `source`, as floats: it must be a flat list of one
    finite number per parameter name; PipelineError otherwise."""
    if not (isinstance(theta, list) and all(type(t) in (int, float) for t in theta)):
        raise PipelineError(f"{source}: expected a flat list of {len(names)} numbers")
    if len(theta) != len(names):
        raise PipelineError(f"{source}: {len(theta)} parameters, the ansatz has {len(names)}")
    try:
        values = [float(t) for t in theta]
    except OverflowError:  # an integer past the float range
        values = [math.inf]
    if not all(math.isfinite(v) for v in values):
        raise PipelineError(f"{source}: parameters must be finite")
    return values


def replay_on_exact(params_log_path, problem: ActiveSpaceProblem,
                    cfg: RunConfig) -> list[tuple[int, float]]:
    """Noiseless exact expectations of the ansatz at every logged theta: the
    estimator's exact mode (shots=0, no noise, whatever cfg.noise holds),
    one call over the whole stack, after every line is checked. Nothing is
    drawn, so each row's seed is a dummy 0. An empty log replays to no
    rows."""
    h = problem_to_pauli(problem, cfg.mapper, cfg.taper)
    circuit = build_ansatz(problem, cfg)
    names = circuit.parameter_names
    iterations, thetas = [], []
    from .circuit import estimate
    for ln, raw in enumerate(Path(params_log_path).read_text().splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise PipelineError(f"{params_log_path}:{ln}: {exc.msg} at column "
                                f"{exc.colno}") from None
        if not (isinstance(rec, dict) and type(rec.get("iteration")) is int):
            raise PipelineError(f"{params_log_path}:{ln}: expected an object with an "
                                f"integer iteration")
        thetas.append(parameter_vector(rec.get("theta"), names, f"{params_log_path}:{ln} theta"))
        iterations.append(rec["iteration"])
    if not thetas:
        return []
    results = estimate(circuit, np.array(thetas), h, 0, [0] * len(thetas), noise=None)
    return [(k, r.mean) for k, r in zip(iterations, results)]


def write_replay_csv(rows, path) -> None:
    lines = ["iteration,energy_ha"]
    lines += [f"{k},{e:.12f}" for k, e in rows]
    Path(path).write_text("\n".join(lines) + "\n")
