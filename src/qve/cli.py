"""Command-line interface: qve hamiltonian | map | exact | vqe | replay | zne.

Exit codes: 0 success, 2 configuration error (an OSError too, such as a
missing file or a path of the wrong kind), 3 numeric failure (SCF
non-convergence, linear dependence, an (n_alpha, n_beta) sector over the
exact-solver cap, an unconverged Lanczos solve, a circuit over the one
1 GiB byte cap of both simulators, checked when it compiles (a statevector
program, or gate noise on more than 12 qubits), an SPSA calibration whose
gradient estimates are all zero), 4 an element past Ne, which has no
built-in STO-3G shells. `vqe` compiles its circuit before it makes the run
directory, so a run refused by the byte cap writes nothing.

vqe, replay and zne take the same run flags, so that one command line
serves all three: replay reads --ansatz and --reps and checks the --noise
file; zne also reads --shots, --seed and --noise; the rest are ignored.

NumPy is imported only after QVE_THREADS has set the BLAS thread variables.
Each command imports only the modules it runs: `map` and `exact` load
neither the integrals nor the circuit stack, and an error is classified by
the qualified names of its classes, so that no module is loaded only to
name the errors it could raise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_ELEMENT = 4


class _ConfigError(ValueError):
    pass


# The exit code of each error class that is not a configuration error, by
# qualified name; any other ValueError, and an OSError (a missing file, or a
# path of the wrong kind), exits 2.
_EXIT_CODES = {
    "qve.basis.UnsupportedElementError": EXIT_ELEMENT,
    "qve.scf.ConvergenceError": EXIT_NUMERIC,
    "qve.scf.LinearDependenceError": EXIT_NUMERIC,
    "qve.pauli.DenseCapError": EXIT_NUMERIC,
    "qve.pauli.LanczosError": EXIT_NUMERIC,
    "qve.spsa.CalibrationError": EXIT_NUMERIC,
    "builtins.FloatingPointError": EXIT_NUMERIC,
}


def _exit_code(exc: Exception) -> int:
    """The exit code of the first of the error's classes that has one."""
    for cls in type(exc).__mro__:
        code = _EXIT_CODES.get(f"{cls.__module__}.{cls.__qualname__}")
        if code is not None:
            return code
    return EXIT_CONFIG


def _apply_thread_cap() -> None:
    raw = os.environ.get("QVE_THREADS")
    if raw is None:
        return
    try:
        n = int(raw)
        if n < 1:
            raise ValueError
    except ValueError:
        raise _ConfigError(f"QVE_THREADS must be a positive integer, got {raw!r}") from None
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(n))


def _load_noise(path):
    """The NoiseModel of a noise file: one `KEY VALUE` line per field of
    NoiseModel, which refuses a value out of its range; every error names
    the file and line."""
    from .circuit import CircuitError, NoiseModel
    keys = [f.name for f in fields(NoiseModel)]
    values = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        tok = line.split()
        if len(tok) != 2 or tok[0] not in keys:
            raise _ConfigError(f"{path}:{ln}: expected `{'|'.join(keys)} VALUE`")
        if tok[0] in values:
            raise _ConfigError(f"{path}:{ln}: repeated key {tok[0]}")
        try:
            values[tok[0]] = float(tok[1])
        except ValueError:
            raise _ConfigError(f"{path}:{ln}: non-numeric value {tok[1]!r}") from None
        try:
            NoiseModel(**{tok[0]: values[tok[0]]})
        except CircuitError as exc:
            raise _ConfigError(f"{path}:{ln}: {exc}") from None
    return NoiseModel(**values)


def _problem(args):
    from .pipeline import load_fixture
    return load_fixture(args.ham)


def _mapped(args):
    from .pipeline import problem_to_pauli
    return problem_to_pauli(_problem(args), args.mapper, args.taper)


def _cmd_hamiltonian(args) -> int:
    from .basis import load_geometry
    from .pipeline import problem_from_geometry, save_fixture
    problem, scf = problem_from_geometry(load_geometry(args.geometry))
    save_fixture(problem, args.out,
                 comment=f"generated by qve hamiltonian from {args.geometry}")
    print(json.dumps({"out": str(args.out), "norb": problem.n_spatial,
                      "scf_energy_ha": scf.total_energy}))
    return EXIT_OK


def _cmd_map(args) -> int:
    from .mapping import mapping_stats
    print(json.dumps(mapping_stats(_mapped(args))))
    return EXIT_OK


def _cmd_exact(args) -> int:
    from .pipeline import sector_exact_energy
    problem = _problem(args)
    energy, dim = sector_exact_energy(problem, args.mapper, args.taper)
    print(json.dumps({"energy_ha": energy, "n_alpha": problem.n_alpha,
                      "n_beta": problem.n_beta, "dim": dim}))
    return EXIT_OK


def _run_config(args, seed):
    """The RunConfig of vqe, replay and zne. Shots are checked where they are
    drawn: run_vqe needs at least one, a replay draws none, and zne reads 0
    as the exact noisy energy."""
    from .pipeline import RunConfig
    noise = _load_noise(args.noise) if args.noise else None
    return RunConfig(fixture=args.ham, mapper=args.mapper, taper=args.taper,
                     ansatz=args.ansatz, reps=args.reps, shots=args.shots,
                     maxiter=args.maxiter, seed=seed, noise=noise,
                     output_dir=args.out)


_GNUPLOT = """set datafile separator ','
set xlabel 'iteration'
set ylabel 'energy (Ha)'
plot 'convergence.csv' using 1:3 skip 1 with lines title 'VQE energy'
"""


def _cmd_vqe(args) -> int:
    from .pipeline import run_vqe
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
    outputs = []
    for seed in seeds:
        cfg = _run_config(args, seed)
        run_dir = run_vqe(cfg)
        if args.gnuplot:
            (run_dir / "convergence.gp").write_text(_GNUPLOT)
        outputs.append(str(run_dir))
    print(json.dumps({"runs": outputs}))
    return EXIT_OK


def _cmd_replay(args) -> int:
    from .pipeline import replay_on_exact, write_replay_csv
    rows = replay_on_exact(Path(args.run) / "params.jsonl", _problem(args),
                           _run_config(args, args.seed))
    out = Path(args.run) / "replay.csv"
    write_replay_csv(rows, out)
    print(json.dumps({"out": str(out), "rows": len(rows)}))
    return EXIT_OK


def _read_json(path):
    """The JSON value in a file; malformed JSON is a configuration error that
    names the file."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise _ConfigError(f"{path}: {exc}") from None


def _cmd_zne(args) -> int:
    from .pipeline import build_ansatz, parameter_vector, problem_to_pauli
    from .zne import run_zne
    cfg = _run_config(args, args.seed)
    if cfg.noise is None:
        raise _ConfigError("zne requires --noise")
    problem = _problem(args)
    circuit = build_ansatz(problem, cfg)
    h = problem_to_pauli(problem, cfg.mapper, cfg.taper)
    if args.params_file:
        source = args.params_file
        theta = _read_json(source)
    elif args.run:
        path = Path(args.run) / "result.json"
        source = f"{path} final_theta"
        report = _read_json(path)
        # a failed run's result.json holds its error and stage instead
        theta = report.get("final_theta") if isinstance(report, dict) else None
    else:
        raise _ConfigError("zne needs --params-file or --run for the circuit parameters")
    names = circuit.parameter_names
    bindings = dict(zip(names, parameter_vector(theta, names, source)))
    folds = [int(f) for f in args.folds.split(",")]
    models = tuple(args.fit.split(","))
    result = run_zne(circuit, bindings, h, folds, cfg.shots, cfg.seed, cfg.noise,
                     models=models)
    table = [{"fold": p.fold, "mean_ha": p.energy.mean,
              "std_error_ha": p.energy.std_error} for p in result.points]
    print(json.dumps({
        "raw_ha": result.raw,
        "points": table,
        "fits": {m: asdict(f) for m, f in result.fits.items()},
    }))
    if args.csv:
        lines = ["fold,mean_ha,std_error_ha"]
        lines += [f"{r['fold']},{r['mean_ha']:.12f},{r['std_error_ha']:.12f}" for r in table]
        Path(args.csv).write_text("\n".join(lines) + "\n")
    return EXIT_OK


def _add_problem_args(p):
    p.add_argument("--ham", required=True, help="Hamiltonian fixture file")
    p.add_argument("--mapper", default="parity", choices=("jw", "parity", "bk"))
    p.add_argument("--taper", action="store_true")


def _add_run_args(p):
    p.add_argument("--ansatz", default="uccsd", choices=("uccsd", "hea"))
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--shots", type=int, default=4096)
    p.add_argument("--maxiter", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", help="noise config file: `KEY VALUE` lines, "
                   "one per field of qve.circuit.NoiseModel")
    p.add_argument("--out", default="runs", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qve",
                                     description="Molecular VQE pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hamiltonian", help="geometry file -> Hamiltonian fixture")
    p.add_argument("--geometry", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_hamiltonian)

    p = sub.add_parser("map", help="mapping statistics as JSON")
    _add_problem_args(p)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("exact", help="exact ground energy as JSON")
    _add_problem_args(p)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("vqe", help="run the VQE loop")
    _add_problem_args(p)
    _add_run_args(p)
    p.add_argument("--seeds", help="comma-separated seed batch")
    p.add_argument("--gnuplot", action="store_true",
                   help="emit a gnuplot script next to convergence.csv")
    p.set_defaults(func=_cmd_vqe)

    p = sub.add_parser("replay", help="re-evaluate logged parameters exactly")
    _add_problem_args(p)
    _add_run_args(p)
    p.add_argument("--run", required=True, help="existing run directory")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("zne", help="zero-noise extrapolation")
    _add_problem_args(p)
    _add_run_args(p)
    p.add_argument("--folds", default="1,3,5")
    p.add_argument("--fit", default="linear,quadratic,exponential")
    p.add_argument("--params-file", help="JSON list of circuit parameters")
    p.add_argument("--run", help="run directory providing final parameters")
    p.add_argument("--csv", help="write the per-fold table to this CSV file")
    p.set_defaults(func=_cmd_zne)
    return parser


def main(argv=None) -> int:
    try:
        _apply_thread_cap()  # before the first NumPy import, which reads the caps
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
