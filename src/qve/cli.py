"""Command-line interface: qve hamiltonian | map | exact | vqe | replay | zne.

Exit codes: 0 success, 2 configuration error, 3 numeric failure (SCF
non-convergence, linear dependence, a Hamiltonian over the dense-matrix
cap), 4 an element past Ne, which has no built-in STO-3G shells.

NumPy is imported only after QVE_THREADS has set the BLAS thread variables.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_ANGULAR = 4


class _ConfigError(ValueError):
    pass


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
    from .circuit import NoiseModel
    values = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        tok = line.split()
        if len(tok) != 2 or tok[0] not in ("p1", "p2", "readout01", "readout10"):
            raise _ConfigError(f"{path}:{ln}: expected `p1|p2|readout01|readout10 VALUE`")
        try:
            values[tok[0]] = float(tok[1])
        except ValueError:
            raise _ConfigError(f"{path}:{ln}: non-numeric value {tok[1]!r}") from None
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
    stats = mapping_stats(_mapped(args))
    print(json.dumps({"n_qubits": stats.n_qubits,
                      "n_pauli_terms": stats.n_pauli_terms,
                      "avg_weight": stats.avg_weight}))
    return EXIT_OK


def _cmd_exact(args) -> int:
    from .pauli import exact_ground_energy
    energy, _ = exact_ground_energy(_mapped(args))
    print(json.dumps({"energy_ha": energy}))
    return EXIT_OK


def _ansatz_config(args):
    """A RunConfig with only the ansatz fields, so the VQE shot check does
    not see --shots: a replay draws none, and zne passes them to run_zne,
    where 0 means exact."""
    from .pipeline import RunConfig
    return RunConfig(fixture=args.ham, mapper=args.mapper, taper=args.taper,
                     ansatz=args.ansatz, reps=args.reps)


def _run_config(args, seed):
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
                           _ansatz_config(args))
    out = Path(args.run) / "replay.csv"
    write_replay_csv(rows, out)
    print(json.dumps({"out": str(out), "rows": len(rows)}))
    return EXIT_OK


def _cmd_zne(args) -> int:
    from .pipeline import build_ansatz, load_fixture, problem_to_pauli
    from .zne import run_zne
    if not args.noise:
        raise _ConfigError("zne requires --noise")
    problem = load_fixture(args.ham)
    circuit = build_ansatz(problem, _ansatz_config(args))
    h = problem_to_pauli(problem, args.mapper, args.taper)
    if args.params_file:
        theta = json.loads(Path(args.params_file).read_text())
    elif args.run:
        theta = json.loads((Path(args.run) / "result.json").read_text())["final_theta"]
    else:
        raise _ConfigError("zne needs --params-file or --run for the circuit parameters")
    if len(theta) != len(circuit.parameter_names):
        raise _ConfigError("parameter vector does not match the ansatz")
    bindings = dict(zip(circuit.parameter_names, [float(t) for t in theta]))
    folds = [int(f) for f in args.folds.split(",")]
    models = tuple(args.fit.split(","))
    result = run_zne(circuit, bindings, h, folds, args.shots, args.seed,
                     _load_noise(args.noise), models=models)
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
    p.add_argument("--noise", help="noise config file (p1/p2/readout01/readout10)")
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
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    from .basis import UnsupportedAngularMomentumError
    from .pauli import DenseCapError
    from .scf import ConvergenceError, LinearDependenceError
    from .spsa import SPSAError

    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UnsupportedAngularMomentumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANGULAR
    except (_ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, LinearDependenceError, DenseCapError, SPSAError,
            FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
