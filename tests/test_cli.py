"""CLI behavior: subcommands, JSON outputs, artifacts, exit codes."""

import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import FIXTURE
from qve.cli import EXIT_CONFIG, EXIT_ELEMENT, EXIT_NUMERIC, EXIT_OK, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_map_outputs_table_stats(capsys):
    # [PAPER] parity + taper statistics as JSON
    code, out, _ = run_cli(capsys, "map", "--ham", str(FIXTURE),
                           "--mapper", "parity", "--taper")
    assert code == EXIT_OK
    stats = json.loads(out)
    assert stats["n_qubits"] == 4
    assert stats["n_pauli_terms"] == 28
    assert stats["avg_weight"] == pytest.approx(2.57, abs=0.01)


def test_map_all_mappers(capsys):
    # [PAPER] untapered rows
    want = {"jw": 2.71, "parity": 3.12, "bk": 3.24}
    for mapper, avg in want.items():
        code, out, _ = run_cli(capsys, "map", "--ham", str(FIXTURE),
                               "--mapper", mapper)
        assert code == EXIT_OK
        stats = json.loads(out)
        assert (stats["n_qubits"], stats["n_pauli_terms"]) == (6, 34)
        assert stats["avg_weight"] == pytest.approx(avg, abs=0.01)


def test_exact_energy(capsys):
    # [PAPER]
    code, out, _ = run_cli(capsys, "exact", "--ham", str(FIXTURE),
                           "--mapper", "parity", "--taper")
    assert code == EXIT_OK
    res = json.loads(out)
    assert res["energy_ha"] == pytest.approx(-15.56089, abs=5e-6)
    assert (res["n_alpha"], res["n_beta"], res["dim"]) == (1, 1, 9)


# One alpha and one beta electron in two orbitals of energy -5 each. The
# minimum over all particle numbers fills all four spin orbitals (-20).
TWO_LEVEL = "norb 2\nnalpha 1\nnbeta 1\nh 0 0 -5\nh 1 1 -5\n"


@pytest.mark.parametrize("text, mapper, energy, dim", [
    (TWO_LEVEL, ["jw"], -10.0, 4),
    (TWO_LEVEL, ["bk"], -10.0, 4),
    (TWO_LEVEL, ["parity"], -10.0, 4),
    (TWO_LEVEL, ["parity", "--taper"], -10.0, 4),
    # 16 qubits under jw, over the old 14-qubit dense cap, but 64 sector states
    ("norb 8\nnalpha 1\nnbeta 1\nh 0 0 -1.0\nh 7 7 -0.5\n", ["jw"], -2.0, 64),
])
def test_exact_is_sector_minimum(capsys, tmp_path, text, mapper, energy, dim):
    # [DERIVED] the exact energy is the (nalpha, nbeta) sector minimum under
    # every encoding, not the minimum over all particle numbers
    ham = tmp_path / "sector.ham"
    ham.write_text(text)
    code, out, err = run_cli(capsys, "exact", "--ham", str(ham), "--mapper", *mapper)
    assert code == EXIT_OK, err
    res = json.loads(out)
    assert res["energy_ha"] == pytest.approx(energy, abs=1e-12)
    assert (res["n_alpha"], res["n_beta"], res["dim"]) == (1, 1, dim)


def test_exact_taper_requires_parity_is_config_error(capsys):
    # [TRIVIAL] tapering is defined for the parity mapping only: exit code 2
    code, out, err = run_cli(capsys, "exact", "--ham", str(FIXTURE),
                             "--mapper", "jw", "--taper")
    assert code == EXIT_CONFIG
    assert out == "" and "parity" in err


def test_hamiltonian_generates_usable_fixture(capsys, tmp_path):
    # [DERIVED] geometry -> fixture -> exact energy matches the H2 FCI value
    geo = tmp_path / "h2.geom"
    geo.write_text("units angstrom\nH 0 0 0\nH 0 0 0.74\n")
    fix = tmp_path / "h2.ham"
    code, out, _ = run_cli(capsys, "hamiltonian", "--geometry", str(geo),
                           "--out", str(fix))
    assert code == EXIT_OK
    info = json.loads(out)
    assert info["norb"] == 2
    assert info["scf_energy_ha"] == pytest.approx(-1.1167, abs=1e-4)
    code, out, _ = run_cli(capsys, "exact", "--ham", str(fix), "--mapper", "jw")
    assert code == EXIT_OK
    assert json.loads(out)["energy_ha"] == pytest.approx(-1.1372838351, abs=1e-8)


def test_vqe_replay_zne_round_trip(capsys, tmp_path):
    # [DERIVED] a small vqe run, its replay, and a zne readout all succeed
    out_dir = tmp_path / "runs"
    code, out, _ = run_cli(capsys, "vqe", "--ham", str(FIXTURE),
                           "--mapper", "parity", "--taper", "--ansatz", "hea",
                           "--shots", "128", "--maxiter", "3", "--seed", "1",
                           "--out", str(out_dir), "--gnuplot")
    assert code == EXIT_OK
    run_dir = Path(json.loads(out)["runs"][0])
    assert (run_dir / "convergence.csv").exists()
    assert (run_dir / "convergence.gp").exists()

    code, out, _ = run_cli(capsys, "replay", "--ham", str(FIXTURE),
                           "--mapper", "parity", "--taper", "--ansatz", "hea",
                           "--run", str(run_dir))
    assert code == EXIT_OK
    assert json.loads(out)["rows"] == 3
    assert (run_dir / "replay.csv").exists()

    noise = tmp_path / "noise.cfg"
    noise.write_text("p1 0.001\np2 0.01\nreadout01 0.01\nreadout10 0.01\n")
    code, out, _ = run_cli(capsys, "zne", "--ham", str(FIXTURE),
                           "--mapper", "parity", "--taper", "--ansatz", "hea",
                           "--shots", "256", "--noise", str(noise),
                           "--run", str(run_dir), "--folds", "1,3,5",
                           "--csv", str(tmp_path / "zne.csv"))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [p["fold"] for p in payload["points"]] == [1, 3, 5]
    assert set(payload["fits"]) == {"linear", "quadratic", "exponential"}
    lines = (tmp_path / "zne.csv").read_text().strip().splitlines()
    assert lines[0] == "fold,mean_ha,std_error_ha" and len(lines) == 4


def test_zne_zero_shots_gives_exact_noisy_energies(capsys, tmp_path):
    # [DERIVED] zne --shots 0 prints each fold's exact noisy energy, equal to
    # the library estimate at shots=0, with standard error 0
    from qve.circuit import NoiseModel, estimate
    from qve.pipeline import RunConfig, build_ansatz, load_fixture, problem_to_pauli
    from qve.zne import fold_circuit
    noise = tmp_path / "noise.cfg"
    noise.write_text("p2 0.01\n")
    theta = [0.1 * (i + 1) for i in range(16)]
    params = tmp_path / "theta.json"
    params.write_text(json.dumps(theta))
    code, out, _ = run_cli(capsys, "zne", "--ham", str(FIXTURE), "--taper",
                           "--ansatz", "hea", "--shots", "0", "--noise", str(noise),
                           "--params-file", str(params))
    assert code == EXIT_OK
    points = json.loads(out)["points"]
    problem = load_fixture(FIXTURE)
    circuit = build_ansatz(problem, RunConfig(fixture=str(FIXTURE), ansatz="hea"))
    h = problem_to_pauli(problem, "parity", True)
    bindings = dict(zip(circuit.parameter_names, theta))
    for p in points:
        want = estimate(fold_circuit(circuit, p["fold"]), bindings, h, 0, 0,
                        noise=NoiseModel(p2=0.01)).mean
        assert p["std_error_ha"] == 0.0
        assert p["mean_ha"] == pytest.approx(want, abs=1e-12)
    assert [p["fold"] for p in points] == [1, 3, 5]
    assert points[0]["mean_ha"] < points[1]["mean_ha"] < points[2]["mean_ha"]


def test_replay_zero_shots_is_accepted(capsys, tmp_path):
    # [TRIVIAL] a replay draws no shots, so --shots 0 replays the run exactly
    # as the default --shots does
    code, out, _ = run_cli(capsys, "vqe", "--ham", str(FIXTURE), "--taper",
                           "--ansatz", "hea", "--shots", "128", "--maxiter", "2",
                           "--seed", "1", "--out", str(tmp_path))
    assert code == EXIT_OK
    run_dir = Path(json.loads(out)["runs"][0])
    replay = ["replay", "--ham", str(FIXTURE), "--taper", "--ansatz", "hea",
              "--run", str(run_dir)]
    assert run_cli(capsys, *replay)[0] == EXIT_OK
    default = (run_dir / "replay.csv").read_text()
    code, out, err = run_cli(capsys, *replay, "--shots", "0")
    assert code == EXIT_OK, err
    assert json.loads(out)["rows"] == 2
    assert (run_dir / "replay.csv").read_text() == default


def test_vqe_zero_shots_is_config_error(capsys, tmp_path):
    # [TRIVIAL] a VQE run needs at least one shot per estimate: exit code 2
    code, _, err = run_cli(capsys, "vqe", "--ham", str(FIXTURE), "--taper",
                           "--shots", "0", "--maxiter", "1", "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "shots" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("maxiter", ["0", "-3"])
def test_vqe_maxiter_below_one_is_config_error(capsys, tmp_path, maxiter):
    # [TRIVIAL] an SPSA run needs at least one iteration: exit code 2, found
    # before the run directory is made
    code, _, err = run_cli(capsys, "vqe", "--ham", str(FIXTURE), "--taper",
                           "--shots", "16", "--maxiter", maxiter, "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "maxiter" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args, message", [
    (("--ham", "missing.ham"), "missing.ham"),
    (("--ham", str(FIXTURE), "--mapper", "jw", "--taper"), "tapering"),
])
def test_vqe_problem_errors_leave_no_run_directory(capsys, tmp_path, args, message):
    # [TRIVIAL] a missing fixture or an encoding that cannot be tapered is a
    # configuration error (exit 2), found before the run directory is made
    code, _, err = run_cli(capsys, "vqe", *args, "--shots", "16", "--maxiter", "1",
                           "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert message in err
    assert not any(tmp_path.iterdir())


def test_vqe_seed_batch(capsys, tmp_path):
    # [TRIVIAL] --seeds runs one directory per seed
    code, out, _ = run_cli(capsys, "vqe", "--ham", str(FIXTURE), "--taper",
                           "--ansatz", "hea", "--shots", "64", "--maxiter", "1",
                           "--seeds", "0,1", "--out", str(tmp_path))
    assert code == EXIT_OK
    runs = json.loads(out)["runs"]
    assert len(runs) == 2 and runs[0] != runs[1]


def test_missing_fixture_is_config_error(capsys):
    # [TRIVIAL] exit code 2
    code, _, err = run_cli(capsys, "map", "--ham", "/nonexistent/file.ham")
    assert code == EXIT_CONFIG
    assert "error" in err


@pytest.mark.parametrize("command", ["map", "exact"])
def test_fixture_without_electron_counts_is_config_error(capsys, tmp_path, command):
    # [TRIVIAL] without nbeta there is no electron sector to default to, and
    # without norb no orbital space: exit code 2, where a 0 nbeta would give
    # the vacuum energy and a 1 norb a one-orbital problem
    for header in ("nbeta", "norb"):
        ham = tmp_path / f"no_{header}.ham"
        ham.write_text("".join(line for line in TWO_LEVEL.splitlines(keepends=True)
                               if not line.startswith(header)))
        code, out, err = run_cli(capsys, command, "--ham", str(ham), "--mapper", "jw")
        assert code == EXIT_CONFIG
        assert out == "" and f"missing header {header}" in err


@pytest.mark.parametrize("entry, message", [
    ("h 5 5 -1.0", "h index (5,5) out of range for norb 2"),
    ("g 0 0 0 7 0.5", "g index ("),
], ids=["h", "g"])
def test_fixture_index_out_of_range_names_file_and_line(capsys, tmp_path, entry, message):
    # [TRIVIAL] an h or g index past norb exits 2 naming the file and the
    # entry's line, found once norb is known after the parse
    ham = tmp_path / "range.ham"
    ham.write_text(f"norb 2\nnalpha 1\nnbeta 1\nh 0 0 -1.0\n{entry}\n")
    code, out, err = run_cli(capsys, "exact", "--ham", str(ham), "--mapper", "jw")
    assert code == EXIT_CONFIG and out == ""
    assert err.startswith(f"error: {ham}:5: ") and message in err
    assert "out of range for norb 2" in err


@pytest.mark.parametrize("header", ["norb 3", "nalpha 1", "nbeta 0", "constant 0.5"])
def test_repeated_fixture_header_names_its_line(capsys, tmp_path, header):
    # [TRIVIAL] a second norb, nalpha, nbeta or constant line exits 2 at its
    # line, where a second norb silently padded the orbital space
    ham = tmp_path / "twice.ham"
    ham.write_text(f"norb 2\nnalpha 1\nnbeta 1\nconstant 0.25\n{header}\nh 0 0 -1.0\n")
    code, out, err = run_cli(capsys, "exact", "--ham", str(ham), "--mapper", "jw")
    assert code == EXIT_CONFIG and out == ""
    assert err.startswith(f"error: {ham}:5: repeated header {header.split()[0]}")


def test_second_units_line_is_config_error(capsys, tmp_path):
    # [TRIVIAL] a second `units` line exits 2 with its line, where it switched
    # the units of every later atom; no fixture is written
    geo = tmp_path / "h2.geom"
    geo.write_text("units angstrom\nH 0 0 0\nunits bohr\nH 0 0 1.4\n")
    out = tmp_path / "h2.ham"
    code, _, err = run_cli(capsys, "hamiltonian", "--geometry", str(geo), "--out", str(out))
    assert code == EXIT_CONFIG and not out.exists()
    assert err.startswith(f"error: {geo}: line 3: second `units` line")


@pytest.mark.parametrize("command", ["vqe", "hamiltonian", "exact"])
def test_path_of_the_wrong_kind_is_config_error(capsys, tmp_path, command):
    # [TRIVIAL] a file where a directory is needed, or a directory where a
    # file is, exits 2 with an error line, not a traceback
    a_file, a_dir = tmp_path / "a_file", tmp_path / "a_dir"
    a_file.write_text("")
    a_dir.mkdir()
    geo = tmp_path / "h2.geom"
    geo.write_text("units angstrom\nH 0 0 0\nH 0 0 0.74\n")
    argv = {"vqe": ["vqe", "--ham", str(FIXTURE), "--taper", "--ansatz", "hea", "--shots", "16",
                    "--maxiter", "1", "--out", str(a_file)],
            "hamiltonian": ["hamiltonian", "--geometry", str(geo), "--out", str(a_dir)],
            "exact": ["exact", "--ham", str(a_dir)]}[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG and out == ""
    assert err.startswith("error: ") and "Traceback" not in err

@pytest.mark.parametrize("command", ["exact", "hamiltonian"])
def test_non_finite_input_is_config_error(capsys, tmp_path, command):
    # [DERIVED] a NaN fixture entry or geometry coordinate: exit code 2 with
    # the file and line, where `qve exact` printed 0.0 and the geometry error
    # named no line
    if command == "exact":
        path = tmp_path / "nan.ham"
        path.write_text("norb 1\nnalpha 1\nnbeta 0\nh 0 0 nan\n")
        argv = ["exact", "--ham", str(path), "--mapper", "jw"]
        where = f"{path}:4:"
    else:
        path = tmp_path / "nan.geom"
        path.write_text("units angstrom\nH 0 0 0\nH 0 0 nan\n")
        argv = ["hamiltonian", "--geometry", str(path), "--out", str(tmp_path / "x.ham")]
        where = f"{path}: line 3:"
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == "" and where in err and "non-finite" in err


def test_oversized_fixture_is_refused_before_allocation(tmp_path):
    # [DERIVED] norb 70 (140 spin orbitals, past the 63-mode limit) exits 2
    # before any tensor is allocated: under a 1 GB address-space limit, where
    # the 192 MB h2 and the 3 GB spin-orbital tensor used to end in an
    # out-of-memory failure
    import qve
    ham = tmp_path / "big.ham"
    ham.write_text("norb 70\nnalpha 1\nnbeta 1\nh 0 0 -1.0\ng 69 69 69 69 0.5\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(qve.__file__).parents[1]), env.get("PYTHONPATH", "")])
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))\n"
        "from qve.cli import main\n"
        f"sys.exit(main(['exact', '--ham', {str(ham)!r}, '--mapper', 'jw']))\n")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert "header norb 70 outside" in done.stderr


def vqe_under_address_limit(tmp_path, norb: int, *args: str):
    """`qve vqe --mapper jw` on a norb-orbital, one-alpha, one-beta fixture,
    run in a subprocess under a 3 GiB address-space limit."""
    import qve
    ham = tmp_path / "big.ham"
    g = " ".join([str(norb - 1)] * 4)
    ham.write_text(f"norb {norb}\nnalpha 1\nnbeta 1\nh 0 0 -1.0\ng {g} 0.5\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(qve.__file__).parents[1]), env.get("PYTHONPATH", "")])
    argv = ["vqe", "--ham", str(ham), "--mapper", "jw", "--maxiter", "2", "--shots", "16",
            "--out", str(tmp_path / "runs"), *args]
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
        "from qve.cli import main\n"
        f"sys.exit(main({argv!r}))\n")
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def test_oversized_noiseless_vqe_is_numeric_error(tmp_path):
    # [DERIVED] norb 16 under jw is 32 qubits, whose statevector program would
    # need far more than the 3 GiB address-space limit: exit 3 with an error
    # line and no traceback, where a 2^32-entry array used to raise out of
    # the compile, and no run directory, since the run compiles before it
    # writes anything
    done = vqe_under_address_limit(tmp_path, 16)
    assert done.returncode == EXIT_NUMERIC, done.stderr
    assert done.stderr.startswith("error: statevector program") and "Traceback" not in done.stderr
    assert not (tmp_path / "runs" / "uccsd_jw_seed0").exists()


def test_oversized_noisy_vqe_is_numeric_error(tmp_path):
    # [DERIVED] norb 7 under jw is 14 qubits, whose noisy run would hold three
    # copies of a 2 GiB Pauli vector, over the 1 GiB byte cap: exit 3 with an
    # error line that names the cap, no traceback, and no run directory
    noise = tmp_path / "noise.cfg"
    noise.write_text("p2 0.01\n")
    done = vqe_under_address_limit(tmp_path, 7, "--ansatz", "hea", "--noise", str(noise))
    assert done.returncode == EXIT_NUMERIC, done.stderr
    assert done.stderr.startswith("error: noisy run on 14 qubits")
    assert "over the cap of 1073741824" in done.stderr and "Traceback" not in done.stderr
    assert not (tmp_path / "runs" / "hea_jw_seed0").exists()


def test_unsupported_element_is_element_error(capsys, tmp_path):
    # [DERIVED] Na is past Ne, where the built-in STO-3G ends: exit code 4
    geo = tmp_path / "nah.geom"
    geo.write_text("units angstrom\nNa 0 0 0\nH 0 0 1.887\n")
    code, _, err = run_cli(capsys, "hamiltonian", "--geometry", str(geo),
                           "--out", str(tmp_path / "x.ham"))
    assert code == EXIT_ELEMENT
    assert "fixture" in err  # points the user at the fixture path


@pytest.mark.parametrize("lines, message", [
    ("core 0\nactive 1 2 7\n", "outside 0..5"),
    ("core 0 1\nactive 1 2\n", "both core and active"),
])
def test_bad_active_space_is_config_error(capsys, tmp_path, lines, message):
    # [TRIVIAL] an MO index past the basis or MOs in both sets: exit code 2,
    # no fixture written
    geo = tmp_path / "lih.geom"
    geo.write_text("units angstrom\nLi 0 0 0\nH 0 0 1.6\n" + lines)
    out = tmp_path / "x.ham"
    code, _, err = run_cli(capsys, "hamiltonian", "--geometry", str(geo), "--out", str(out))
    assert code == EXIT_CONFIG
    assert message in err and not out.exists()


def test_linear_dependence_is_numeric_error(capsys, tmp_path):
    # [DERIVED] near-coincident atoms: exit code 3
    geo = tmp_path / "h2.geom"
    geo.write_text("units bohr\nH 0 0 0\nH 0 0 1e-5\n")
    code, _, err = run_cli(capsys, "hamiltonian", "--geometry", str(geo),
                           "--out", str(tmp_path / "x.ham"))
    assert code == EXIT_NUMERIC


def test_scf_nonconvergence_is_numeric_error(capsys, tmp_path, monkeypatch):
    # [TRIVIAL] an SCF that stops unconverged (asymmetric H4, one iteration):
    # exit code 3
    from qve import scf
    monkeypatch.setattr(scf, "MAX_SCF_ITERATIONS", 1)
    geo = tmp_path / "h4.geom"
    geo.write_text("units angstrom\nH 0 0 0\nH 0 0 0.74\nH 0 0 2.0\nH 0 0 3.1\n")
    code, _, err = run_cli(capsys, "hamiltonian", "--geometry", str(geo),
                           "--out", str(tmp_path / "x.ham"))
    assert code == EXIT_NUMERIC
    assert "did not converge" in err


def test_unconverged_lanczos_is_numeric_error(capsys, monkeypatch):
    # [TRIVIAL] a Lanczos solve that stops unconverged (every sector solved by
    # Lanczos, one step allowed): exit code 3 with the solver's message
    from qve import pauli
    monkeypatch.setattr(pauli, "DENSE_SOLVE_MAX", 1)
    monkeypatch.setattr(pauli, "_lanczos", functools.partial(pauli._lanczos, max_steps=1))
    code, out, err = run_cli(capsys, "exact", "--ham", str(FIXTURE), "--taper")
    assert code == EXIT_NUMERIC and out == ""
    assert "Lanczos did not converge in 1 steps on 9 states" in err


def test_zero_calibration_gradient_is_numeric_error(capsys, tmp_path, monkeypatch):
    # [TRIVIAL] a cost that never changes makes every SPSA calibration
    # gradient zero: exit code 3, and the run's result.json names the stage;
    # the run reads qve.circuit.estimate when it starts, so the patch reaches it
    import qve.circuit
    from qve.circuit import EstimatorResult
    monkeypatch.setattr(qve.circuit, "estimate",
                        lambda *args, **kwargs: EstimatorResult(-1.0, 0.0, 16, 0))
    code, _, err = run_cli(capsys, "vqe", "--ham", str(FIXTURE), "--taper", "--ansatz", "hea",
                           "--shots", "16", "--maxiter", "2", "--out", str(tmp_path))
    assert code == EXIT_NUMERIC
    assert "all calibration gradient estimates are zero" in err
    report = json.loads((tmp_path / "hea_parity_seed0" / "result.json").read_text())
    assert report["stage"] == "optimize"


def test_exit_code_of_each_error_class():
    # [TRIVIAL] the classification by qualified class name gives each
    # documented error its exit code, subclasses and builtins included
    from qve import basis, cli, mapping, pauli, pipeline, scf, spsa
    codes = {
        basis.UnsupportedElementError: EXIT_ELEMENT,
        scf.ConvergenceError: EXIT_NUMERIC,
        scf.LinearDependenceError: EXIT_NUMERIC,
        pauli.DenseCapError: EXIT_NUMERIC,
        pauli.LanczosError: EXIT_NUMERIC,
        spsa.CalibrationError: EXIT_NUMERIC,
        FloatingPointError: EXIT_NUMERIC,
        cli._ConfigError: EXIT_CONFIG,
        pipeline.FixtureError: EXIT_CONFIG,
        mapping.MappingError: EXIT_CONFIG,
        basis.GeometryError: EXIT_CONFIG,
        pauli.PauliError: EXIT_CONFIG,
        ValueError: EXIT_CONFIG,
        FileNotFoundError: EXIT_CONFIG,
    }
    for cls, code in codes.items():
        assert cli._exit_code(cls("x")) == code, cls
    assert cli._exit_code(type("Sub", (pauli.DenseCapError,), {})("x")) == EXIT_NUMERIC


def test_commands_load_only_their_modules(tmp_path):
    # [DERIVED] `qve exact` and `qve map` load neither the integrals nor the
    # circuit stack, and `qve hamiltonian` no circuit stack: each command
    # imports what it runs, and its errors are classified without imports
    import qve
    geom = tmp_path / "h2.geom"
    geom.write_text("units angstrom\nH 0 0 0\nH 0 0 0.74\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(qve.__file__).parents[1]), env.get("PYTHONPATH", "")])
    commands = {
        "exact": ["exact", "--ham", str(FIXTURE), "--taper"],
        "map": ["map", "--ham", str(FIXTURE), "--mapper", "bk"],
        "hamiltonian": ["hamiltonian", "--geometry", str(geom), "--out", str(tmp_path / "h2.ham")],
    }
    for name, argv in commands.items():
        script = (
            "import json, sys\n"
            "from qve.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(json.dumps([m for m in sys.modules if m.startswith('qve.')]))\n")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        loaded = set(json.loads(done.stdout.strip().splitlines()[-1]))
        assert not loaded & {"qve.circuit", "qve.spsa", "qve.ansatz", "qve.zne"}, (name, loaded)
        assert ("qve.basis" in loaded) == (name == "hamiltonian"), (name, loaded)


def test_oversized_exact_is_numeric_error(capsys, tmp_path):
    # [TRIVIAL] C(20,10)^2 = 34134779536 sector states exceed the exact-solver
    # cap: exit code 3 from the headers alone, before anything is mapped
    ham = tmp_path / "big.ham"
    ham.write_text("norb 20\nnalpha 10\nnbeta 10\n")
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "exact", "--ham", str(ham), "--mapper", "jw")
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_NUMERIC
    assert out == "" and "34134779536 states" in err


def test_bad_noise_file_is_config_error(capsys, tmp_path):
    # [TRIVIAL] a malformed noise file, and a missing one given to a replay
    # of a good run
    noise = tmp_path / "noise.cfg"
    noise.write_text("p3 0.1\n")
    run = ["--ham", str(FIXTURE), "--taper", "--ansatz", "hea", "--maxiter", "1",
           "--shots", "16", "--out", str(tmp_path)]
    code, _, _ = run_cli(capsys, "vqe", *run, "--noise", str(noise))
    assert code == EXIT_CONFIG
    code, out, _ = run_cli(capsys, "vqe", *run)
    assert code == EXIT_OK
    run_dir = json.loads(out)["runs"][0]
    code, _, err = run_cli(capsys, "replay", *run, "--run", run_dir,
                           "--noise", str(tmp_path / "missing.cfg"))
    assert code == EXIT_CONFIG
    assert "missing.cfg" in err


@pytest.mark.parametrize("text, line, message", [
    ("p1 nan\n", 1, "outside [0, 1]"),
    ("p2 0.01\np1 inf\n", 2, "outside [0, 1]"),
    ("# rates\np1 -inf\n", 2, "outside [0, 1]"),
    ("p1 2\n", 1, "outside [0, 1]"),
    ("readout01 -0.1\n", 1, "outside [0, 1]"),
    ("p1 0.001\np2 0.01\np1 0.5\n", 3, "repeated key p1"),
    ("p2 0.01\np1 abc\n", 2, "non-numeric value 'abc'"),
], ids=["nan", "inf", "minus-inf", "above-one", "negative", "repeated", "non-numeric"])
def test_noise_file_values_are_refused_with_file_and_line(capsys, tmp_path, text, line, message):
    # [TRIVIAL] a non-finite, out-of-range or non-numeric probability, or a
    # key given twice, exits 2 with the file and line, before any run
    # directory is made
    noise = tmp_path / "noise.cfg"
    noise.write_text(text)
    out_dir = tmp_path / "runs"
    code, out, err = run_cli(capsys, "vqe", "--ham", str(FIXTURE), "--taper", "--ansatz", "hea",
                             "--maxiter", "1", "--shots", "16", "--noise", str(noise),
                             "--out", str(out_dir))
    assert code == EXIT_CONFIG and out == ""
    assert f"{noise}:{line}:" in err and message in err
    assert not out_dir.exists()
    code, _, err = run_cli(capsys, "zne", "--ham", str(FIXTURE), "--taper", "--ansatz", "hea",
                           "--shots", "0", "--noise", str(noise), "--params-file", str(noise))
    assert code == EXIT_CONFIG and f"{noise}:{line}:" in err


def test_qve_threads_env(capsys, monkeypatch, tmp_path):
    # [TRIVIAL] invalid QVE_THREADS, not an integer or not positive, is a
    # config error; a valid value works
    for value in ("zero", "0"):
        monkeypatch.setenv("QVE_THREADS", value)
        code, _, err = run_cli(capsys, "map", "--ham", str(FIXTURE))
        assert code == EXIT_CONFIG
        assert f"QVE_THREADS must be a positive integer, got {value!r}" in err
    monkeypatch.setenv("QVE_THREADS", "1")
    code, _, _ = run_cli(capsys, "map", "--ham", str(FIXTURE))
    assert code == EXIT_OK


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the thread count from /proc")
def test_qve_threads_caps_blas_threads():
    # [DERIVED] QVE_THREADS=1 alone leaves a single thread after `qve map`,
    # so the cap reaches the BLAS pools that start with NumPy
    import qve
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["QVE_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(qve.__file__).parents[1]), env.get("PYTHONPATH", "")])
    script = (
        "from qve.cli import main\n"
        f"assert main(['map', '--ham', {str(FIXTURE)!r}]) == 0\n"
        "status = open('/proc/self/status').read().split('Threads:')[1]\n"
        "print('threads', int(status.split()[0]))\n")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "threads 1"


def test_zne_requires_parameters(capsys, tmp_path):
    # [TRIVIAL] zne without circuit parameters, or without a noise file,
    # exits 2
    noise = tmp_path / "noise.cfg"
    noise.write_text("p1 0.001\n")
    code, _, err = run_cli(capsys, "zne", "--ham", str(FIXTURE), "--taper",
                           "--ansatz", "hea", "--noise", str(noise))
    assert code == EXIT_CONFIG
    params = tmp_path / "theta.json"
    params.write_text(json.dumps([0.1] * 16))
    code, _, err = run_cli(capsys, "zne", "--ham", str(FIXTURE), "--taper",
                           "--ansatz", "hea", "--params-file", str(params))
    assert code == EXIT_CONFIG and "zne requires --noise" in err


@pytest.mark.parametrize("theta, message", [
    ("0.5", "flat list of 16 numbers"),
    (json.dumps([[0.1] * 16]), "flat list of 16 numbers"),
    (json.dumps([0.1] * 15), "15 parameters, the ansatz has 16"),
    (json.dumps([0.1] * 15 + [True]), "flat list of 16 numbers"),
    ("[" + ", ".join(["0.1"] * 15 + ["NaN"]) + "]", "finite"),
    ("[" + ", ".join(["0.1"] * 15 + ["1" + "0" * 400]) + "]", "finite"),
], ids=["scalar", "nested", "short", "bool", "nan", "huge-int"])
def test_zne_malformed_params_file_is_config_error(capsys, tmp_path, theta, message):
    # [TRIVIAL] a scalar, nested, short, non-numeric or non-finite parameter
    # vector (an integer past the float range included) exits 2 with a
    # message naming the file, not with a traceback
    noise = tmp_path / "noise.cfg"
    noise.write_text("p2 0.01\n")
    params = tmp_path / "theta.json"
    params.write_text(theta)
    code, _, err = run_cli(capsys, "zne", "--ham", str(FIXTURE), "--taper", "--ansatz", "hea",
                           "--shots", "0", "--noise", str(noise), "--params-file", str(params))
    assert code == EXIT_CONFIG
    assert str(params) in err and message in err


def test_zne_unknown_fit_is_refused_before_any_fold(capsys, tmp_path, monkeypatch):
    # [TRIVIAL] an unknown --fit model exits 2 before any fold is estimated,
    # not after every fold has run
    import qve.zne
    calls = []
    monkeypatch.setattr(qve.zne, "estimate", lambda *args, **kwargs: calls.append(args))
    noise = tmp_path / "noise.cfg"
    noise.write_text("p2 0.01\n")
    params = tmp_path / "theta.json"
    params.write_text(json.dumps([0.1] * 16))
    code, out, err = run_cli(capsys, "zne", "--ham", str(FIXTURE), "--taper", "--ansatz", "hea",
                             "--shots", "0", "--noise", str(noise), "--params-file", str(params),
                             "--fit", "linear,bogus")
    assert code == EXIT_CONFIG and out == ""
    assert "unknown extrapolation model 'bogus'" in err
    assert calls == []


@pytest.mark.parametrize("folds, message", [
    ("1,2", "fold factor must be an odd positive integer, got 2"),
    ("1,3,3", "duplicate fold factors"),
])
def test_zne_bad_folds_are_refused_before_any_fold(capsys, tmp_path, monkeypatch, folds, message):
    # [TRIVIAL] an even or a repeated fold exits 2 before any fold is
    # estimated, where fold 1 (or every fold) ran first
    import qve.zne
    calls = []
    monkeypatch.setattr(qve.zne, "estimate", lambda *args, **kwargs: calls.append(args))
    noise = tmp_path / "noise.cfg"
    noise.write_text("p2 0.01\n")
    params = tmp_path / "theta.json"
    params.write_text(json.dumps([0.1] * 16))
    code, out, err = run_cli(capsys, "zne", "--ham", str(FIXTURE), "--taper", "--ansatz", "hea",
                             "--shots", "0", "--noise", str(noise), "--params-file", str(params),
                             "--folds", folds)
    assert code == EXIT_CONFIG and out == ""
    assert message in err
    assert calls == []

def test_zne_on_failed_run_is_config_error(capsys, tmp_path):
    # [TRIVIAL] a failed run's result.json holds its error and stage, not
    # final_theta: zne exits 2 and names the missing vector
    (tmp_path / "result.json").write_text(json.dumps({"error": "boom", "stage": "optimize"}))
    noise = tmp_path / "noise.cfg"
    noise.write_text("p2 0.01\n")
    code, _, err = run_cli(capsys, "zne", "--ham", str(FIXTURE), "--taper", "--ansatz", "hea",
                           "--shots", "0", "--noise", str(noise), "--run", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "final_theta" in err


@pytest.mark.parametrize("row, message", [
    ({"iteration": 1}, "theta: expected a flat list of 16 numbers"),
    ({"iteration": 1, "theta": [0.1] * 15 + [float("nan")]}, "finite"),
    ({"theta": [0.1] * 16}, "integer iteration"),
    ([0.1] * 16, "integer iteration"),
], ids=["no-theta", "nan", "no-iteration", "list"])
def test_replay_malformed_params_row_is_config_error(capsys, tmp_path, row, message):
    # [TRIVIAL] a params.jsonl row without theta or iteration, or with a NaN
    # parameter, exits 2 naming the row's line, and writes no replay.csv
    good = json.dumps({"iteration": 0, "theta": [0.1] * 16})
    (tmp_path / "params.jsonl").write_text(good + "\n" + json.dumps(row) + "\n")
    code, _, err = run_cli(capsys, "replay", "--ham", str(FIXTURE), "--taper", "--ansatz", "hea",
                           "--run", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "params.jsonl:2" in err and message in err
    assert not (tmp_path / "replay.csv").exists()


def test_commands_run_without_scipy(tmp_path):
    # [DERIVED] the runtime depends on NumPy alone: `qve exact` and
    # `qve zne --shots 0` (all three fits) leave no scipy module loaded
    import qve
    noise = tmp_path / "noise.cfg"
    noise.write_text("p2 0.01\n")
    params = tmp_path / "theta.json"
    params.write_text(json.dumps([0.1 * (i + 1) for i in range(16)]))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(qve.__file__).parents[1]), env.get("PYTHONPATH", "")])
    script = (
        "import sys\n"
        "from qve.cli import main\n"
        f"assert main(['exact', '--ham', {str(FIXTURE)!r}, '--taper']) == 0\n"
        f"assert main(['zne', '--ham', {str(FIXTURE)!r}, '--taper', '--ansatz', 'hea',\n"
        f"             '--shots', '0', '--noise', {str(noise)!r},\n"
        f"             '--params-file', {str(params)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
