"""CLI behavior: subcommands, JSON outputs, artifacts, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURE
from qve.cli import EXIT_ANGULAR, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main


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
    assert json.loads(out)["energy_ha"] == pytest.approx(-15.56089, abs=5e-6)


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


def test_unsupported_element_is_angular_error(capsys, tmp_path):
    # [DERIVED] Na is past Ne, where the built-in STO-3G ends: exit code 4
    geo = tmp_path / "nah.geom"
    geo.write_text("units angstrom\nNa 0 0 0\nH 0 0 1.887\n")
    code, _, err = run_cli(capsys, "hamiltonian", "--geometry", str(geo),
                           "--out", str(tmp_path / "x.ham"))
    assert code == EXIT_ANGULAR
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


def test_oversized_exact_is_numeric_error(capsys, tmp_path):
    # [TRIVIAL] 16 qubits exceed the dense-matrix cap: exit code 3, refused
    # before the matrix is allocated
    ham = tmp_path / "big.ham"
    ham.write_text("norb 8\nnalpha 1\nnbeta 1\nh 0 0 -1.0\nh 7 7 -0.5\n")
    code, out, err = run_cli(capsys, "exact", "--ham", str(ham), "--mapper", "jw")
    assert code == EXIT_NUMERIC
    assert out == "" and "16 qubits" in err


def test_bad_noise_file_is_config_error(capsys, tmp_path):
    # [TRIVIAL]
    noise = tmp_path / "noise.cfg"
    noise.write_text("p3 0.1\n")
    code, _, _ = run_cli(capsys, "vqe", "--ham", str(FIXTURE), "--taper",
                         "--maxiter", "1", "--shots", "16",
                         "--noise", str(noise), "--out", str(tmp_path))
    assert code == EXIT_CONFIG


def test_qve_threads_env(capsys, monkeypatch, tmp_path):
    # [TRIVIAL] invalid QVE_THREADS is a config error; a valid value works
    monkeypatch.setenv("QVE_THREADS", "zero")
    code, _, err = run_cli(capsys, "map", "--ham", str(FIXTURE))
    assert code == EXIT_CONFIG
    assert "QVE_THREADS" in err
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
    # [TRIVIAL]
    noise = tmp_path / "noise.cfg"
    noise.write_text("p1 0.001\n")
    code, _, err = run_cli(capsys, "zne", "--ham", str(FIXTURE), "--taper",
                           "--ansatz", "hea", "--noise", str(noise))
    assert code == EXIT_CONFIG


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
