"""Fixture serialization, run orchestration, artifacts, and exact replay."""

import dataclasses
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import qve.circuit as circuit_module
from conftest import FIXTURE
from qve.circuit import NoiseModel
from qve.mapping import MappingError
from qve.pauli import COEFF_TOL
from qve.pipeline import (FixtureError, PipelineError, RunConfig, build_ansatz,
                          initial_parameters, load_fixture, problem_to_pauli,
                          replay_on_exact, run_vqe, save_fixture,
                          summarize_last_fraction, write_replay_csv)
from qve.scf import ActiveSpaceProblem
from qve.spsa import CalibrationError


def strip_elapsed(csv_text):
    rows = [line.rsplit(",", 1)[0] for line in csv_text.strip().splitlines()]
    return rows


def test_fixture_round_trip_byte_identical(tmp_path, beh2_problem):
    # [TRIVIAL] save -> load -> save reproduces the bytes exactly
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    save_fixture(beh2_problem, p1)
    save_fixture(load_fixture(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def _orbit(key):
    """8-fold orbit of a real <pq|rs>: closure under swapping the two electrons
    and under swapping bra and ket of either electron."""
    orbit, todo = set(), [key]
    while todo:
        k = todo.pop()
        if k not in orbit:
            orbit.add(k)
            p, q, r, s = k
            todo += [(q, p, s, r), (r, q, p, s), (p, s, r, q)]
    return orbit


def _random_symmetric_problem(n, rng):
    h1 = rng.normal(size=(n, n))
    h2 = np.zeros((n, n, n, n))
    for key in itertools.product(range(n), repeat=4):
        if key == min(_orbit(key)):
            v = rng.normal()
            for k in _orbit(key):
                h2[k] = v
    return ActiveSpaceProblem(n, 1, 1, (h1 + h1.T) / 2, h2, 0.5)


@pytest.mark.parametrize("source", ["beh2", "random"])
def test_fixture_writes_each_orbit_once_at_its_smallest_member(tmp_path, beh2_problem,
                                                               source):
    # [DERIVED] the g lines name each 8-fold orbit with a nonzero entry exactly
    # once, by its smallest member, in ascending key order
    problem = (beh2_problem if source == "beh2"
               else _random_symmetric_problem(3, np.random.default_rng(17)))
    n = problem.n_spatial
    path = tmp_path / "f.txt"
    save_fixture(problem, path)
    keys = [tuple(int(t) for t in line.split()[1:5])
            for line in path.read_text().splitlines() if line.startswith("g ")]
    assert keys == sorted(set(keys))
    assert all(k == min(_orbit(k)) for k in keys)
    assert set(keys) == {min(_orbit(k)) for k in itertools.product(range(n), repeat=4)
                         if abs(problem.h2[k]) >= COEFF_TOL}
    if source == "random":
        assert len(keys) == 21  # pairs of the 6 orbital pairs p <= r of 3 orbitals
        assert np.array_equal(load_fixture(path).h2, problem.h2)


def test_fixture_loads_headers_and_symmetry(tmp_path, beh2_problem):
    # [DERIVED] stored entries expand to the full 8-fold physicist orbit
    assert (beh2_problem.n_spatial, beh2_problem.n_alpha, beh2_problem.n_beta) \
        == (3, 1, 1)
    g = beh2_problem.h2
    np.testing.assert_allclose(g, g.transpose(1, 0, 3, 2), atol=1e-14)
    np.testing.assert_allclose(g, g.transpose(2, 3, 0, 1), atol=1e-14)
    np.testing.assert_allclose(beh2_problem.h1, beh2_problem.h1.T, atol=1e-14)


def test_fixture_parse_errors(tmp_path):
    # [TRIVIAL] line-numbered diagnostics
    f = tmp_path / "bad.txt"
    f.write_text("norb 2\nh 0 0 1.0\nh 0 0 2.0\n")
    with pytest.raises(FixtureError, match=":3"):
        load_fixture(f)
    f.write_text("norb 2\ng 0 0 0 0 1.0\ng 0 0 0 0 1.0\n")
    with pytest.raises(FixtureError, match="duplicate"):
        load_fixture(f)
    f.write_text("norb 2\nh 0 5 1.0\n")
    with pytest.raises(FixtureError, match="out of range"):
        load_fixture(f)
    f.write_text("norb 2\nnalpha 1\nnbeta 1\ng 0 0 0 2 1.0\n")
    with pytest.raises(FixtureError, match=r"g index \(.*\) out of range for norb 2"):
        load_fixture(f)
    f.write_text("norb 2\nh 0 zero 1.0\n")
    with pytest.raises(FixtureError):
        load_fixture(f)
    f.write_text("wibble 3\n")
    with pytest.raises(FixtureError, match="malformed"):
        load_fixture(f)


def test_fixture_refuses_non_finite_numbers(tmp_path):
    # [DERIVED] nan and inf, in the constant, an h or a g entry, or a number
    # past the float range, are refused with the file and line; a NaN entry
    # used to vanish from the Hamiltonian and `qve exact` printed 0.0
    f = tmp_path / "bad.txt"
    for body in ("h 0 0 nan", "constant inf", "g 0 1 0 1 -inf", "h 0 1 1e999"):
        f.write_text(f"norb 2\nnalpha 1\nnbeta 1\n{body}\n")
        with pytest.raises(FixtureError, match=re.escape(f"{f}:4: non-finite number")):
            load_fixture(f)


def test_fixture_header_ranges(tmp_path):
    # [DERIVED] norb outside [1, MAX_MODES // 2] and a negative electron count
    # are refused with a message naming the header; norb 31 (62 modes) loads
    f = tmp_path / "bad.txt"
    for norb in (0, 32, 70):
        f.write_text(f"norb {norb}\nnalpha 1\nnbeta 1\n")
        with pytest.raises(FixtureError, match=f"header norb {norb} outside"):
            load_fixture(f)
    for header in ("nalpha", "nbeta"):
        f.write_text(f"norb 2\nnalpha 1\nnbeta 1\n{header} -1\n".replace(f"{header} 1\n", ""))
        with pytest.raises(FixtureError, match=f"header {header} -1 is negative"):
            load_fixture(f)
    f.write_text("norb 31\nnalpha 1\nnbeta 1\n")
    assert load_fixture(f).n_spatial == 31


def test_fixture_duplicate_detection_spans_orbit(tmp_path):
    # [DERIVED] a permuted copy of a stored g entry is still a duplicate
    f = tmp_path / "dup.txt"
    f.write_text("norb 2\ng 0 1 0 1 0.5\ng 1 0 1 0 0.5\n")
    with pytest.raises(FixtureError, match="duplicate"):
        load_fixture(f)


def test_fixture_comments_and_defaults(tmp_path):
    # [TRIVIAL] the constant defaults to 0; norb, nalpha and nbeta have no
    # default
    f = tmp_path / "tiny.txt"
    f.write_text("# a comment\nnorb 1\nnalpha 1\nnbeta 0\nh 0 0 -1.25  # trailing comment\n")
    p = load_fixture(f)
    assert (p.n_spatial, p.n_alpha, p.n_beta, p.e_offset) == (1, 1, 0, 0.0)
    assert p.h1[0, 0] == -1.25
    f.write_text("norb 1\nnbeta 0\nh 0 0 -1.25\n")
    with pytest.raises(FixtureError, match="missing header nalpha$"):
        load_fixture(f)
    f.write_text("norb 1\nh 0 0 -1.25\n")
    with pytest.raises(FixtureError, match="missing header nalpha and nbeta"):
        load_fixture(f)
    f.write_text("nalpha 1\nnbeta 1\nh 0 0 -1.0\n")
    with pytest.raises(FixtureError, match="missing header norb$"):
        load_fixture(f)


def test_problem_to_pauli_validation(beh2_problem):
    # [TRIVIAL]
    with pytest.raises(MappingError):
        problem_to_pauli(beh2_problem, "nope", False)
    with pytest.raises(MappingError):
        problem_to_pauli(beh2_problem, "jw", True)


def test_run_config_validation(tmp_path):
    # [TRIVIAL] a fixture is the only problem source; an unknown ansatz is
    # refused; a VQE run needs shots, and refuses before its run directory
    # exists
    with pytest.raises(TypeError):
        RunConfig()
    with pytest.raises(PipelineError):
        RunConfig(fixture="a", ansatz="vqe")
    with pytest.raises(PipelineError, match="shots"):
        run_vqe(RunConfig(fixture=str(FIXTURE), shots=0, output_dir=str(tmp_path)))
    assert not any(tmp_path.iterdir())


def test_initial_parameters_distributions():
    # [DERIVED] HEA starts uniform over [0, 2pi); UCCSD near zero; both are
    # seed-deterministic
    cfg_h = RunConfig(fixture=str(FIXTURE), ansatz="hea", seed=5)
    cfg_u = RunConfig(fixture=str(FIXTURE), ansatz="uccsd", seed=5)
    prob = load_fixture(FIXTURE)
    hea = build_ansatz(prob, cfg_h)
    ucc = build_ansatz(prob, cfg_u)
    th = initial_parameters(hea, cfg_h)
    tu = initial_parameters(ucc, cfg_u)
    assert th.shape == (16,) and np.all((0 <= th) & (th < 2 * math.pi))
    assert tu.shape == (8,) and np.all(np.abs(tu) <= 0.1)
    np.testing.assert_array_equal(th, initial_parameters(hea, cfg_h))


def test_summarize_last_fraction():
    # [TRIVIAL] ceil window; population standard deviation
    vals = list(range(1, 21))
    mean, std = summarize_last_fraction(vals, 0.10)
    assert mean == pytest.approx(np.mean(vals[-2:]))
    assert std == pytest.approx(np.std(vals[-2:]))
    mean, _ = summarize_last_fraction([3.0], 0.10)
    assert mean == 3.0
    with pytest.raises(PipelineError):
        summarize_last_fraction([])


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    cfg = RunConfig(fixture=str(FIXTURE), ansatz="hea", shots=128, maxiter=4,
                    seed=1, output_dir=str(out))
    run_dir = run_vqe(cfg)
    return cfg, run_dir


def test_run_vqe_artifacts(small_run):
    # [DERIVED] artifact contract: convergence.csv with one row per iteration
    # carrying the 50 + 3k evaluation counts, params.jsonl, result.json
    cfg, run_dir = small_run
    for name in ("convergence.csv", "params.jsonl", "result.json", "config.resolved"):
        assert (run_dir / name).exists()
    rows = (run_dir / "convergence.csv").read_text().strip().splitlines()
    assert rows[0] == "iteration,fevals,energy_ha,std_error_ha,elapsed_ms"
    assert len(rows) == 1 + cfg.maxiter
    for k, row in enumerate(rows[1:], start=1):
        fields = row.split(",")
        assert int(fields[0]) == k
        assert int(fields[1]) == 50 + 3 * k
    report = json.loads((run_dir / "result.json").read_text())
    assert report["n_evaluations"] == 50 + 3 * cfg.maxiter + 1
    assert len(report["final_theta"]) == 16
    assert report["exact_energy_ha"] == pytest.approx(-15.56089, abs=5e-6)
    assert report["exact_sector"] == [1, 1]
    assert report["delta_e_ha"] == pytest.approx(
        abs(report["last_10pct_mean_ha"] - report["exact_energy_ha"]), abs=1e-12)
    params = [json.loads(l) for l in (run_dir / "params.jsonl").read_text().splitlines()]
    assert [p["iteration"] for p in params] == [1, 2, 3, 4]


def test_run_vqe_deterministic_modulo_timing(small_run, tmp_path):
    # [DERIVED] identical config and seed give identical artifacts except for
    # the wall-clock elapsed_ms column
    cfg, run_dir = small_run
    cfg2 = RunConfig(fixture=cfg.fixture, ansatz=cfg.ansatz, shots=cfg.shots,
                     maxiter=cfg.maxiter, seed=cfg.seed, output_dir=str(tmp_path))
    run2 = run_vqe(cfg2)
    a = strip_elapsed((run_dir / "convergence.csv").read_text())
    b = strip_elapsed((run2 / "convergence.csv").read_text())
    assert a == b
    assert (run_dir / "params.jsonl").read_text() == (run2 / "params.jsonl").read_text()


def exact_per_term(circuit, h, thetas):
    """The per-term reference: expectation_exact on each theta's state."""
    from qve.circuit import run_circuit
    from qve.pauli import expectation_exact
    names = circuit.parameter_names
    return [expectation_exact(h, run_circuit(circuit, dict(zip(names, t)))) for t in thetas]


def test_replay_on_exact(small_run, tmp_path, beh2_problem, beh2_tapered):
    # [DERIVED] replay evaluates each logged theta noiselessly and exactly:
    # every row, in iteration order, equals expectation_exact on
    # run_circuit's state within 1e-12, also when the run has a noise model
    cfg, run_dir = small_run
    rows = replay_on_exact(run_dir / "params.jsonl", beh2_problem, cfg)
    assert [k for k, _ in rows] == [1, 2, 3, 4]
    circuit = build_ansatz(beh2_problem, cfg)
    thetas = [json.loads(l)["theta"] for l in (run_dir / "params.jsonl").read_text().splitlines()]
    want = exact_per_term(circuit, beh2_tapered, thetas)
    assert [e for _, e in rows] == pytest.approx(want, abs=1e-12)
    noisy = dataclasses.replace(cfg, noise=NoiseModel(p1=0.01, p2=0.02, readout01=0.05))
    assert replay_on_exact(run_dir / "params.jsonl", beh2_problem, noisy) == rows
    out = tmp_path / "replay.csv"
    write_replay_csv(rows, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iteration,energy_ha"
    assert len(lines) == 5
    # a blank line in the log is skipped
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text("\n  \n".join((run_dir / "params.jsonl").read_text().splitlines()) + "\n")
    assert replay_on_exact(spaced, beh2_problem, cfg) == rows


def test_replay_is_one_estimate_cut_into_chunks(tmp_path, beh2_problem, beh2_tapered,
                                                monkeypatch):
    # [DERIVED] replay makes one estimate call over the whole log, which the
    # estimator cuts into chunks: under a DENSE_CAP of 5, 32 values per
    # chunk, the 4-qubit HEA's 13 rows run one per chunk, and every row, in
    # the log's iteration order, equals the per-term reference within 1e-12
    monkeypatch.setattr(circuit_module, "DENSE_CAP", 5)
    cfg = RunConfig(fixture=str(FIXTURE), ansatz="hea", output_dir=str(tmp_path))
    circuit = build_ansatz(beh2_problem, cfg)
    thetas = np.random.default_rng(47).uniform(-1, 1, (13, len(circuit.parameter_names)))
    iterations = [7 * k % 13 + 1 for k in range(13)]
    log = tmp_path / "params.jsonl"
    log.write_text("".join(json.dumps({"iteration": k, "theta": t.tolist()}) + "\n"
                           for k, t in zip(iterations, thetas)))
    calls, chunks = [], []
    estimate, estimate_rows = circuit_module.estimate, circuit_module._estimate_rows
    monkeypatch.setattr(circuit_module, "estimate",
                        lambda *args, **kw: calls.append(len(args[1])) or estimate(*args, **kw))
    monkeypatch.setattr(circuit_module, "_estimate_rows",
                        lambda c, params, *args: chunks.append(len(params)) or
                        estimate_rows(c, params, *args))
    rows = replay_on_exact(log, beh2_problem, cfg)
    assert calls == [13]
    assert chunks == [1] * 13
    assert [k for k, _ in rows] == iterations
    want = exact_per_term(circuit, beh2_tapered, thetas)
    assert [e for _, e in rows] == pytest.approx(want, abs=1e-12)


def test_empty_params_log_replays_to_no_rows(tmp_path, beh2_problem, monkeypatch):
    # [TRIVIAL] a log with no parameter lines (empty, or blank lines only)
    # replays to no rows without an estimate, and its replay.csv holds only
    # the header

    def no_estimate(*args, **kwargs):
        raise AssertionError("an empty log needs no estimate")

    monkeypatch.setattr(circuit_module, "estimate", no_estimate)
    cfg = RunConfig(fixture=str(FIXTURE), ansatz="hea", output_dir=str(tmp_path))
    for text in ("", "\n  \n"):
        log = tmp_path / "params.jsonl"
        log.write_text(text)
        assert replay_on_exact(log, beh2_problem, cfg) == []
    write_replay_csv([], tmp_path / "replay.csv")
    assert (tmp_path / "replay.csv").read_text() == "iteration,energy_ha\n"


def test_run_vqe_failure_leaves_diagnostic(tmp_path):
    # [DERIVED] a missing fixture is refused before the run directory exists;
    # a run that fails while optimizing writes result.json with the stage
    # marker. A constant Hamiltonian gives SPSA's calibration zero gradients.
    runs = tmp_path / "runs"
    cfg = RunConfig(fixture=str(tmp_path / "missing.txt"), maxiter=1, output_dir=str(runs))
    with pytest.raises(FileNotFoundError):
        run_vqe(cfg)
    assert not runs.exists()
    flat = tmp_path / "flat.ham"
    flat.write_text("norb 2\nnalpha 1\nnbeta 1\nconstant 1.5\n")
    cfg = RunConfig(fixture=str(flat), mapper="jw", taper=False, ansatz="hea",
                    shots=16, maxiter=1, output_dir=str(runs))
    with pytest.raises(CalibrationError):
        run_vqe(cfg)
    report = json.loads((runs / "hea_jw_seed0" / "result.json").read_text())
    assert report["stage"] == "optimize"
    assert "error" in report


def test_run_vqe_above_the_sector_cap_has_no_exact_target(tmp_path, monkeypatch):
    # [TRIVIAL] a sector over the exact-solver cap still gives a report, one
    # without the exact target and its delta
    import qve.mapping
    monkeypatch.setattr(qve.mapping, "SECTOR_CAP", 1)
    cfg = RunConfig(fixture=str(FIXTURE), ansatz="hea", shots=16, maxiter=1,
                    output_dir=str(tmp_path))
    report = json.loads((run_vqe(cfg) / "result.json").read_text())
    assert "final_energy_ha" in report
    assert not {"exact_energy_ha", "exact_sector", "delta_e_ha"} & set(report)


def test_hamiltonian_fixture_runs_full_chain(tmp_path, capsys):
    # [DERIVED] a geometry reaches a run through `qve hamiltonian`: integrals
    # and SCF write the fixture, and the run's exact target is H2's FCI energy
    from qve.cli import main
    geo = tmp_path / "h2.xyz"
    geo.write_text("units angstrom\nH 0 0 0\nH 0 0 0.74\n")
    ham = tmp_path / "h2.ham"
    assert main(["hamiltonian", "--geometry", str(geo), "--out", str(ham)]) == 0
    cfg = RunConfig(fixture=str(ham), mapper="jw", taper=False, ansatz="uccsd",
                    shots=64, maxiter=2, seed=0, output_dir=str(tmp_path / "runs"))
    run_dir = run_vqe(cfg)
    report = json.loads((run_dir / "result.json").read_text())
    assert report["exact_energy_ha"] == pytest.approx(-1.1372838351, abs=1e-8)
    # the bundled BeH2 geometry's core/active lines reach the run: its exact
    # energy is the bundled CAS(2e,3o) fixture's
    ham = tmp_path / "beh2.ham"
    assert main(["hamiltonian", "--geometry", str(FIXTURE.parent / "beh2.geom"),
                 "--out", str(ham)]) == 0
    capsys.readouterr()
    cfg = RunConfig(fixture=str(ham), shots=64, maxiter=2,
                    output_dir=str(tmp_path / "beh2"))
    report = json.loads((run_vqe(cfg) / "result.json").read_text())
    assert report["exact_energy_ha"] == pytest.approx(-15.5608893584, abs=1e-9)


def test_beh2_fixture_regenerates_in_package(tmp_path, capsys, beh2_problem):
    # [DERIVED] `qve hamiltonian` on the bundled BeH2 geometry, running through
    # the package's STO-3G rule, integrals, RHF and the geometry file's frozen
    # core, reproduces the bundled BeH2 CAS(2e,3o) fixture: entries 1e-7,
    # constant 1e-9, tapered parity exact energy 1e-9, and exactly the bundled
    # file's 12 entries (symmetry-zero roundoff dropped)
    from qve.cli import main
    from qve.pauli import exact_ground_energy
    out = tmp_path / "beh2.txt"
    assert main(["hamiltonian", "--geometry", str(FIXTURE.parent / "beh2.geom"),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    regen = load_fixture(out)
    assert (regen.n_spatial, regen.n_alpha, regen.n_beta) == (3, 1, 1)
    np.testing.assert_allclose(regen.h1, beh2_problem.h1, rtol=0, atol=1e-7)
    np.testing.assert_allclose(regen.h2, beh2_problem.h2, rtol=0, atol=1e-7)
    assert regen.e_offset == pytest.approx(beh2_problem.e_offset, abs=1e-9)
    e_regen, _ = exact_ground_energy(problem_to_pauli(regen, "parity", True))
    e_bundled, _ = exact_ground_energy(problem_to_pauli(beh2_problem, "parity", True))
    assert e_regen == pytest.approx(e_bundled, abs=1e-9)

    def entry_keys(path):
        return sorted(tuple(line.split()[:-1]) for line in Path(path).read_text().splitlines()
                      if line.split()[:1] in (["h"], ["g"]))

    assert entry_keys(out) == entry_keys(FIXTURE)
    assert len(entry_keys(FIXTURE)) == 12
