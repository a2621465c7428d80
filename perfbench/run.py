#!/usr/bin/env python3
"""The qve benchmark: four workloads run through the `qve` command, timed end
to end, with every output checked; `--trace 1` gives per-layer figures.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. Each command is one fresh `python3 -m qve.cli` process, started only
after the previous one exited (a closed loop with one client), with the BLAS
pools pinned to one thread. A run repeats whole rounds of its workload's
commands until the next round would end past `--seconds` (at least one
round) and reports medians over rounds. The last line of standard output is
one JSON object: correct, attempted, failed, metrics. See perfbench/README.md.

Standard library only; the per-layer trace runs in a child (traced.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from fci import fci_energies

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURE = SRC / "qve" / "data" / "beh2_cas_2e3o_sto3g.txt"
WORK = ROOT / ".perfbench_work"
# Set on every child. QVE_THREADS is not used: the CLI reads it only after
# NumPy is already imported, so it does not reach the BLAS pools.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4  # before the rounds, and as many again after them
H2_FCI_README = -1.1372838  # README reference, H2/STO-3G at 0.74 angstrom
SPSA_CALIBRATION_EVALS = 50


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("QVE_THREADS", None)
    env.update({v: "1" for v in THREAD_VARS})
    return env


# -- workloads ---------------------------------------------------------------
#
# A workload turns the seed into input files under `inputs` and returns its
# commands (argument lists for `qve`, run in a fresh round directory), the
# `qve` command whose set-up the probe repeats, and a check over one round.


class Workload:
    name = ""
    probe: list[str] = []

    def __init__(self, seed: int, inputs: Path):
        self.rng = random.Random(f"{self.name}:{seed}")

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, outputs: list[dict], rdir: Path) -> dict[int, str]:
        """Failed command index -> reason, for a round's outputs."""
        raise NotImplementedError

    def evals_per_s(self, outputs: list[dict], rdir: Path) -> float:
        raise NotImplementedError


def _json(out: dict) -> dict:
    return json.loads(out["stdout"].strip().splitlines()[-1])


def _rows(path: Path) -> list[list[str]]:
    lines = path.read_text().strip().splitlines()
    return [ln.split(",") for ln in lines[1:]]


def _beh2(ansatz: str) -> list[str]:
    return ["--ham", str(FIXTURE), "--mapper", "parity", "--taper", "--ansatz", ansatz]


class _VQE(Workload):
    """`qve vqe` then `qve replay` on the bundled BeH2 fixture."""
    ansatz = ""
    maxiter = 0

    def __init__(self, seed, inputs):
        super().__init__(seed, inputs)
        self.e0, _ = fci_energies(FIXTURE.read_text())
        self.probe = ["vqe", str(FIXTURE), self.ansatz]

    @property
    def run_dir(self) -> str:
        return f"runs/{self.ansatz}_parity_seed{self.vqe_seed}"

    def vqe_args(self) -> list[str]:
        return _beh2(self.ansatz) + ["--seed", str(self.vqe_seed), "--maxiter",
                                     str(self.maxiter), "--out", "runs"]

    def commands(self):
        return [["vqe"] + self.vqe_args(),
                ["replay"] + self.vqe_args() + ["--run", self.run_dir]]

    def check_vqe(self, outputs, rdir) -> tuple[dict[int, str], list[float]]:
        """Checks both VQE workloads share: (failures, replayed energies)."""
        bad, replay = {}, []
        run = rdir / self.run_dir
        if outputs[0]["rc"] == 0:
            res = json.loads((run / "result.json").read_text())
            n_rows = len(_rows(run / "convergence.csv"))
            n_params = len((run / "params.jsonl").read_text().strip().splitlines())
            if res["n_evaluations"] != SPSA_CALIBRATION_EVALS + 3 * self.maxiter + 1:
                bad[0] = f"n_evaluations {res['n_evaluations']}"
            elif n_rows != self.maxiter or n_params != self.maxiter:
                bad[0] = f"{n_rows} convergence rows, {n_params} parameter rows"
            elif abs(res["exact_energy_ha"] - self.e0) > 1e-8:
                bad[0] = f"exact_energy_ha {res['exact_energy_ha']} != FCI {self.e0}"
        if outputs[1]["rc"] == 0:
            replay = [float(r[1]) for r in _rows(run / "replay.csv")]
            if len(replay) != self.maxiter:
                bad[1] = f"{len(replay)} replay rows"
            elif min(replay) < self.e0 - 1e-9:
                bad[1] = f"replayed energy {min(replay)} below FCI {self.e0}"
        return bad, replay

    def evals_per_s(self, outputs, rdir):
        run = rdir / self.run_dir
        n = json.loads((run / "result.json").read_text())["n_evaluations"]
        return n / (float(_rows(run / "convergence.csv")[-1][4]) / 1000.0)


class VqeUccsdNoiseless(_VQE):
    """The README's canonical run. Its program seed stays 2 whatever the
    benchmark seed: the 1.6 mHa check holds for the best of several SPSA
    seeds, not for every seed."""
    name = "vqe-uccsd-noiseless"
    ansatz = "uccsd"
    maxiter = 400
    vqe_seed = 2

    def check(self, outputs, rdir):
        bad, replay = self.check_vqe(outputs, rdir)
        if replay and 1 not in bad and abs(replay[-1] - self.e0) > 1.6e-3:
            bad[1] = f"final replayed energy {replay[-1]} not within 1.6 mHa of {self.e0}"
        return bad


class VqeHeaNoisy(_VQE):
    """Criterion 7's noisy HEA run, then `qve zne --run` on its result."""
    name = "vqe-hea-noisy"
    ansatz = "hea"
    maxiter = 40
    shots = 1024

    def __init__(self, seed, inputs):
        super().__init__(seed, inputs)
        self.vqe_seed = self.rng.randrange(1 << 20)
        self.noise = inputs / "noise.cfg"
        self.noise.write_text("p1 0.001\np2 0.01\nreadout01 0.01\nreadout10 0.01\n")

    def vqe_args(self):
        return super().vqe_args() + ["--shots", str(self.shots), "--noise", str(self.noise)]

    def commands(self):
        return super().commands() + [["zne"] + self.vqe_args() + ["--run", self.run_dir]]

    def check(self, outputs, rdir):
        bad, _ = self.check_vqe(outputs, rdir)
        if outputs[2]["rc"] == 0:
            points = _json(outputs[2])["points"]
            if [p["fold"] for p in points] != [1, 3, 5]:
                bad[2] = f"folds {[p['fold'] for p in points]}"
            elif not all(math.isfinite(p["mean_ha"]) for p in points):
                bad[2] = f"non-finite fold mean in {points}"
        return bad


class ZneUccsdNoisy(Workload):
    """`qve zne` on UCCSD at a seed-drawn theta near the HF point, under
    depolarizing noise only, weak enough that fold 5 stays clear of the
    mixed-state plateau: the fold means then rise by many standard errors."""
    name = "zne-uccsd-noisy"
    shots = 4096

    def __init__(self, seed, inputs):
        super().__init__(seed, inputs)
        self.e0, _ = fci_energies(FIXTURE.read_text())
        self.noise = inputs / "depolarizing.cfg"
        self.noise.write_text("p1 0.0002\np2 0.002\n")
        self.params = inputs / "theta.json"
        self.params.write_text(json.dumps([self.rng.uniform(-0.1, 0.1) for _ in range(8)]))
        self.zne_seed = self.rng.randrange(1 << 20)
        self.probe = ["zne", str(FIXTURE), "uccsd"]

    def commands(self):
        return [["zne"] + _beh2("uccsd") + [
            "--shots", str(self.shots), "--seed", str(self.zne_seed), "--folds", "1,3,5",
            "--noise", str(self.noise), "--params-file", str(self.params)]]

    def check(self, outputs, rdir):
        if outputs[0]["rc"] != 0:
            return {}
        points = _json(outputs[0])["points"]
        means = [p["mean_ha"] for p in points]
        if [p["fold"] for p in points] != [1, 3, 5]:
            return {0: f"folds {[p['fold'] for p in points]}"}
        if any(p["mean_ha"] < self.e0 - 4 * p["std_error_ha"] for p in points):
            return {0: f"fold mean below FCI {self.e0} by more than 4 sigma: {points}"}
        if not all(a < b for a, b in zip(means, means[1:])):
            return {0: f"fold means do not rise with the fold factor: {means}"}
        return {}

    def evals_per_s(self, outputs, rdir):
        return 3 / outputs[0]["wall_s"]


class HchainPes(Workload):
    """H2 at 0.74 angstrom, then linear H4 and H6 at a seed-drawn equilibrium
    and stretched bond length: `qve hamiltonian`, `qve map` under jw, bk,
    parity and tapered parity, and `qve exact` (tapered parity) per point."""
    name = "hchain-pes"
    mappers = (["jw"], ["bk"], ["parity"], ["parity", "--taper"])

    def __init__(self, seed, inputs):
        super().__init__(seed, inputs)
        self.points = [(2, 0.74)]
        for n_atoms in (4, 6):
            self.points.append((n_atoms, round(self.rng.uniform(0.85, 0.95), 4)))
            self.points.append((n_atoms, round(self.rng.uniform(1.4, 1.6), 4)))
        self.geoms = []
        for n_atoms, bond in self.points:
            path = inputs / f"h{n_atoms}_{bond}.geom"
            path.write_text("units angstrom\n" + "".join(
                f"H 0 0 {i * bond:.6f}\n" for i in range(n_atoms)))
            self.geoms.append(path)
        self.probe = ["hamiltonian", str(self.geoms[0])]
        self.references: dict[str, tuple[float, float]] = {}

    def commands(self):
        cmds = []
        for k, geom in enumerate(self.geoms):
            ham = f"p{k}.ham"
            cmds.append(["hamiltonian", "--geometry", str(geom), "--out", ham])
            cmds += [["map", "--ham", ham, "--mapper"] + m for m in self.mappers]
            cmds.append(["exact", "--ham", ham, "--mapper", "parity", "--taper"])
        return cmds

    def reference(self, path: Path) -> tuple[float, float]:
        text = path.read_text()
        if text not in self.references:
            self.references[text] = fci_energies(text)
        return self.references[text]

    def check(self, outputs, rdir):
        bad = {}
        per_point = 2 + len(self.mappers)
        for k, (n_atoms, bond) in enumerate(self.points):
            i0, i_exact = k * per_point, (k + 1) * per_point - 1
            ham, maps, exact = outputs[i0], outputs[i0 + 1:i_exact], outputs[i_exact]
            if ham["rc"] != 0:
                continue
            e0, e_hf = self.reference(rdir / f"p{k}.ham")
            scf = _json(ham)["scf_energy_ha"]
            if _json(ham)["norb"] != n_atoms or abs(e_hf - scf) > 1e-8:
                bad[i0] = f"norb {_json(ham)['norb']}, scf {scf} vs HF determinant {e_hf}"
            stats = [_json(m) if m["rc"] == 0 else None for m in maps]
            full = {j: s["n_pauli_terms"] for j, s in enumerate(stats[:3]) if s}
            for j, s in enumerate(stats):
                tapered = j == 3
                if s is None:
                    continue
                if s["n_qubits"] != 2 * n_atoms - (2 if tapered else 0):
                    bad[i0 + 1 + j] = f"{s['n_qubits']} qubits"
                elif not tapered and len(set(full.values())) > 1:
                    bad[i0 + 1 + j] = f"term counts differ across jw, bk, parity: {full}"
                elif tapered and s["n_pauli_terms"] > min(full.values(), default=math.inf):
                    bad[i0 + 1 + j] = f"tapering added terms: {s['n_pauli_terms']} > {full}"
            if exact["rc"] == 0:
                e = _json(exact)["energy_ha"]
                if abs(e - e0) > 1e-8:
                    bad[i_exact] = f"H{n_atoms} at {bond}: exact {e} != FCI {e0}"
                elif e > scf + 1e-10:
                    bad[i_exact] = f"H{n_atoms} at {bond}: exact {e} above SCF {scf}"
                elif n_atoms == 2 and abs(e - H2_FCI_README) > 1e-6:
                    bad[i_exact] = f"H2 exact {e} != README FCI {H2_FCI_README}"
        return bad

    def evals_per_s(self, outputs, rdir):
        exact = [o for argv, o in zip(self.commands(), outputs) if argv[0] == "exact"]
        return len(exact) / sum(o["wall_s"] for o in exact)


WORKLOADS = {w.name: w for w in (VqeUccsdNoiseless, VqeHeaNoisy, ZneUccsdNoisy, HchainPes)}


# -- measurement ---------------------------------------------------------------


def launch(argv: list[str], cwd: Path, log: Path) -> dict:
    """Run one child to its exit: return code, wall time, peak RSS, stdout."""
    with open(log.with_suffix(".out"), "w") as out, open(log.with_suffix(".err"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "rss_mib": usage.ru_maxrss / 1024.0,
            "t0": t0, "t1": t0 + wall, "stdout": log.with_suffix(".out").read_text(),
            "stderr": log.with_suffix(".err").read_text()}


def run_round(commands, rdir: Path) -> list[dict]:
    rdir.mkdir(parents=True)
    return [launch([sys.executable, "-m", "qve.cli", *argv], rdir, rdir / f"cmd{i}")
            for i, argv in enumerate(commands)]


def failures(work: Workload, commands, outputs: list[dict], rdir: Path, log: list[str]) -> int:
    """Count the round's failed commands: a non-zero exit or a failed check."""
    try:
        bad = work.check(outputs, rdir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        bad = {i: f"unreadable output: {exc!r}" for i in range(len(outputs))}
    for i, out in enumerate(outputs):
        if out["rc"] != 0:
            bad[i] = f"exit code {out['rc']}: {out['stderr'].strip()[-300:]}"
    for i in sorted(bad):
        log.append(f"FAILED {work.name} `qve {' '.join(commands[i])}`: {bad[i]}")
    return len(bad)


def probe_setup(work: Workload) -> list[dict]:
    """Run SETUP_PROBES fresh set-up probes, one after another."""
    argv = [sys.executable, str(BENCH / "probe.py"), *work.probe]
    return [launch(argv, WORK, WORK / f"probe{i}") for i in range(SETUP_PROBES)]


def measure(work: Workload, seconds: float, probes: list[dict],
            log: list[str]) -> tuple[int, int, dict]:
    commands = work.commands()
    walls, evals, rss, attempted, failed = [], [], 0.0, 0, 0
    while not walls or sum(walls) + statistics.mean(walls) <= seconds:
        rdir = WORK / f"round{len(walls)}"
        outputs = run_round(commands, rdir)
        walls.append(outputs[-1]["t1"] - outputs[0]["t0"])
        attempted += len(outputs)
        n_bad = failures(work, commands, outputs, rdir, log)
        failed += n_bad
        rss = max([rss] + [o["rss_mib"] for o in outputs])
        if not n_bad:
            evals.append(work.evals_per_s(outputs, rdir))
    log.append(f"{work.name}: {len(walls)} rounds, wall_s per round "
               + " ".join(f"{w:.3f}" for w in walls))
    # the second half of the set-up probes, so that their median spans the run
    probes += probe_setup(work)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(p["wall_s"] for p in probes), "s"),
        "peak_rss_mib": (rss, "MiB"),
        "evals_per_s": (statistics.median(evals) if evals else 0.0, "1/s"),
    }
    return attempted, failed, metrics


# -- traced run ----------------------------------------------------------------


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def layer_metrics(trace: dict, untraced_s: float) -> dict:
    spans = trace["spans"]
    dur = [end - start for _, start, end, _, _ in spans]
    child_s = [0.0] * len(spans)
    children: dict[int, list[int]] = {}
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += dur[i]
            children.setdefault(parent, []).append(i)

    def sel(*names):
        return [i for i, sp in enumerate(spans) if sp[0] in names]

    def total(*names):
        return math.fsum(dur[i] for i in sel(*names))

    def self_s(*names):
        return math.fsum(dur[i] - child_s[i] for i in sel(*names))

    def attr_max(key, *names):
        return max((spans[i][4][key] for i in sel(*names)), default=0)

    def ms(name):
        return [1000.0 * dur[i] for i in sel(name)]

    traj_bytes = 0
    for i in sel("circuit.estimate_noisy"):
        a = spans[i][4]
        groups = sum(spans[c][4]["groups"] for c in children.get(i, [])
                     if spans[c][0] == "circuit.group_commuting_terms")
        traj_bytes += a["shots"] * (1 << a["n_qubits"]) * 16 * a["gates"] * groups
    exact_n = attr_max("n_qubits", "pauli.exact_ground_energy")
    maps = ("mapping.jordan_wigner", "mapping.parity_map", "mapping.bravyi_kitaev")
    ansatz = ("ansatz.build_uccsd", "ansatz.build_hea")
    return {
        "cli.import_s": (trace["import_s"], "s"),
        "pipeline.load_fixture_s": (total("pipeline.load_fixture"), "s"),
        "pipeline.problem_to_pauli_s": (total("pipeline.problem_to_pauli"), "s"),
        "pipeline.run_vqe_self_s": (self_s("pipeline.run_vqe"), "s"),
        "pipeline.replay_on_exact_s": (total("pipeline.replay_on_exact"), "s"),
        "basis.build_integrals_s": (total("basis.build_integrals"), "s"),
        "basis.n_ao": (attr_max("n_ao", "basis.build_integrals"), "count"),
        "scf.run_rhf_s": (total("scf.run_rhf"), "s"),
        "scf.rhf_iterations": (sum(spans[i][4]["iterations"] for i in sel("scf.run_rhf")),
                               "count"),
        "scf.mo_transform_s": (total("scf.mo_transform"), "s"),
        "fermion.build_hamiltonian_s": (total("fermion.build_hamiltonian"), "s"),
        "fermion.terms": (attr_max("terms", "fermion.build_hamiltonian"), "count"),
        "mapping.jordan_wigner_s": (total("mapping.jordan_wigner"), "s"),
        "mapping.parity_map_s": (total("mapping.parity_map"), "s"),
        "mapping.bravyi_kitaev_s": (total("mapping.bravyi_kitaev"), "s"),
        "mapping.taper_two_qubits_s": (total("mapping.taper_two_qubits"), "s"),
        "mapping.pauli_terms": (attr_max("terms", *maps), "count"),
        "pauli.exact_ground_energy_s": (total("pauli.exact_ground_energy"), "s"),
        "pauli.exact_dim": ((1 << exact_n) if exact_n else 0, "count"),
        "pauli.exact_matrix_bytes": (16 * 4 ** exact_n if exact_n else 0, "B"),
        "pauli.expectation_exact_s": (total("pauli.expectation_exact"), "s"),
        "pauli.expectation_exact_calls": (len(sel("pauli.expectation_exact")), "count"),
        "ansatz.build_s": (total(*ansatz), "s"),
        "ansatz.gates": (attr_max("gates", *ansatz), "count"),
        "ansatz.parameters": (attr_max("parameters", *ansatz), "count"),
        "circuit.run_circuit_s": (total("circuit.run_circuit"), "s"),
        "circuit.run_circuit_calls": (len(sel("circuit.run_circuit")), "count"),
        "circuit.estimate_noiseless_calls": (len(sel("circuit.estimate_noiseless")), "count"),
        "circuit.estimate_noiseless_ms_p50": (_pct(ms("circuit.estimate_noiseless"), 0.5), "ms"),
        "circuit.estimate_noiseless_ms_p99": (_pct(ms("circuit.estimate_noiseless"), 0.99), "ms"),
        "circuit.estimate_noiseless_self_s": (self_s("circuit.estimate_noiseless"), "s"),
        "circuit.estimate_noisy_calls": (len(sel("circuit.estimate_noisy")), "count"),
        "circuit.estimate_noisy_ms_p50": (_pct(ms("circuit.estimate_noisy"), 0.5), "ms"),
        "circuit.estimate_noisy_ms_p95": (_pct(ms("circuit.estimate_noisy"), 0.95), "ms"),
        "circuit.group_commuting_terms_s": (total("circuit.group_commuting_terms"), "s"),
        "circuit.group_commuting_terms_calls": (len(sel("circuit.group_commuting_terms")),
                                                "count"),
        "circuit.groups_per_estimate": (attr_max("groups", "circuit.group_commuting_terms"),
                                        "count"),
        "circuit.trajectory_bytes": (traj_bytes, "B"),
        "spsa.minimize_s": (total("spsa.minimize"), "s"),
        "spsa.self_s": (self_s("spsa.minimize"), "s"),
        "spsa.evals": (sum(spans[i][4]["evals"] for i in sel("spsa.minimize")), "count"),
        "zne.run_zne_s": (total("zne.run_zne"), "s"),
        "zne.fold_circuit_s": (total("zne.fold_circuit"), "s"),
        "zne.folded_gates": (sum(spans[i][4]["gates"] for i in sel("zne.fold_circuit")),
                             "count"),
        "zne.extrapolate_s": (total("zne.extrapolate"), "s"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.overhead_s": (trace["wall_s"] - untraced_s, "s"),
    }


def measure_traced(work: Workload, log: list[str]) -> tuple[int, int, dict]:
    """An untraced and a traced in-process pass, each in a fresh process."""
    commands = work.commands()
    passes, failed = [], 0
    for traced in ("0", "1"):
        pdir, plan, out = WORK / f"pass{traced}", WORK / f"plan{traced}.json", WORK / f"pass{traced}.json"
        pdir.mkdir()
        plan.write_text(json.dumps({"commands": commands, "dir": str(pdir)}))
        child = launch([sys.executable, str(BENCH / "traced.py"), str(plan), str(out), traced],
                       WORK, WORK / f"pass{traced}")
        if child["rc"] != 0:
            log.append(f"in-process pass failed: {child['stderr'].strip()[-500:]}")
            return 2 * len(commands), 2 * len(commands), {}
        passes.append(json.loads(out.read_text()))
        failed += failures(work, commands, passes[-1]["outputs"], pdir, log)
    untraced, traced = passes
    log.append(f"{work.name}: in-process passes untraced {untraced['wall_s']:.3f} s, "
               f"traced {traced['wall_s']:.3f} s, {len(traced['spans'])} spans")
    return 2 * len(commands), failed, layer_metrics(traced, untraced["wall_s"])


# -- entry point ---------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "inputs").mkdir(parents=True)
    log: list[str] = []
    work = WORKLOADS[name](seed, WORK / "inputs")
    probes = probe_setup(work)
    if trace:
        attempted, failed, metrics = measure_traced(work, log)
    else:
        attempted, failed, metrics = measure(work, seconds, probes, log)
    bad_probe = next((p for p in probes if p["rc"] != 0), None)
    if bad_probe:
        log.append(f"set-up probe failed: {bad_probe['stderr'].strip()[-300:]}")
    else:
        env = json.loads(probes[0]["stdout"])
        env.update(nproc=os.cpu_count(), blas=" ".join(f"{v}=1" for v in THREAD_VARS))
        log.insert(0, f"env {json.dumps(env)}")
    for line in log:
        print(f"# {line}")
    for key, (value, unit) in metrics.items():
        print(f"# {name} {key} {value:.6g} {unit}")
    print(f"# {name} attempted {attempted} failed {failed}")
    return {"correct": bool(metrics) and bad_probe is None, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "qve" / "cli.py").is_file():
        print(f"error: no qve sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # byte-compile once, outside every timed region, as an installed package is
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "qve")],
                   env=child_env(), check=True, stdout=subprocess.DEVNULL)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        for n, r in results.items():
            print(f"# {n} {json.dumps(r)}")
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {n: r["metrics"] for n, r in results.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
