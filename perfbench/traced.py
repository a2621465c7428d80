"""In-process pass: runs a workload's `qve` commands through `qve.cli.main`
in one process and, when traced, records a span around every call into the
public functions listed in LAYERS.

    python3 perfbench/traced.py <plan.json> <out.json> <0|1>

The plan names the commands (argument lists for `qve`) and the directory
they run in. The caller runs one untraced and one traced pass, each in a
fresh process so that both start equally cold; the difference of their wall
times is the tracing overhead. Spans are kept in memory and written with the
command outputs when the pass ends. Nothing in the program is changed on
disk: the wrappers replace module attributes, including the names that
other qve modules bound at import (`from .circuit import estimate`) and the
values of the mapping table MAPPERS.
"""

import contextlib
import io
import json
import os
import sys
import time
import traceback

# module -> the public functions wrapped: the calls at each layer's boundary
LAYERS = {
    "pipeline": ["load_fixture", "problem_to_pauli", "run_vqe", "replay_on_exact",
                 "build_ansatz"],
    "basis": ["build_integrals"],
    "scf": ["run_rhf", "mo_transform"],
    "fermion": ["build_hamiltonian"],
    "mapping": ["jordan_wigner", "parity_map", "bravyi_kitaev", "taper_two_qubits"],
    "pauli": ["exact_ground_energy", "expectation_exact"],
    "ansatz": ["build_uccsd", "build_hea"],
    "circuit": ["run_circuit", "estimate", "group_commuting_terms"],
    "spsa": ["minimize"],
    "zne": ["run_zne", "fold_circuit", "extrapolate"],
}


def _attrs(name, args, result):
    """Sizes a span records about its call, read after the call returns."""
    if name == "basis.build_integrals":
        return {"n_ao": result.overlap.shape[0]}
    if name == "scf.run_rhf":
        return {"iterations": result.iterations}
    if name == "fermion.build_hamiltonian" or name.startswith("mapping."):
        return {"terms": len(result)}
    if name == "pauli.exact_ground_energy":
        return {"n_qubits": args[0].n_qubits}
    if name in ("ansatz.build_uccsd", "ansatz.build_hea"):
        return {"gates": len(result.gates), "parameters": len(result.parameter_names)}
    if name.startswith("circuit.estimate"):
        return {"n_qubits": args[0].n_qubits, "gates": len(args[0].gates), "shots": args[3]}
    if name == "circuit.group_commuting_terms":
        return {"groups": len(result)}
    if name == "spsa.minimize":
        return {"evals": result.n_evaluations}
    if name == "zne.fold_circuit":
        return {"gates": len(result.gates)}
    return None


def _is_noisy(args, kwargs) -> bool:
    """The estimator's own test for its trajectory path."""
    noise = kwargs.get("noise", args[5] if len(args) > 5 else None)
    return noise is not None and not (noise.p1 == noise.p2 == 0.0)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, attrs]
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name
            if name == "circuit.estimate":
                label += "_noisy" if _is_noisy(args, kwargs) else "_noiseless"
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            rec[4] = _attrs(label, args, result)
            return result

        return traced

    def install(self):
        loaded = [m for n, m in sys.modules.items() if n == "qve" or n.startswith("qve.")]
        for mod_name, names in LAYERS.items():
            mod = sys.modules[f"qve.{mod_name}"]
            for fn_name in names:
                orig = getattr(mod, fn_name)
                wrapped = self.wrap(f"{mod_name}.{fn_name}", orig)
                for m in loaded:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                        elif isinstance(val, dict):
                            for k, v in list(val.items()):
                                if v is orig:
                                    val[k] = wrapped


def run_commands(main, commands, cwd):
    """Run each command through qve.cli.main in cwd; (wall s, outputs)."""
    os.chdir(cwd)
    outputs = []
    t0 = time.perf_counter()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(list(argv))
            except Exception:  # an uncaught error is the command's failure
                traceback.print_exc()
                rc = 1
        outputs.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return time.perf_counter() - t0, outputs


def main(plan_path, out_path, traced):
    with open(plan_path) as f:
        plan = json.load(f)
    t0 = time.perf_counter()
    from qve import cli
    for mod_name in LAYERS:
        __import__(f"qve.{mod_name}")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    if traced == "1":
        tracer.install()
    wall_s, outputs = run_commands(cli.main, plan["commands"], plan["dir"])
    with open(out_path, "w") as f:
        json.dump({"import_s": import_s, "wall_s": wall_s, "outputs": outputs,
                   "spans": tracer.spans}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
