"""Set-up probe: one fresh interpreter that pays what a `qve` command pays
before its first energy evaluation, then exits.

    python3 perfbench/probe.py vqe|zne <fixture> <uccsd|hea>
    python3 perfbench/probe.py hamiltonian <geometry-file>

`vqe` and `zne` import the modules that command imports, load the fixture,
assemble and map the Hamiltonian (parity, tapered) and build the ansatz.
`hamiltonian` stops before the first integral: it imports the modules that
command imports and parses the geometry. The caller times the process from
launch to exit. The probe prints the interpreter and library versions and
its own thread count, read after NumPy and its BLAS are loaded.
"""

import json
import platform
import sys


def _threads() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def main(argv: list[str]) -> int:
    import numpy
    import scipy

    # what cli.main imports before it dispatches
    from qve import basis, cli, scf, spsa  # noqa: F401
    from qve import pipeline

    kind = argv[0]
    if kind in ("vqe", "zne"):
        if kind == "zne":
            from qve import zne  # noqa: F401
        problem = pipeline.load_fixture(argv[1])
        pipeline.problem_to_pauli(problem, "parity", True)
        pipeline.build_ansatz(problem, pipeline.RunConfig(fixture=argv[1], ansatz=argv[2]))
    elif kind == "hamiltonian":
        basis.load_geometry(argv[1])
    else:
        print(f"unknown probe kind {kind!r}", file=sys.stderr)
        return 2
    print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                      "scipy": scipy.__version__, "threads": _threads()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
