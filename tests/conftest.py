import os
import sys
from pathlib import Path

# One BLAS thread per test process: the pools size themselves when NumPy is
# first imported, which happens below, and several pools on few cores
# oversubscribe them. A variable set by the caller wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent))

import qve  # noqa: E402

FIXTURE = Path(qve.__file__).parent / "data" / "beh2_cas_2e3o_sto3g.txt"

H2_GEOMETRY = "units angstrom\nH 0 0 0\nH 0 0 0.74\n"


@pytest.fixture(scope="session")
def beh2_problem():
    from qve.pipeline import load_fixture
    return load_fixture(FIXTURE)


@pytest.fixture(scope="session")
def beh2_tapered(beh2_problem):
    from qve.pipeline import problem_to_pauli
    return problem_to_pauli(beh2_problem, "parity", True)


@pytest.fixture(scope="session")
def h2_problem():
    """H2/STO-3G at 0.74 angstrom, full chain through RHF and the MO transform."""
    from qve.basis import build_integrals, parse_geometry
    from qve.scf import active_space_reduce, mo_transform, run_rhf
    mol = parse_geometry(H2_GEOMETRY)
    ints = build_integrals(mol)
    scf = run_rhf(ints, mol.n_electrons)
    assert scf.converged
    h1, h2 = mo_transform(ints, scf.mo_coefficients, range(2))
    problem = active_space_reduce(h1, h2, [], range(2), 1, 1, ints.e_nuc)
    return mol, ints, scf, problem


@pytest.fixture(scope="session")
def hchain_fixtures(tmp_path_factory):
    """`qve hamiltonian` fixture files of linear H2, H4, H6 and H8 at 0.9
    angstrom spacing, by atom count: (1, 1) to (4, 4) half-filled sectors of
    4 to 4900 states."""
    import contextlib
    import io

    from qve.cli import main
    out = tmp_path_factory.mktemp("hchain")
    paths = {}
    for n in (2, 4, 6, 8):
        geom = out / f"h{n}.geom"
        geom.write_text("units angstrom\n" + "".join(f"H 0 0 {0.9 * i:.6f}\n" for i in range(n)))
        paths[n] = out / f"h{n}.ham"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["hamiltonian", "--geometry", str(geom), "--out", str(paths[n])]) == 0
    return paths


def pytest_terminal_summary(terminalreporter):
    """Repeat the acceptance-criterion verdict lines after the run summary."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
