"""Token-level fuzzing of the fixture, noise-file, geometry, parameter-file and
parameter-log parsers through `cli.main`.

Each case mutates a valid file one to three times (drop, duplicate or swap a
token, or replace it with a non-finite, negative, oversized or junk one) and
runs the command in-process: it must end in a documented exit code, with no
exception escaping, and a command that succeeds prints only finite numbers.
Examples are derandomized, so the suite stays deterministic; the seed
examples are inputs that past fixes made exit 2, and edge cases that must
succeed (an empty parameter log, an angle far past 2 pi).
"""

import contextlib
import io
import json
import math
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURE, H2_GEOMETRY
from qve.cli import EXIT_CONFIG, EXIT_ELEMENT, EXIT_NUMERIC, EXIT_OK, main

REPLACEMENTS = ("nan", "inf", "-inf", "-1", "1e400", "abc", "#", "1e", "0.5.5", "p1", "h")
# the parameter log's replacements: tokens that keep a line valid JSON, so
# that a replaced value reaches the checks after `json.loads` (a negative, an
# infinite, a non-finite and a non-numeric value)
JSON_REPLACEMENTS = ("-1", "1e400", "NaN", "-Infinity", "true", "null", '"0.1"', "[]")
NOISE = "p1 0.001\np2 0.01\nreadout01 0.01\nreadout10 0.02\n"
# the bundled fixture without its comment lines, whose tokens are inert
FIXTURE_BODY = "".join(line + "\n" for line in FIXTURE.read_text().splitlines()
                       if not line.startswith("#"))
# 16 HEA parameters as JSON, each number and each separator its own token
PARAMS = "[ " + " , ".join(f"{0.05 * (i + 1):.2f}" for i in range(16)) + " ]\n"
# a three-iteration params.jsonl of the 16-parameter HEA, the values run_vqe
# logs, with each number and each separator its own token
LOG_LINES = [f'{{ "iteration" : {k} , "theta" : [ '
             + " , ".join(json.dumps(0.05 * (i + k)) for i in range(16)) + " ] }\n"
             for k in (1, 2, 3)]


def _mutate(text: str, mutations) -> str:
    """The text after each (operation, token, other token, replacement) in
    turn, tokens counted over the whole file at the time of the mutation."""
    lines = [line.split() for line in text.splitlines()]
    for op, a, b, junk in mutations:
        slots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
        if not slots:
            break
        i, j = slots[a % len(slots)]
        k, m = slots[b % len(slots)]
        if op == "drop":
            del lines[i][j]
        elif op == "duplicate":
            lines[i].insert(j, lines[i][j])
        elif op == "swap":
            lines[i][j], lines[k][m] = lines[k][m], lines[i][j]
        else:
            lines[i][j] = junk
    return "".join(" ".join(toks) + "\n" for toks in lines)


def mutated(text: str, replacements=REPLACEMENTS):
    mutation = st.tuples(st.sampled_from(("drop", "duplicate", "swap", "replace")),
                         st.integers(0, 10**6), st.integers(0, 10**6),
                         st.sampled_from(replacements))
    return st.lists(mutation, min_size=1, max_size=3).map(lambda ms: _mutate(text, ms))


def mutated_log():
    """The parameter log with one of its lines mutated."""
    return st.integers(0, len(LOG_LINES) - 1).flatmap(
        lambda i: mutated(LOG_LINES[i], JSON_REPLACEMENTS).map(
            lambda line: "".join(LOG_LINES[:i]) + line + "".join(LOG_LINES[i + 1:])))


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _non_finite(constant):
    raise AssertionError(f"non-finite number {constant} in the output")


def assert_finite_json(out: str) -> None:
    """The printed JSON parses, and holds no NaN or infinity."""
    json.loads(out, parse_constant=_non_finite)


@given(mutated(FIXTURE_BODY))
@example("nalpha 1\nnbeta 1\nh 0 0 -1.0\n")  # no norb
@example(FIXTURE_BODY.replace("nbeta 1\n", ""))  # no nbeta
@example("norb 1\nnalpha 1\nnbeta 0\nh 0 0 nan\n")  # a non-finite entry
@example("norb 70\nnalpha 1\nnbeta 1\nh 0 0 -1.0\ng 69 69 69 69 0.5\n")  # past 63 modes
@example("norb 2\nnalpha 1\nnbeta 1\nh 0 0 -1.0\nh 5 5 -1.0\n")  # an h index past norb
@example("norb 2\nnalpha 1\nnbeta 1\nh 0 0 -1.0\ng 0 0 0 7 0.5\n")  # a g index past norb
@example("norb 2\nnorb 3\nnalpha 1\nnbeta 1\nh 0 0 -1.0\n")  # a repeated header
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_mutated_fixture_exits_cleanly(tmp_path_factory, text):
    # [TRIVIAL] `qve exact` on a mutated fixture returns 0, 2 or 3 and
    # raises nothing; on success it prints finite numbers only
    ham = tmp_path_factory.mktemp("fixture") / "fuzz.ham"
    ham.write_text(text)
    code, out, _ = run_main("exact", "--ham", str(ham), "--mapper", "parity", "--taper")
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC)
    if code == EXIT_OK:
        assert_finite_json(out)


@given(mutated(NOISE))
@example("p1 nan\n")
@example("p2 0.01\np1 inf\n")
@example("p1 0.001\np2 0.01\np1 0.5\n")  # a repeated key
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_mutated_noise_file_exits_cleanly(tmp_path_factory, text):
    # [TRIVIAL] `qve zne --shots 0` under a mutated noise file returns 0, 2 or
    # 3 and raises nothing; on success it prints finite numbers only, and a
    # refused noise file names its path and line
    tmp = tmp_path_factory.mktemp("noise")
    noise, params = tmp / "noise.cfg", tmp / "theta.json"
    noise.write_text(text)
    params.write_text(json.dumps([0.1] * 16))
    code, out, err = run_main("zne", "--ham", str(FIXTURE), "--taper", "--ansatz", "hea",
                              "--shots", "0", "--folds", "1,3", "--fit", "linear",
                              "--noise", str(noise), "--params-file", str(params))
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC)
    if code == EXIT_OK:
        assert_finite_json(out)
    if code == EXIT_CONFIG:
        assert re.search(re.escape(str(noise)) + r":\d+: ", err), err


@given(mutated(H2_GEOMETRY))
@example("units angstrom\nH 0 0 0\nunits bohr\nH 0 0 1.4\n")  # a second units line
@example("units angstrom\nH 0 0 0\nH 0 0 inf\n")  # a non-finite coordinate
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_mutated_geometry_exits_cleanly(tmp_path_factory, text):
    # [TRIVIAL] `qve hamiltonian` on a mutated H2 geometry returns 0, 2, 3 or
    # 4 and raises nothing; on success it prints finite numbers only
    tmp = tmp_path_factory.mktemp("geometry")
    geo = tmp / "fuzz.geom"
    geo.write_text(text)
    code, out, _ = run_main("hamiltonian", "--geometry", str(geo), "--out", str(tmp / "fuzz.ham"))
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_ELEMENT)
    if code == EXIT_OK:
        assert_finite_json(out)


@given(mutated(PARAMS))
@example(PARAMS.replace("0.05", "1e400"))  # past the float range
@example(PARAMS.replace("0.05 ,", ""))  # 15 parameters
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_mutated_params_file_exits_cleanly(tmp_path_factory, text):
    # [TRIVIAL] `qve zne --shots 0` on a mutated 16-parameter HEA file
    # returns 0 or 2 and raises nothing; on success it prints finite numbers
    # only, and a refused file is named
    tmp = tmp_path_factory.mktemp("params")
    noise, params = tmp / "noise.cfg", tmp / "theta.json"
    noise.write_text(NOISE)
    params.write_text(text)
    code, out, err = run_main("zne", "--ham", str(FIXTURE), "--taper", "--ansatz", "hea",
                              "--shots", "0", "--folds", "1,3", "--fit", "linear",
                              "--noise", str(noise), "--params-file", str(params))
    assert code in (EXIT_OK, EXIT_CONFIG)
    if code == EXIT_OK:
        assert_finite_json(out)
    if code == EXIT_CONFIG:
        assert str(params) in err, err


@given(mutated_log())
@example("")  # an empty log
@example("".join(LOG_LINES).replace("0.05 , ", "", 1))  # 15 parameters in line 1
@example("".join(LOG_LINES).replace("0.05", "1e400", 1))  # past the float range
@example("".join(LOG_LINES).replace("0.05", "-1e300", 1))  # finite, far past 2 pi
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_mutated_params_log_replays_cleanly(tmp_path_factory, text):
    # [TRIVIAL] `qve replay` of a run whose params.jsonl has one mutated line
    # returns 0 or 2 and raises nothing; on success its replay.csv holds
    # finite energies only, and a refused log is named with its line
    run = tmp_path_factory.mktemp("run")
    (run / "params.jsonl").write_text(text)
    code, out, err = run_main("replay", "--ham", str(FIXTURE), "--taper", "--ansatz", "hea",
                              "--run", str(run))
    assert code in (EXIT_OK, EXIT_CONFIG)
    if code == EXIT_OK:
        assert_finite_json(out)
        rows = (run / "replay.csv").read_text().splitlines()[1:]
        assert all(math.isfinite(float(row.split(",")[1])) for row in rows)
    if code == EXIT_CONFIG:
        assert re.search(re.escape(str(run / "params.jsonl")) + r":\d+[: ]", err), err
