"""Parameterized circuits, statevector execution, shot estimation, transpilation.

Qubit 0 is the least significant bit of basis-state indices, matching the
Pauli and Fock modules. A circuit holds gates and Pauli rotations
exp(i a P). What a gate kind is lives in one table, `_GATES`: its 2x2 or 4x4
matrix with the first operand's bit most significant, or for RX/RY/RZ the
Pauli of its rotation. `_inverse` is the one rule that undoes a gate. The
noiseless statevector runs Pauli rotations without decomposing them; every
consumer of `Circuit.gates` (the noisy path, transpilation, statistics,
inversion and folding) sees each one decomposed into gates by one synthesis
rule. At its first run a circuit compiles its statevector program
(`_compile`): every operation is one step psi <- a psi + b psi[flip]. A
fixed gate's matrix is nonzero only at columns i and i ^ f of row i, one
operand mask f per kind, and its a and b are two complex 2^n tables
(32 * 2^n bytes). An RX/RY/RZ gate is a Pauli rotation, and each run of
consecutive Pauli rotations on one parameter, one flip mask and one
offset/scale ratio whose words commute (a UCCSD excitation's mapped terms)
is exp(i t G) for its summed generator G, a rotation inside each pair
{|b>, |b ^ x>} (Yordanov, Arvidsson-Shukur & Barnes, PRA 102, 062612 (2020)):
a = cos(t r), b = sin(t r) iu from two 2^n arrays r, iu (24 * 2^n bytes, 16
in a stack whose every step has a constant r, as lone rotations do), made
by one vectorized pass per stack of at most max(1, 2^(DENSE_CAP - 1) >> n)
steps, whose a and b, both complex, hold at most 2^DENSE_CAP values per
parameter row; a fixed angle is a stack row at scale 0, exactly its offset (see
_Angles). The program also holds the state after the leading fixed gates,
and `run_circuit`, its only entry, applies the rest to it.
Gate noise is simulated exactly on the Pauli vector tr(Q rho) of the density
matrix, at index sum_q 4^q d_q with d_q the index in _PAULIS (I, X, Y, Z) of
Q's letter on qubit q. A gate's Pauli transfer matrix comes from the table's
matrix; a Clifford gate's is a signed permutation, and the depolarizing
channel after a gate scales each word that is not I on its k qubits by
1 - p 4^k / (4^k - 1). Each maximal run of fixed Clifford gates on at most
SEGMENT_SPAN qubits is one segment, a gather and a multiply over their words
(over all n qubits' words up to SEGMENT_SPAN), cached by its gates so that
folded circuits reuse it; every other gate, a rotation by a parameter or a
non-Clifford angle, is one 4x4 map T0 + cos(a) T1 + sin(a) T2 on its qubit,
and joins the previous one-qubit step on that qubit when no step since then
acts on it (each HEA layer's RY and RZ), the step's map the product of its
members'. Both compiles follow one contract: everything that does not depend
on the parameters is decided when the circuit compiles, and a run binds them
once, as one row per point over `parameter_names` (`_bind`), and applies the
steps.
The unit of work is a stack of parameter rows (rows x parameters, in the
order of `parameter_names`): every step of both engines and every read-out
block carries a leading row axis, so one pass runs them all, and each row's
result equals, bit for bit, that of a one-row call; a single binding dict is
a stack of one. A stack runs in chunks of at most max(1, 2^DENSE_CAP / w)
rows, w the most values one row holds in any array (its state or Pauli
vector, a stack of rotation tables, a stack of measured groups), so that no
chunk of more than one row holds an array larger than a group stack.
A circuit keeps its compiled forms in one dict (`_compiled`), the
statevector program under None and the noisy steps (`_noisy_plan`) under
their noise model, built at first use and cleared by `add`. Either compile
refuses, with DenseCapError and before its first 2^n or 4^n array, a form
whose memory exceeds the one byte cap SIMULATOR_BYTES (1 GiB); under gate
noise that is more than 12 qubits. A group's basis is
the OR of its terms' (x, z) masks, one letter Z, X or Y per qubit (Z also
where it measures nothing); one rule turns masks into basis-change gates,
for measurement groups and rotation synthesis alike. A group's basis change,
diagonal and readout act on each qubit alone, one fixed 2x2 map per qubit
and letter, so its read-out map factorises over any partition of the
qubits: it acts as Kronecker blocks, each the Kronecker product of the maps
on a run of at most SEGMENT_SPAN consecutive qubits, and every group is
measured at once by one batched matmul per block (one up to SEGMENT_SPAN
qubits). Noiseless, the maps are the rotations I, H and H S-dagger, each
letter's basis-change gates multiplied out, applied to the state for every
group, and readout passes the squared amplitudes through the blocks of the
confusion matrix, one set shared by all groups. Noisy, each group gathers
its 2^n words over {I, its letter} on each qubit from the Pauli vector, and
the maps, built from the noisy basis-change gates' transfer matrices and
the confusion matrix, give the read-out distribution. The blocks are built
at first use and kept with the measurement plan per noise model. Each
measurement group turns a measured outcome into its energy through a table
over the 2^n outcomes. The groups, their letters, tables and word indices,
and the identity coefficient form the Hamiltonian's measurement plan, built
at its first estimate and kept on the `PauliSum` for the sum's life (a sum
is never changed once built), the tables as one (groups, 2^n) array. Each
group's shots are counts drawn once from its normalised distribution: each
row of an estimate has one generator, from its own seed, which makes one
multinomial draw over each stack of groups, in plan order, and the means and
variances are row reductions of the counts against the tables.
With shots=0 the exact expectation is taken instead.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .pauli import (DenseCapError, PauliSum, PauliTerm, flip_index, parity_signs, word_phase,
                    z_signs)

# Largest qubit count with dense 2^n arrays per measurement group (the
# estimator's outcome tables); it also sizes the stacks of groups, at most
# max(1, 2^DENSE_CAP >> n) of them, and of rotation steps, half as many.
DENSE_CAP = 14


class CircuitError(ValueError):
    pass


class TranspileError(CircuitError):
    pass


@dataclass(frozen=True)
class ParamExpr:
    """Affine reference scale * theta + offset to a named parameter."""

    name: str
    scale: float = 1.0
    offset: float = 0.0

    def resolve(self, bindings: dict[str, float]) -> float:
        if self.name not in bindings:
            raise CircuitError(f"unbound parameter {self.name!r}")
        return self.scale * bindings[self.name] + self.offset

    def __neg__(self) -> "ParamExpr":
        return ParamExpr(self.name, -self.scale, -self.offset)

    def scaled(self, k: float) -> "ParamExpr":
        return ParamExpr(self.name, k * self.scale, k * self.offset)

    def shifted(self, delta: float) -> "ParamExpr":
        return ParamExpr(self.name, self.scale, self.offset + delta)


def _scaled(angle, k: float):
    """k times the angle, a ParamExpr or a fixed float."""
    return angle.scaled(k) if isinstance(angle, ParamExpr) else k * float(angle)


# What each gate kind is. A k-qubit gate on qubits (q_0, ..., q_{k-1}) acts
# by a 2^k x 2^k matrix whose row and column index holds q_0's bit as its most
# significant: CX(c, t) is [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1],
# [0, 0, 1, 0]]. kind -> (matrix, takes_angle); a kind that takes an angle
# holds the Pauli P of its rotation exp(-i angle P / 2) instead.
_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_GATES: dict[str, tuple[np.ndarray, bool]] = {
    "X": (_PAULI_X, False),
    "H": (np.array([[1, 1], [1, -1]]) / math.sqrt(2.0), False),
    "SqrtX": (0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]), False),
    "RX": (_PAULI_X, True),
    "RY": (np.array([[0, -1j], [1j, 0]]), True),
    "RZ": (np.diag([1.0, -1.0]), True),
    "CX": (np.eye(4)[[0, 1, 3, 2]], False),
    "CZ": (np.diag([1.0, 1.0, 1.0, -1.0]), False),
    "SWAP": (np.eye(4)[[0, 2, 1, 3]], False),
}


@lru_cache(maxsize=1024)
def _matrix(kind: str, angle: float | None = None) -> np.ndarray:
    """The kind's matrix in operand order, at this angle if it takes one:
    exp(-i angle P / 2) = cos(angle/2) I - i sin(angle/2) P for its Pauli P."""
    m, takes_angle = _GATES[kind]
    if not takes_angle:
        return m
    basis = np.stack([np.eye(2), -1j * m], axis=-1)  # (I, -i P) on the last axis
    return np.dot(basis, (math.cos(angle / 2), math.sin(angle / 2)))


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | ParamExpr | None = None

    def __post_init__(self):
        if self.kind not in _GATES:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        m, takes_angle = _GATES[self.kind]
        arity = len(m).bit_length() - 1
        if len(self.qubits) != arity:
            raise CircuitError(f"{self.kind} expects {arity} qubit(s), got {self.qubits}")
        if arity == 2 and self.qubits[0] == self.qubits[1]:
            raise CircuitError(f"{self.kind} qubits must be distinct")
        if takes_angle != (self.angle is not None):
            raise CircuitError(f"{self.kind} angle mismatch")


def _inverse(g: Gate) -> list[Gate]:
    """Gates that undo g: a rotation by the negated angle, SqrtX followed by X
    for SqrtX, and every other kind itself."""
    if g.angle is not None:
        return [Gate(g.kind, g.qubits, _scaled(g.angle, -1.0))]
    if g.kind == "SqrtX":
        return [g, Gate("X", g.qubits)]
    return [g]


@dataclass(frozen=True)
class PauliRotation:
    """exp(i * angle * P) for the label word P with masks (x, z), the XYZ
    string of a `PauliSum` term: word_phase(x, z) X^x Z^z. The angle is a
    ParamExpr or a fixed float; the statevector compile also gives a fixed
    RX/RY/RZ gate this form."""

    x: int
    z: int
    angle: ParamExpr | float

    def __post_init__(self):
        if not self.x | self.z:
            raise CircuitError("cannot rotate about the identity")

    @property
    def qubits(self) -> tuple[int, ...]:
        support = self.x | self.z
        return tuple(q for q in range(support.bit_length()) if (support >> q) & 1)

    def decompose(self, n_qubits: int) -> list[Gate]:
        """Basis-change each support qubit to Z, run a CX parity ladder to the
        last support qubit, rotate RZ(-2 * angle) there, and unwind."""
        support = self.qubits
        enter = _basis_change_gates(self.x, self.z, n_qubits)
        leave = [inv for g in reversed(enter) for inv in _inverse(g)]
        ladder = [Gate("CX", (support[i], support[i + 1])) for i in range(len(support) - 1)]
        rot = Gate("RZ", (support[-1],), _scaled(self.angle, -2.0))
        return enter + ladder + [rot] + list(reversed(ladder)) + leave


class Circuit:
    """Ordered operations (gates and Pauli rotations) over a fixed qubit count
    with named parameters."""

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise CircuitError("need at least one qubit")
        self.n_qubits = n_qubits
        self.operations: list[Gate | PauliRotation] = []
        self.parameter_names: list[str] = []
        self._gates: tuple[Gate, ...] | None = None
        self._compiled: dict = {}  # see _compiled

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gate list, each Pauli rotation decomposed (built once per change)."""
        if self._gates is None:
            gates: list[Gate] = []
            for op in self.operations:
                if isinstance(op, PauliRotation):
                    gates.extend(op.decompose(self.n_qubits))
                else:
                    gates.append(op)
            self._gates = tuple(gates)
        return self._gates

    def add(self, op: Gate | PauliRotation) -> "Circuit":
        for q in op.qubits:
            if not 0 <= q < self.n_qubits:
                raise CircuitError(f"qubit {q} out of range for {self.n_qubits} qubits")
        if isinstance(op.angle, ParamExpr) and op.angle.name not in self.parameter_names:
            self.parameter_names.append(op.angle.name)
        self.operations.append(op)
        self._gates = None
        self._compiled = {}
        return self

    def extend(self, ops) -> "Circuit":
        for op in ops:
            self.add(op)
        return self

    # convenience builders
    def x(self, q): return self.add(Gate("X", (q,)))
    def h(self, q): return self.add(Gate("H", (q,)))
    def sx(self, q): return self.add(Gate("SqrtX", (q,)))
    def rx(self, a, q): return self.add(Gate("RX", (q,), a))
    def ry(self, a, q): return self.add(Gate("RY", (q,), a))
    def rz(self, a, q): return self.add(Gate("RZ", (q,), a))
    def cx(self, c, t): return self.add(Gate("CX", (c, t)))
    def cz(self, a, b): return self.add(Gate("CZ", (a, b)))
    def swap(self, a, b): return self.add(Gate("SWAP", (a, b)))

    def copy(self) -> "Circuit":
        out = Circuit(self.n_qubits)
        out.operations = list(self.operations)
        out.parameter_names = list(self.parameter_names)
        out._gates = self._gates
        out._compiled = dict(self._compiled)
        return out


def derive_rng(master_seed: int, *counters: int) -> np.random.Generator:
    """Project-wide PRNG derivation: one PCG64 stream per (seed, path)."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, counters)]))


def _parameter_rows(c: Circuit, bindings) -> tuple[np.ndarray, bool]:
    """The parameter rows of a run, (rows, parameters) in the order of
    c.parameter_names, and whether they are one point: a dict of name ->
    value (or None) is one row, its first unbound name refused; any other
    bindings are a stack, refused unless it has that shape and a row."""
    names = c.parameter_names
    if bindings is None or isinstance(bindings, dict):
        bindings = bindings or {}
        for name in names:
            if name not in bindings:
                raise CircuitError(f"unbound parameter {name!r}")
        return np.array([[bindings[name] for name in names]], dtype=float), True
    rows = np.asarray(bindings, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(names) or len(rows) == 0:
        raise CircuitError(f"a parameter stack must have shape (rows >= 1, {len(names)}), "
                           f"got {rows.shape}")
    return rows, False


def _bind(rows: np.ndarray) -> np.ndarray:
    """The bound parameter rows theta of a run: each row followed by the
    -0.0 that fixed angles read (see _Angles)."""
    theta = np.empty((len(rows), rows.shape[1] + 1))
    theta[:, :-1] = rows
    theta[:, -1] = -0.0
    return theta


def _groups_per_stack(n: int) -> int:
    """Measurement groups read out together: max(1, 2^DENSE_CAP >> n), so
    that a row's stack of them holds at most max(2^n, 2^DENSE_CAP) values."""
    return max(1, (1 << DENSE_CAP) >> n)


def _rows_within(width: int) -> int:
    """Rows per chunk of a stack whose widest array holds `width` values per
    row: as many as keep it within 2^DENSE_CAP values, and at least one."""
    return max(1, (1 << DENSE_CAP) // width)


class _Program(NamedTuple):
    """A circuit's compiled statevector steps. A step is (flip, stack, row)
    and acts as psi <- a psi + b psi[flip]. A fixed gate's step has stack
    None and row its (a, b). A rotation step runs a run of Pauli rotations,
    fixed or on a parameter, exp(i t G) for the sum G of its words, each
    weighted by its angle over t, t = scale * theta[position] + offset the
    first one's angle: G psi = w * psi[flip] with flip = flip_index(x), and
    G^2 = diag(|w|^2), so a = cos(t r) and b = sin(t r) iu with r = |w| and
    iu = i w / r (0 where r is), row `row` of its _Stack's tables."""

    steps: tuple[tuple, ...]
    prefix: np.ndarray  # read-only: |0...0> after the leading fixed gates
    rest: tuple[tuple, ...]  # the steps after those
    width: int  # values per row of a run's widest array: 2^n times its longest stack


class _Angles(NamedTuple):
    """Compiled angles scale * theta[position] + offset, theta a row of the
    bound parameters that _bind makes: position is the parameter's index in
    parameter_names or, for a fixed angle, theta's trailing -0.0 at scale 0,
    so that the angle is exactly its offset (0 * -0.0 + offset = offset, -0.0
    included)."""

    positions: np.ndarray
    scales: np.ndarray
    offsets: np.ndarray

    def at(self, theta: np.ndarray) -> np.ndarray:
        """(rows, angles) at the (rows, parameters + 1) rows theta."""
        return self.scales * theta.take(self.positions, 1) + self.offsets


def _angles(c: Circuit, angles) -> _Angles:
    """The angles, ParamExprs or fixed floats, against c's parameter vector."""
    names = c.parameter_names + [None]  # None: theta's trailing -0.0
    exprs = [a if isinstance(a, ParamExpr) else ParamExpr(None, 0.0, float(a)) for a in angles]
    return _Angles(np.array([names.index(a.name) for a in exprs], dtype=np.intp),
                   np.array([a.scale for a in exprs], dtype=float),
                   np.array([a.offset for a in exprs], dtype=float))


class _Stack(NamedTuple):
    """Consecutive rotation steps, at most max(1, 2^(DENSE_CAP - 1) >> n) of
    them, whose angles and cos/sin tables one vectorized pass makes. A fixed
    rotation is a row at scale 0, its angle exactly its offset (see _Angles)."""

    angles: _Angles
    r: np.ndarray  # (steps, 2^n), or (steps, 1) where each row is constant
    iu: np.ndarray  # (steps, 2^n)

    def tables(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """a = cos(t r) and b = sin(t r) iu for every step and row of theta,
        t the step's angle at the row: two complex (steps, rows, 2^n) arrays,
        so that a step's a, b and state share one shape and layout, which
        NumPy runs on its fastest path."""
        tr = self.angles.at(theta).T[:, :, None] * self.r[:, None]
        b = np.sin(tr) * self.iu[:, None]
        a = np.empty_like(b)
        a[...] = np.cos(tr)
        return a, b


# The byte cap of both simulators, checked when a circuit compiles, before its
# first 2^n or 4^n array. A statevector program holds, per basis state, 24 B
# for each rotation step's r and iu, 32 B for each fixed gate's a and b, and
# 8 B for each flip_index and z_signs entry its compile creates, at most one
# per step and one per rotation; the temporaries of one compile step, or a
# run's state and those of one step, add 80 B. A noisy run holds at most three
# copies of the 8 * 4^n-byte Pauli vector (see _apply_segment): 384 MiB at 12
# qubits, 1.5 GiB at 13.
SIMULATOR_BYTES = 1 << 30


def _within_cap(need: int, what: str) -> None:
    if need > SIMULATOR_BYTES:
        raise DenseCapError(f"{what} needs {need} bytes, over the cap of {SIMULATOR_BYTES}")


def _as_rotation(op):
    """An RX/RY/RZ gate as the Pauli rotation exp(i (-angle / 2) P) on its
    qubit, the angle a float where it is fixed; any other operation as it is.
    The table's Pauli P is the label word with x set off the diagonal and z
    where P[1, 1 ^ x] differs from P[0, x]."""
    if not isinstance(op, Gate) or op.angle is None:
        return op
    m, q, a = _GATES[op.kind][0], op.qubits[0], op.angle
    x = int(m[0, 0] == 0)
    z = int(m[1, 1 ^ x] != m[0, x])
    return PauliRotation(x << q, z << q, _scaled(a, -0.5))


def _joins(run: list, op) -> bool:
    """Whether the Pauli rotation op extends the run of rotations: the same
    parameter, flip mask x and offset/scale ratio, and a word that commutes
    with each of theirs, popcount(x & (z ^ z')) even, so that the run's
    product is the exponential of its summed generator."""
    a, b = run[0].angle, op.angle
    return (isinstance(a, ParamExpr) and isinstance(b, ParamExpr)
            and a.name == b.name and run[0].x == op.x and a.scale != 0.0 and b.scale != 0.0
            and a.offset / a.scale == b.offset / b.scale
            and all((op.x & (op.z ^ r.z)).bit_count() % 2 == 0 for r in run))


def _rotation_step(run: list, n: int) -> tuple:
    """(flip, r, iu) of a run of rotations that _joins, the others' angles the
    first one's times the ratio of their scales."""
    x, first = run[0].x, run[0].angle
    w = sum((r.angle.scale / first.scale if len(run) > 1 else 1.0)
            * word_phase(x, r.z) * z_signs(n, r.z) for r in run)
    flip = flip_index(n, x)
    w = w[flip]
    r = np.abs(w)
    iu = 1j * np.divide(w, r, out=np.zeros_like(w), where=r > 0.0)
    return flip, r, iu


def _gate_step(g: Gate, n: int) -> tuple:
    """The fixed gate's step. Row i of its matrix m is nonzero only at columns
    i and i ^ f, f the largest such XOR, so at a basis state whose operand
    bits are i (the first operand's most significant) a = m[i, i] and b =
    m[i, i ^ f], 0 where f = 0."""
    m = _GATES[g.kind][0].astype(complex)
    rows, cols = np.nonzero(m)
    f = int((rows ^ cols).max())
    k, basis = len(g.qubits), np.arange(1 << n)
    i = sum(((basis >> q) & 1) << (k - 1 - j) for j, q in enumerate(g.qubits))
    mask = sum(1 << q for j, q in enumerate(g.qubits) if (f >> (k - 1 - j)) & 1)
    return flip_index(n, mask), None, (m[i, i], m[i, i ^ f] if f else 0 * m[i, i])


def _compile(c: Circuit) -> _Program:
    """The circuit's statevector program: one step per fixed gate, and one
    per run of consecutive Pauli rotations that _joins fuses (one per UCCSD
    excitation, whose mapped terms share their flip mask), RX/RY/RZ gates
    included, stacked in order into _Stacks. Refused with DenseCapError over
    SIMULATOR_BYTES, before any 2^n array."""
    n = c.n_qubits
    runs: list[list] = []
    for op in map(_as_rotation, c.operations):
        if runs and _joins(runs[-1], op):
            runs[-1].append(op)
        else:
            runs.append([op])
    fixed = sum(isinstance(run[0], Gate) for run in runs)
    rotations = sum(map(len, runs)) - fixed
    _within_cap((24 * (len(runs) - fixed) + 32 * fixed + 8 * (len(runs) + rotations) + 80) << n,
                f"statevector program of {len(runs)} steps on {n} qubits")
    steps, fused = [], []
    for run in runs:
        if isinstance(run[0], Gate):
            steps.append(_gate_step(run[0], n))
        else:
            fused.append((len(steps), run[0].angle, *_rotation_step(run, n)))
            steps.append(None)  # filled in below, with its stack
    size = max(1, (1 << DENSE_CAP - 1) >> n)
    longest = min(size, len(fused))
    while fused:  # a chunk leaves fused as it is stacked: its rows are held once
        chunk, fused = fused[:size], fused[size:]
        index, angles, flips, r, iu = zip(*chunk)
        r = np.array(r)
        if (r == r[:, :1]).all():  # such as lone rotations', whose r is 1
            r = r[:, :1].copy()
        stack = _Stack(_angles(c, angles), r, np.array(iu))
        for row, (i, flip) in enumerate(zip(index, flips)):
            steps[i] = (flip, stack, row)
    start = next((i for i, step in enumerate(steps) if step[1] is not None), len(steps))
    prefix = _run_steps(np.eye(1, 1 << n, dtype=complex)[0], steps[:start], None)
    prefix.flags.writeable = False
    return _Program(tuple(steps), prefix, tuple(steps[start:]), max(1, longest) << n)


def _compiled(c: Circuit, noise: NoiseModel | None = None):
    """The circuit's statevector program (noise None) or its noisy steps
    under this noise model, compiled at first use and kept until `add`
    changes the circuit."""
    if noise not in c._compiled:
        c._compiled[noise] = _compile(c) if noise is None else _noisy_plan(c, noise)
    return c._compiled[noise]


def _run_steps(state: np.ndarray, steps, theta) -> np.ndarray:
    """The steps applied in turn to the state, at the bound parameter rows
    theta: from the first rotation step on, the state has one row per row of
    theta. A rotation step's a and b come from its _Stack's one pass, made at
    the stack's first step and dropped at the next stack's."""
    stack = None
    for flip, step_stack, row in steps:
        if step_stack is None:
            a, b = row
        else:
            if step_stack is not stack:
                stack = step_stack
                cos, siu = stack.tables(theta)
            a, b = cos[row], siu[row]
        state = a * state + b * state.take(flip, -1)
    return state


def run_circuit(c: Circuit, bindings=None) -> np.ndarray:
    """Statevector after applying the operations to |0...0>: one (2^n,)
    state for a dict of bindings, a (rows, 2^n) stack of states for a
    (rows, parameters) stack, run in chunks (see _rows_within)."""
    program = _compiled(c)
    rows, single = _parameter_rows(c, bindings)
    if not program.rest:  # no rotation: every row has the prefix's state
        states = np.repeat(program.prefix[None], len(rows), axis=0)
    else:
        size = _rows_within(program.width)
        chunks = [_run_steps(program.prefix, program.rest, _bind(rows[lo:lo + size]))
                  for lo in range(0, len(rows), size)]
        states = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return states[0] if single else states


# -- noise -----------------------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    """Uniform depolarizing + readout error model.

    p1/p2: error probability after each 1-/2-qubit gate (uniform random
    non-identity Pauli on the gate's qubits). readout01 = P(read 1 | is 0),
    readout10 = P(read 0 | is 1), identical on every qubit.
    """

    p1: float = 0.0
    p2: float = 0.0
    readout01: float = 0.0
    readout10: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not 0.0 <= v <= 1.0:  # NaN fails this too
                raise CircuitError(f"noise probability {f.name}={v} outside [0, 1]")


# A segment of Clifford gates acts on at most this many qubits, so its table
# holds at most 4^SEGMENT_SPAN words; up to this many qubits it covers them all.
SEGMENT_SPAN = 4

# I and the Paulis X, Y, Z of the gate table
_PAULIS = (np.eye(2), _GATES["X"][0], _GATES["RY"][0], _GATES["RZ"][0])


@lru_cache(maxsize=2)
def _pauli_words(k: int) -> np.ndarray:
    """(4^k, 2^k, 2^k): the words over k operands, word sum_j 4^j d_j holding
    _PAULIS[d_j] on operand j, operand 0 most significant in the matrix."""
    words = np.ones((1, 1, 1))
    for _ in range(k):  # each new operand: most significant in the word, least in the matrix
        words = np.array([np.kron(v, p) for p in _PAULIS for v in words])
    return words


@lru_cache(maxsize=1024)
def _transfer(kind: str, angle: float | None = None) -> tuple[np.ndarray, bool]:
    """The gate's Pauli transfer matrix R[a, b] = tr(P_a U P_b U^dagger) / 2^k
    over the words of its k operands (see _pauli_words), and whether the gate
    is Clifford: every row of R is +-1 in one place within 1e-12. A Clifford R
    is rounded to that signed permutation."""
    u = _matrix(kind, angle)
    w = _pauli_words(len(u).bit_length() - 1)
    # tr(P_a C_b) = sum_ij P_a[i, j] C_b[j, i] for C_b = U P_b U^dagger
    transposed = np.swapaxes(u @ w @ u.conj().T, 1, 2)
    r = (w.reshape(len(w), -1) @ transposed.reshape(len(w), -1).T).real / len(u)
    rounded = np.rint(r)
    clifford = bool(np.abs(r - rounded).max() <= 1e-12 and (np.abs(rounded).sum(axis=1) == 1).all())
    return (rounded if clifford else r), clifford


def _fidelities(k: int, p1: float, p2: float) -> np.ndarray:
    """How the depolarizing channel after a k-qubit gate, a uniform
    non-identity Pauli error with probability p (p1 for one qubit, else p2),
    scales each of the 4^k words on its qubits: 1 - p 4^k / (4^k - 1) for
    all but I. The tables built on it are cached on p1 and p2, all of the
    noise model that they read."""
    p = p1 if k == 1 else p2
    f = np.full(4**k, 1.0 - p * 4**k / (4**k - 1))
    f[0] = 1.0
    return f


@lru_cache(maxsize=1024)
def _lifted(kind: str, angle: float | None, positions: tuple[int, ...], m: int,
            p1: float, p2: float) -> tuple[np.ndarray, np.ndarray]:
    """The noisy Clifford gate on these positions of an m-qubit segment as
    (src, coef): word w of its output is coef[w] times word src[w] of its
    input, over the words sum_i 4^i d_i with d_i the letter at position i."""
    r, _ = _transfer(kind, angle)
    gate_src = np.abs(r).argmax(axis=1)
    gate_coef = r.sum(axis=1) * _fidelities(len(positions), p1, p2)  # one nonzero per row
    w = np.arange(4**m)
    shifts = 2 * np.array(positions)
    digits = (w[:, None] >> shifts) & 3
    out = digits @ (4 ** np.arange(len(positions)))  # each word's gate-local word
    src_digits = (gate_src[out][:, None] >> (2 * np.arange(len(positions)))) & 3
    return w + ((src_digits - digits) << shifts).sum(axis=1), gate_coef[out]


@lru_cache(maxsize=1024)
def _segment(gates: tuple[Gate, ...], n: int, p1: float, p2: float) -> tuple:
    """(qubits, src, coef) of a run of noisy Clifford gates: all n qubits up to
    SEGMENT_SPAN, else the sorted qubits of the run, and the product of the
    gates' _lifted maps over their words."""
    qubits = tuple(range(n)) if n <= SEGMENT_SPAN else tuple(
        sorted({q for g in gates for q in g.qubits}))
    src = coef = None
    for g in gates:
        positions = tuple(qubits.index(q) for q in g.qubits)
        s, k = _lifted(g.kind, g.angle, positions, len(qubits), p1, p2)
        src, coef = (s, k) if src is None else (src[s], k * coef[s])
    return qubits, src, coef


@lru_cache(maxsize=64)
def _rotation_transfer(kind: str, p1: float, p2: float) -> np.ndarray:
    """(3, 4, 4): T0, T1, T2 with the noisy rotation's transfer matrix
    T0 + cos(a) T1 + sin(a) T2 at angle a. U = cos(a/2) I - i sin(a/2) P
    makes R affine in (1, cos a, sin a), so three angles fix it."""
    r0, r_pi, r_half = (_transfer(kind, a)[0] for a in (0.0, math.pi, math.pi / 2))
    t0 = 0.5 * (r0 + r_pi)
    return _fidelities(1, p1, p2)[:, None] * np.array([t0, 0.5 * (r0 - r_pi), r_half - t0])


def _split(gates) -> list[tuple[bool, tuple[Gate, ...]]]:
    """The gate list cut in order into steps: (True, gates) for each maximal
    run of fixed Clifford gates on at most SEGMENT_SPAN qubits together, and
    (False, (gate,)) for each rotation by a parameter or by a non-Clifford
    angle."""
    steps: list[tuple[bool, tuple[Gate, ...]]] = []
    run: list[Gate] = []
    qubits: set[int] = set()
    for g in gates:
        if isinstance(g.angle, ParamExpr) or not _transfer(g.kind, g.angle)[1]:
            if run:
                steps.append((True, tuple(run)))
            steps.append((False, (g,)))
            run, qubits = [], set()
            continue
        union = qubits.union(g.qubits)
        if len(union) > SEGMENT_SPAN:
            steps.append((True, tuple(run)))
            run, union = [], set(g.qubits)
        run.append(g)
        qubits = union
    if run:
        steps.append((True, tuple(run)))
    return steps


class _NoisyPlan(NamedTuple):
    """A circuit's noisy steps under one noise model: (qubits, src, coef) for
    a segment (see _segment), (qubit, j) for one-qubit step j, the product of
    one or more rotations on its qubit in gate order: rotation first[j], then
    for each later member position, rotation i on step j for each pair of
    that position's (steps, rotations) arrays in merged; angles holds
    rotation i's angle at row i."""

    steps: tuple[tuple, ...]
    angles: _Angles
    tables: np.ndarray  # (rotations, 3, 4, 4): each rotation's _rotation_transfer
    first: np.ndarray  # (one-qubit steps,): each step's first rotation
    merged: tuple[tuple[np.ndarray, np.ndarray], ...]


def _noisy_plan(c: Circuit, noise: NoiseModel) -> _NoisyPlan:
    """The circuit's noisy steps under this noise model. Segments are cached
    by their gates, so a folded circuit reuses those of its parts. A
    rotation joins the previous one-qubit step on its qubit when no step
    since then acts on that qubit, since it commutes with all of them.
    Refused over SIMULATOR_BYTES, three copies of the Pauli vector, before
    any 4^n array."""
    n = c.n_qubits
    _within_cap(24 << 2 * n, f"noisy run on {n} qubits (three copies of its Pauli vector)")
    steps, angles, tables, members = [], [], [], []
    last: dict[int, int] = {}  # qubit -> the one-qubit step a rotation there joins
    for clifford, gates in _split(c.gates):
        if clifford:
            steps.append(_segment(gates, n, noise.p1, noise.p2))
            for g in gates:
                for q in g.qubits:
                    last.pop(q, None)
            continue
        g = gates[0]
        q = g.qubits[0]
        if q in last:
            members[last[q]].append(len(angles))
        else:
            last[q] = len(members)
            steps.append((q, len(members)))
            members.append([len(angles)])
        angles.append(g.angle)
        tables.append(_rotation_transfer(g.kind, noise.p1, noise.p2))
    merged = tuple((np.array([j for j, m in enumerate(members) if len(m) > k], dtype=np.intp),
                    np.array([m[k] for m in members if len(m) > k], dtype=np.intp))
                   for k in range(1, max(map(len, members), default=1)))
    return _NoisyPlan(tuple(steps), _angles(c, angles), np.array(tables).reshape(-1, 3, 4, 4),
                      np.array([m[0] for m in members], dtype=np.intp), merged)


def _apply_segment(r: np.ndarray, n: int, qubits: tuple[int, ...], src: np.ndarray,
                   coef: np.ndarray) -> np.ndarray:
    """The (rows, 4^n) Pauli vectors r after a segment: one gather and one
    multiply over the segment's words. On consecutive qubits lo..lo+m-1 the
    gather runs along the words axis of r's (rows, 4^(n-lo-m), 4^m, 4^lo)
    view; otherwise the segment's qubits' axes of r's (rows,) + (4,) * n view
    move to the front and back. Memory per row: r is 8 * 4^n bytes, and a
    step holds its input until it returns. On consecutive qubits it also
    holds the gathered copy, scaled in place: two copies. On other qubits it
    also holds the vector with the segment's axes in front, then its gathered
    product, then the product with the axes moved back: three copies at most,
    which SIMULATOR_BYTES bounds."""
    m, rows = len(qubits), len(r)
    if m == n:
        out = r.take(src, 1)
        out *= coef[None]  # of r's shape when it is one row: NumPy's fastest path
        return out
    lo = qubits[0]
    if qubits[-1] - lo == m - 1:
        out = r.reshape(rows, -1, 4**m, 4**lo).take(src, 2)
        out *= coef[:, None]
        return out.reshape(rows, -1)
    axes = [n - q for q in reversed(qubits)]  # qubit q's axis after the rows
    front = np.moveaxis(r.reshape((rows,) + (4,) * n), axes, range(1, m + 1))
    out = front.reshape(rows, 4**m, -1).take(src, 1)
    del front
    out *= coef[:, None]
    return np.moveaxis(out.reshape((rows,) + (4,) * n), range(1, m + 1), axes).reshape(rows, -1)


def _run_pauli(c: Circuit, params: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """(rows, 4^n): tr(Q rho) for every n-qubit Pauli word Q, at index sum_q
    4^q d_q with d_q the index in _PAULIS of Q's letter on qubit q, for rho
    after the noisy gate list on |0...0> at each of the parameter rows: one
    gather per segment, and one 4x4 map per row and one-qubit step on the
    (4^(n-1-q), 4, 4^q) view of its qubit q."""
    n = c.n_qubits
    plan = _compiled(c, noise)
    rows = len(params)
    a = plan.angles.at(_bind(params))[:, :, None, None]
    t = plan.tables
    rotations = t[:, 0] + np.cos(a) * t[:, 1] + np.sin(a) * t[:, 2]
    maps = rotations.take(plan.first, 1)
    for j, i in plan.merged:
        maps[:, j] = rotations[:, i] @ maps[:, j]
    # |0...0><0...0| has tr(Q rho) = 1 on the words over {I, Z}, else 0
    r = np.zeros((rows,) + (4,) * n)
    r[(slice(None),) + (slice(None, None, 3),) * n] = 1.0
    r = r.reshape(rows, -1)
    for step in plan.steps:
        if len(step) == 3:
            r = _apply_segment(r, n, *step)
        elif step[0] == 0:  # a plain matrix product per row is faster than the stacked one
            r = (r.reshape(rows, -1, 4) @ np.swapaxes(maps[:, step[1]], 1, 2)).reshape(rows, -1)
        else:
            q, j = step
            r = np.matmul(maps[:, j, None], r.reshape(rows, -1, 4, 1 << 2 * q)).reshape(rows, -1)
    return r


# -- estimation ------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorResult:
    mean: float
    std_error: float
    shots: int
    seed: int


def group_commuting_terms(h: PauliSum) -> list[list[PauliTerm]]:
    """Greedy first-fit grouping under qubit-wise commutation (identity
    dropped). A group's basis is the OR of its members' (x, z) masks, and a
    term joins the first group whose basis agrees with it on every qubit that
    both touch."""
    groups: list[list[PauliTerm]] = []
    bases: list[tuple[int, int]] = []
    for t in h.terms():
        if t.weight == 0:
            continue
        for i, (x, z) in enumerate(bases):
            if ((t.x ^ x) | (t.z ^ z)) & (t.x | t.z) & (x | z) == 0:
                groups[i].append(t)
                bases[i] = (x | t.x, z | t.z)
                break
        else:
            groups.append([t])
            bases.append((t.x, t.z))
    return groups


def _basis_change_gates(x: int, z: int, n: int) -> list[Gate]:
    """Rotate the Pauli basis with masks (x, z) to Z on each of the n qubits:
    H for X, and RZ(-pi/2) (S-dagger) then H for Y."""
    gates: list[Gate] = []
    for q in range(n):
        if (x >> q) & 1:
            if (z >> q) & 1:
                gates.append(Gate("RZ", (q,), -math.pi / 2))
            gates.append(Gate("H", (q,)))
    return gates


def _outcome_tables(groups, n: int) -> np.ndarray:
    """(groups, 2^n): each group's energy on each measured outcome b,
    sum_t c_t (-1)^popcount(b & mask_t) over its terms t."""
    basis = np.arange(1 << n)
    tables = np.zeros((len(groups), 1 << n))
    for table, group in zip(tables, groups):
        for t in group:
            table += t.coefficient.real * parity_signs(basis, t.x | t.z)
    return tables


# A group's letter on each qubit, from the OR of its terms' masks, is 0, 1 or 2
# for Z, X or Y: Z also where it measures nothing. _LETTER_MASKS holds each
# letter's (x, z) on one qubit, and _LETTER_PAULIS its index in _PAULIS.
_LETTER_MASKS = ((0, 1), (1, 0), (1, 1))
_LETTER_PAULIS = np.array([3, 1, 2])


@lru_cache(maxsize=1)
def _basis_rotations() -> np.ndarray:
    """(letter, 2, 2): the product of each letter's basis-change gates on one
    qubit, I, H, and H S-dagger (RZ(-pi/2) then H). Built at the first
    noiseless estimate rather than at import."""
    return np.array([
        reduce(lambda m, g: _matrix(g.kind, g.angle) @ m, _basis_change_gates(x, z, 1), np.eye(2))
        for x, z in _LETTER_MASKS])


class _MeasurementPlan(NamedTuple):
    identity: float  # the coefficient of the identity word
    groups: tuple[tuple[PauliTerm, ...], ...]
    letters: np.ndarray  # (groups, n): 0, 1, 2 for Z, X, Y
    tables: np.ndarray | None  # (groups, 2^n)
    # read-out _kron_blocks by noise model (see _distributions), and under
    # "words" the (groups, 2^n) indices into _run_pauli's vector
    kept: dict


def _measurement_plan(h: PauliSum) -> _MeasurementPlan:
    """The qubit-wise-commuting groups of the sum, built at its first estimate
    and kept on it for its life, since a sum is never changed: each group's
    terms, its letter on each qubit and its outcome table. Above DENSE_CAP
    qubits the tables are None, and each estimate builds them and drops them."""
    if h._plan is not None:
        return h._plan
    n = h.n_qubits
    groups = tuple(tuple(g) for g in group_commuting_terms(h))
    letters = np.zeros((len(groups), n), dtype=np.intp)
    for i, group in enumerate(groups):
        x = z = 0
        for t in group:  # the group's basis
            x, z = x | t.x, z | t.z
        xb, zb = (x >> np.arange(n)) & 1, (z >> np.arange(n)) & 1
        letters[i] = xb + (xb & zb)
    tables = _outcome_tables(groups, n) if n <= DENSE_CAP else None
    h._plan = _MeasurementPlan(float(h.coefficient("I" * n).real), groups, letters, tables, {})
    return h._plan


def _words(letters: np.ndarray) -> np.ndarray:
    """(groups, 2^n): the index in the Pauli vector of each group's 2^n
    words, I or its letter's Pauli on each qubit, word s holding the letter
    where bit q of s is set."""
    n = letters.shape[1]
    bits = (np.arange(1 << n) >> np.arange(n)[:, None]) & 1
    return (_LETTER_PAULIS[letters] * 4 ** np.arange(n)) @ bits


def _confusion(noise: NoiseModel) -> np.ndarray:
    """P(read b | is b') at [b, b'] on one qubit."""
    r01, r10 = noise.readout01, noise.readout10
    return np.array([[1 - r01, r10], [r01, 1 - r10]])


@lru_cache(maxsize=16)
def _letter_maps(noise: NoiseModel) -> np.ndarray:
    """(letters, 2, 2): one qubit's read-out distribution from (tr rho,
    tr(P rho)), P the letter's Pauli, after the letter's basis-change gates,
    each with its depolarizing channel at p1, and the confusion matrix. Other
    Paulis do not reach the diagonal."""
    maps, confusion = [], _confusion(noise)
    # the diagonal of rho is (tr rho +- tr(Z rho)) / 2
    diagonal = np.array([[1.0, 1.0], [1.0, -1.0]]) / 2
    for (x, z), pauli in zip(_LETTER_MASKS, _LETTER_PAULIS):
        r = np.eye(4)
        for g in _basis_change_gates(x, z, 1):
            r = _fidelities(1, noise.p1, noise.p2)[:, None] * _transfer(g.kind, g.angle)[0] @ r
        maps.append(confusion @ diagonal @ r[[0, 3]][:, [0, pauli]])
    return np.array(maps)


def _kron_blocks(maps: np.ndarray) -> tuple[tuple[int, np.ndarray], ...]:
    """(lo, K) for each run of at most SEGMENT_SPAN consecutive qubits from
    qubit lo: K[..., :, :] is the Kronecker product of the 2x2 maps[..., q,
    :, :] over the run's qubits q, the highest one's most significant, or for
    lo = 0, which multiplies from the right, its transpose."""
    n = maps.shape[-3]
    blocks = []
    for lo in range(0, n, SEGMENT_SPAN):
        k = maps[..., lo, :, :]
        for q in range(lo + 1, min(lo + SEGMENT_SPAN, n)):
            d = 2 * k.shape[-1]
            k = (maps[..., q, :, None, :, None] * k[..., None, :, None, :]).reshape(
                *k.shape[:-2], d, d)
        blocks.append((lo, k if lo else np.ascontiguousarray(np.swapaxes(k, -1, -2))))
    return tuple(blocks)


def _kept(plan: _MeasurementPlan, key, build):
    """plan.kept[key], built by build() at the first use."""
    value = plan.kept.get(key)
    if value is None:
        value = plan.kept[key] = build()
    return value


def _through_blocks(stack: np.ndarray, blocks, lo: int, hi: int) -> np.ndarray:
    """The (rows, groups, 2^n) stack over the 2^n outcomes, or its (rows, 1,
    2^n) stack shared by groups lo..hi-1, after each block on its qubits: a
    (groups, d, d) block applies group lo + i's matrix to group i of every
    row, a (d, d) block its one matrix to all. One batched matmul per block,
    whose every matrix product is the one a one-row stack makes."""
    rows, size = len(stack), stack.shape[-1]
    for q, k in blocks:
        k = k[lo:hi] if k.ndim == 3 else k
        d = k.shape[-1]
        if q == 0:
            stack = stack.reshape(rows, stack.shape[1], -1, d) @ k
        else:
            stack = np.matmul(k[..., None, :, :],
                              stack.reshape(rows, stack.shape[1], -1, d, 1 << q))
        stack = stack.reshape(rows, -1, size)
    return stack


def _engine(noise: NoiseModel | None) -> NoiseModel | None:
    """The key in `_compiled` of the engine that runs the circuit under this
    noise: the noise model itself where it has gate noise (p1 or p2 > 0),
    else None, the statevector program."""
    return noise if noise is not None and not (noise.p1 == noise.p2 == 0.0) else None


def _distributions(c: Circuit, params: np.ndarray, plan: _MeasurementPlan,
                   noise: NoiseModel | None):
    """The groups' read-out outcome distributions at each of the parameter
    rows, (rows, groups, 2^n) in plan order, in C-ordered stacks of
    max(1, 2^DENSE_CAP >> n) groups. Noisy, rho becomes its Pauli vector
    once, and each group gathers its words and passes them through its
    letters' maps. Noiseless, the state passes through each group's letters'
    rotations, and the squared amplitudes through the confusion matrices. The
    maps act as the plan's Kronecker blocks of at most SEGMENT_SPAN qubits,
    built at first use and kept under None for the rotations and under the
    noise model for its noisy maps or, readout only, its confusion blocks
    shared by all groups; the groups' word indices are kept next to them at
    the first noisy estimate."""
    n = c.n_qubits
    noisy = _engine(noise) is not None
    readout = noise is not None and not (noise.readout01 == noise.readout10 == 0.0)
    if noisy:
        source = _run_pauli(c, params, noise)
        words = _kept(plan, "words", lambda: _words(plan.letters))
        blocks = _kept(plan, noise, lambda: _kron_blocks(_letter_maps(noise)[plan.letters]))
    else:
        source = run_circuit(c, params)[:, None]
        blocks = _kept(plan, None, lambda: _kron_blocks(_basis_rotations()[plan.letters]))
        if readout:
            confusion = _kept(plan, noise, lambda: _kron_blocks(
                np.broadcast_to(_confusion(noise), (n, 2, 2))))
    step = _groups_per_stack(n)
    for lo in range(0, len(plan.groups), step):
        hi = min(lo + step, len(plan.groups))
        if noisy:
            probs = _through_blocks(source.take(words[lo:hi], 1), blocks, lo, hi).clip(min=0.0)
        else:
            probs = np.abs(_through_blocks(source, blocks, lo, hi)) ** 2
            if readout:
                probs = _through_blocks(probs, confusion, lo, hi)
        yield probs


def estimate(c: Circuit, bindings, h: PauliSum, shots: int, seed,
             noise: NoiseModel | None = None):
    """Shot-based (or exact, shots=0) expectation of h on the circuit output:
    one EstimatorResult for a dict of bindings and an integer seed, a list of
    them for a (rows, parameters) stack and one seed per row.

    Every qubit-wise-commuting group receives the full `shots` budget as
    counts drawn once per group: one multinomial draw over its 2^n outcomes,
    whose mean and unbiased variance come from the counts and the group's
    outcome table, so the cost does not grow with `shots`. Group estimates
    are summed and their variances propagated independently. All groups of a
    row draw from the one PRNG stream derived from the row's seed, a stack of
    groups at a time in plan order, so that each row's result equals its
    one-row estimate. With gate noise (p1 or p2 > 0) the circuit runs once
    per row on the Pauli vector of rho. Readout errors pass each group's
    distribution through the confusion matrices before sampling. With shots=0
    the result is the exact expectation, noise included. The circuit's
    compile refuses, with DenseCapError, a statevector program or a noisy
    Pauli vector over the one byte cap SIMULATOR_BYTES (1 GiB), before its
    first 2^n or 4^n array and before the measurement plan: gate noise on
    more than 12 qubits is refused.
    """
    if h.n_qubits != c.n_qubits:
        raise CircuitError("Hamiltonian/circuit qubit-count mismatch")
    if shots < 0:
        raise CircuitError("shots must be >= 0")
    n = c.n_qubits
    engine = _engine(noise)
    compiled = _compiled(c, engine)  # a circuit over the byte cap is refused before the plan
    plan = _measurement_plan(h)
    rows, single = _parameter_rows(c, bindings)
    seeds = [seed] if single else list(seed)
    if len(seeds) != len(rows):
        raise CircuitError(f"{len(rows)} parameter rows need as many seeds, got {len(seeds)}")
    groups = min(len(plan.groups), _groups_per_stack(n))
    size = _rows_within(max(groups << n, compiled.width if engine is None else 4**n))
    results = []
    for lo in range(0, len(rows), size):
        results += _estimate_rows(c, rows[lo:lo + size], plan, shots, seeds[lo:lo + size], noise)
    return results[0] if single else results


def _estimate_rows(c: Circuit, params: np.ndarray, plan: _MeasurementPlan, shots: int, seeds,
                   noise: NoiseModel | None) -> list[EstimatorResult]:
    """estimate at one chunk of parameter rows, each row's counts drawn
    from the generator of its seed; at shots=0 nothing is drawn and no
    generator is derived. The chunk's arrays are dropped when it returns,
    before the next chunk runs."""
    n = c.n_qubits
    rngs = [derive_rng(s) for s in seeds] if shots else []
    means, variances = np.full(len(params), plan.identity), np.zeros(len(params))
    lo = 0
    for probs in _distributions(c, params, plan, noise):
        hi = lo + probs.shape[1]
        tables = (plan.tables[lo:hi] if plan.tables is not None
                  else _outcome_tables(plan.groups[lo:hi], n))
        lo = hi
        if shots == 0:
            means += np.vecdot(probs, tables).sum(axis=1)
            continue
        probs /= probs.sum(axis=2, keepdims=True)
        counts = np.array([rng.multinomial(shots, p) for p, rng in zip(probs, rngs)])
        group_means = np.vecdot(counts, tables) / shots
        means += group_means.sum(axis=1)
        if shots > 1:
            sq = np.vecdot(counts, (tables - group_means[..., None]) ** 2)
            variances += sq.sum(axis=1) / (shots - 1) / shots
    return [EstimatorResult(m, math.sqrt(v), shots, s)
            for m, v, s in zip(means.tolist(), variances.tolist(), seeds)]


# -- transpilation ---------------------------------------------------------


def _h_basis(q: int) -> list[Gate]:
    return [Gate("RZ", (q,), math.pi / 2), Gate("SqrtX", (q,)), Gate("RZ", (q,), math.pi / 2)]


def _shift(angle, delta: float):
    if isinstance(angle, ParamExpr):
        return angle.shifted(delta)
    return float(angle) + delta


def _lower_gate(g: Gate) -> list[Gate]:
    """Rewrite one gate into the {SqrtX, RZ, CZ} basis (up to global phase)."""
    q = g.qubits[0]
    if g.kind in ("RZ", "SqrtX", "CZ"):
        return [g]
    if g.kind == "X":
        return [Gate("SqrtX", (q,)), Gate("SqrtX", (q,))]
    if g.kind == "H":
        return _h_basis(q)
    if g.kind == "RY":
        return [Gate("SqrtX", (q,)), Gate("RZ", (q,), _shift(g.angle, math.pi)),
                Gate("SqrtX", (q,)), Gate("RZ", (q,), math.pi)]
    if g.kind == "RX":
        return [Gate("RZ", (q,), math.pi / 2), Gate("SqrtX", (q,)),
                Gate("RZ", (q,), _shift(g.angle, math.pi)),
                Gate("SqrtX", (q,)), Gate("RZ", (q,), math.pi / 2)]
    if g.kind == "CX":
        c, t = g.qubits
        return _h_basis(t) + [Gate("CZ", (c, t))] + _h_basis(t)
    if g.kind == "SWAP":
        a, b = g.qubits
        out = []
        for cx in (Gate("CX", (a, b)), Gate("CX", (b, a)), Gate("CX", (a, b))):
            out.extend(_lower_gate(cx))
        return out
    raise TranspileError(f"no lowering rule for {g.kind}")


def _shortest_path(adj: dict[int, list[int]], a: int, b: int) -> list[int]:
    """BFS shortest path with lowest-index tie-breaking."""
    prev = {a: None}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        if u == b:
            break
        for v in adj[u]:
            if v not in prev:
                prev[v] = u
                queue.append(v)
    if b not in prev:
        raise TranspileError(f"no path between qubits {a} and {b}")
    path = [b]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


def transpile(c: Circuit, coupling: list[tuple[int, int]]):
    """Lower to the {SqrtX, RZ, CZ} basis on the given coupling graph.

    Non-adjacent two-qubit gates are routed by SWAPping one operand along the
    BFS shortest path and back, so the qubit layout is unchanged. Returns
    (circuit, depth, two-qubit gate count).
    """
    adj: dict[int, list[int]] = {q: [] for q in range(c.n_qubits)}
    for a, b in coupling:
        if not (0 <= a < c.n_qubits and 0 <= b < c.n_qubits) or a == b:
            raise TranspileError(f"bad coupling pair ({a}, {b})")
        if b not in adj[a]:
            adj[a].append(b)
            adj[b].append(a)
    for q in adj:
        adj[q].sort()
    for q in adj:  # a disconnected coupling graph raises here
        _shortest_path(adj, 0, q)

    routed: list[Gate] = []
    for g in c.gates:
        if len(g.qubits) == 1 or g.qubits[1] in adj[g.qubits[0]]:
            routed.append(g)
            continue
        path = _shortest_path(adj, g.qubits[0], g.qubits[1])
        swaps = [Gate("SWAP", (path[i], path[i + 1])) for i in range(len(path) - 2)]
        routed.extend(swaps)
        routed.append(Gate(g.kind, (path[-2], g.qubits[1]), g.angle))
        routed.extend(reversed(swaps))

    out = Circuit(c.n_qubits)
    for g in routed:
        out.extend(_lower_gate(g))
    stats = circuit_stats(out)
    return out, stats.depth, stats.gate_counts.get("CZ", 0)


@dataclass(frozen=True)
class CircuitStats:
    depth: int
    gate_counts: dict[str, int] = field(hash=False)
    n_parameters: int = 0


def circuit_stats(c: Circuit) -> CircuitStats:
    """DAG depth (every gate weight 1), per-kind counts, parameter count."""
    level = [0] * c.n_qubits
    counts: dict[str, int] = {}
    for g in c.gates:
        d = 1 + max(level[q] for q in g.qubits)
        for q in g.qubits:
            level[q] = d
        counts[g.kind] = counts.get(g.kind, 0) + 1
    return CircuitStats(max(level, default=0), counts, len(c.parameter_names))


def inverse_circuit(c: Circuit) -> Circuit:
    """Exact gate-by-gate inverse (SqrtX inverted as SqrtX followed by X)."""
    return Circuit(c.n_qubits).extend(inv for g in reversed(c.gates) for inv in _inverse(g))
