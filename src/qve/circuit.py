"""Parameterized circuits, statevector execution, shot estimation, transpilation.

Qubit 0 is the least significant bit of basis-state indices, matching the
Pauli and Fock modules. A circuit holds gates and Pauli rotations
exp(i a P). What a gate kind is lives in one table, `_GATES`: its 2x2 or 4x4
matrix with the first operand's bit most significant, or for RX/RY/RZ the
Pauli of its rotation, and one einsum kernel applies such a matrix to the
gate's qubits of any batch of states. `_inverse` is the one rule that undoes
a gate. The noiseless statevector runs Pauli rotations without decomposing
them; every consumer of `Circuit.gates` (the noisy path, transpilation,
statistics, inversion and folding) sees each one decomposed into gates by
one synthesis rule. At its first run a circuit compiles its statevector
program (`_program`), holding what does not change between runs: one step
per gate (the parameter's name, scale and offset, the matrix or rotation
basis, and einsum axes), and one step per run of consecutive Pauli rotations
on one parameter, one flip mask and one offset/scale ratio whose words
commute, such as a UCCSD excitation's mapped terms. Such a run is exp(i a G)
for its summed generator G, a rotation inside each pair {|b>, |b ^ x>}
(Yordanov, Arvidsson-Shukur & Barnes, PRA 102, 062612 (2020)), applied as
one vector operation from two 2^n arrays, 24 * 2^n bytes per step. The
program also holds the state after the leading fixed gates; `add` clears
it. `run_circuit` and `circuit_unitary` both run it.
Gate noise is simulated exactly on a density matrix. The gate list is cut
greedily, in order, into blocks that act on at most 2 qubits; each block is
one superoperator, the product of its gates' U (x) U* and depolarizing
channels, applied to rho with one matrix product. U is the table's matrix
embedded on the block's qubits by the same kernel, and a channel is the mean
of the same embedding of the Pauli strings built from the table's X, Y and
Z. A circuit keeps, per noise model, the partition and each block's product
of fixed gates up to its first parameterised one (`_block_plan`), built at
its first noisy estimate, so an estimate multiplies only what its parameters
change. A group's basis is the OR of its terms' (x, z) masks, one letter Z,
X or Y per qubit (Z also where it measures nothing); one rule turns masks
into basis-change gates, for measurement groups and rotation synthesis
alike. A group's basis change, diagonal and readout act on each qubit alone,
so every group is measured at once through one fixed 2x2 map per qubit and
letter, applied by one batched matmul per qubit. Noiseless, the maps are
the rotations I, H and H S-dagger, each letter's basis-change gates
multiplied out, applied to every group's copy of the state, and readout
passes the squared amplitudes through each qubit's confusion matrix. Noisy,
rho becomes its Pauli vector tr(Q rho) once, each group gathers its 2^n
words over {I, its letter} on each qubit, and the maps, built from the noisy
basis-change gates and the confusion matrix, give the read-out
distribution. Each measurement
group turns a measured outcome into its energy through a table over the 2^n
outcomes. The groups, their letters, tables and word indices, and the
identity coefficient form the Hamiltonian's measurement plan, built at its
first estimate and kept on the `PauliSum` until `add_term` changes it, the
tables as one (groups, 2^n) array. All groups' distributions are normalised
at once, and each group's shots are counts drawn once from its distribution:
one generator per estimate makes one multinomial draw over each stack of
groups, in plan order, and the means and variances are row reductions of
the counts against the tables. With shots=0 the exact expectation is taken
instead.
"""

from __future__ import annotations

import itertools
import math
import string
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .pauli import (DENSE_CAP, DenseCapError, PauliSum, PauliTerm, flip_index, parity_signs,
                    word_phase, z_signs)


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

    def shifted(self, delta: float) -> "ParamExpr":
        return ParamExpr(self.name, self.scale, self.offset + delta)


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


# (I, -i P) on the last axis for each rotation kind's Pauli P
_ROTATION_BASES = {kind: np.stack([np.eye(2), -1j * m], axis=-1)
                   for kind, (m, takes_angle) in _GATES.items() if takes_angle}


def _rotation(basis: np.ndarray, angle: float) -> np.ndarray:
    """exp(-i angle P / 2) = cos(angle/2) I - i sin(angle/2) P from a kind's
    _ROTATION_BASES entry (I, -i P)."""
    return np.dot(basis, (math.cos(angle / 2), math.sin(angle / 2)))


@lru_cache(maxsize=1024)
def _matrix(kind: str, angle: float | None = None) -> np.ndarray:
    """The kind's matrix in operand order, at this angle if it takes one."""
    m, takes_angle = _GATES[kind]
    return _rotation(_ROTATION_BASES[kind], angle) if takes_angle else m


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
        a = -g.angle if isinstance(g.angle, ParamExpr) else -float(g.angle)
        return [Gate(g.kind, g.qubits, a)]
    if g.kind == "SqrtX":
        return [g, Gate("X", g.qubits)]
    return [g]


@dataclass(frozen=True)
class PauliRotation:
    """exp(i * angle * P) for the label word P with masks (x, z), the XYZ
    string of a `PauliSum` term: word_phase(x, z) X^x Z^z."""

    x: int
    z: int
    angle: ParamExpr

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
        a = self.angle
        rot = Gate("RZ", (support[-1],), ParamExpr(a.name, -2.0 * a.scale, -2.0 * a.offset))
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
        self._plans: dict[NoiseModel, tuple] = {}  # see _block_plan
        self._program: _Program | None = None  # see _program

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
        self._plans = {}
        self._program = None
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
        out._plans = dict(self._plans)
        out._program = self._program
        return out


def derive_rng(master_seed: int, *counters: int) -> np.random.Generator:
    """Project-wide PRNG derivation: one PCG64 stream per (seed, path)."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, counters)]))


@lru_cache(maxsize=1024)
def _operand_axes(n: int, qubits: tuple[int, ...]) -> tuple:
    """(einsum subscripts, view shape, matrix shape) that apply a matrix on
    these qubits to a (batch, 2, ..., 2) view of the states, in which qubit q
    is axis n - q."""
    view = string.ascii_letters[:n + 1]
    ins = "".join(view[n - q] for q in qubits)
    outs = string.ascii_letters[n + 1:n + 1 + len(qubits)]
    result = view.translate(str.maketrans(ins, outs))
    return f"{outs}{ins},{view}->{result}", (-1,) + (2,) * n, (2,) * (2 * len(qubits))


def _apply_matrix(states: np.ndarray, u: np.ndarray, axes: tuple) -> np.ndarray:
    """The matrix u, in operand order, on every state on the last axis, with
    axes = _operand_axes(n, qubits) for the qubits it acts on."""
    subscripts, view_shape, u_shape = axes
    out = np.einsum(subscripts, u.reshape(u_shape), states.reshape(view_shape))
    return out.reshape(states.shape)


class _Program(NamedTuple):
    """A circuit's compiled statevector steps. A step is (parameter, scale,
    offset, rotation, kernel), with angle a = scale * bindings[parameter] +
    offset. A gate's kernel is (matrix, its qubits' _operand_axes): its fixed
    matrix, with parameter None, or the kind's _ROTATION_BASES entry, turned
    into the matrix at a by _rotation. A run of Pauli rotations has kernel
    None and rotation (flip, r, iu), and acts as exp(i a G) for the sum G of
    its words, each weighted by its angle over a: G psi = w * psi[flip] with
    flip = flip_index(x), and G^2 = diag(|w|^2), so exp(i a G) psi = cos(a r)
    psi + sin(a r) iu psi[flip] with r = |w| and iu = i w / r (0 where r is)."""

    steps: tuple[tuple, ...]
    prefix: np.ndarray  # read-only: |0...0> after the leading fixed gates
    rest: tuple[tuple, ...]  # the steps after those gates


def _joins(run: list, op) -> bool:
    """Whether the Pauli rotation op extends the run of rotations: the same
    parameter, flip mask x and offset/scale ratio, and a word that commutes
    with each of theirs, popcount(x & (z ^ z')) even, so that the run's
    product is the exponential of its summed generator."""
    a, b = run[0].angle, op.angle
    return (isinstance(run[0], PauliRotation) and isinstance(op, PauliRotation)
            and a.name == b.name and run[0].x == op.x and a.scale != 0.0 and b.scale != 0.0
            and a.offset / a.scale == b.offset / b.scale
            and all((op.x & (op.z ^ r.z)).bit_count() % 2 == 0 for r in run))


def _rotation_step(run: list, n: int) -> tuple:
    """The step of a run of rotations that _joins: the first one's angle a,
    and the others' angles as a times the ratio of their scales."""
    a, x = run[0].angle, run[0].x
    # a lone rotation of scale 0 is a fixed angle a and weight 1
    w = sum((r.angle.scale / a.scale if a.scale else 1.0) * word_phase(x, r.z) * z_signs(n, r.z)
            for r in run)
    flip = flip_index(n, x)
    w = w[flip]
    r = np.abs(w)
    iu = 1j * np.divide(w, r, out=np.zeros_like(w), where=r > 0.0)
    return (a.name, a.scale, a.offset, (flip, r, iu), None)


def _compile(c: Circuit) -> _Program:
    """The circuit's statevector program: one step per gate, and one per run
    of consecutive Pauli rotations that _joins fuses (one per UCCSD
    excitation, whose mapped terms share their flip mask)."""
    n = c.n_qubits
    runs: list[list] = []
    for op in c.operations:
        if runs and _joins(runs[-1], op):
            runs[-1].append(op)
        else:
            runs.append([op])
    steps = []
    for run in runs:
        op = run[0]
        a = op.angle
        if isinstance(op, PauliRotation):
            steps.append(_rotation_step(run, n))
        elif isinstance(a, ParamExpr):
            steps.append((a.name, a.scale, a.offset, None,
                          (_ROTATION_BASES[op.kind], _operand_axes(n, op.qubits))))
        else:
            steps.append((None, 1.0, 0.0, None, (_matrix(op.kind, a), _operand_axes(n, op.qubits))))
    start = next((i for i, step in enumerate(steps) if step[0] is not None), len(steps))
    prefix = _run_steps(np.eye(1, 1 << n, dtype=complex)[0], steps[:start], None)
    prefix.flags.writeable = False
    return _Program(tuple(steps), prefix, tuple(steps[start:]))


def _program(c: Circuit) -> _Program:
    """The circuit's program, compiled at its first run and kept until `add`
    changes the circuit."""
    if c._program is None:
        c._program = _compile(c)
    return c._program


def _run_steps(states: np.ndarray, steps, bindings) -> np.ndarray:
    """The steps applied in turn to every state on the last axis."""
    bindings = bindings or {}
    batched = states.ndim > 1  # a lone state gathers faster without the ellipsis
    try:
        for name, scale, offset, rotation, kernel in steps:
            if name is not None:
                a = scale * bindings[name] + offset
            if rotation is not None:
                flip, r, iu = rotation
                ar = a * r
                flipped = states[..., flip] if batched else states[flip]
                states = np.cos(ar) * states + (np.sin(ar) * iu) * flipped
                continue
            m, axes = kernel
            states = _apply_matrix(states, m if name is None else _rotation(m, a), axes)
    except KeyError as exc:
        raise CircuitError(f"unbound parameter {exc.args[0]!r}") from None
    return states


def run_circuit(c: Circuit, bindings=None) -> np.ndarray:
    """Statevector after applying the operations to |0...0>."""
    program = _program(c)
    state = _run_steps(program.prefix, program.rest, bindings)
    return state.copy() if state is program.prefix else state


def circuit_unitary(c: Circuit, bindings=None) -> np.ndarray:
    """Dense unitary of the circuit (small-circuit verification helper)."""
    cols = np.eye(1 << c.n_qubits, dtype=complex)
    # the program runs on the rows of cols.T, each a basis state
    return _run_steps(cols.T, _program(c).steps, bindings).T


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
        for name in ("p1", "p2", "readout01", "readout10"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise CircuitError(f"noise probability {name}={v} outside [0, 1]")


# A noisy estimate holds rho (16 * 4^n bytes, 256 MiB at 12 qubits). While it
# applies a block it also holds the reordered operand and the product, and
# while it turns rho into its Pauli vector, the paired copy and each product.
# Each step drops its input once nothing else holds it, but a caller may hold
# a call's arguments until it returns (CPython before 3.11 does): three
# copies of rho at most, 768 MiB at 12 qubits.
DENSITY_CAP = 12


def _partition(gates) -> list[tuple[tuple[int, ...], list[Gate]]]:
    """Greedy in-order blocks of gates whose combined qubits number at most 2:
    (sorted block qubits, gates) for each block."""
    blocks: list[tuple[tuple[int, ...], list[Gate]]] = []
    qubits: set[int] = set()
    members: list[Gate] = []
    for g in gates:
        union = qubits.union(g.qubits)
        if len(union) > 2:
            blocks.append((tuple(sorted(qubits)), members))
            union, members = set(g.qubits), []
        qubits = union
        members.append(g)
    if members:
        blocks.append((tuple(sorted(qubits)), members))
    return blocks


# I and the Paulis X, Y, Z of the gate table
_PAULIS = (np.eye(2), _GATES["X"][0], _GATES["RY"][0], _GATES["RZ"][0])


def _embedded_super(u: np.ndarray, local: tuple[int, ...], b: int) -> np.ndarray:
    """U (x) U* of the matrix u on these local qubits of a b-qubit block.
    Superoperators act on vec(rho)[r * 2^b + c] = rho[r, c]."""
    # the kernel applies u to each row of the identity, giving U^T
    full = _apply_matrix(np.eye(1 << b, dtype=complex), u, _operand_axes(b, local)).T
    return np.kron(full, full.conj())


def _gate_super(u: np.ndarray, qubits: tuple[int, ...], block: tuple[int, ...],
                p: float) -> np.ndarray:
    """U (x) U* of the matrix u on these of the block's qubits, followed by the
    exact channel of a uniform non-identity Pauli error with probability p on
    those k qubits, (1 - lam) I + lam T with lam = p 4^k / (4^k - 1) and T the
    twirl, the mean of P (x) P* over the 4^k Pauli strings P on those qubits,
    in the block's 4^len(block)-dim space."""
    b = len(block)
    local = tuple(block.index(q) for q in qubits)
    s = _embedded_super(u, local, b)
    if p == 0.0:
        return s
    k = len(qubits)
    # each P (x) P* is real with entries 0 and +-1, so the mean is exact
    twirl = sum(_embedded_super(reduce(np.kron, paulis), local, b)
                for paulis in itertools.product(_PAULIS, repeat=k)).real / 4**k
    lam = p * 4**k / (4**k - 1)
    return ((1.0 - lam) * np.eye(4**b) + lam * twirl) @ s


@lru_cache(maxsize=1024)
def _fixed_super(gate: Gate, block: tuple[int, ...], p: float) -> np.ndarray:
    """The cached superoperator of a gate without a parameter."""
    return _gate_super(_matrix(gate.kind, gate.angle), gate.qubits, block, p)


@lru_cache(maxsize=256)
def _rotation_tables(kind: str, q: int, block: tuple[int, ...], p: float) -> tuple:
    """(T0, T1, T2) with superoperator T0 + cos(a) T1 + sin(a) T2 for the noisy
    rotation by a: U = cos(a/2) I - i sin(a/2) P makes U (x) U* affine in
    (1, cos a, sin a), so three angles fix it."""
    s0, s_pi, s_half = (_gate_super(_matrix(kind, a), (q,), block, p)
                        for a in (0.0, math.pi, math.pi / 2))
    t0 = 0.5 * (s0 + s_pi)
    return t0, 0.5 * (s0 - s_pi), s_half - t0


def _block_plan(c: Circuit, noise: NoiseModel) -> tuple:
    """The fixed part of the circuit's noisy evolution under this noise model,
    built at its first noisy estimate and kept until `add` changes the circuit:
    for each block of the partition, (qubits, prefix, rest). prefix is the
    product of the block's fixed gates before its first parameterised one
    (None if the block starts with one); rest holds each later gate's
    superoperator, or for a parameterised rotation its tables and angle."""
    plan = c._plans.get(noise)
    if plan is None:
        # a folded circuit repeats its blocks: equal fixed runs on equal
        # qubits share one product, which keeps a fold's plan small
        plan, prefixes = [], {}
        for block, members in _partition(c.gates):
            ps = [noise.p1 if len(g.qubits) == 1 else noise.p2 for g in members]
            k = next((i for i, g in enumerate(members) if isinstance(g.angle, ParamExpr)),
                     len(members))
            key = (block, tuple(members[:k]))
            if key not in prefixes:
                prefix = None
                for g, p in zip(members[:k], ps):
                    gs = _fixed_super(g, block, p)
                    prefix = gs if prefix is None else gs @ prefix
                prefixes[key] = prefix
            rest = tuple((*_rotation_tables(g.kind, g.qubits[0], block, p), g.angle)
                         if isinstance(g.angle, ParamExpr) else _fixed_super(g, block, p)
                         for g, p in zip(members[k:], ps[k:]))
            plan.append((block, prefixes[key], rest))
        plan = c._plans[noise] = tuple(plan)
    return plan


def _noisy_blocks(plan, bindings):
    """(qubits, superoperator) for each block of the plan: the product of its
    gates' noisy superoperators, in gate order."""
    for block, s, rest in plan:
        for gs in rest:
            if isinstance(gs, tuple):
                t0, t1, t2, angle = gs
                a = angle.resolve(bindings or {})
                gs = t0 + math.cos(a) * t1 + math.sin(a) * t2
            s = gs if s is None else gs @ s
        yield block, s


@lru_cache(maxsize=512)
def _block_axes(n: int, block: tuple[int, ...]) -> tuple:
    """Axis order of rho's (2,) * 2n view that puts the block's row bits, then
    its column bits, in front (most significant first), and its inverse."""
    front = [n - 1 - q for q in reversed(block)]
    front += [a + n for a in front]
    perm = front + [a for a in range(2 * n) if a not in front]
    return tuple(perm), tuple(int(a) for a in np.argsort(perm))


def _evolve(rho: np.ndarray, blocks, n: int) -> np.ndarray:
    """rho, as 2n bit axes, after each (qubits, superoperator) block: one
    matmul over the block's row and column axes moved to the front."""
    for block, s in blocks:
        perm, inverse = _block_axes(n, block)
        front = rho.transpose(perm).reshape(len(s), -1)
        # at most two copies of rho live here: the caller's reference alone
        # keeps the input, and the operand goes before the next one is made
        del rho
        rho = (s @ front).reshape((2,) * (2 * n)).transpose(inverse)
        del front
    return rho


def _run_density(c: Circuit, bindings, noise: NoiseModel) -> np.ndarray:
    """rho, as 2n bit axes, after the noisy gate list on |0...0><0...0|."""
    n = c.n_qubits
    # the initial rho is bound to no name here, so _evolve can drop it
    return _evolve(np.eye(1, 1 << 2 * n, dtype=complex).reshape((2,) * (2 * n)),
                   _noisy_blocks(_block_plan(c, noise), bindings), n)


# tr(P rho) for P = I, X, Y, Z of _PAULIS from one qubit's entries
# (rho_00, rho_01, rho_10, rho_11): the sum over r, c of P[c, r] rho[r, c]
_PAULI_TRACES = np.array([p.T.reshape(-1) for p in _PAULIS])


def _pauli_vector(rho: np.ndarray, n: int) -> np.ndarray:
    """tr(Q rho) for every n-qubit Pauli word Q of the Hermitian rho given as
    2n bit axes, at index sum_q 4^q d_q with d_q the index in _PAULIS of Q's
    letter on qubit q: each qubit's row and column bit are paired, and each
    pair passes through _PAULI_TRACES."""
    pairs = [a for i in range(n) for a in (i, n + i)]
    v = rho.transpose(pairs).reshape(-1)
    # unless the caller still holds rho, it goes before the first product
    del rho
    for j in range(n):
        v = _PAULI_TRACES @ v.reshape(4**j, 4, -1)
    return v.reshape(-1).real


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
    words: np.ndarray | None  # (groups, 2^n): indices into _pauli_vector


def _measurement_plan(h: PauliSum) -> _MeasurementPlan:
    """The qubit-wise-commuting groups of the sum, built at its first estimate
    and kept on it until `add_term` changes it: each group's terms, its
    letter on each qubit, its outcome table and, up to DENSITY_CAP qubits, the
    index in the Pauli vector of its 2^n words, I or the letter's Pauli on
    each qubit (word s holds the letter where bit q of s is set). Above
    DENSE_CAP qubits the tables are None, and each estimate builds them and
    drops them."""
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
    words = None
    if n <= DENSITY_CAP:
        bits = (np.arange(1 << n) >> np.arange(n)[:, None]) & 1
        words = (_LETTER_PAULIS[letters] * 4 ** np.arange(n)) @ bits
    tables = _outcome_tables(groups, n) if n <= DENSE_CAP else None
    h._plan = _MeasurementPlan(float(h.coefficient("I" * n).real), groups, letters, tables,
                               words)
    return h._plan


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
    for (x, z), pauli in zip(_LETTER_MASKS, _LETTER_PAULIS):
        s = np.eye(4)
        for g in _basis_change_gates(x, z, 1):
            s = _gate_super(_matrix(g.kind, g.angle), (0,), (0,), noise.p1) @ s
        # rho = (tr rho I + tr(P rho) P) / 2 on these two words; the
        # diagonal is entries 0 and 3 of vec(rho)
        words = np.stack([_PAULIS[0], _PAULIS[pauli]], axis=-1).reshape(4, 2) / 2
        maps.append((confusion @ s[[0, 3]] @ words).real)
    return np.array(maps)


def _per_qubit(stack: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Each row of stack, over the 2^n outcomes of n qubits, after the 2x2
    matrix maps[row, q] on qubit q: one batched matmul per qubit."""
    rows, n = maps.shape[:2]
    for q in range(n):
        stack = np.matmul(maps[:, None, q], stack.reshape(rows, -1, 2, 1 << q)).reshape(rows, -1)
    return stack


def _distributions(c: Circuit, bindings, plan: _MeasurementPlan, noise: NoiseModel | None):
    """The groups' read-out outcome distributions, one row per group in plan
    order, in C-ordered stacks of at most max(2^n, 2^DENSE_CAP) values.
    Noisy, rho becomes its Pauli vector once, and each group gathers its words
    and passes them through its letters' maps. Noiseless, each group's copy of
    the state passes through its letters' rotations, and the squared
    amplitudes through the confusion matrix on each qubit."""
    n = c.n_qubits
    noisy = noise is not None and not (noise.p1 == noise.p2 == 0.0)
    readout = noise is not None and not (noise.readout01 == noise.readout10 == 0.0)
    if noisy:
        source = _pauli_vector(_run_density(c, bindings, noise), n)
        maps = _letter_maps(noise)[plan.letters]
    else:
        source = run_circuit(c, bindings)
        maps = _basis_rotations()[plan.letters]
    step = max(1, (1 << DENSE_CAP) >> n)
    for lo in range(0, len(plan.groups), step):
        chunk = maps[lo:lo + step]
        rows = len(chunk)
        if noisy:
            probs = _per_qubit(source[plan.words[lo:lo + step]], chunk).clip(min=0.0)
        else:
            probs = np.abs(_per_qubit(np.broadcast_to(source, (rows, 1 << n)), chunk)) ** 2
            if readout:
                probs = _per_qubit(probs, np.broadcast_to(_confusion(noise), (rows, n, 2, 2)))
        yield probs


def estimate(c: Circuit, bindings, h: PauliSum, shots: int, seed: int,
             noise: NoiseModel | None = None) -> EstimatorResult:
    """Shot-based (or exact, shots=0) expectation of h on the circuit output.

    Every qubit-wise-commuting group receives the full `shots` budget as
    counts drawn once per group: one multinomial draw over its 2^n outcomes,
    whose mean and unbiased variance come from the counts and the group's
    outcome table, so the cost does not grow with `shots`. Group estimates
    are summed and their variances propagated independently. All groups draw
    from the one PRNG stream derived from the seed, a stack of groups at a
    time in plan order. With gate noise (p1 or p2 > 0) the circuit runs once
    on a density matrix, which is refused above DENSITY_CAP qubits. Readout
    errors pass each group's distribution through the confusion matrices
    before sampling. With shots=0 the result is the exact expectation, noise
    included.
    """
    if h.n_qubits != c.n_qubits:
        raise CircuitError("Hamiltonian/circuit qubit-count mismatch")
    if shots < 0:
        raise CircuitError("shots must be >= 0")
    n = c.n_qubits
    if noise is not None and not (noise.p1 == noise.p2 == 0.0) and n > DENSITY_CAP:
        raise DenseCapError(f"noisy estimate on {n} qubits exceeds the "
                            f"density-matrix cap {DENSITY_CAP}")
    plan = _measurement_plan(h)
    rng = derive_rng(seed)
    mean, variance = plan.identity, 0.0
    lo = 0
    for probs in _distributions(c, bindings, plan, noise):
        hi = lo + len(probs)
        tables = (plan.tables[lo:hi] if plan.tables is not None
                  else _outcome_tables(plan.groups[lo:hi], n))
        lo = hi
        if shots == 0:
            mean += float(np.vecdot(probs, tables).sum())
            continue
        counts = rng.multinomial(shots, probs / probs.sum(axis=1, keepdims=True))
        means = np.vecdot(counts, tables) / shots
        mean += float(means.sum())
        if shots > 1:
            sq = np.vecdot(counts, (tables - means[:, None]) ** 2)
            variance += float(sq.sum()) / (shots - 1) / shots
    return EstimatorResult(mean, math.sqrt(variance), shots, seed)


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
