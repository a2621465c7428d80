"""Parameterized circuits, statevector execution, shot estimation, transpilation.

Qubit 0 is the least significant bit of basis-state indices, matching the
Pauli and Fock modules. A circuit holds gates and Pauli rotations
exp(i a P). The noiseless statevector runs each rotation as one operation;
every consumer of `Circuit.gates` (the noisy path, transpilation, statistics,
inversion and folding) sees it decomposed into gates by one synthesis rule.
Gate noise is simulated exactly on a density matrix: each gate applies
U rho U^dagger and then the depolarizing channel on its qubits, so one rho
per estimate carries the full error model. Readout errors fold into each
measured distribution. Each measurement group turns a measured outcome into
its energy through a table over the 2^n outcomes, and its shots are counts
drawn once from the distribution (one multinomial draw), weighted by that
table; with shots=0 the exact expectation is taken instead.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .pauli import DENSE_CAP, DenseCapError, PauliSum, PauliTerm, flip_index, parity_signs


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


# kind -> (arity, takes_angle)
GATE_KINDS = {
    "X": (1, False), "H": (1, False), "SqrtX": (1, False),
    "RX": (1, True), "RY": (1, True), "RZ": (1, True),
    "CX": (2, False), "CZ": (2, False), "SWAP": (2, False),
}

_SQRTX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | ParamExpr | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        arity, takes_angle = GATE_KINDS[self.kind]
        if len(self.qubits) != arity:
            raise CircuitError(f"{self.kind} expects {arity} qubit(s), got {self.qubits}")
        if arity == 2 and self.qubits[0] == self.qubits[1]:
            raise CircuitError(f"{self.kind} qubits must be distinct")
        if takes_angle != (self.angle is not None):
            raise CircuitError(f"{self.kind} angle mismatch")


@dataclass(frozen=True)
class PauliRotation:
    """exp(i * angle * P) for the label-basis Pauli word P with masks (x, z)."""

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
        enter = _basis_change_gates([PauliTerm(n_qubits, self.x, self.z, 1.0)], n_qubits)
        # H is its own inverse; RZ(a) is undone by RZ(-a)
        leave = [Gate(g.kind, g.qubits, None if g.angle is None else -g.angle)
                 for g in reversed(enter)]
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
        return out


def derive_rng(master_seed: int, *counters: int) -> np.random.Generator:
    """Project-wide PRNG derivation: one PCG64 stream per (seed, path)."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, counters)]))


def _angle_value(gate: Gate, bindings) -> float:
    a = gate.angle
    if isinstance(a, ParamExpr):
        return a.resolve(bindings or {})
    return float(a)


@lru_cache(maxsize=512)
def _cx_perm(n: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(1 << n)
    return idx ^ (((idx >> control) & 1) << target)


@lru_cache(maxsize=512)
def _swap_perm(n: int, a: int, b: int) -> np.ndarray:
    idx = np.arange(1 << n)
    ba = (idx >> a) & 1
    bb = (idx >> b) & 1
    diff = ba ^ bb
    return idx ^ (diff << a) ^ (diff << b)


@lru_cache(maxsize=512)
def _bit(n: int, q: int) -> np.ndarray:
    return (np.arange(1 << n) >> q) & 1


def _apply_1q_matrix(states: np.ndarray, u: np.ndarray, q: int, n: int) -> np.ndarray:
    shape = states.shape
    view = states.reshape(-1, 1 << (n - q - 1), 2, 1 << q)
    out = np.einsum("ab,shbl->shal", u, view)
    return out.reshape(shape)


def _apply_gate(states: np.ndarray, gate: Gate, bindings, n: int) -> np.ndarray:
    kind = gate.kind
    if kind == "X":
        return states[..., flip_index(n, 1 << gate.qubits[0])]
    if kind == "CX":
        return states[..., _cx_perm(n, *gate.qubits)]
    if kind == "SWAP":
        return states[..., _swap_perm(n, *gate.qubits)]
    if kind == "CZ":
        a, b = gate.qubits
        sign = 1.0 - 2.0 * (_bit(n, a) & _bit(n, b))
        return states * sign
    if kind == "RZ":
        t = _angle_value(gate, bindings)
        phase = np.where(_bit(n, gate.qubits[0]), np.exp(0.5j * t), np.exp(-0.5j * t))
        return states * phase
    if kind == "H":
        return _apply_1q_matrix(states, _HADAMARD, gate.qubits[0], n)
    if kind == "SqrtX":
        return _apply_1q_matrix(states, _SQRTX, gate.qubits[0], n)
    t = _angle_value(gate, bindings)
    c, s = math.cos(t / 2), math.sin(t / 2)
    if kind == "RY":
        u = np.array([[c, -s], [s, c]], dtype=complex)
    else:  # RX
        u = np.array([[c, -1j * s], [-1j * s, c]])
    return _apply_1q_matrix(states, u, gate.qubits[0], n)


@lru_cache(maxsize=512)
def _rotation_signs(n: int, x: int, z: int) -> np.ndarray:
    """(-1)^popcount((b ^ x) & z) for every basis index b."""
    return parity_signs(flip_index(n, x), z)


def _apply_op(states: np.ndarray, op: Gate | PauliRotation, bindings, n: int) -> np.ndarray:
    """One operation on the last axis. A rotation is cos(a) psi + i sin(a) P psi,
    where (P psi)[b] = i^popcount(x & z) (-1)^popcount((b ^ x) & z) psi[b ^ x]."""
    if not isinstance(op, PauliRotation):
        return _apply_gate(states, op, bindings, n)
    a = op.angle.resolve(bindings or {})
    phase = (1, 1j, -1, -1j)[(op.x & op.z).bit_count() % 4]
    flipped = states[..., flip_index(n, op.x)] * _rotation_signs(n, op.x, op.z)
    return math.cos(a) * states + (1j * phase * math.sin(a)) * flipped


def run_circuit(c: Circuit, bindings=None) -> np.ndarray:
    """Statevector after applying the operations to |0...0>."""
    state = np.zeros(1 << c.n_qubits, dtype=complex)
    state[0] = 1.0
    for op in c.operations:
        state = _apply_op(state, op, bindings, c.n_qubits)
    return state


def circuit_unitary(c: Circuit, bindings=None) -> np.ndarray:
    """Dense unitary of the circuit (small-circuit verification helper)."""
    dim = 1 << c.n_qubits
    cols = np.eye(dim, dtype=complex)
    for op in c.operations:
        cols = _apply_op(cols.T, op, bindings, c.n_qubits).T
    return cols


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

    @property
    def is_trivial(self) -> bool:
        return self.p1 == self.p2 == self.readout01 == self.readout10 == 0.0


# A noisy estimate holds a 4^n-entry density matrix: 256 MiB at 12 qubits.
DENSITY_CAP = 12


def _depolarize(rho: np.ndarray, qubits, lam: float, n: int) -> np.ndarray:
    """(1 - lam) rho + lam D(rho), where D twirls each of the qubits,
    (rho + X rho X + Y rho Y + Z rho Z) / 4: the qubit's reduced state becomes
    I/2 and its coherences with the rest vanish."""
    mixed = rho
    for q in qubits:
        hi, lo = 1 << (n - q - 1), 1 << q
        v = mixed.reshape(hi, 2, lo, hi, 2, lo)
        half_trace = 0.5 * (v[:, 0, :, :, 0] + v[:, 1, :, :, 1])
        out = np.zeros_like(v)
        out[:, 0, :, :, 0] = half_trace
        out[:, 1, :, :, 1] = half_trace
        mixed = out.reshape(rho.shape)
    return (1.0 - lam) * rho + lam * mixed


def _apply_noisy_gate(rho: np.ndarray, gate: Gate, bindings, n: int,
                      noise: NoiseModel) -> np.ndarray:
    """U rho U^dagger, then the exact channel of a uniform non-identity Pauli
    error with probability p on the gate's k qubits: (1 - lam) rho + lam D(rho),
    with lam = p 4^k / (4^k - 1)."""
    # through the statevector kernel f(A) = A U^T (the gate on the last axis):
    # U rho = f(rho^T)^T and A U^dagger = conj(f(conj A))
    u_rho = _apply_gate(rho.T, gate, bindings, n).T
    rho = _apply_gate(u_rho.conj(), gate, bindings, n).conj()
    k = len(gate.qubits)
    p = noise.p1 if k == 1 else noise.p2
    if p == 0.0:
        return rho
    return _depolarize(rho, gate.qubits, p * 4**k / (4**k - 1), n)


def _run_density(c: Circuit, bindings, noise: NoiseModel) -> np.ndarray:
    """Density matrix after the noisy gate list on |0...0><0...0|."""
    dim = 1 << c.n_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for g in c.gates:
        rho = _apply_noisy_gate(rho, g, bindings, c.n_qubits, noise)
    return rho


# -- estimation ------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorResult:
    mean: float
    std_error: float
    shots: int
    seed: int


def _qubit_wise_commute(a: PauliTerm, b: PauliTerm) -> bool:
    overlap = (a.x | a.z) & (b.x | b.z)
    return ((a.x ^ b.x) | (a.z ^ b.z)) & overlap == 0


def group_commuting_terms(h: PauliSum) -> list[list[PauliTerm]]:
    """Greedy first-fit grouping under qubit-wise commutation (identity dropped)."""
    groups: list[list[PauliTerm]] = []
    for t in h.terms():
        if t.weight == 0:
            continue
        for g in groups:
            if all(_qubit_wise_commute(t, u) for u in g):
                g.append(t)
                break
        else:
            groups.append([t])
    return groups


def _basis_change_gates(group: list[PauliTerm], n: int) -> list[Gate]:
    """Rotate the shared measurement basis of a qubit-wise-commuting group to Z."""
    gates: list[Gate] = []
    for q in range(n):
        xb = zb = 0
        for t in group:
            if (t.x >> q) & 1 or (t.z >> q) & 1:
                xb, zb = (t.x >> q) & 1, (t.z >> q) & 1
                break
        if xb and not zb:  # X
            gates.append(Gate("H", (q,)))
        elif xb and zb:  # Y: S-dagger then H
            gates.append(Gate("RZ", (q,), -math.pi / 2))
            gates.append(Gate("H", (q,)))
    return gates


def _outcome_table(group, n: int) -> np.ndarray:
    """Energy of the group's terms on each measured outcome b:
    sum_t c_t (-1)^popcount(b & mask_t)."""
    basis = np.arange(1 << n)
    table = np.zeros(1 << n)
    for t in group:
        table += t.label_coefficient.real * parity_signs(basis, t.x | t.z)
    return table


@lru_cache(maxsize=64)
def _measurement_plan(n: int, items) -> tuple:
    """(group, basis-change gates, outcome table) for each qubit-wise-commuting
    group of the sum with these ((x, z), coefficient) items, built once per
    Hamiltonian. Above DENSE_CAP qubits the table is None, and each estimate
    builds it and drops it."""
    groups = group_commuting_terms(PauliSum(n, dict(items)))
    return tuple((tuple(group), tuple(_basis_change_gates(group, n)),
                  _outcome_table(group, n) if n <= DENSE_CAP else None)
                 for group in groups)


def _readout_distribution(probs: np.ndarray, n: int, noise: NoiseModel) -> np.ndarray:
    """Outcome distribution after readout: each qubit's bit passes through the
    confusion matrix [[1 - r01, r10], [r01, 1 - r10]]."""
    r01, r10 = noise.readout01, noise.readout10
    for q in range(n):
        v = probs.reshape(-1, 2, 1 << q)
        p0, p1 = v[:, 0], v[:, 1]
        probs = np.stack(((1 - r01) * p0 + r10 * p1, r01 * p0 + (1 - r10) * p1),
                         axis=1).reshape(-1)
    return probs


def estimate(c: Circuit, bindings, h: PauliSum, shots: int, seed: int,
             noise: NoiseModel | None = None) -> EstimatorResult:
    """Shot-based (or exact, shots=0) expectation of h on the circuit output.

    Every qubit-wise-commuting group receives the full `shots` budget as
    counts drawn once per group: one multinomial draw over its 2^n outcomes,
    whose mean and unbiased variance come from the counts and the group's
    outcome table, so the cost does not grow with `shots`. Group estimates
    are summed and their variances propagated independently. Group g draws
    from the PRNG stream derived from (seed, g), so results do not depend on
    evaluation order. With gate noise (p1 or p2 > 0) the circuit runs once
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
    noisy = noise is not None and not (noise.p1 == noise.p2 == 0.0)
    readout = noise is not None and not (noise.readout01 == noise.readout10 == 0.0)
    if noisy and n > DENSITY_CAP:
        raise DenseCapError(f"noisy estimate on {n} qubits exceeds the "
                            f"density-matrix cap {DENSITY_CAP}")
    base = _run_density(c, bindings, noise) if noisy else run_circuit(c, bindings)
    mean = float(h.coefficient("I" * n).real)
    variance = 0.0
    for gi, (group, meas, table) in enumerate(_measurement_plan(n, h.items())):
        state = base
        if noisy:
            for g in meas:
                state = _apply_noisy_gate(state, g, bindings, n, noise)
            probs = np.diagonal(state).real.clip(min=0.0)
        else:
            for g in meas:
                state = _apply_gate(state, g, bindings, n)
            probs = np.abs(state) ** 2
        if readout:
            probs = _readout_distribution(probs, n, noise)
        if table is None:
            table = _outcome_table(group, n)
        if shots == 0:
            mean += float(probs @ table)
            continue
        counts = derive_rng(seed, gi).multinomial(shots, probs / probs.sum())
        m = float(counts @ table) / shots
        mean += m
        if shots > 1:
            variance += float(counts @ (table - m) ** 2) / (shots - 1) / shots
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
    seen = {0}
    queue = deque([0])
    while queue:
        for v in adj[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    if len(seen) != c.n_qubits:
        raise TranspileError("coupling graph is disconnected")

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
    out = Circuit(c.n_qubits)
    for g in reversed(c.gates):
        if g.kind in ("X", "H", "CX", "CZ", "SWAP"):
            out.add(g)
        elif g.kind in ("RX", "RY", "RZ"):
            a = -g.angle if isinstance(g.angle, ParamExpr) else -float(g.angle)
            out.add(Gate(g.kind, g.qubits, a))
        else:  # SqrtX
            out.add(Gate("SqrtX", g.qubits))
            out.add(Gate("X", g.qubits))
    return out
