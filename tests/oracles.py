"""Independent numerical oracles used by the test suite.

Everything here deliberately avoids the closed forms under test: integrals
are evaluated by numeric quadrature or Monte Carlo, operators by explicit
dense matrices built directly on the occupation basis.
"""

from __future__ import annotations

import math
import string

import numpy as np

# -- Gaussian-integral quadrature -----------------------------------------


def _leggauss_panel(a: float, b: float, n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _auto_span(*prims) -> float:
    """Half-width covering every primitive's tail to ~1e-16."""
    extent = max(abs(c) for p in prims for c in p.center)
    width = max(7.0 / math.sqrt(p.exponent) for p in prims)
    return extent + width


def _axis_nodes(a, b, n: int = 800):
    return _leggauss_panel(-_auto_span(a, b), _auto_span(a, b), n)


def quad_overlap(a, b) -> float:
    """<a|b> for s primitives via per-axis 1-D quadrature (the product of two
    s Gaussians separates into x, y, z factors)."""
    assert a.angular == b.angular == (0, 0, 0)
    x, w = _axis_nodes(a, b)
    out = a.norm * b.norm
    for d in range(3):
        fa = np.exp(-a.exponent * (x - a.center[d]) ** 2)
        fb = np.exp(-b.exponent * (x - b.center[d]) ** 2)
        out *= float(np.sum(fa * fb * w))
    return out


def quad_kinetic(a, b) -> float:
    """<a| -1/2 laplacian |b> using the analytic per-axis second derivative."""
    assert a.angular == b.angular == (0, 0, 0)
    x, w = _axis_nodes(a, b)
    ovl = np.empty(3)
    kin = np.empty(3)
    for d in range(3):
        dxa = x - a.center[d]
        dxb = x - b.center[d]
        fa = np.exp(-a.exponent * dxa**2)
        fb = np.exp(-b.exponent * dxb**2)
        ovl[d] = float(np.sum(fa * fb * w))
        d2fb = (4.0 * b.exponent**2 * dxb**2 - 2.0 * b.exponent) * fb
        kin[d] = float(np.sum(fa * (-0.5) * d2fb * w))
    total = sum(kin[d] * ovl[(d + 1) % 3] * ovl[(d + 2) % 3] for d in range(3))
    return a.norm * b.norm * total


def quad_boys_f0(t: float, n: int = 400) -> float:
    """F0(t) = integral_0^1 exp(-t u^2) du by direct quadrature."""
    u, w = _leggauss_panel(0.0, 1.0, n)
    return float(np.sum(np.exp(-t * u * u) * w))


def _mean_inverse_distance(lam: float, d: float, n: int = 600, rmax: float = 40.0) -> float:
    """E[1/|w|] for w ~ Normal(mean with |mean| = d, covariance I/(2 lam)).

    Radial density rho(r) = (lam/pi)^{1/2} (r/d) [e^{-lam(r-d)^2} - e^{-lam(r+d)^2}],
    so E[1/|w|] reduces to a smooth 1-D integral (the 1/r cancels the r).
    """
    r, w = _leggauss_panel(0.0, rmax, n)
    if d < 1e-12:
        rho_over_r = 4.0 * lam * math.sqrt(lam / math.pi) * r * np.exp(-lam * r * r)
        return float(np.sum(rho_over_r * w))
    pref = math.sqrt(lam / math.pi) / d
    g = pref * (np.exp(-lam * (r - d) ** 2) - np.exp(-lam * (r + d) ** 2))
    return float(np.sum(g * w))


def quad_nuclear_attraction(a, b, nucleus_center, z: int) -> float:
    """-Z <a| 1/|r - Rc| |b> via the radial reduction above."""
    p = a.exponent + b.exponent
    ra, rb = np.asarray(a.center), np.asarray(b.center)
    rp = (a.exponent * ra + b.exponent * rb) / p
    mu = a.exponent * b.exponent / p
    pref = math.exp(-mu * float(np.dot(ra - rb, ra - rb)))
    d = float(np.linalg.norm(rp - np.asarray(nucleus_center)))
    # Gaussian charge cloud of total weight Na Nb pref (pi/p)^{3/2}, width 1/sqrt(2p)
    weight = a.norm * b.norm * pref * (math.pi / p) ** 1.5
    return -z * weight * _mean_inverse_distance(p, d)


def quad_eri(a, b, c, d) -> float:
    """(ab|cd) via the Gaussian relative-coordinate radial reduction."""
    p = a.exponent + b.exponent
    q = c.exponent + d.exponent
    ra, rb = np.asarray(a.center), np.asarray(b.center)
    rc, rd = np.asarray(c.center), np.asarray(d.center)
    ru = (a.exponent * ra + b.exponent * rb) / p
    rv = (c.exponent * rc + d.exponent * rd) / q
    pref_ab = math.exp(-a.exponent * b.exponent / p * float(np.dot(ra - rb, ra - rb)))
    pref_cd = math.exp(-c.exponent * d.exponent / q * float(np.dot(rc - rd, rc - rd)))
    weight = (a.norm * b.norm * c.norm * d.norm * pref_ab * pref_cd
              * (math.pi / p) ** 1.5 * (math.pi / q) ** 1.5)
    lam = p * q / (p + q)
    dist = float(np.linalg.norm(ru - rv))
    return weight * _mean_inverse_distance(lam, dist)


def mc_eri(a, b, c, d, n_samples: int = 2_000_000, seed: int = 1234) -> float:
    """Importance-sampled Monte-Carlo estimate of (ab|cd)."""
    rng = np.random.default_rng(seed)
    p = a.exponent + b.exponent
    q = c.exponent + d.exponent
    ra, rb = np.asarray(a.center), np.asarray(b.center)
    rc, rd = np.asarray(c.center), np.asarray(d.center)
    ru = (a.exponent * ra + b.exponent * rb) / p
    rv = (c.exponent * rc + d.exponent * rd) / q
    pref_ab = math.exp(-a.exponent * b.exponent / p * float(np.dot(ra - rb, ra - rb)))
    pref_cd = math.exp(-c.exponent * d.exponent / q * float(np.dot(rc - rd, rc - rd)))
    weight = (a.norm * b.norm * c.norm * d.norm * pref_ab * pref_cd
              * (math.pi / p) ** 1.5 * (math.pi / q) ** 1.5)
    r1 = rng.normal(ru, 1.0 / math.sqrt(2 * p), size=(n_samples, 3))
    r2 = rng.normal(rv, 1.0 / math.sqrt(2 * q), size=(n_samples, 3))
    inv = 1.0 / np.linalg.norm(r1 - r2, axis=1)
    return weight * float(inv.mean())


# -- dense operator oracles ------------------------------------------------


def ladder_matrix(n_modes: int, mode: int, create: bool) -> np.ndarray:
    """Dense ladder operator on the occupation basis (mode 0 = LSB)."""
    dim = 1 << n_modes
    mat = np.zeros((dim, dim))
    for basis in range(dim):
        occupied = (basis >> mode) & 1
        if create == bool(occupied):
            continue
        sign = (-1) ** bin(basis & ((1 << mode) - 1)).count("1")
        mat[basis ^ (1 << mode), basis] = sign
    return mat


_P1 = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]], dtype=complex),
       "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1.0, -1.0]).astype(complex)}


def pauli_label_matrix(label: str) -> np.ndarray:
    """Kronecker assembly with qubit 0 as the least significant factor."""
    mat = np.eye(1, dtype=complex)
    for ch in label:  # index 0 = qubit 0 = rightmost kron factor
        mat = np.kron(_P1[ch], mat)
    return mat


def pauli_sum_matrix(h) -> np.ndarray:
    """Dense matrix of a PauliSum from its labels and coefficients. Each word
    is built letter by letter as a signed permutation of the basis (qubit 0 =
    least significant bit): each 2x2 factor sends its column bit to the one
    row bit where it is nonzero. Independent of the solver's mask rule."""
    dim = 1 << h.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for t in h.terms():
        rows, vals = np.zeros_like(cols), np.full(dim, t.coefficient, dtype=complex)
        for q, ch in enumerate(t.label()):
            bit = (cols >> q) & 1
            target = np.abs(_P1[ch]).argmax(axis=0)[bit]
            rows |= target << q
            vals *= _P1[ch][target, bit]
        out[rows, cols] += vals
    return out


def run_operations_reference(c, bindings, states: np.ndarray) -> np.ndarray:
    """The circuit's operations applied one call at a time to every state on
    the last axis of `states`. The compiled program fuses rotations and
    agrees with this to rounding."""
    for op in c.operations:
        states = _operation_reference(op, bindings, states, c.n_qubits)
    return states


# Gate matrices in operand order, the first operand's bit most significant,
# and the Pauli P of each rotation kind exp(-i angle P / 2).
_GATE_MATRICES = {
    "X": _P1["X"], "H": np.array([[1, 1], [1, -1]]) / math.sqrt(2.0),
    "SqrtX": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]),
    "CX": np.eye(4)[[0, 1, 3, 2]], "CZ": np.diag([1.0, 1.0, 1.0, -1.0]),
    "SWAP": np.eye(4)[[0, 2, 1, 3]],
}
_ROTATION_PAULIS = {"RX": "X", "RY": "Y", "RZ": "Z"}


def gate_matrix(kind: str, angle: float | None = None) -> np.ndarray:
    """A gate kind's matrix in operand order; a rotation's at this angle,
    cos(angle/2) I - i sin(angle/2) P."""
    if kind in _ROTATION_PAULIS:
        p = _P1[_ROTATION_PAULIS[kind]]
        return math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * p
    return _GATE_MATRICES[kind]


def apply_matrix(states: np.ndarray, u: np.ndarray, qubits, n: int) -> np.ndarray:
    """The matrix u, in operand order, on these qubits of every n-qubit state
    on the last axis: one einsum over the (batch, 2, ..., 2) view of the
    states, in which qubit q is axis n - q."""
    view = string.ascii_letters[:n + 1]
    ins = "".join(view[n - q] for q in qubits)
    outs = string.ascii_letters[n + 1:n + 1 + len(qubits)]
    subscripts = f"{outs}{ins},{view}->{view.translate(str.maketrans(ins, outs))}"
    out = np.einsum(subscripts, u.reshape((2,) * (2 * len(qubits))),
                    states.reshape((-1,) + (2,) * n))
    return out.reshape(states.shape)


def _operation_reference(op, bindings, states: np.ndarray, n: int) -> np.ndarray:
    """One operation on every n-qubit state on the last axis: a gate is its
    gate_matrix, a parameterised one at its resolved angle, through
    apply_matrix, and a Pauli rotation by a is cos(a) psi + (i word_phase(x,
    z) sin(a)) (psi z_signs(z))[flip_index(x)]."""
    from qve.circuit import ParamExpr, PauliRotation
    from qve.pauli import flip_index, word_phase, z_signs
    if isinstance(op, PauliRotation):
        a = op.angle.resolve(bindings)
        flipped = (states * z_signs(n, op.z))[..., flip_index(n, op.x)]
        return math.cos(a) * states + (1j * word_phase(op.x, op.z) * math.sin(a)) * flipped
    a = op.angle
    u = gate_matrix(op.kind, a.resolve(bindings) if isinstance(a, ParamExpr) else a)
    return apply_matrix(states, u, op.qubits, n)


def circuit_unitary(c, bindings=None) -> np.ndarray:
    """Dense unitary of the circuit: the engine's own compiled steps, run by
    its _run_steps on each basis state, column j the image of |j>. The
    program is compiled, and an oversized one refused, before the 4^n
    identity exists."""
    from qve.circuit import _bind, _compiled, _run_steps
    steps, theta = _compiled(c).steps, _bind(c, bindings)
    return np.array([_run_steps(e, steps, theta) for e in np.eye(1 << c.n_qubits, dtype=complex)]).T


def run_fused_reference(c, bindings, states: np.ndarray) -> np.ndarray:
    """The bit-identity reference for the compiled statevector program: the
    circuit's operations applied in turn to every state on the last axis, a
    gate as in run_operations_reference and each run of consecutive Pauli
    rotations on one parameter, one flip mask x, one offset/scale ratio and
    pairwise commuting words as exp(i a G). It repeats the arithmetic under
    test, since the program must keep it to the last bit: a is the run's
    first angle, G the sum of its words, each weighted by its scale over the
    first one's, w = (sum of those weights times word_phase(x, z) z_signs(z))
    [flip_index(x)], and exp(i a G) psi = cos(a |w|) psi + sin(a |w|)
    (i w / |w|) psi[flip_index(x)], with 0 for w / |w| where |w| = 0."""
    from qve.circuit import PauliRotation
    from qve.pauli import flip_index, word_phase, z_signs
    n = c.n_qubits
    ops = list(c.operations)
    i = 0
    while i < len(ops):
        first = ops[i]
        if not isinstance(first, PauliRotation):
            states = _operation_reference(first, bindings, states, n)
            i += 1
            continue
        run, a0 = [first], first.angle
        for op in ops[i + 1:]:
            b = op.angle if isinstance(op, PauliRotation) else None
            if (b is None or b.name != a0.name or op.x != first.x or a0.scale == 0
                    or b.scale == 0 or b.offset / b.scale != a0.offset / a0.scale
                    or any(bin(op.x & (op.z ^ r.z)).count("1") % 2 for r in run)):
                break
            run.append(op)
        i += len(run)
        weights = [r.angle.scale / a0.scale if a0.scale else 1.0 for r in run]
        w = sum(lam * word_phase(r.x, r.z) * z_signs(n, r.z) for lam, r in zip(weights, run))
        flip = flip_index(n, first.x)
        w = w[flip]
        r = np.abs(w)
        iu = 1j * np.divide(w, r, out=np.zeros_like(w), where=r > 0.0)
        a = a0.resolve(bindings)
        states = np.cos(a * r) * states + (np.sin(a * r) * iu) * states[..., flip]
    return states


def fermion_matrix(op) -> np.ndarray:
    """Dense matrix of a FermionOperator via the ladder_matrix oracle."""
    dim = 1 << op.n_modes
    out = np.zeros((dim, dim), dtype=complex)
    for factors, coefficient in op.terms():
        mat = np.eye(dim)
        for mode, create in factors:
            mat = mat @ ladder_matrix(op.n_modes, mode, create)
        out += coefficient * mat
    return out


def random_number_conserving(n_spatial: int, rng: np.random.Generator):
    """Random Hermitian spin-number-conserving two-body FermionOperator."""
    from qve.fermion import CREATE, ANNIHILATE, FermionOperator
    n = 2 * n_spatial
    op = FermionOperator(n)
    spin = [m // n_spatial for m in range(n)]
    for p in range(n):
        for q in range(n):
            if spin[p] == spin[q]:
                v = rng.normal()
                op.add_term(((p, CREATE), (q, ANNIHILATE)), v / 2)
                op.add_term(((q, CREATE), (p, ANNIHILATE)), v / 2)
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    if spin[p] == spin[r] and spin[q] == spin[s]:
                        v = 0.3 * rng.normal()
                        op.add_term(
                            ((p, CREATE), (q, CREATE), (s, ANNIHILATE), (r, ANNIHILATE)), v / 2)
                        op.add_term(
                            ((r, CREATE), (s, CREATE), (q, ANNIHILATE), (p, ANNIHILATE)), v / 2)
    return op


# -- loop references for the array paths of fermion, mapping and pauli -----
#
# Each is the loop form its array path replaced, with the same arithmetic in
# the same order, so the tests require exact equality.


def build_hamiltonian_reference(h_so: np.ndarray, g_so: np.ndarray, e_offset: float):
    """`fermion.build_hamiltonian` by the generic normal-ordering rewrite:
    each tensor entry one `FermionOperator.add_term`, in C order."""
    from qve.fermion import ANNIHILATE, CREATE, FermionOperator
    from qve.pauli import COEFF_TOL
    op = FermionOperator.scalar(h_so.shape[0], e_offset)
    for p, q in np.argwhere(abs(h_so) >= COEFF_TOL).tolist():
        op.add_term(((p, CREATE), (q, ANNIHILATE)), h_so[p, q])
    half_g = 0.5 * g_so
    for p, q, r, s in np.argwhere(abs(half_g) >= COEFF_TOL).tolist():
        op.add_term(
            ((p, CREATE), (q, CREATE), (s, ANNIHILATE), (r, ANNIHILATE)), half_g[p, q, r, s])
    return op


def restricted_coo_reference(h, basis: np.ndarray):
    """`pauli._restricted_coo` one term at a time: each term's signs added
    to its x mask's values from 0, in term order."""
    from qve.pauli import parity_signs, word_phase
    by_x: dict[int, list[tuple[int, complex]]] = {}
    for (x, z), c in h._terms.items():
        by_x.setdefault(x, []).append((z, c * word_phase(x, z)))
    dim = len(basis)
    rows, cols, vals = [], [], []
    for x, zs in by_x.items():
        target = basis ^ x
        row = np.minimum(np.searchsorted(basis, target), dim - 1)
        col = np.flatnonzero(basis[row] == target)
        val = np.zeros(len(col), dtype=complex)
        for z, c in zs:
            val += c * parity_signs(basis[col], z)
        nonzero = val != 0
        rows.append(row[col[nonzero]])
        cols.append(col[nonzero])
        vals.append(val[nonzero])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def sector_basis_reference(n_spatial: int, n_alpha: int, n_beta: int, mapper: str,
                           taper: bool) -> np.ndarray:
    """`mapping.sector_basis` one occupation at a time: qubit i of each state
    is the parity of the occupied modes in row i of the encoding, and with
    taper the two parity qubits n_spatial - 1 and 2 n_spatial - 1 go."""
    from itertools import combinations

    from qve.mapping import _encoding_rows
    n = 2 * n_spatial
    rows = _encoding_rows(mapper, n)
    dropped = (n_spatial - 1, n - 1) if taper else ()
    states = []
    for alpha in combinations(range(n_spatial), n_alpha):
        for beta in combinations(range(n_spatial, n), n_beta):
            occupied = sum(1 << p for p in alpha + beta)
            bits = [(row & occupied).bit_count() & 1 for row in rows]
            kept = [b for q, b in enumerate(bits) if q not in dropped]
            states.append(sum(b << q for q, b in enumerate(kept)))
    return np.array(sorted(states))


def taper_two_qubits_reference(h, n_alpha: int, n_beta: int):
    """`mapping.taper_two_qubits` one `PauliTerm` at a time, in `h.terms()`
    order: the Zs on qubits n/2 - 1 and n - 1 become the alpha and total
    number parities, the two qubits are cut out of the masks, and each term
    is added to a dict that drops a word whose sum falls under COEFF_TOL."""
    from qve.pauli import COEFF_TOL, PauliSum, PauliTerm
    n = h.n_qubits
    q1, q2 = n // 2 - 1, n - 1
    kept = [q for q in range(n) if q not in (q1, q2)]

    def cut(mask):
        return sum(((mask >> q) & 1) << i for i, q in enumerate(kept))

    out: dict[tuple[int, int], complex] = {}
    for t in h.terms():
        c = t.coefficient
        if (t.z >> q1) & 1:
            c *= -1.0 if n_alpha % 2 else 1.0
        if (t.z >> q2) & 1:
            c *= -1.0 if (n_alpha + n_beta) % 2 else 1.0
        term = PauliTerm(n - 2, cut(t.x), cut(t.z), c)
        key = (term.x, term.z)
        c = out.get(key, 0.0) + term.coefficient
        if abs(c) < COEFF_TOL:
            out.pop(key, None)
        else:
            out[key] = c
    return PauliSum(n - 2, out)


def mapping_stats_reference(h) -> tuple[int, int, float]:
    """`mapping.mapping_stats` over `PauliTerm`s: qubits, terms and the mean
    weight, the identity counted."""
    terms = h.terms()
    avg = sum(t.weight for t in terms) / len(terms) if terms else 0.0
    return h.n_qubits, len(terms), avg
