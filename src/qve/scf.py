"""Restricted Hartree-Fock, MO transformation, and active-space reduction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only: the integrals load with the geometry path
    from .basis import IntegralSet

MAX_SCF_ITERATIONS = 200
ENERGY_TOL = 1e-10
DENSITY_TOL = 1e-8
S_EIGENVALUE_FLOOR = 1e-10


class SCFError(ValueError):
    pass


class LinearDependenceError(SCFError):
    pass


class ConvergenceError(SCFError):
    pass


@dataclass(frozen=True)
class SCFResult:
    mo_coefficients: np.ndarray
    orbital_energies: np.ndarray
    total_energy: float
    density: np.ndarray
    converged: bool
    iterations: int


@dataclass(frozen=True)
class ActiveSpaceProblem:
    """Spatial-orbital problem the quantum pipeline consumes.

    h2 is physicist notation <pq|rs>; e_offset folds nuclear repulsion and
    the frozen-core energy.
    """

    n_spatial: int
    n_alpha: int
    n_beta: int
    h1: np.ndarray
    h2: np.ndarray
    e_offset: float

    def __post_init__(self):
        n = self.n_spatial
        if self.h1.shape != (n, n) or self.h2.shape != (n, n, n, n):
            raise SCFError("active-space tensor shape mismatch")
        if self.n_alpha + self.n_beta > 2 * n:
            raise SCFError("electron count exceeds active-space capacity")


def _orthogonalizer(s: np.ndarray) -> np.ndarray:
    """Symmetric S^{-1/2}; flags near-singular overlap."""
    evals, evecs = np.linalg.eigh(s)
    if evals.min() < S_EIGENVALUE_FLOOR:
        raise LinearDependenceError(
            f"overlap eigenvalue {evals.min():.3e} below {S_EIGENVALUE_FLOOR}")
    return evecs @ np.diag(evals ** -0.5) @ evecs.T


def run_rhf(integrals: IntegralSet, n_electrons: int) -> SCFResult:
    """Roothaan fixed point with a core-Hamiltonian guess, no damping and no DIIS."""
    if n_electrons % 2:
        raise SCFError("restricted HF needs an even electron count")
    n_ao = integrals.overlap.shape[0]
    n_occ = n_electrons // 2
    if n_occ > n_ao:
        raise SCFError("more electron pairs than basis functions")

    h_core = integrals.kinetic + integrals.nuclear
    x = _orthogonalizer(integrals.overlap)
    g = integrals.eri  # physicist <pq|rs>

    def solve_fock(f):
        fp = x.T @ f @ x
        eps, cp = np.linalg.eigh(fp)
        c = x @ cp
        d = 2.0 * c[:, :n_occ] @ c[:, :n_occ].T
        return eps, c, d

    def fock_from_density(d):
        # J_pq = <pr|qs> D_rs ; K_pq = <pr|sq> D_rs
        j = np.einsum("prqs,rs->pq", g, d)
        k = np.einsum("prsq,rs->pq", g, d)
        return h_core + j - 0.5 * k

    def electronic_energy(d, f):
        return 0.5 * float(np.sum(d * (h_core + f)))

    eps, c, d = solve_fock(h_core)
    f = fock_from_density(d)
    e_prev = electronic_energy(d, f)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_SCF_ITERATIONS + 1):
        eps, c, d_new = solve_fock(f)
        # the Fock matrix that scores d_new is the one the next step diagonalizes
        f = fock_from_density(d_new)
        e = electronic_energy(d_new, f)
        delta_e = e - e_prev
        rms_d = float(np.sqrt(np.mean((d_new - d) ** 2)))
        d, e_prev = d_new, e
        if abs(delta_e) < ENERGY_TOL and rms_d < DENSITY_TOL:
            converged = True
            break
    return SCFResult(c, eps, e_prev + integrals.e_nuc, d, converged, iterations)


def mo_transform(integrals: IntegralSet, c: np.ndarray, active_columns):
    """AO -> MO one- and two-electron integrals over the chosen columns.

    Output h2 stays in physicist notation. The four-index transform is staged
    one index at a time (O(N^5)).
    """
    cols = list(active_columns)
    ca = c[:, cols]
    h1 = ca.T @ (integrals.kinetic + integrals.nuclear) @ ca
    g = integrals.eri
    g = np.einsum("ap,abcd->pbcd", ca, g, optimize=True)
    g = np.einsum("bq,pbcd->pqcd", ca, g, optimize=True)
    g = np.einsum("cr,pqcd->pqrd", ca, g, optimize=True)
    g = np.einsum("ds,pqrd->pqrs", ca, g, optimize=True)
    return h1, g


def active_space_reduce(h1_full: np.ndarray, h2_full: np.ndarray,
                        occupied_core, active,
                        n_active_alpha: int, n_active_beta: int,
                        e_nuc: float) -> ActiveSpaceProblem:
    """Freeze doubly occupied core orbitals into e_offset and a mean field."""
    core = list(occupied_core)
    act = list(active)
    if set(core) & set(act):
        raise SCFError("core and active orbital sets overlap")
    e_offset = e_nuc
    for c in core:
        e_offset += 2.0 * h1_full[c, c]
    for c in core:
        for cp in core:
            e_offset += 2.0 * h2_full[c, cp, c, cp] - h2_full[c, cp, cp, c]
    aa = np.ix_(act, act)
    # core orbitals add one at a time in core order: fixture text shows the rounding
    h1 = h1_full[aa] + sum(2.0 * h2_full[:, c, :, c][aa] - h2_full[:, c, c, :][aa]
                           for c in core)
    h2 = h2_full[np.ix_(act, act, act, act)]
    return ActiveSpaceProblem(len(act), n_active_alpha, n_active_beta, h1, h2, e_offset)


def spin_orbital_expand(problem: ActiveSpaceProblem):
    """Blocked spin-orbital tensors: alpha modes [0, n), beta modes [n, 2n)."""
    # <PQ|RS> is nonzero only when spin(P) = spin(R) and spin(Q) = spin(S)
    same_spin = np.einsum("pr,qs->pqrs", np.eye(2), np.eye(2))
    return np.kron(np.eye(2), problem.h1), np.kron(same_spin, problem.h2)
