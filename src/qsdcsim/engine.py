"""Dense density-matrix engine: the product-state build, jump operators,
master-equation RHS, the classical-RK4 stepper `_rk4`, the local Bloch read,
and a local depolarizing channel.  It takes and returns arrays, with no
per-node object: `product_state` builds rho from the theta and phi arrays
of all nodes, and `local_bloch` returns every node's (x, y, z) as one
(n, 3) array, read by one gather of the flattened rho through a flat index
cached per n (`_local_index`, 16 * n * 2^n bytes) and one sum over each
reduced entry's 2^(n-1) terms.  The per-node partial trace it replaces,
`partial_trace_single`, is its oracle in `tests/oracles.py`.

The master equation used throughout has no Hamiltonian term and only unitary
jump operators (one rotation-Z per node, one swap per edge):

    drho/dt = sum_k w_k * (C_k rho C_k^+ - 1/2 {C_k^+ C_k, rho})

With unitary C_k this collapses to sum_k w_k (C_k rho C_k^+ - rho), and both
conjugations are index operations on rho, so the production path builds no
2^n x 2^n operator:

  rotation-Z on node i: (C rho C^+)[a, b] = e^{i alpha_i (bit_i(a) - bit_i(b))}
      rho[a, b].  All pins fold into one phase mask per step,
      M = sum_i outer(e_i, conj(e_i)) - W_total with e_i = exp(i alpha_i bit_i)
      and W_total the summed pin and edge weights;
  swap on edge (i, j): rho[p][:, p] with p the bit exchange (`_swap_perm`).

Why half of rho suffices: M is Hermitian (M[b, a] = conj(M[a, b])) and a
swap is a unitary conjugation, so the RHS maps a Hermitian rho to a
Hermitian matrix, and so does each RK4 stage, a real multiple of it plus a
Hermitian input.  The entries below the diagonal are therefore the
conjugates of those above at every step, and carry nothing of their own.
The engine evolves only the upper triangle a <= b, packed row by row into a
vector v of K = 2^n (2^n + 1) / 2 entries (`pack`, `unpack`; the flat
positions of the triangle and of its transpose are cached per n,
`_triangle`, 16 * K bytes), and the unpacked state is exactly Hermitian by
construction, where evolving both triangles let them drift apart at
rounding level.  The mask is packed the same way, and a swap's packed entry
(a, b) is rho[p(a), p(b)]: v at (p(a), p(b)) when p(a) <= p(b), else the
conjugate of v at (p(b), p(a)).  One gather of concatenate((v, conj(v)))
through a packed index per edge (`swap_groups`) reads both cases.

So the RHS is M * v + sum_e w_e swap_e(v) (`IndexJumpSet`), at
O((n+m) 4^n / 2) per evaluation instead of O((n+m) 8^n), with 8 * K bytes
of packed index per edge (16.25 KiB at n = 6, 4 MiB at the 10-qubit cap),
built once per `consensus.StepPlan` and shared by the jump sets of its
steps.  `evolve` packs rho once, runs the RK4 steps on v and unpacks the
result to a matrix whose lower triangle is conj(upper) bit for bit, with a
real diagonal.  The whole-matrix flat gather it replaces, `flat_gather_rhs`,
and the explicit-matrix form (`rz_jump`, `swap_jump`, `pauli_on` and
`lindblad_rhs`, the full anticommutator form) live in `tests/oracles.py`,
the oracles the tests check the packed form against.  The local
depolarizing channel is a partial trace and replace on the unpacked matrix,
one copy per call however many nodes it takes.

`_rk4` is the package's one integrator: `evolve` runs it on packed rho, and
the `bloch` core on the linear flow that `consensus` states.  On a linear
flow y' = Ay one RK4 step is the degree-4 Taylor polynomial of e^{hA}, in
Horner form y + hA(y + h/2 A(y + h/3 A(y + h/4 Ay))); `_rk4` takes its four
stages as maps u -> cAu, and `evolve` scales `rhs` in place.  The master
equation maps Hermitian matrices to traceless ones, so the trace holds to
rounding with no re-projection between substeps, and the final
`DensityMatrix.check` in `evolve` (Cholesky: lambda_min > -1e-6) guards
positivity.

Tensor-factor convention: node 0 is the leftmost Kronecker factor, i.e. the
most significant bit of the computational-basis index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .netgraph import CommGraph

MAX_DENSE_QUBITS = 10


class EngineError(Exception):
    """Base class for quantum-engine failures."""


class CapacityError(EngineError):
    """Dense backend asked for more qubits than it can hold."""


class StateValidationError(EngineError):
    """A density matrix violated Hermiticity/trace/positivity tolerances."""


class IntegrationDivergedError(EngineError):
    """Integration produced an invalid state; reduce the substep."""


@dataclass
class DensityMatrix:
    """2^n x 2^n density matrix of the whole qubit network."""

    matrix: np.ndarray
    qubit_count: int

    HERMITICITY_TOL = 1e-9
    TRACE_TOL = 1e-9
    EIGEN_TOL = 1e-9

    def check(self, eigen_tol: float | None = None) -> None:
        m = self.matrix
        m_dag = m.conj().T
        if np.max(np.abs(m - m_dag)) > self.HERMITICITY_TOL:
            raise StateValidationError("state is not Hermitian within 1e-9")
        trace = np.trace(m)
        if abs(trace.real - 1.0) > self.TRACE_TOL or abs(trace.imag) > self.TRACE_TOL:
            raise StateValidationError(f"trace {trace} is not 1 within 1e-9")
        # lambda_min(H) > -tol exactly when H + tol*I has a Cholesky factor
        tol = self.EIGEN_TOL if eigen_tol is None else eigen_tol
        shifted = 0.5 * (m + m_dag)
        shifted.flat[::len(m) + 1] += tol
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            raise StateValidationError(f"state has an eigenvalue below {-tol:g}") from None


def product_state(thetas, phis) -> DensityMatrix:
    """Tensor product of the pure qubits cos(theta_i/2)|0> + e^{i phi_i}
    sin(theta_i/2)|1>, rho = (x)_i |q_i><q_i|, with theta_i in (0, pi) and
    phi_i in [0, pi/2] (the protocol's working quadrant)."""
    thetas, phis = np.asarray(thetas, dtype=float), np.asarray(phis, dtype=float)
    n = len(thetas)
    if n < 1:
        raise ValueError("need at least one qubit")
    if n > MAX_DENSE_QUBITS:
        raise CapacityError(
            f"{n} qubits exceed the dense backend cap of {MAX_DENSE_QUBITS}; "
            "use the bloch or phase backend"
        )
    bad = ~((0.0 < thetas) & (thetas < math.pi))  # a nan is bad too
    if bad.any():
        raise ValueError(f"theta must lie in (0, pi), got {thetas[bad][0]}")
    bad = ~((0.0 <= phis) & (phis <= math.pi / 2))
    if bad.any():
        raise ValueError(f"phi must lie in [0, pi/2], got {phis[bad][0]}")
    kets = np.empty((n, 2), dtype=complex)
    kets[:, 0] = np.cos(thetas / 2.0)
    kets[:, 1] = np.sin(thetas / 2.0) * np.exp(1j * phis)
    psi = kets[0]
    for ket in kets[1:]:
        psi = np.multiply.outer(psi, ket).ravel()
    rho = np.outer(psi, psi.conj())
    return DensityMatrix(matrix=rho, qubit_count=n)


@functools.lru_cache(maxsize=None)
def _node_bits(n: int) -> np.ndarray:
    """bits[a, i]: the bit of node i in basis index a, as a float."""
    shifts = n - 1 - np.arange(n)
    bits = ((np.arange(2**n)[:, np.newaxis] >> shifts) & 1).astype(float)
    bits.flags.writeable = False
    return bits


@functools.lru_cache(maxsize=None)
def _swap_perm(i: int, j: int, n: int) -> np.ndarray:
    """perm[a]: basis index a with the bits of nodes i and j exchanged, an
    involution (node 0 is the most significant bit)."""
    a = np.arange(2**n)
    shift_i, shift_j = n - 1 - i, n - 1 - j
    differ = ((a >> shift_i) ^ (a >> shift_j)) & 1
    perm = a ^ (differ << shift_i) ^ (differ << shift_j)
    perm.flags.writeable = False
    return perm


@functools.lru_cache(maxsize=None)
def _triangle(n: int) -> tuple:
    """(upper, lower): the flat positions in a 2^n x 2^n matrix of its upper
    triangle a <= b, row by row (the packed order), and of their transposes.
    The rows and columns are formed arithmetically, with no N x N mask."""
    dim = 2**n
    a = np.arange(dim)
    rows = np.repeat(a, dim - a)
    cols = np.arange(len(rows)) - (rows * (2 * dim - rows - 1)) // 2
    upper, lower = rows * dim + cols, cols * dim + rows
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


def pack(m: np.ndarray) -> np.ndarray:
    """The upper triangle a <= b of a 2^n x 2^n matrix, row by row."""
    return m.take(_triangle(len(m).bit_length() - 1)[0])


def unpack(v: np.ndarray) -> np.ndarray:
    """The Hermitian matrix whose packed upper triangle is `v`: its lower
    triangle is conj(upper), bit for bit, and its diagonal is real."""
    dim = (math.isqrt(8 * len(v) + 1) - 1) // 2
    upper, lower = _triangle(dim.bit_length() - 1)
    out = np.empty((dim, dim), dtype=v.dtype)
    flat = out.reshape(-1)
    flat[lower] = v.conj()
    flat[upper] = v
    flat[::dim + 1].imag = 0.0
    return out


def swap_groups(n: int, edges, weights) -> list:
    """The packed swap index of every edge (8 * K bytes each, K = 2^n (2^n + 1)
    / 2 the packed length), grouped by edge weight in edge order, so the
    state is scaled once per weight.  Packed entry (a, b) of a swap reads
    (p(a), p(b)) of `concatenate((v, conj(v)))`: at its packed position when
    p(a) <= p(b), else at K plus that of (p(b), p(a))."""
    dim = 2**n
    rows, cols = np.divmod(_triangle(n)[0], dim)
    size = len(rows)
    groups: dict[float, list] = {}
    for (i, j), w in zip(edges, weights):
        p = _swap_perm(i, j, n)
        pr, pc = p[rows], p[cols]
        # (lo, hi) sits at lo (2 dim - lo - 1) / 2 + hi in the packed order
        lo, hi = np.minimum(pr, pc), np.maximum(pr, pc)
        groups.setdefault(w, []).append(lo * (2 * dim - 1 - lo) // 2 + hi + size * (pr > pc))
    return list(groups.items())


class IndexJumpSet:
    """The protocol's jumps in index form on the packed upper triangle `v` of
    rho (`pack`): a rotation-Z pin of angle alpha_i and weight 1 on every
    node, a swap of weight w_e on every edge.

    `rhs` applies them as one packed phase mask and, per edge, one gather of
    `concatenate((v, conj(v)))` through its packed index: `swaps`, the
    `swap_groups` of the edges, shared if given, else built by the set.
    `tests/oracles.py` builds the explicit operators from the public `n`,
    `pin_angles`, `edges` and `weights`.
    """

    def __init__(self, n: int, pin_angles, edges, weights, swaps=None):
        self.n = n
        self.pin_angles = np.array(pin_angles, dtype=float)
        self.edges = tuple(edges)
        self.weights = tuple(weights)
        self.swaps = swap_groups(n, self.edges, self.weights) if swaps is None else swaps

    @property
    def total_weight(self) -> float:
        return sum([1.0] * self.n + list(self.weights))

    @functools.cached_property
    def _mask(self) -> np.ndarray:
        e = np.exp(1j * _node_bits(self.n) * self.pin_angles)
        return pack(e @ e.conj().T) - self.total_weight

    def rhs(self, v: np.ndarray) -> np.ndarray:
        out = self._mask * v
        both = np.empty(2 * len(v), dtype=v.dtype)
        both[:len(v)] = v
        np.conjugate(v, out=both[len(v):])
        for w, indices in self.swaps:
            scaled = both if w == 1.0 else w * both
            for index in indices:
                out += scaled.take(index)
        return out


def build_jump_set(graph: CommGraph, pin_angles, swaps=None) -> IndexJumpSet:
    """One rotation-Z jump per node (angle alpha_i) and one swap per edge;
    `swaps`, if given, must be the `swap_groups` of `graph`."""
    n = graph.node_count
    if len(pin_angles) != n:
        raise ValueError(f"need {n} pin angles, got {len(pin_angles)}")
    return IndexJumpSet(n, pin_angles, graph.edges, graph.weights, swaps)


def rk4_coefficients(h: float) -> tuple:
    """The Horner stage coefficients of one RK4 step of h, innermost first."""
    return (h / 4.0, h / 3.0, h / 2.0, h)


def _rk4(y: np.ndarray, stages, substeps: int) -> np.ndarray:
    """Classical RK4 on a linear y' = f(y), `substeps` steps of h, in Horner
    form y + hf(y + h/2 f(y + h/3 f(y + h/4 f(y)))).  `stages` are the four
    maps u -> c f(u) for c in `rk4_coefficients(h)`, innermost first; each
    must return a new array (the stage adds y to it in place)."""
    for _ in range(substeps):
        u = y
        for stage in stages:
            u = stage(u)
            u += y
        y = u
    return y


def _scaled_stage(rhs, c: float):
    """The stage u -> c * rhs(u), scaled in place."""
    def stage(u):
        u = rhs(u)
        u *= c
        return u
    return stage


def evolve(rho: DensityMatrix, jumps: IndexJumpSet, dt: float,
           substeps: int = 1) -> DensityMatrix:
    """`_rk4` on the packed upper triangle of rho (`pack`) with step
    dt/substeps, each stage `jumps.rhs` scaled in place, not re-Hermitized
    between substeps; the result is unpacked to an exactly Hermitian matrix,
    whose final `check` (eigenvalues above -1e-6) raises
    IntegrationDivergedError when the step left the state space.

    The upper triangle of rho.matrix defines the state: its lower triangle is
    not read, so a non-Hermitian input evolves as the Hermitian matrix with
    the same upper triangle, and `check` cannot flag it."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    stages = [_scaled_stage(jumps.rhs, c) for c in rk4_coefficients(dt / substeps)]
    v = _rk4(pack(rho.matrix), stages, substeps)
    out = DensityMatrix(matrix=unpack(v), qubit_count=rho.qubit_count)
    try:
        out.check(eigen_tol=1e-6)
    except StateValidationError as exc:
        raise IntegrationDivergedError(
            f"integration left the state space ({exc}); use more substeps"
        ) from exc
    return out


@functools.lru_cache(maxsize=None)
def _local_index(n: int) -> np.ndarray:
    """index[k, r, i]: the flat position in a 2^n x 2^n rho of entry r of
    the partial-trace sum that gives (rho_01, rho_10, rho_00, rho_11)[k] of
    node i's reduced state; r runs over the other nodes' bits in increasing
    order (node 0 is the most significant bit)."""
    r = np.arange(2 ** (n - 1))[:, np.newaxis]
    shifts = n - 1 - np.arange(n)
    base = ((r >> shifts) << (shifts + 1)) | (r & ((1 << shifts) - 1))  # node i's bit 0
    bit = 1 << shifts
    index = np.stack([(base + b * bit) * 2**n + base + c * bit
                      for b, c in ((0, 1), (1, 0), (0, 0), (1, 1))])
    index.flags.writeable = False
    return index


def local_bloch(rho: DensityMatrix) -> np.ndarray:
    """(x, y, z) of every node's reduced state, one row per node: one gather
    of the flattened rho through `_local_index`, each reduced entry summed
    over its 2^(n-1) terms in basis order."""
    r01, r10, r00, r11 = rho.matrix.take(_local_index(rho.qubit_count)).sum(axis=1)
    return np.column_stack(((r01 + r10).real, (1j * (r01 - r10)).real, (r00 - r11).real))


def depolarize_local(rho: DensityMatrix, nodes, p: float) -> DensityMatrix:
    """Local depolarizing channel of strength p on each node of the sequence
    `nodes`, in its order, written into one copy of rho.

    rho -> (1-p) rho + (p/3)(X rho X + Y rho Y + Z rho Z) on node i, applied
    as (1 - 4p/3) rho + (2p/3) Tr_i(rho) (x) I_i; the node's Bloch vector
    shrinks by 1 - 4p/3, other nodes are untouched.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"depolarizing strength must lie in [0,1], got {p}")
    if p == 0.0:
        return rho
    n = rho.qubit_count
    m = rho.matrix.copy()
    for i in nodes:
        if not (0 <= i < n):
            raise IndexError(f"node {i} out of range for {n} qubits")
        factor = (2**i, 2, 2 ** (n - i - 1))
        t = m.reshape(factor + factor)
        traced = (2.0 * p / 3.0) * (t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :])
        t *= 1.0 - 4.0 * p / 3.0
        t[:, 0, :, :, 0, :] += traced
        t[:, 1, :, :, 1, :] += traced
    return DensityMatrix(matrix=m, qubit_count=n)
