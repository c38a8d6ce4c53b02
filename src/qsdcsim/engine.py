"""Dense density-matrix engine: jump operators, master-equation RHS, the
classical-RK4 stepper `_rk4`, partial traces, Bloch extraction, and a local
depolarizing channel.

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
  swap on edge (i, j): rho[p][:, p] with p the bit exchange (`_swap_perm`),
      one gather of the flattened rho through the flat index p[a] 2^n + p[b].

So the RHS is M * rho + sum_e w_e swap_e(rho) (`IndexJumpSet`), at
O((n+m) 4^n) per evaluation instead of O((n+m) 8^n), with 8 * 4^n bytes of
flat index per edge (32 KiB at n = 6, 8 MiB at the 10-qubit cap), built once
per `consensus.StepPlan` and shared by the jump sets of its steps.  The local
depolarizing channel is a partial trace and replace.  The explicit-matrix
form (`rz_jump`, `swap_jump`, `pauli_on` and `lindblad_rhs`, the full
anticommutator form) lives in `tests/oracles.py`, the oracle the tests check
the index form against.

`_rk4` is the package's one integrator: `evolve` runs it on rho, the
`bloch`/`phase` core of `consensus` on w' = A w with A the n x n matrix of
the `StepPlan` that a run or an event segment builds.  On a linear flow
one RK4 step is the degree-4 Taylor polynomial of e^{hA}, evaluated in
Horner form y + hA(y + h/2 A(y + h/3 A(y + h/4 Ay))); `_rk4` takes its four
stages as maps u -> cAu, so the bloch core passes pre-scaled matrices and
`evolve` scales `rhs` in place.  The master equation's A maps
Hermitian matrices to traceless Hermitian ones, so trace and Hermiticity
hold to rounding with no re-projection between substeps, and the final
`DensityMatrix.check` in `evolve` (Cholesky: lambda_min > -1e-6) guards it.

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


@dataclass(frozen=True)
class PureQubitSpec:
    """Polar coordinates of a pure qubit: cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.

    theta in (0, pi), phi in [0, pi/2] (the protocol's working quadrant).
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 < self.theta < math.pi):
            raise ValueError(f"theta must lie in (0, pi), got {self.theta}")
        if not (0.0 <= self.phi <= math.pi / 2):
            raise ValueError(f"phi must lie in [0, pi/2], got {self.phi}")

    def ket(self) -> np.ndarray:
        return np.array(
            [math.cos(self.theta / 2.0),
             math.sin(self.theta / 2.0) * np.exp(1j * self.phi)],
            dtype=complex,
        )


@dataclass(frozen=True)
class BlochVector:
    """Pauli expectations (x, y, z) of a single-qubit state."""

    x: float
    y: float
    z: float

    @property
    def r(self) -> float:
        return math.sqrt(self.x**2 + self.y**2 + self.z**2)

    @property
    def s(self) -> float:
        """In-plane coherence magnitude r*sin(theta)."""
        return math.sqrt(self.x**2 + self.y**2)

    @property
    def theta(self) -> float:
        r = self.r
        if r == 0.0:
            return math.pi / 2
        return math.acos(max(-1.0, min(1.0, self.z / r)))

    @property
    def phi(self) -> float:
        return math.atan2(self.y, self.x)

    @classmethod
    def from_polar(cls, r: float, theta: float, phi: float) -> "BlochVector":
        return cls(
            x=r * math.sin(theta) * math.cos(phi),
            y=r * math.sin(theta) * math.sin(phi),
            z=r * math.cos(theta),
        )


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


def product_state(specs) -> DensityMatrix:
    """Tensor product of pure qubits, rho = (x)_i |q_i><q_i|."""
    specs = list(specs)
    n = len(specs)
    if n < 1:
        raise ValueError("need at least one qubit")
    if n > MAX_DENSE_QUBITS:
        raise CapacityError(
            f"{n} qubits exceed the dense backend cap of {MAX_DENSE_QUBITS}; "
            "use the bloch or phase backend"
        )
    psi = specs[0].ket()
    for spec in specs[1:]:
        psi = np.multiply.outer(psi, spec.ket()).ravel()
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


def swap_groups(n: int, edges, weights) -> list:
    """The flat swap index of every edge (8 * 4^n bytes each), grouped by
    edge weight in edge order, so rho is scaled once per weight."""
    groups: dict[float, list] = {}
    for (i, j), w in zip(edges, weights):
        p = _swap_perm(i, j, n)
        groups.setdefault(w, []).append((p[:, np.newaxis] * len(p) + p).ravel())
    return list(groups.items())


class IndexJumpSet:
    """The protocol's jumps in index form: a rotation-Z pin of angle alpha_i
    and weight 1 on every node, a swap of weight w_e on every edge.

    `rhs` applies them as one phase mask and, per edge, one gather of the
    flattened rho through its flat index: `swaps`, the `swap_groups` of the
    edges, shared if given, else built on first use and held by the set.
    `tests/oracles.py` builds the explicit operators from the public `n`,
    `pin_angles`, `edges` and `weights`.
    """

    def __init__(self, n: int, pin_angles, edges, weights, swaps=None):
        self.n = n
        self.pin_angles = np.array(pin_angles, dtype=float)
        self.edges = tuple(edges)
        self.weights = tuple(weights)
        if swaps is not None:
            self._swap_groups = swaps

    @property
    def total_weight(self) -> float:
        return sum([1.0] * self.n + list(self.weights))

    @functools.cached_property
    def _mask(self) -> np.ndarray:
        e = np.exp(1j * _node_bits(self.n) * self.pin_angles)
        return e @ e.conj().T - self.total_weight

    @functools.cached_property
    def _swap_groups(self) -> list:
        return swap_groups(self.n, self.edges, self.weights)

    def rhs(self, rho: np.ndarray) -> np.ndarray:
        out = self._mask * rho
        flat = out.reshape(-1)  # a view: out is C-ordered, as the mask is
        for w, indices in self._swap_groups:
            scaled = rho if w == 1.0 else w * rho
            for index in indices:
                flat += scaled.take(index)
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
    """`_rk4` on the matrix ODE with step dt/substeps, each stage `jumps.rhs`
    scaled in place, not re-Hermitized between substeps; the final `check`
    (eigenvalues above -1e-6) raises IntegrationDivergedError when the step
    left the state space."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    stages = [_scaled_stage(jumps.rhs, c) for c in rk4_coefficients(dt / substeps)]
    m = _rk4(rho.matrix, stages, substeps)
    out = DensityMatrix(matrix=m, qubit_count=rho.qubit_count)
    try:
        out.check(eigen_tol=1e-6)
    except StateValidationError as exc:
        raise IntegrationDivergedError(
            f"integration left the state space ({exc}); use more substeps"
        ) from exc
    return out


def partial_trace_single(rho: DensityMatrix, i: int) -> DensityMatrix:
    """Reduced 2x2 state of qubit i."""
    n = rho.qubit_count
    if not (0 <= i < n):
        raise IndexError(f"node {i} out of range for {n} qubits")
    # rows and columns split as (qubits before i, qubit i, qubits after i)
    factor = (2**i, 2, 2 ** (n - i - 1))
    red = np.einsum("aibajb->ij", rho.matrix.reshape(factor + factor))
    return DensityMatrix(matrix=red, qubit_count=1)


def bloch_of(rho2: DensityMatrix) -> BlochVector:
    """Pauli expectations of a 2x2 density matrix."""
    m = rho2.matrix
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 state, got {m.shape}")
    x = float((m[0, 1] + m[1, 0]).real)
    y = float((1j * (m[0, 1] - m[1, 0])).real)
    z = float((m[0, 0] - m[1, 1]).real)
    return BlochVector(x=x, y=y, z=z)


def local_bloch(rho: DensityMatrix, i: int) -> BlochVector:
    """Bloch vector of node i's reduced state."""
    return bloch_of(partial_trace_single(rho, i))


def depolarize_local(rho: DensityMatrix, i: int, p: float) -> DensityMatrix:
    """Local depolarizing channel on node i.

    rho -> (1-p) rho + (p/3)(X rho X + Y rho Y + Z rho Z), applied as
    (1 - 4p/3) rho + (2p/3) Tr_i(rho) (x) I_i; the node's Bloch vector
    shrinks by 1 - 4p/3, other nodes are untouched.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"depolarizing strength must lie in [0,1], got {p}")
    if p == 0.0:
        return rho
    n = rho.qubit_count
    if not (0 <= i < n):
        raise IndexError(f"node {i} out of range for {n} qubits")
    factor = (2**i, 2, 2 ** (n - i - 1))
    t = rho.matrix.reshape(factor + factor)
    traced = (2.0 * p / 3.0) * (t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :])
    out = (1.0 - 4.0 * p / 3.0) * t
    out[:, 0, :, :, 0, :] += traced
    out[:, 1, :, :, 1, :] += traced
    return DensityMatrix(matrix=out.reshape(rho.matrix.shape), qubit_count=n)
