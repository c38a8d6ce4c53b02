"""Dense density-matrix engine: jump operators, master-equation RHS, RK4
time stepping, partial traces, Bloch extraction, and a local depolarizing
channel.

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
  swap on edge (i, j): rho[p][:, p] with p the bit exchange, i.e. rho with
      tensor axes i <-> j and n+i <-> n+j transposed.

So the RHS is M * rho + sum_e w_e swap_e(rho) (`IndexJumpSet`), at
O((n+m) 4^n) per evaluation instead of O((n+m) 8^n).  The local depolarizing
channel is a partial trace and replace.  `rz_jump`, `swap_jump`, `pauli_on`
and `lindblad_rhs` (the full anticommutator form on explicit matrices) are the
oracle the tests cross-check the index form against.

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

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)


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

    @classmethod
    def from_matrix(cls, m: np.ndarray, check: bool = True) -> "DensityMatrix":
        m = np.asarray(m, dtype=complex)
        dim = m.shape[0]
        n = int(round(math.log2(dim)))
        if m.shape != (dim, dim) or 2**n != dim:
            raise StateValidationError(f"dimension {m.shape} is not square 2^n")
        dm = cls(matrix=m, qubit_count=n)
        if check:
            dm.check()
        return dm

    def check(self, eigen_tol: float | None = None) -> None:
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > self.HERMITICITY_TOL:
            raise StateValidationError("state is not Hermitian within 1e-9")
        if abs(np.trace(m).real - 1.0) > self.TRACE_TOL or abs(np.trace(m).imag) > self.TRACE_TOL:
            raise StateValidationError(f"trace {np.trace(m)} is not 1 within 1e-9")
        tol = self.EIGEN_TOL if eigen_tol is None else eigen_tol
        if np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() < -tol:
            raise StateValidationError("state has an eigenvalue below -1e-9")

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def to_json_dict(self) -> dict:
        """Debug dump: dim plus flattened [re, im] pairs, row major."""
        flat = self.matrix.reshape(-1)
        return {
            "dim": int(self.matrix.shape[0]),
            "entries": [[float(v.real), float(v.imag)] for v in flat],
        }


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
        psi = np.kron(psi, spec.ket())
    rho = np.outer(psi, psi.conj())
    return DensityMatrix(matrix=rho, qubit_count=n)


def _embed_single(op2: np.ndarray, i: int, n: int) -> np.ndarray:
    if not (0 <= i < n):
        raise IndexError(f"node {i} out of range for {n} qubits")
    m = np.eye(2**i, dtype=complex)
    m = np.kron(m, op2)
    return np.kron(m, np.eye(2 ** (n - i - 1), dtype=complex))


def pauli_on(i: int, which: str, n: int) -> np.ndarray:
    """sigma_{x|y|z} acting on tensor factor i of an n-qubit space."""
    table = {"x": PAULI_X, "X": PAULI_X, "y": PAULI_Y, "Y": PAULI_Y,
             "z": PAULI_Z, "Z": PAULI_Z}
    return _embed_single(table[which], i, n)


def rz_jump(i: int, alpha: float, n: int) -> np.ndarray:
    """Rotation-Z jump on node i: diag(e^{-i a/2}, e^{i a/2}) embedded in 2^n."""
    rz = np.array(
        [[np.exp(-0.5j * alpha), 0.0], [0.0, np.exp(0.5j * alpha)]], dtype=complex
    )
    return _embed_single(rz, i, n)


def swap_jump(i: int, j: int, n: int) -> np.ndarray:
    """Permutation matrix exchanging tensor factors i and j."""
    if i == j:
        raise IndexError("swap requires two distinct nodes")
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"swap ({i},{j}) out of range for {n} qubits")
    dim = 2**n
    perm = np.zeros(dim, dtype=np.intp)
    # Bit k of the basis index corresponds to node k counted from the left
    # (most significant side), matching the Kronecker convention above.
    shift_i = n - 1 - i
    shift_j = n - 1 - j
    for idx in range(dim):
        bi = (idx >> shift_i) & 1
        bj = (idx >> shift_j) & 1
        out = idx & ~(1 << shift_i) & ~(1 << shift_j)
        out |= bj << shift_i
        out |= bi << shift_j
        perm[idx] = out
    m = np.zeros((dim, dim), dtype=complex)
    m[perm, np.arange(dim)] = 1.0
    return m


@dataclass
class JumpSet:
    """Explicit jump operators: per-node pins, per-edge swaps.

    Each entry is (operator, rate weight).  Operators must be unitary; edge
    weights act as dissipator rates so weighted graphs reduce to the weighted
    coupling a_ij (x_j - x_i) on Bloch components.  Its `rhs` is the full
    anticommutator form, so a hand-built set evolves as the oracle does.
    """

    pin_ops: list
    swap_ops: list

    UNITARITY_TOL = 1e-12

    def __post_init__(self):
        for op, _ in self.pin_ops + self.swap_ops:
            dim = op.shape[0]
            if np.max(np.abs(op.conj().T @ op - np.eye(dim))) > self.UNITARITY_TOL:
                raise ValueError("jump operator is not unitary within 1e-12")

    def all_ops(self) -> list:
        return self.pin_ops + self.swap_ops

    @property
    def total_weight(self) -> float:
        return sum(w for _, w in self.all_ops())

    def rhs(self, rho: np.ndarray) -> np.ndarray:
        return _rhs_raw(rho, self.all_ops())


@functools.lru_cache(maxsize=None)
def _node_bits(n: int) -> np.ndarray:
    """bits[a, i]: the bit of node i in basis index a, as a float."""
    shifts = n - 1 - np.arange(n)
    bits = ((np.arange(2**n)[:, np.newaxis] >> shifts) & 1).astype(float)
    bits.flags.writeable = False
    return bits


# Transposing rho.reshape(_swap_shape(i, j, n)) by these axes exchanges
# factors i and j of both the row and the column index.
_SWAP_AXES = (0, 3, 2, 1, 4, 5, 8, 7, 6, 9)


@functools.lru_cache(maxsize=None)
def _swap_shape(i: int, j: int, n: int) -> tuple[int, ...]:
    """View of a 2^n x 2^n matrix whose axes 1, 3 (6, 8) are factors i < j of
    the row (column) index; the other axes merge the factors between them."""
    factor = (2**i, 2, 2 ** (j - i - 1), 2, 2 ** (n - j - 1))
    return factor + factor


class IndexJumpSet:
    """The protocol's jumps in index form: a rotation-Z pin of angle alpha_i
    and weight 1 on every node, a swap of weight w_e on every edge.

    `rhs` applies them as one phase mask and in-place axis swaps.  `all_ops`
    builds the explicit (rz_jump / swap_jump, weight) pairs on first use, for
    the oracle `lindblad_rhs`.
    """

    def __init__(self, n: int, pin_angles, edges, weights):
        self.n = n
        self.pin_angles = np.array(pin_angles, dtype=float)
        self.edges = tuple(edges)
        self.weights = tuple(weights)

    @property
    def total_weight(self) -> float:
        return sum([1.0] * self.n + list(self.weights))

    def all_ops(self) -> list:
        return self._explicit.all_ops()

    @functools.cached_property
    def _explicit(self) -> JumpSet:
        n = self.n
        return JumpSet(
            pin_ops=[(rz_jump(i, float(a), n), 1.0) for i, a in enumerate(self.pin_angles)],
            swap_ops=[(swap_jump(i, j, n), w) for (i, j), w in zip(self.edges, self.weights)],
        )

    @functools.cached_property
    def _mask(self) -> np.ndarray:
        e = np.exp(1j * _node_bits(self.n) * self.pin_angles)
        return e @ e.conj().T - self.total_weight

    @functools.cached_property
    def _swap_groups(self) -> list:
        """Swap shapes grouped by edge weight, so rho is scaled once per weight."""
        groups: dict[float, list] = {}
        for (i, j), w in zip(self.edges, self.weights):
            groups.setdefault(w, []).append(_swap_shape(min(i, j), max(i, j), self.n))
        return list(groups.items())

    def rhs(self, rho: np.ndarray) -> np.ndarray:
        out = self._mask * rho
        for w, shapes in self._swap_groups:
            scaled = rho if w == 1.0 else w * rho
            for shape in shapes:
                view = out.reshape(shape)
                np.add(view, scaled.reshape(shape).transpose(_SWAP_AXES), out=view)
        return out


def build_jump_set(graph: CommGraph, pin_angles) -> IndexJumpSet:
    """One rotation-Z jump per node (angle alpha_i) and one swap per edge."""
    n = graph.node_count
    if len(pin_angles) != n:
        raise ValueError(f"need {n} pin angles, got {len(pin_angles)}")
    if n > MAX_DENSE_QUBITS:
        raise CapacityError(
            f"{n} qubits exceed the dense backend cap of {MAX_DENSE_QUBITS}; "
            "use the bloch or phase backend"
        )
    return IndexJumpSet(n, pin_angles, graph.edges, graph.weights)


def _rhs_raw(rho: np.ndarray, ops) -> np.ndarray:
    """sum_k w_k (C rho C^+ - 1/2 {C^+C, rho}) for the given (C, w) pairs."""
    out = np.zeros_like(rho)
    for c, w in ops:
        c_dag = c.conj().T
        cc = c_dag @ c
        out += w * (c @ rho @ c_dag - 0.5 * (cc @ rho + rho @ cc))
    return out


def lindblad_rhs(rho, jumps: JumpSet | IndexJumpSet) -> np.ndarray:
    """Master-equation right-hand side on the explicit operators (the oracle);
    traceless and Hermitian."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    ops = jumps.all_ops()
    if ops and ops[0][0].shape != m.shape:
        raise ValueError(
            f"jump dimension {ops[0][0].shape} does not match state {m.shape}"
        )
    return _rhs_raw(m, ops)


def _rk4_step(rho: np.ndarray, rhs, h: float) -> np.ndarray:
    k1 = rhs(rho)
    k2 = rhs(rho + 0.5 * h * k1)
    k3 = rhs(rho + 0.5 * h * k2)
    k4 = rhs(rho + h * k3)
    out = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # Re-Hermitize and renormalize once per substep to hold the invariants
    # over long runs.
    out = 0.5 * (out + out.conj().T)
    return out / np.trace(out).real


def evolve(rho: DensityMatrix, jumps: JumpSet | IndexJumpSet, dt: float,
           substeps: int = 1) -> DensityMatrix:
    """Classical RK4 on the matrix ODE with step dt/substeps."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    m = rho.matrix
    h = dt / substeps
    for _ in range(substeps):
        m = _rk4_step(m, jumps.rhs, h)
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
    t = rho.matrix.reshape((2,) * (2 * n))
    # Trace out every factor except i: contract row index k with column
    # index n+k for all k != i.
    keep_row, keep_col = i, n + i
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    idx = [""] * (2 * n)
    pos = 0
    for k in range(n):
        if k == i:
            continue
        idx[k] = letters[pos]
        idx[n + k] = letters[pos]
        pos += 1
    idx[keep_row] = letters[pos]
    idx[keep_col] = letters[pos + 1]
    spec = "".join(idx) + "->" + letters[pos] + letters[pos + 1]
    red = np.einsum(spec, t)
    return DensityMatrix(matrix=red, qubit_count=1)


def bloch_of(rho2: DensityMatrix) -> BlochVector:
    """Pauli expectations of a 2x2 density matrix."""
    m = rho2.matrix if isinstance(rho2, DensityMatrix) else np.asarray(rho2)
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
