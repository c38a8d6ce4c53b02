"""Test oracles, which no run executes: the master equation on explicit
2^n x 2^n operators (`lindblad_rhs`, against which the index form of
`engine.IndexJumpSet` is checked through `explicit`), the per-node partial
trace (`partial_trace_single`, against which the one-gather
`engine.local_bloch` is checked), the instantaneous-pinner reference
equations of the `bloch`/`phase` core, and the gate-level measurement
circuit."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qsdcsim.engine import DensityMatrix, IndexJumpSet, StateValidationError, _swap_perm
from qsdcsim.measurement import BASES, _clamped, _component
from qsdcsim.netgraph import CommGraph, adjacency_matrix, build_graph

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_S_DAG = np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex)


def from_matrix(m: np.ndarray, check: bool = True) -> DensityMatrix:
    """A `DensityMatrix` of a 2^n x 2^n array, checked unless `check` is false."""
    m = np.asarray(m, dtype=complex)
    dim = m.shape[0]
    n = int(round(math.log2(dim)))
    if m.shape != (dim, dim) or 2**n != dim:
        raise StateValidationError(f"dimension {m.shape} is not square 2^n")
    dm = DensityMatrix(matrix=m, qubit_count=n)
    if check:
        dm.check()
    return dm


def _embed_single(op2: np.ndarray, i: int, n: int) -> np.ndarray:
    if not (0 <= i < n):
        raise IndexError(f"node {i} out of range for {n} qubits")
    return np.kron(np.kron(np.eye(2**i, dtype=complex), op2),
                   np.eye(2 ** (n - i - 1), dtype=complex))


def pauli_on(i: int, which: str, n: int) -> np.ndarray:
    """sigma_{x|y|z} acting on tensor factor i of an n-qubit space."""
    return _embed_single({"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}[which.lower()], i, n)


def rz_jump(i: int, alpha: float, n: int) -> np.ndarray:
    """Rotation-Z jump on node i: diag(e^{-i a/2}, e^{i a/2}) embedded in 2^n."""
    return _embed_single(np.diag([np.exp(-0.5j * alpha), np.exp(0.5j * alpha)]), i, n)


def swap_jump(i: int, j: int, n: int) -> np.ndarray:
    """Permutation matrix exchanging tensor factors i and j."""
    if i == j:
        raise IndexError("swap requires two distinct nodes")
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"swap ({i},{j}) out of range for {n} qubits")
    return np.eye(2**n, dtype=complex)[:, _swap_perm(i, j, n)]


@dataclass
class JumpSet:
    """Explicit jump operators: per-node pins, per-edge swaps.

    Each entry is (operator, rate weight).  Operators must be unitary; edge
    weights act as dissipator rates so weighted graphs reduce to the weighted
    coupling a_ij (x_j - x_i) on Bloch components.  `rhs` is the full
    anticommutator form, which `engine.evolve` runs as it runs the index form.
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


def explicit(jumps: IndexJumpSet) -> JumpSet:
    """The (rz_jump, 1) and (swap_jump, w_e) pairs of an index-form set."""
    n = jumps.n
    return JumpSet(
        pin_ops=[(rz_jump(i, float(a), n), 1.0) for i, a in enumerate(jumps.pin_angles)],
        swap_ops=[(swap_jump(i, j, n), w) for (i, j), w in zip(jumps.edges, jumps.weights)],
    )


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
    if isinstance(jumps, IndexJumpSet):
        jumps = explicit(jumps)
    ops = jumps.all_ops()
    if ops and ops[0][0].shape != m.shape:
        raise ValueError(f"jump dimension {ops[0][0].shape} does not match state {m.shape}")
    return _rhs_raw(m, ops)


def partial_trace_single(rho: DensityMatrix, i: int) -> DensityMatrix:
    """Reduced 2x2 state of qubit i."""
    n = rho.qubit_count
    if not (0 <= i < n):
        raise IndexError(f"node {i} out of range for {n} qubits")
    # rows and columns split as (qubits before i, qubit i, qubits after i)
    factor = (2**i, 2, 2 ** (n - i - 1))
    red = np.einsum("aibajb->ij", rho.matrix.reshape(factor + factor))
    return DensityMatrix(matrix=red, qubit_count=1)


def polar_bloch(r: float, theta: float, phi: float) -> np.ndarray:
    """Bloch components (x, y, z) of length r at polar angle theta and phase phi."""
    return np.array([r * math.sin(theta) * math.cos(phi), r * math.sin(theta) * math.sin(phi),
                     r * math.cos(theta)])


def bloch_rhs(x, y, z, pinners, graph: CommGraph):
    """Exact local-expectation dynamics in instantaneous-pinner form:

        dx_i = s_i cos(pt_i) - x_i + sum_j a_ij (x_j - x_i)
        dy_i = s_i sin(pt_i) - y_i + sum_j a_ij (y_j - y_i)
        dz_i = sum_j a_ij (z_j - z_i)

    with s_i = sqrt(x_i^2 + y_i^2).  pinners=None drops the pinning term.
    """
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    a = adjacency_matrix(graph)
    deg = a.sum(axis=1)
    dx = a @ x - deg * x
    dy = a @ y - deg * y
    dz = a @ z - deg * z
    if pinners is not None:
        pt = np.asarray(pinners, dtype=float)
        s = np.hypot(x, y)
        dx += s * np.cos(pt) - x
        dy += s * np.sin(pt) - y
    return dx, dy, dz


def phase_rhs(phi, s, pinners, graph: CommGraph) -> np.ndarray:
    """Phase dynamics with coherence-ratio coupling weights:

        dphi_i = sin(pt_i - phi_i) + sum_j a_ij (s_j / s_i) sin(phi_j - phi_i)

    With all s equal this is the unit-weight pinned oscillator network.
    """
    phi = np.asarray(phi, dtype=float)
    s = np.asarray(s, dtype=float)
    for i, si in enumerate(s):
        if si <= 0.0:
            raise ZeroDivisionError(f"node {i} has non-positive coherence s={si}")
    a = adjacency_matrix(graph)
    pt = np.asarray(pinners, dtype=float)
    dphi = np.sin(pt - phi)
    diff = np.subtract.outer(phi, phi)  # diff[i, j] = phi_i - phi_j
    ratio = np.divide.outer(1.0 / s, 1.0 / s)  # ratio[i, j] = s_j / s_i
    dphi += np.sum(a * ratio * np.sin(-diff), axis=1)
    return dphi


def lyapunov(phis, pinner_star: float) -> float:
    """V = 1/2 sum_i (phi_i - phi*)^2 against a common pinner."""
    z = np.asarray(phis, dtype=float) - float(pinner_star)
    return float(0.5 * np.dot(z, z))


def random_connected_graph(rng, n):
    """A random spanning tree on n nodes plus up to n random chords."""
    edges = set()
    for v in range(1, n):
        edges.add((int(rng.integers(0, v)), v))
    for _ in range(n):
        a, b = rng.integers(0, n, 2)
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return build_graph(n, sorted(edges))


def random_angles(rng, n, margin=0.1):
    """The thetas in (margin, pi - margin) and phis in (0, pi/2) of n
    qubits, drawn theta then phi node by node."""
    pairs = [(rng.uniform(margin, math.pi - margin), rng.uniform(0.0, math.pi / 2))
             for _ in range(n)]
    return np.array(pairs).reshape(n, 2).T


def exact_probability(bloch, basis: str) -> float:
    """Infinite-shot limit of p0 for the chosen measurement circuit, of the
    qubit with Bloch components `bloch` = (x, y, z)."""
    return float(0.5 * (1.0 + _clamped(_component(bloch, basis))))


def _gate_level_p0(bloch, basis: str) -> float:
    """Apply the actual basis-change circuit to the 2x2 state with Bloch
    components `bloch` = (x, y, z), then read the Z-basis 0 probability: the
    oracle for the closed form p0 = (1 + e)/2."""
    x, y, z = bloch
    rho = 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=complex)
    if basis == "X":
        u = _H
    elif basis == "Y":
        u = _H @ _S_DAG
    elif basis == "Z":
        u = np.eye(2, dtype=complex)
    else:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    rot = u @ rho @ u.conj().T
    return float(rot[0, 0].real)
