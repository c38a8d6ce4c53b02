"""Communication-graph structures and the spectral utilities built on them.

The consensus layer couples nodes along an undirected weighted graph; the
convergence-rate bound needs the smallest eigenvalue of matrices of the form
``sigma1*I + sigma2*B W B^T``.  Everything here is dense and small (a few
dozen nodes at most); the spectra come from numpy's symmetric eigensolvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GraphValidationError(ValueError):
    """Raised when a graph description violates a structural constraint;
    `field` names the input at fault: "nodes", "edges" or "weights"."""

    def __init__(self, message: str, field: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class CommGraph:
    """Undirected weighted communication graph.

    Edges are stored as (i, j) pairs with i < j, in insertion order; that
    order fixes the incidence-matrix columns.  Weights are strictly positive
    and default to 1.0.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]

    def subgraph(self, keep: set[int]) -> "CommGraph":
        """Induced subgraph on `keep`, nodes relabeled 0..len(keep)-1."""
        order = sorted(keep)
        relabel = {old: new for new, old in enumerate(order)}
        edges = []
        weights = []
        for (a, b), w in zip(self.edges, self.weights):
            if a in keep and b in keep:
                edges.append((relabel[a], relabel[b]))
                weights.append(w)
        return build_graph(len(order), edges, weights)


def build_graph(n: int, edges, weights=None) -> CommGraph:
    """Validate and construct a CommGraph.

    Raises GraphValidationError naming the offending edge for self-loops,
    duplicates, out-of-range indices, or non-positive weights.
    """
    if n <= 0:
        raise GraphValidationError(f"node count must be positive, got {n}", "nodes")
    edges = [tuple(e) for e in edges]
    if weights is None:
        weights = [1.0] * len(edges)
    else:
        weights = [float(w) for w in weights]
        if len(weights) != len(edges):
            raise GraphValidationError(
                f"got {len(weights)} weights for {len(edges)} edges", "weights")
    norm: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for (i, j), w in zip(edges, weights):
        if i == j:
            raise GraphValidationError(f"self-loop at node {i}", "edges")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphValidationError(f"edge ({i},{j}) out of range for n={n}", "edges")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise GraphValidationError(f"duplicate edge ({i},{j})", "edges")
        if not w > 0.0:  # nan too
            raise GraphValidationError(f"non-positive weight {w} on edge ({i},{j})",
                                       "weights")
        seen.add(key)
        norm.append(key)
    return CommGraph(node_count=n, edges=tuple(norm), weights=tuple(weights))


def adjacency_matrix(g: CommGraph) -> np.ndarray:
    """Weighted symmetric adjacency matrix with zero diagonal."""
    a = np.zeros((g.node_count, g.node_count))
    for (i, j), w in zip(g.edges, g.weights):
        a[i, j] = w
        a[j, i] = w
    return a


def incidence_matrix(g: CommGraph) -> np.ndarray:
    """Node-edge incidence matrix B (n x m).

    Orientation convention: +1 at the smaller node index of each edge, so B
    is deterministic for a given edge list.
    """
    b = np.zeros((g.node_count, len(g.edges)))
    for col, (i, j) in enumerate(g.edges):
        b[i, col] = 1.0
        b[j, col] = -1.0
    return b


def laplacian(g: CommGraph) -> np.ndarray:
    """Weighted Laplacian L = D - A (equals B diag(w) B^T)."""
    a = adjacency_matrix(g)
    return np.diag(a.sum(axis=1)) - a


def is_connected(g: CommGraph) -> bool:
    """Breadth-first reachability of all nodes from node 0."""
    if g.node_count == 1:
        return True
    adj: list[list[int]] = [[] for _ in range(g.node_count)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == g.node_count


def lambda_min_sym(m: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix (LAPACK via numpy)."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.T)) > 1e-9:
        raise ValueError("matrix is not symmetric within 1e-9")
    return float(np.linalg.eigvalsh(m)[0])

