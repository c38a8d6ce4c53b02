import math

import numpy as np
import pytest

from qsdcsim.netgraph import (
    CommGraph,
    GraphValidationError,
    adjacency_matrix,
    build_graph,
    incidence_matrix,
    is_connected,
    lambda_min_sym,
    laplacian,
)


def triangle():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


def ac15_comm():
    # communication graph of the 15-DER AC case study
    edges = []
    for g in range(5):
        a, b, c = 3 * g, 3 * g + 1, 3 * g + 2
        edges += [(a, b), (b, c), (a, c)]
    for g in range(5):
        h = (g + 1) % 5
        edges += [(3 * g + off, 3 * h + off) for off in range(3)]
    return build_graph(15, edges)


# -- build_graph -------------------------------------------------------------


def test_build_triangle():
    g = triangle()
    assert g.node_count == 3
    assert g.edges == ((0, 1), (1, 2), (0, 2))
    assert g.weights == (1.0, 1.0, 1.0)


def test_build_path_adjacency():
    g = build_graph(2, [(0, 1)])
    assert adjacency_matrix(g).tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_build_disconnected_allowed():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert not is_connected(g)


@pytest.mark.parametrize(
    "n,edges,weights,fragment",
    [
        (3, [(1, 1)], None, "self-loop"),
        (3, [(0, 1), (1, 0)], None, "duplicate"),
        (3, [(0, 5)], None, "out of range"),
        (2, [(0, 1)], [-1.0], "non-positive weight"),
        (2, [(0, 1)], [1.0, 2.0], "weights"),
    ],
)
def test_build_rejects(n, edges, weights, fragment):
    with pytest.raises(GraphValidationError, match=fragment):
        build_graph(n, edges, weights)


def test_edge_normalized_and_weight_lookup():
    g = build_graph(3, [(2, 0)], [0.5])
    assert g.edges == ((0, 2),)
    assert g.weights == (0.5,)


# -- incidence ---------------------------------------------------------------


def test_incidence_path():
    g = build_graph(2, [(0, 1)])
    assert incidence_matrix(g).tolist() == [[1.0], [-1.0]]


def test_incidence_triangle_gram():
    b = incidence_matrix(triangle())
    assert np.allclose(b.sum(axis=0), 0.0)
    expected = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=float)
    assert np.allclose(b @ b.T, expected, atol=1e-12)


def test_incidence_star_gram_diagonal():
    g = build_graph(3, [(0, 1), (0, 2)])
    b = incidence_matrix(g)
    assert np.allclose(np.diag(b @ b.T), [2.0, 1.0, 1.0])


def test_incidence_column_signs():
    g = build_graph(4, [(3, 1)])
    b = incidence_matrix(g)
    # +1 always sits at the smaller node index
    assert b[1, 0] == 1.0 and b[3, 0] == -1.0


# -- laplacian ---------------------------------------------------------------


def test_laplacian_triangle_spectrum():
    vals = np.linalg.eigvalsh(laplacian(triangle()))
    assert np.allclose(vals, [0.0, 3.0, 3.0], atol=1e-9)


def test_laplacian_single_edge_spectrum():
    vals = np.linalg.eigvalsh(laplacian(build_graph(2, [(0, 1)])))
    assert np.allclose(vals, [0.0, 2.0], atol=1e-12)


def test_laplacian_disconnected_zero_multiplicity():
    vals = np.linalg.eigvalsh(laplacian(build_graph(4, [(0, 1), (2, 3)])))
    assert np.sum(np.abs(vals) < 1e-9) == 2


def test_laplacian_equals_incidence_form():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        if not edges:
            edges = [(0, 1)]
        weights = rng.uniform(0.2, 3.0, len(edges))
        g = build_graph(n, edges, weights)
        lap = laplacian(g)
        b = incidence_matrix(g)
        assert np.max(np.abs(lap - b @ np.diag(weights) @ b.T)) < 1e-12
        assert np.max(np.abs(lap.sum(axis=1))) < 1e-10


# -- connectivity ------------------------------------------------------------


def test_is_connected_examples():
    assert is_connected(triangle())
    assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))
    assert is_connected(ac15_comm())
    assert is_connected(build_graph(1, []))


# -- eigen solver ------------------------------------------------------------


def test_lambda_min_examples():
    lap = laplacian(triangle())
    assert abs(lambda_min_sym(np.eye(3) + lap) - 1.0) < 1e-9
    assert abs(lambda_min_sym(np.diag([2.0, 5.0])) - 2.0) < 1e-12
    assert abs(lambda_min_sym(0.827 * np.eye(3) + 0.4135 * lap) - 0.827) < 1e-9


def test_lambda_min_rejects_nonsymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        lambda_min_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_connected_laplacian_kernel_is_constant_vector():
    for g in (triangle(), ac15_comm()):
        vals, vecs = np.linalg.eigh(laplacian(g))
        assert abs(vals[0]) < 1e-9
        v = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
        ones = np.ones(g.node_count) / math.sqrt(g.node_count)
        assert min(np.max(np.abs(v - ones)), np.max(np.abs(v + ones))) < 1e-6
        assert vals[1] > 0.0  # connected


def _char_poly_roots_bisection(m: np.ndarray, tol=1e-11) -> np.ndarray:
    """Independent oracle: roots of det(M - x I) by sign-change bisection on
    the trace-normalized matrix (LU determinant, no eigensolver)."""
    shift = np.trace(m) / m.shape[0]
    a = m - shift * np.eye(m.shape[0])
    radius = np.max(np.sum(np.abs(a), axis=1)) + 1e-6  # Gershgorin bound
    xs = np.linspace(-radius, radius, 4001)
    det = np.array([np.linalg.det(a - x * np.eye(a.shape[0])) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        lo, hi = xs[i], xs[i + 1]
        flo, fhi = det[i], det[i + 1]
        if flo == 0.0:
            roots.append(lo)
            continue
        if flo * fhi >= 0.0:
            continue
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            fm = np.linalg.det(a - mid * np.eye(a.shape[0]))
            if fm == 0.0 or hi - lo < tol:
                break
            if flo * fm < 0.0:
                hi, fhi = mid, fm
            else:
                lo, flo = mid, fm
        roots.append(0.5 * (lo + hi))
    return np.sort(np.array(roots)) + shift


def test_spectrum_against_bisection_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.normal(size=(8, 8))
        m = 0.5 * (a + a.T)
        oracle = _char_poly_roots_bisection(m)
        assert len(oracle) == 8  # random spectra are simple
        assert abs(lambda_min_sym(m) - oracle[0]) < 1e-8
        # a connected weighted graph on 8 nodes has a simple Laplacian spectrum
        edges = [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (1, 6), (2, 5)]
        lap = laplacian(build_graph(8, edges, rng.uniform(0.2, 3.0, 11)))
        vals, vecs = np.linalg.eigh(lap)
        oracle = _char_poly_roots_bisection(lap)
        assert len(oracle) == 8
        assert np.max(np.abs(vals - oracle)) < 1e-8
        # eigenpairs actually solve the problem
        assert np.max(np.abs(lap @ vecs - vecs * vals)) < 1e-7


def test_spectral_report():
    vals = np.linalg.eigvalsh(laplacian(triangle()))
    assert np.allclose(vals, [0.0, 3.0, 3.0], atol=1e-9)
    assert abs(vals[1] - 3.0) < 1e-9
    assert abs(lambda_min_sym(np.diag([4.0, 1.0])) - 1.0) < 1e-12


def test_subgraph_relabels():
    g = ac15_comm()
    sub = g.subgraph({0, 1, 2})
    assert sub.node_count == 3
    assert set(sub.edges) == {(0, 1), (1, 2), (0, 2)}
