import math

import numpy as np
import pytest

from oracles import (PAULI_X, PAULI_Y, PAULI_Z, JumpSet, explicit, from_matrix, lindblad_rhs,
                     pauli_on, rz_jump, swap_jump)
from qsdcsim.engine import (
    MAX_DENSE_QUBITS,
    BlochVector,
    CapacityError,
    DensityMatrix,
    IntegrationDivergedError,
    PureQubitSpec,
    StateValidationError,
    _rk4,
    _swap_perm,
    bloch_of,
    build_jump_set,
    depolarize_local,
    evolve,
    local_bloch,
    partial_trace_single,
    product_state,
    rk4_coefficients,
)
from qsdcsim.netgraph import build_graph

PAPER_THETAS = (1.96, 1.49, 2.07)
PAPER_PHIS = (0.0, math.pi / 8, math.pi / 2)


def three_node_state():
    return product_state(
        [PureQubitSpec(theta=t, phi=p) for t, p in zip(PAPER_THETAS, PAPER_PHIS)]
    )


def purity(rho):
    return float(np.trace(rho.matrix @ rho.matrix).real)


def rand_product(rng, n):
    return product_state(
        [PureQubitSpec(theta=rng.uniform(0.1, math.pi - 0.1),
                       phi=rng.uniform(0.0, math.pi / 2)) for _ in range(n)]
    )


# -- states ------------------------------------------------------------------


def test_pure_qubit_spec_ranges():
    with pytest.raises(ValueError):
        PureQubitSpec(theta=0.0, phi=0.1)
    with pytest.raises(ValueError):
        PureQubitSpec(theta=math.pi, phi=0.1)
    with pytest.raises(ValueError):
        PureQubitSpec(theta=1.0, phi=-0.1)
    with pytest.raises(ValueError):
        PureQubitSpec(theta=1.0, phi=math.pi / 2 + 0.1)


def test_product_state_three_node_example():
    rho = three_node_state()
    assert rho.matrix.shape == (8, 8)
    rho.check()
    assert abs(purity(rho) - 1.0) < 1e-9


def test_product_state_plus_state():
    rho = product_state([PureQubitSpec(theta=math.pi / 2, phi=0.0)])
    assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)), atol=1e-12)


def test_product_state_partial_trace_oracle():
    spec = PureQubitSpec(theta=math.pi / 2, phi=math.pi / 6)
    rho = product_state([spec, spec])
    for i in (0, 1):
        b = local_bloch(rho, i)
        assert abs(b.x - math.cos(math.pi / 6)) < 1e-12
        assert abs(b.y - math.sin(math.pi / 6)) < 1e-12
        assert abs(b.z) < 1e-12


def test_product_state_matches_kron_chain_bitwise():
    rng = np.random.default_rng(14)
    for n in range(1, 7):
        for _ in range(3):
            specs = [PureQubitSpec(theta=rng.uniform(0.1, math.pi - 0.1),
                                   phi=rng.uniform(0.0, math.pi / 2)) for _ in range(n)]
            psi = specs[0].ket()
            for spec in specs[1:]:
                psi = np.kron(psi, spec.ket())
            assert np.array_equal(product_state(specs).matrix, np.outer(psi, psi.conj()))


def test_product_state_capacity():
    specs = [PureQubitSpec(theta=1.0, phi=0.1)] * (MAX_DENSE_QUBITS + 1)
    with pytest.raises(CapacityError, match="bloch"):
        product_state(specs)


# -- jump operators ----------------------------------------------------------


def test_swap_matches_kron_form():
    swap4 = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.array_equal(swap_jump(0, 1, 3), np.kron(swap4, np.eye(2)))


def test_swap_basis_action():
    # |01> -> |10>
    ket01 = np.zeros(4)
    ket01[0b01] = 1.0
    out = swap_jump(0, 1, 2) @ ket01
    assert out[0b10] == 1.0 and np.sum(np.abs(out)) == 1.0


def test_swap_exchanges_product_factors():
    rho = three_node_state()
    c = swap_jump(0, 1, 3)
    swapped = c @ rho.matrix @ c.conj().T
    specs = [PureQubitSpec(theta=PAPER_THETAS[i], phi=PAPER_PHIS[i]) for i in (1, 0, 2)]
    expected = product_state(specs)
    assert np.max(np.abs(swapped - expected.matrix)) <= 1e-12


def test_swap_is_symmetric_involution():
    c = swap_jump(1, 2, 3)
    assert np.max(np.abs(c - c.T)) == 0.0
    assert np.max(np.abs(c @ c - np.eye(8))) == 0.0


def test_swap_perm_exchanges_two_bits_and_is_an_involution():
    for n in range(2, 7):
        for i in range(n):
            for j in range(i + 1, n):
                p = _swap_perm(i, j, n)
                assert np.array_equal(p, _swap_perm(j, i, n))
                assert np.array_equal(p[p], np.arange(2**n))
                for a in range(2**n):
                    bits = list(format(a, f"0{n}b"))  # node 0 is the leftmost bit
                    bits[i], bits[j] = bits[j], bits[i]
                    assert p[a] == int("".join(bits), 2)


def test_swap_index_errors():
    with pytest.raises(IndexError):
        swap_jump(0, 2, 2)
    with pytest.raises(IndexError):
        swap_jump(1, 1, 3)


def test_rz_zero_angle_is_identity():
    assert np.allclose(rz_jump(0, 0.0, 2), np.eye(4), atol=1e-15)


def test_rz_rotates_bloch_about_z():
    rho = product_state([PureQubitSpec(theta=math.pi / 2, phi=0.0)])
    c = rz_jump(0, math.pi / 2, 1)
    rotated = from_matrix(c @ rho.matrix @ c.conj().T)
    b = bloch_of(rotated)
    assert abs(b.x) < 1e-12 and abs(b.y - 1.0) < 1e-12 and abs(b.z) < 1e-12


def test_rz_preserves_z_components():
    rng = np.random.default_rng(3)
    rho = rand_product(rng, 3)
    c = rz_jump(1, 0.77, 3)
    conj = c @ rho.matrix @ c.conj().T
    for i in range(3):
        before = np.trace(rho.matrix @ pauli_on(i, "z", 3)).real
        after = np.trace(conj @ pauli_on(i, "z", 3)).real
        assert abs(before - after) <= 1e-12


def test_rz_index_error():
    with pytest.raises(IndexError):
        rz_jump(3, 0.1, 3)


def test_jump_set_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        JumpSet(pin_ops=[(np.diag([1.0, 0.5]).astype(complex), 1.0)], swap_ops=[])


def test_swap_conjugation_maps_local_observables():
    c = swap_jump(0, 2, 3)
    for which in ("x", "y"):
        lhs = c.conj().T @ pauli_on(0, which, 3) @ c
        assert np.max(np.abs(lhs - pauli_on(2, which, 3))) == 0.0


# -- master equation RHS -----------------------------------------------------


def test_rhs_single_node_pin_example():
    # Bloch (1,0,0), pin angle pi/2: d<sx>/dt = -1, d<sy>/dt = +1
    rho = product_state([PureQubitSpec(theta=math.pi / 2, phi=0.0)])
    jumps = build_jump_set(build_graph(1, []), [math.pi / 2])
    rhs = lindblad_rhs(rho, jumps)
    assert abs(np.trace(rhs @ PAULI_X).real - (-1.0)) < 1e-12
    assert abs(np.trace(rhs @ PAULI_Y).real - 1.0) < 1e-12


def test_rhs_swap_coupling_example():
    # x-components (1, 0): dx1 = -1, dx2 = +1
    rho = product_state([PureQubitSpec(theta=math.pi / 2, phi=0.0),
                         PureQubitSpec(theta=math.pi / 2, phi=math.pi / 2)])
    jumps = JumpSet(pin_ops=[], swap_ops=[(swap_jump(0, 1, 2), 1.0)])
    rhs = lindblad_rhs(rho, jumps)
    assert abs(np.trace(rhs @ pauli_on(0, "x", 2)).real - (-1.0)) < 1e-12
    assert abs(np.trace(rhs @ pauli_on(1, "x", 2)).real - 1.0) < 1e-12


def test_rhs_consensus_fixed_point():
    spec = PureQubitSpec(theta=1.3, phi=0.9)
    rho = product_state([spec, spec, spec])
    jumps = build_jump_set(build_graph(3, [(0, 1), (1, 2), (0, 2)]), [0.0, 0.0, 0.0])
    rhs = lindblad_rhs(rho, jumps)
    for i in range(3):
        for which in ("x", "y", "z"):
            assert abs(np.trace(rhs @ pauli_on(i, which, 3)).real) <= 1e-12


def test_rhs_traceless_hermitian_fuzz():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.6]
        jumps = build_jump_set(build_graph(n, edges),
                               rng.uniform(-1.5, 1.5, n))
        rhs = lindblad_rhs(rand_product(rng, n), jumps)
        assert abs(np.trace(rhs)) <= 1e-10
        assert np.max(np.abs(rhs - rhs.conj().T)) <= 1e-12


def test_rhs_unitary_shortcut_identity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.8]
        weights = rng.uniform(0.5, 2.0, len(edges))
        g = build_graph(n, edges, weights)
        jumps = build_jump_set(g, rng.uniform(-1.0, 1.0, n))
        rho = rand_product(rng, n)
        rhs = lindblad_rhs(rho, jumps)
        shortcut = -jumps.total_weight * rho.matrix
        for c, w in explicit(jumps).all_ops():
            shortcut = shortcut + w * (c @ rho.matrix @ c.conj().T)
        assert np.max(np.abs(rhs - shortcut)) <= 1e-12


def test_rhs_dimension_mismatch():
    jumps = build_jump_set(build_graph(2, [(0, 1)]), [0.0, 0.0])
    rho = product_state([PureQubitSpec(theta=1.0, phi=0.0)])
    with pytest.raises(ValueError, match="dimension"):
        lindblad_rhs(rho, jumps)


def test_observable_derivative_matches_finite_difference():
    # d<A>/dt = tr(rhs A) against a centered difference of evolve
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.8] or [(0, 1)]
        g = build_graph(n, edges)
        jumps = build_jump_set(g, rng.uniform(-1.0, 1.0, n))
        rho = rand_product(rng, n)
        rhs = lindblad_rhs(rho, jumps)
        h = 1e-6
        fwd = evolve(rho, jumps, h, 1)
        fwd2 = evolve(fwd, jumps, h, 1)
        for i in range(n):
            for which in ("x", "y"):
                a = pauli_on(i, which, n)
                fd = (np.trace(fwd2.matrix @ a).real - np.trace(rho.matrix @ a).real) / (2 * h)
                an = np.trace(rhs @ a).real
                assert abs(fd - an) <= 1e-4 * max(1.0, abs(an))


# -- evolve ------------------------------------------------------------------


def test_evolve_no_jumps_is_identity():
    rho = three_node_state()
    jumps = JumpSet(pin_ops=[], swap_ops=[])
    out = evolve(rho, jumps, 0.5, 4)
    assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-12


def test_evolve_phase_advances_at_pinning_rate():
    # single node, fixed pin angle, small dt: dphi ~ sin(phi_t - phi) dt
    phi0, phi_t, dt = 0.4, 1.2, 1e-3
    rho = product_state([PureQubitSpec(theta=math.pi / 2, phi=phi0)])
    jumps = build_jump_set(build_graph(1, []), [phi_t - phi0])
    out = evolve(rho, jumps, dt, 1)
    dphi = bloch_of(partial_trace_single(out, 0)).phi - phi0
    expected = math.sin(phi_t - phi0) * dt
    assert abs(dphi - expected) <= 1e-3 * abs(expected)


def test_evolve_trace_drift_long_run():
    rho = product_state([PureQubitSpec(theta=1.0, phi=0.3)])
    jumps = build_jump_set(build_graph(1, []), [0.2])
    m = rho
    for _ in range(10000):
        m = evolve(m, jumps, 1e-3, 1)
    assert abs(np.trace(m.matrix).real - 1.0) <= 1e-8
    m.check(eigen_tol=1e-6)


def test_evolve_divergence_error():
    rho = product_state([PureQubitSpec(theta=1.0, phi=0.3),
                         PureQubitSpec(theta=1.2, phi=0.4)])
    jumps = build_jump_set(build_graph(2, [(0, 1)]), [0.5, -0.5])
    with pytest.raises(IntegrationDivergedError, match="substeps") as exc:
        evolve(rho, jumps, 5.0, 1)
    assert "eigenvalue below -1e-06" in str(exc.value)  # the bound evolve tests


def state_with_lambda_min(rng, n, lam_min):
    """A Hermitian trace-1 n-qubit matrix whose smallest eigenvalue is lam_min."""
    dim = 2**n
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    rest = rng.uniform(0.1, 1.0, dim - 1)
    vals = np.concatenate([[lam_min], rest * (1.0 - lam_min) / rest.sum()])
    m = (q * vals) @ q.conj().T
    return DensityMatrix(matrix=0.5 * (m + m.conj().T), qubit_count=n)


@pytest.mark.parametrize("tol", [DensityMatrix.EIGEN_TOL, 1e-6])
def test_positivity_check_matches_eigvalsh_oracle(tol):
    rng = np.random.default_rng(33)
    for n in (1, 2, 3, 4):
        for side in (1.0 - 1e-3, 1.0 + 1e-3):
            rho = state_with_lambda_min(rng, n, -tol * side)
            passes = np.linalg.eigvalsh(rho.matrix).min() >= -tol
            assert passes == (side < 1.0)
            if passes:
                rho.check(eigen_tol=tol)
            else:
                with pytest.raises(StateValidationError, match=f"below {-tol:g}$"):
                    rho.check(eigen_tol=tol)
    if tol == DensityMatrix.EIGEN_TOL:  # the default bound
        with pytest.raises(StateValidationError, match="below -1e-09$"):
            from_matrix(state_with_lambda_min(rng, 2, -1.001e-9).matrix)


def test_evolve_argument_validation():
    rho = product_state([PureQubitSpec(theta=1.0, phi=0.3)])
    jumps = build_jump_set(build_graph(1, []), [0.0])
    with pytest.raises(ValueError):
        evolve(rho, jumps, -0.1, 1)
    with pytest.raises(ValueError):
        evolve(rho, jumps, 0.1, 0)


# -- partial trace / bloch ---------------------------------------------------


def test_partial_trace_product_factors():
    rho = three_node_state()
    for i in range(3):
        red = partial_trace_single(rho, i)
        expected = product_state([PureQubitSpec(theta=PAPER_THETAS[i],
                                                phi=PAPER_PHIS[i])])
        assert np.max(np.abs(red.matrix - expected.matrix)) <= 1e-12


def test_partial_trace_bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0b00] = psi[0b11] = 1.0 / math.sqrt(2.0)
    rho = from_matrix(np.outer(psi, psi.conj()))
    for i in (0, 1):
        red = partial_trace_single(rho, i)
        assert np.max(np.abs(red.matrix - 0.5 * np.eye(2))) <= 1e-12


def test_partial_trace_three_node_example_node1():
    b = local_bloch(three_node_state(), 1)
    assert abs(b.x - math.sin(1.49) * math.cos(math.pi / 8)) < 1e-12
    assert abs(b.y - math.sin(1.49) * math.sin(math.pi / 8)) < 1e-12
    assert abs(b.z - math.cos(1.49)) < 1e-12


def test_partial_trace_index_error():
    with pytest.raises(IndexError):
        partial_trace_single(three_node_state(), 3)


def test_bloch_of_examples():
    assert bloch_of(from_matrix(0.5 * np.eye(2))).r == 0.0
    b = bloch_of(product_state([PureQubitSpec(theta=math.pi / 2, phi=math.pi / 6)]))
    assert abs(b.x - math.cos(math.pi / 6)) < 1e-12
    assert abs(b.y - 0.5) < 1e-12
    assert abs(b.z) < 1e-12
    b2 = bloch_of(product_state([PureQubitSpec(theta=1.96, phi=0.0)]))
    assert abs(b2.x - math.sin(1.96)) < 1e-12
    assert abs(b2.z - math.cos(1.96)) < 1e-12
    assert abs(b2.r - 1.0) < 1e-9


def test_bloch_vector_polar_roundtrip():
    b = BlochVector.from_polar(0.8, 1.1, 0.6)
    assert abs(b.r - 0.8) < 1e-12
    assert abs(b.theta - 1.1) < 1e-12
    assert abs(b.phi - 0.6) < 1e-12
    assert abs(b.s - 0.8 * math.sin(1.1)) < 1e-12


# -- depolarizing channel ----------------------------------------------------


def test_depolarize_p0_identity():
    rho = three_node_state()
    out = depolarize_local(rho, 1, 0.0)
    assert np.max(np.abs(out.matrix - rho.matrix)) == 0.0


def test_depolarize_full_mixing():
    rho = product_state([PureQubitSpec(theta=1.1, phi=0.4)])
    out = depolarize_local(rho, 0, 0.75)
    assert np.max(np.abs(out.matrix - 0.5 * np.eye(2))) <= 1e-12


def test_depolarize_shrink_factor_and_locality():
    rho = three_node_state()
    p = 0.15
    out = depolarize_local(rho, 1, p)
    out.check()
    before = local_bloch(rho, 1)
    after = local_bloch(out, 1)
    factor = 1.0 - 4.0 * p / 3.0
    assert abs(after.r - factor * before.r) <= 1e-12
    assert abs(after.phi - before.phi) <= 1e-12
    for i in (0, 2):
        a, b = local_bloch(rho, i), local_bloch(out, i)
        assert max(abs(a.x - b.x), abs(a.y - b.y), abs(a.z - b.z)) <= 1e-12


def test_depolarize_single_qubit_equator_example():
    rho = product_state([PureQubitSpec(theta=math.pi / 2, phi=math.pi / 3)])
    out = depolarize_local(rho, 0, 0.15)
    b = bloch_of(out)
    assert abs(b.r - 0.8) <= 1e-12
    assert abs(b.phi - math.pi / 3) <= 1e-12
    # cross-check by explicit matrix arithmetic
    m = rho.matrix
    explicit = 0.85 * m + 0.05 * (PAULI_X @ m @ PAULI_X + PAULI_Y @ m @ PAULI_Y
                                  + PAULI_Z @ m @ PAULI_Z)
    assert np.max(np.abs(out.matrix - explicit)) <= 1e-15


def test_depolarize_range_error():
    rho = three_node_state()
    with pytest.raises(ValueError):
        depolarize_local(rho, 0, 1.2)


# -- index form against the explicit-matrix oracle ---------------------------


def random_weighted_graph(rng, n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
    return build_graph(n, edges, rng.uniform(0.3, 2.0, len(edges)))


def entangled_state(rng, n):
    """Random product state sent through a partial swap of nodes 0 and n-1,
    exp(-i t SWAP) = cos t I - i sin t SWAP, which entangles the pair."""
    psi = np.ones(1, dtype=complex)
    for _ in range(n):
        spec = PureQubitSpec(theta=rng.uniform(0.2, math.pi - 0.2),
                             phi=rng.uniform(0.0, math.pi / 2))
        psi = np.kron(psi, spec.ket())
    if n > 1:
        t = rng.uniform(0.3, 1.2)
        psi = math.cos(t) * psi - 1j * math.sin(t) * (swap_jump(0, n - 1, n) @ psi)
    return from_matrix(np.outer(psi, psi.conj()))


def test_index_form_matches_explicit_oracle():
    rng = np.random.default_rng(12)
    for n in range(1, 7):
        for _ in range(3):
            g = random_weighted_graph(rng, n)
            alphas = rng.uniform(-1.5, 1.5, n)
            rho = entangled_state(rng, n)
            if n > 1:  # a pure state with a mixed marginal is entangled
                assert purity(partial_trace_single(rho, 0)) < 1.0 - 1e-4
            index = build_jump_set(g, alphas)
            oracle_set = explicit(index)
            assert index.total_weight == oracle_set.total_weight
            oracle = lindblad_rhs(rho, oracle_set)
            assert np.max(np.abs(index.rhs(rho.matrix) - oracle)) <= 1e-12
            assert np.max(np.abs(lindblad_rhs(rho, index) - oracle)) <= 1e-12
            fast = evolve(rho, index, 0.05, 2)
            slow = evolve(rho, oracle_set, 0.05, 2)
            assert np.max(np.abs(fast.matrix - slow.matrix)) <= 1e-12


def test_index_rhs_is_mask_plus_weighted_swaps_bitwise():
    rng = np.random.default_rng(15)
    for n in range(2, 7):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        # repeated and distinct weights, 1.0 among them, interleaved in edge order
        weights = rng.choice([0.5, 1.0, 2.0, 0.75], len(edges))
        g = build_graph(n, edges, weights)
        jumps = build_jump_set(g, rng.uniform(-1.5, 1.5, n))
        rho = entangled_state(rng, n).matrix
        expected = jumps._mask * rho
        # rhs adds the swaps grouped by weight, in order of first appearance
        for w in dict.fromkeys(g.weights):
            for (i, j), we in zip(g.edges, g.weights):
                if we == w:
                    p = _swap_perm(i, j, n)
                    expected = expected + w * rho[p][:, p]
        assert np.array_equal(jumps.rhs(rho), expected)


# -- the shared RK4 stepper --------------------------------------------------


def taylor4(apply, y, dt, substeps):
    """`substeps` applications of sum_{k<=4} (hA)^k / k! with h = dt/substeps."""
    h = dt / substeps
    for _ in range(substeps):
        term, out = y, y
        for k in range(1, 5):
            term = (h / k) * apply(term)
            out = out + term
        y = out
    return y


def rel_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_rk4_is_taylor_polynomial_on_linear_core():
    from qsdcsim import consensus

    assert consensus._rk4 is _rk4  # one stepper for both backends
    rng = np.random.default_rng(31)
    n = 7
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    y0 = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    out = _rk4(y0, [(c * a).dot for c in rk4_coefficients(0.1)], 3)
    assert rel_gap(out, taylor4(lambda v: a @ v, y0, 0.3, 3)) <= 1e-13
    # the truncation error is far above the bound, so a wrong stage weight shows
    assert rel_gap(out, taylor4(lambda v: a @ v, y0, 0.3, 1)) > 1e-6


def test_rk4_is_taylor_polynomial_on_dense_state():
    rng = np.random.default_rng(32)
    n = 4
    rho = entangled_state(rng, n)
    jumps = build_jump_set(random_weighted_graph(rng, n), rng.uniform(-1.5, 1.5, n))
    out = _rk4(rho.matrix, [lambda u, c=c: c * jumps.rhs(u) for c in rk4_coefficients(0.1)], 2)
    assert rel_gap(out, taylor4(jumps.rhs, rho.matrix, 0.2, 2)) <= 1e-13
    assert np.array_equal(evolve(rho, jumps, 0.2, 2).matrix, out)


def test_depolarize_matches_pauli_oracle():
    rng = np.random.default_rng(13)
    for n in range(1, 6):
        rho = entangled_state(rng, n)
        for i in range(n):
            p = float(rng.uniform(0.0, 1.0))
            m = rho.matrix
            explicit = (1.0 - p) * m
            for which in ("x", "y", "z"):
                sigma = pauli_on(i, which, n)
                explicit = explicit + (p / 3.0) * (sigma @ m @ sigma)
            out = depolarize_local(rho, i, p)
            assert np.max(np.abs(out.matrix - explicit)) <= 1e-12


def test_depolarize_index_error():
    with pytest.raises(IndexError):
        depolarize_local(three_node_state(), 3, 0.1)
