"""Gate constructors, gate application, readout, and the dense matrix oracle."""

import numpy as np
import pytest

from qcnnlab import simulator as sim


RNG = np.random.default_rng(20240811)

# CNOT applies X on the target (second wire listed) when the control (first
# wire listed) is |1>.
H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=np.complex128,
)


def random_state(n, rng=RNG):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def random_u3(rng=RNG):
    return sim.u3_matrix(*rng.uniform(-np.pi, np.pi, size=3))


# ---------------------------------------------------------------------------
# gate constructors
# ---------------------------------------------------------------------------

def test_u3_zero_angles_is_identity():
    np.testing.assert_allclose(sim.u3_matrix(0, 0, 0), np.eye(2), atol=1e-15)


def test_u3_pi_0_pi_is_pauli_x():
    np.testing.assert_allclose(sim.u3_matrix(np.pi, 0, np.pi), sim.X, atol=1e-15)


def test_u3_random_is_unitary():
    for _ in range(200):
        g = random_u3()
        np.testing.assert_allclose(g.conj().T @ g, np.eye(2), atol=1e-12)


def test_axis_rotation_zero_angle_is_identity():
    for axis in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0.6, 0.8, 0)]:
        np.testing.assert_allclose(sim.axis_rotation_matrix(0, axis), np.eye(2), atol=1e-15)


def test_axis_rotation_pi_about_z():
    got = sim.axis_rotation_matrix(np.pi, (0, 0, 1))
    np.testing.assert_allclose(got, np.diag([-1j, 1j]), atol=1e-15)


def test_axis_rotation_z_matches_rz_up_to_phase():
    # RZ(a) = diag(e^{-ia/2}, e^{ia/2}); same matrix here, phase-free already.
    for a in RNG.uniform(-2 * np.pi, 2 * np.pi, size=10):
        got = sim.axis_rotation_matrix(a, (0, 0, 1))
        rz = np.diag([np.exp(-1j * a / 2), np.exp(1j * a / 2)])
        phase = rz[0, 0] / got[0, 0]
        np.testing.assert_allclose(got * phase, rz, atol=1e-12)


def test_axis_rotation_rejects_unnormalized_axis():
    with pytest.raises(sim.SimulatorError, match="differs from 1 by more than 1e-9"):
        sim.axis_rotation_matrix(0.3, (1, 1, 0))


def test_ising_zz_diagonal():
    theta = 0.7321
    e = np.exp
    want = np.diag([e(-1j * theta / 2), e(1j * theta / 2), e(1j * theta / 2), e(-1j * theta / 2)])
    np.testing.assert_allclose(sim.ising_matrix("ZZ", theta), want, atol=1e-15)


def test_ising_xx_zero_is_identity():
    np.testing.assert_allclose(sim.ising_matrix("XX", 0), np.eye(4), atol=1e-15)


def test_ising_yy_matches_eigendecomposition_oracle():
    # Independent route: diagonalize Y(x)Y and exponentiate the eigenvalues.
    yy = np.kron(sim.Y, sim.Y)
    evals, evecs = np.linalg.eigh(yy)
    for theta in RNG.uniform(-2 * np.pi, 2 * np.pi, size=20):
        want = evecs @ np.diag(np.exp(-1j * theta / 2 * evals)) @ evecs.conj().T
        np.testing.assert_allclose(sim.ising_matrix("YY", theta), want, atol=1e-12)


def test_ising_rejects_unknown_kind():
    with pytest.raises(sim.SimulatorError, match="unknown Ising kind 'XY'"):
        sim.ising_matrix("XY", 0.1)


def test_controlled_x_is_cnot():
    np.testing.assert_allclose(sim.controlled(sim.X), CNOT, atol=1e-15)


def test_controlled_identity_is_identity():
    np.testing.assert_allclose(sim.controlled(np.eye(2)), np.eye(4), atol=1e-15)


def test_controlled_rejects_non_unitary():
    with pytest.raises(sim.SimulatorError, match="requires a unitary gate"):
        sim.controlled(np.array([[1, 0], [0, 2]], dtype=complex))


def test_controlled_inactive_on_zero_control():
    # Product state with control |0>: target marginal must be untouched.
    for _ in range(20):
        g = random_u3()
        target = random_state(1)
        state = np.zeros(4, dtype=complex)
        state[0:2] = target  # control (qubit 1) = |0>, target = qubit 0
        out = sim.apply_gate(state, sim.controlled(g), (1, 0))
        np.testing.assert_allclose(out, state, atol=1e-12)


def test_constructor_unitarity_sweep():
    for _ in range(500):
        for g in (random_u3(),
                  sim.ising_matrix(RNG.choice(["XX", "YY", "ZZ"]), RNG.uniform(-7, 7)),
                  sim.controlled(random_u3())):
            d = g.shape[0]
            assert np.max(np.abs(g.conj().T @ g - np.eye(d))) <= 1e-10


# ---------------------------------------------------------------------------
# apply_gate
# ---------------------------------------------------------------------------

def test_apply_x_qubit0_of_00():
    out = sim.apply_gate(sim.zero_state(2), sim.X, (0,))
    np.testing.assert_array_equal(out, [0, 1, 0, 0])


def test_apply_x_qubit1_of_00():
    out = sim.apply_gate(sim.zero_state(2), sim.X, (1,))
    np.testing.assert_array_equal(out, [0, 0, 1, 0])


def test_apply_identity_is_bitwise_noop():
    state = random_state(4)
    out = sim.apply_gate(state, np.eye(4, dtype=complex), (1, 3))
    np.testing.assert_array_equal(out, state)


def test_apply_gate_errors():
    state = sim.zero_state(3)
    with pytest.raises(sim.SimulatorError, match="qubit 3 out of range for 3-qubit register"):
        sim.apply_gate(state, sim.X, (3,))
    with pytest.raises(sim.SimulatorError, match=r"duplicate target in \(1, 1\)"):
        sim.apply_gate(state, CNOT, (1, 1))
    with pytest.raises(sim.SimulatorError, match=r"gate shape \(4, 4\) does not match 1 target"):
        sim.apply_gate(state, CNOT, (1,))


def test_apply_gate_on_columns_matches_each_column_and_dense_oracle():
    n, m = 4, 5
    for _ in range(10):
        states = np.stack([random_state(n) for _ in range(m)], axis=1)
        gates = [(random_u3(), (int(RNG.integers(n)),)),
                 (sim.ising_matrix("XX", RNG.uniform(-4, 4)), tuple(RNG.permutation(n)[:2])),
                 (sim.controlled(random_u3()), tuple(RNG.permutation(n)[:2]))]
        got = states
        for g, targets in gates:
            want_cols = [sim.apply_gate(got[:, j], g, targets) for j in range(m)]
            got = sim.apply_gate(got, g, targets)
            assert got.shape == (2**n, m)
            np.testing.assert_allclose(got, np.stack(want_cols, axis=1), atol=1e-14)
        np.testing.assert_allclose(got, sim.dense_circuit_oracle(gates, n) @ states, atol=1e-10)


def test_apply_gate_on_columns_errors_match_single_state():
    for state in (sim.zero_state(3), np.stack([sim.zero_state(3)] * 4, axis=1)):
        with pytest.raises(sim.SimulatorError, match="qubit 3 out of range for 3-qubit register"):
            sim.apply_gate(state, sim.X, (3,))
        with pytest.raises(sim.SimulatorError, match="qubit -1 out of range for 3-qubit register"):
            sim.apply_gate(state, sim.X, (-1,))
        with pytest.raises(sim.SimulatorError, match=r"duplicate target in \(1, 1\)"):
            sim.apply_gate(state, CNOT, (1, 1))
        with pytest.raises(sim.SimulatorError, match=r"gate shape \(4, 4\) does not match 1 target"):
            sim.apply_gate(state, CNOT, (1,))
        with pytest.raises(sim.SimulatorError, match=r"gate shape \(3, 3\) does not match 1 target"):
            sim.apply_gate(state, np.eye(3, dtype=complex), (0,))
    with pytest.raises(sim.SimulatorError, match="state length 6 is not a power of two"):
        sim.apply_gate(np.zeros((6, 2), dtype=complex), sim.X, (0,))
    with pytest.raises(sim.SimulatorError, match=r"got shape \(2, 2, 2\)"):
        sim.apply_gate(np.zeros((2, 2, 2), dtype=complex), sim.X, (0,))


def random_unitary(dim, rng=RNG):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_apply_gate_row_order_matches_dense_oracle_for_1_2_3_targets():
    for _ in range(30):
        n = int(RNG.integers(3, 7))
        for k in (1, 2, 3):
            g = random_unitary(2**k)
            targets = tuple(int(q) for q in RNG.permutation(n)[:k])
            dense = sim.dense_circuit_oracle([(g, targets)], n)
            state = random_state(n)
            np.testing.assert_allclose(sim.apply_gate(state, g, targets), dense @ state, atol=1e-10)
            states = np.stack([random_state(n) for _ in range(4)], axis=1)
            got = sim.apply_gate(states, g, targets)
            assert got.shape == states.shape
            np.testing.assert_allclose(got, dense @ states, atol=1e-10)


def test_apply_gate_preserves_norm():
    for _ in range(50):
        state = random_state(5)
        if RNG.random() < 0.5:
            out = sim.apply_gate(state, random_u3(), (int(RNG.integers(5)),))
        else:
            q = RNG.permutation(5)[:2]
            out = sim.apply_gate(state, sim.ising_matrix("YY", RNG.uniform(-7, 7)), tuple(q))
        assert abs(np.linalg.norm(out) - 1) < 1e-12


def test_apply_gate_disjoint_targets_commute():
    for _ in range(20):
        state = random_state(4)
        g1, g2 = random_u3(), random_u3()
        ab = sim.apply_gate(sim.apply_gate(state, g1, (0,)), g2, (2,))
        ba = sim.apply_gate(sim.apply_gate(state, g2, (2,)), g1, (0,))
        np.testing.assert_allclose(ab, ba, atol=1e-12)


def test_apply_two_qubit_matches_dense_matrix():
    for _ in range(30):
        n = 4
        state = random_state(n)
        g = np.kron(random_u3(), random_u3()) @ sim.ising_matrix("XX", RNG.uniform(-4, 4))
        targets = tuple(RNG.permutation(n)[:2])
        got = sim.apply_gate(state, g, targets)
        want = sim.expand_gate(g, targets, n) @ state
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_cnot_application_convention():
    # apply CNOT with control qubit 1, target qubit 0: |10> -> |11>
    state = np.zeros(4, dtype=complex); state[2] = 1
    out = sim.apply_gate(state, CNOT, (1, 0))
    np.testing.assert_allclose(out, [0, 0, 0, 1], atol=1e-15)


# ---------------------------------------------------------------------------
# readout
# ---------------------------------------------------------------------------

def test_readout_all_zero_state():
    state = sim.zero_state(3)
    for q in range(3):
        assert sim.readout_prob_one(state, q) == 0.0


def test_readout_plus_state():
    state = sim.apply_gate(sim.zero_state(1), H, (0,))
    assert abs(sim.readout_prob_one(state, 0) - 0.5) < 1e-12


def test_readout_probabilities_sum_to_one():
    for _ in range(20):
        state = random_state(4)
        q = int(RNG.integers(4))
        p1 = sim.readout_prob_one(state, q)
        p0 = sim.readout_prob_one(sim.apply_gate(state, sim.X, (q,)), q)
        assert abs(p0 + p1 - 1) < 1e-12
        assert 0 <= p1 <= 1 + 1e-12


def test_readout_rejects_bad_qubit():
    with pytest.raises(sim.SimulatorError, match="qubit 2 out of range for 2-qubit register"):
        sim.readout_prob_one(sim.zero_state(2), 2)


# ---------------------------------------------------------------------------
# dense oracle
# ---------------------------------------------------------------------------

def expand_gate_by_index_loop(g, targets, n_qubits):
    """expand_gate's earlier form: kron(g, I) on (targets..., rest...), with
    every basis index mapped back to the qubit-0-least-significant order."""
    k = len(targets)
    rest = [q for q in range(n_qubits) if q not in targets]
    big = np.kron(g, np.eye(2 ** len(rest), dtype=np.complex128))
    to_original = np.empty(2**n_qubits, dtype=np.int64)
    for gi in range(2**k):
        gpart = 0
        for j, t in enumerate(targets):
            gpart |= ((gi >> (k - 1 - j)) & 1) << t
        for si in range(2 ** len(rest)):
            spart = 0
            for j, q in enumerate(rest):
                spart |= ((si >> (len(rest) - 1 - j)) & 1) << q
            to_original[(gi << len(rest)) | si] = gpart | spart
    perm = np.argsort(to_original)  # original index -> big index
    return big[np.ix_(perm, perm)]


def test_expand_gate_is_bitwise_the_index_loop():
    rng = np.random.default_rng(11)
    for n in range(1, 8):
        for _ in range(20):
            k = int(rng.integers(1, min(3, n) + 1))
            targets = tuple(int(q) for q in rng.permutation(n)[:k])
            g = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
            got = sim.expand_gate(g, targets, n)
            want = expand_gate_by_index_loop(g, targets, n)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes(), (n, targets)


def test_oracle_single_x_on_qubit0_is_kron_i_x():
    got = sim.dense_circuit_oracle([(sim.X, (0,))], 2)
    np.testing.assert_allclose(got, np.kron(np.eye(2), sim.X), atol=1e-15)


def test_oracle_empty_circuit_is_identity():
    np.testing.assert_allclose(sim.dense_circuit_oracle([], 3), np.eye(8), atol=1e-15)


def test_oracle_rejects_large_register():
    with pytest.raises(sim.SimulatorError, match="dense oracle limited to 10 qubits, got 11"):
        sim.dense_circuit_oracle([], 11)


def test_oracle_matches_apply_gate_on_random_circuits():
    for _ in range(100):
        n = int(RNG.integers(2, 7))
        n_gates = int(RNG.integers(1, 9))
        gates = []
        for _ in range(n_gates):
            if RNG.random() < 0.5:
                gates.append((random_u3(), (int(RNG.integers(n)),)))
            else:
                q = RNG.permutation(n)[:2]
                kind = str(RNG.choice(["XX", "YY", "ZZ"]))
                g = sim.ising_matrix(kind, RNG.uniform(-4, 4))
                if RNG.random() < 0.3:
                    g = sim.controlled(random_u3())
                gates.append((g, tuple(int(x) for x in q)))
        state = random_state(n)
        via_apply = state
        for g, targets in gates:
            via_apply = sim.apply_gate(via_apply, g, targets)
        via_oracle = sim.dense_circuit_oracle(gates, n) @ state
        np.testing.assert_allclose(via_apply, via_oracle, atol=1e-10)
