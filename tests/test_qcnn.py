"""Circuit architecture, layers, forward pass, and the measurement oracle."""

import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from qcnnlab import qcnn, simulator as sim
from qcnnlab.embedding import amplitude_embed, embed_columns


RNG = np.random.default_rng(424242)


def random_state(n, rng=RNG):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def apply_ops(state, ops):
    for op in ops:
        state = sim.apply_gate(state, op.matrix, op.targets)
    return state


# ---------------------------------------------------------------------------
# architecture
# ---------------------------------------------------------------------------

def test_ten_qubits_depth_two_leaves_three_wires_and_99_params():
    arch = qcnn.build_architecture(10, 2)
    assert arch.remaining_wires == (0, 4, 8)
    assert arch.param_count == 99


def test_six_qubits_depth_two():
    arch = qcnn.build_architecture(6, 2)
    assert arch.active_wires == ((0, 1, 2, 3, 4, 5), (0, 2, 4))
    assert arch.remaining_wires == (0, 4)
    assert arch.param_count == 18 * 2 + 15


def test_two_qubits_depth_zero():
    arch = qcnn.build_architecture(2, 0)
    assert arch.remaining_wires == (0, 1)
    assert arch.param_count == 15


def test_too_deep_rejected():
    with pytest.raises(qcnn.QcnnError, match="depth 2 exhausts a 2-qubit register"):
        qcnn.build_architecture(2, 2)


def test_readout_wider_than_five_wires_rejected():
    assert len(qcnn.build_architecture(5, 0).remaining_wires) == qcnn.MAX_READOUT_WIRES
    assert qcnn.build_architecture(10, 1).param_count == 18 + 1023
    for n, d, r in ((6, 0, 6), (7, 0, 7), (11, 1, 6), (12, 1, 6)):
        with pytest.raises(qcnn.QcnnError,
                           match=f"a {r}-wire readout takes {4**r - 1} rotations; .* raise depth"):
            qcnn.build_architecture(n, d)


def test_param_count_matches_layout_for_all_small_sizes():
    for n in range(2, 11):
        for d in range(0, 4):
            try:
                arch = qcnn.build_architecture(n, d)
            except qcnn.QcnnError:  # the depth exhausts the register
                continue
            r = len(arch.remaining_wires)
            assert arch.param_count == 18 * d + 4**r - 1
            # the layout consumes exactly param_count values
            blocks, flat = qcnn.split_params(arch, np.zeros(arch.param_count))
            consumed = sum(len(c) + len(p) for c, p in blocks) + len(flat)
            assert consumed == arch.param_count


def test_wrong_param_length_rejected():
    arch = qcnn.build_architecture(4, 1)
    with pytest.raises(qcnn.QcnnError, match="expected 33 parameters for n=4, depth=1; got 34"):
        qcnn.split_params(arch, np.zeros(arch.param_count + 1))


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_conv_all_zero_weights_is_identity():
    state = random_state(4)
    out = apply_ops(state, qcnn.conv_block_ops(np.zeros(15), (0, 1, 2, 3), first_depth=True))
    np.testing.assert_allclose(out, state, atol=1e-12)


def test_conv_two_wires_processes_one_pair():
    ops = qcnn.conv_block_ops(RNG.uniform(-1, 1, 15), (0, 1), first_depth=True)
    # one pair: 2 head unitaries + 3 Ising + 2 tail unitaries
    assert len(ops) == 7
    ops = qcnn.conv_block_ops(RNG.uniform(-1, 1, 15), (0, 1), first_depth=False)
    assert len(ops) == 5


def test_conv_head_unitaries_only_at_first_depth():
    w = RNG.uniform(-1, 1, 15)
    first = qcnn.conv_block_ops(w, (0, 1, 2, 3), first_depth=True)
    later = qcnn.conv_block_ops(w, (0, 1, 2, 3), first_depth=False)
    assert len(first) == len(later) + 4  # two head gates per even-offset pair


def test_conv_matches_dense_oracle():
    for _ in range(10):
        w = RNG.uniform(-np.pi, np.pi, 15)
        ops = qcnn.conv_block_ops(w, (0, 1, 2, 3), first_depth=True)
        full = sim.dense_circuit_oracle([(op.matrix, op.targets) for op in ops], 4)
        state = random_state(4)
        np.testing.assert_allclose(apply_ops(state, ops), full @ state, atol=1e-10)


def test_conv_weight_length_checked():
    with pytest.raises(qcnn.QcnnError, match="convolution takes 15 weights, got 14"):
        qcnn.conv_block_ops(np.zeros(14), (0, 1), first_depth=False)


def test_conv_pair_order_within_subround_is_immaterial():
    # Pairs inside a sub-round act on disjoint wires, so processing order
    # cannot matter; compare against a reversed-pair-order application.
    w = RNG.uniform(-np.pi, np.pi, 15)
    wires = (0, 1, 2, 3, 4, 5)
    state = random_state(6)
    forward_order = apply_ops(state, qcnn.conv_block_ops(w, wires, first_depth=True))

    reversed_order = state
    for parity in (0, 1):
        pair_starts = list(range(parity, len(wires) - 1, 2))[::-1]
        for i in pair_starts:
            sub = [(a, b) for a, b in [(wires[i], wires[i + 1])]]
            for a, b in sub:
                if parity == 0:
                    reversed_order = sim.apply_gate(reversed_order, sim.u3_matrix(*w[0:3]), (a,))
                    reversed_order = sim.apply_gate(reversed_order, sim.u3_matrix(*w[3:6]), (b,))
                for k, kind in enumerate(("XX", "YY", "ZZ")):
                    reversed_order = sim.apply_gate(reversed_order, sim.ising_matrix(kind, w[6 + k]), (a, b))
                reversed_order = sim.apply_gate(reversed_order, sim.u3_matrix(*w[9:12]), (a,))
                reversed_order = sim.apply_gate(reversed_order, sim.u3_matrix(*w[12:15]), (b,))
    np.testing.assert_allclose(forward_order, reversed_order, atol=1e-12)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def test_pool_zero_weights_is_identity():
    state = random_state(4)
    ops = qcnn.pool_block_ops(np.zeros(3), (0, 1, 2, 3))
    np.testing.assert_allclose(apply_ops(state, ops), state, atol=1e-12)


def test_pool_inactive_when_control_is_zero():
    # |0> on the control (wire 1) leaves the partner marginal unchanged.
    w = RNG.uniform(-np.pi, np.pi, 3)
    target = random_state(1)
    state = np.zeros(4, dtype=complex)
    state[0:2] = target
    ops = qcnn.pool_block_ops(w, (0, 1))
    np.testing.assert_allclose(apply_ops(state, ops), state, atol=1e-12)


def test_pool_superposed_control_matches_branch_oracle():
    # Explicit two-branch computation: project the control, renormalize,
    # rotate the partner only in the |1> branch, mix by branch probability.
    for _ in range(10):
        w = RNG.uniform(-np.pi, np.pi, 3)
        state = random_state(2)
        ops = qcnn.pool_block_ops(w, (0, 1))
        pooled = apply_ops(state, ops)
        got = sim.readout_prob_one(pooled, 0)

        u3 = sim.u3_matrix(*w)
        idx = np.arange(4)
        expect = 0.0
        for outcome in (0, 1):
            branch = np.where(((idx >> 1) & 1) == outcome, state, 0)
            prob = float(np.sum(np.abs(branch) ** 2))
            if prob == 0:
                continue
            branch = branch / np.sqrt(prob)
            if outcome == 1:
                branch = sim.apply_gate(branch, u3, (0,))
            expect += prob * sim.readout_prob_one(branch, 0)
        assert abs(got - expect) < 1e-12


# ---------------------------------------------------------------------------
# final universal layer
# ---------------------------------------------------------------------------

def test_flatten_zero_weights_is_identity():
    state = random_state(3)
    out = apply_ops(state, qcnn.flatten_block_ops(np.zeros(63), (0, 1, 2)))
    np.testing.assert_allclose(out, state, atol=1e-12)


def test_flatten_single_wire_words():
    ops = qcnn.flatten_block_ops(np.zeros(3), (0,))
    assert len(ops) == 3
    assert [qcnn.pauli_word(k, 1) for k in (1, 2, 3)] == ["X", "Y", "Z"]


def test_pauli_word_ordering_two_wires():
    words = [qcnn.pauli_word(k, 2) for k in range(1, 16)]
    assert words[:5] == ["IX", "IY", "IZ", "XI", "XX"]
    assert words[-1] == "ZZ"


def test_flatten_operator_is_unitary():
    for _ in range(5):
        w = RNG.uniform(-np.pi, np.pi, 15)
        ops = qcnn.flatten_block_ops(w, (0, 1))
        full = sim.dense_circuit_oracle([(op.matrix, op.targets) for op in ops], 2)
        np.testing.assert_allclose(full.conj().T @ full, np.eye(4), atol=1e-10)


def test_flatten_weight_length_checked():
    with pytest.raises(qcnn.QcnnError, match="final layer on 2 wires takes 15 weights, got 14"):
        qcnn.flatten_block_ops(np.zeros(14), (0, 1))


# ---------------------------------------------------------------------------
# fused blocks
# ---------------------------------------------------------------------------

def per_gate_ops(arch, params):
    """The circuit gate by gate over every pair: the sequence circuit_ops fuses."""
    blocks, flat_w = qcnn.split_params(arch, params)
    ops = []
    for d, wires in enumerate(arch.active_wires):
        ops += qcnn.conv_block_ops(blocks[d][0], wires, first_depth=(d == 0))
        ops += qcnn.pool_block_ops(blocks[d][1], wires)
    return ops + qcnn.flatten_block_ops(flat_w, arch.remaining_wires)


def test_fused_circuit_matches_per_gate_sequence_in_dense_oracle():
    rng = np.random.default_rng(31)
    for n, d in ((2, 0), (3, 1), (4, 1), (5, 2), (6, 2), (8, 2)):
        arch = qcnn.build_architecture(n, d)
        for _ in range(3):
            params = rng.uniform(-np.pi, np.pi, arch.param_count)
            fused = qcnn.circuit_ops(arch, params)
            want = sim.dense_circuit_oracle([(op.matrix, op.targets) for op in per_gate_ops(arch, params)], n)
            got = sim.dense_circuit_oracle([(op.matrix, op.targets) for op in fused], n)
            np.testing.assert_allclose(got, want, atol=1e-10)


def test_fused_circuit_matches_per_gate_sequence_at_ten_qubits():
    rng = np.random.default_rng(32)
    arch = qcnn.build_architecture(10, 2)
    for _ in range(3):
        params = rng.uniform(-np.pi, np.pi, arch.param_count)
        states = np.stack([random_state(10, rng) for _ in range(4)], axis=1)
        np.testing.assert_allclose(apply_ops(states, qcnn.circuit_ops(arch, params)),
                                   apply_ops(states, per_gate_ops(arch, params)), atol=1e-10)


def test_block_counts():
    # conv pairs + pooling pairs per depth, plus one readout block
    for (n, d), blocks, gates in (((6, 2), 12, 60), ((10, 2), 21, 145)):
        arch = qcnn.build_architecture(n, d)
        params = np.zeros(arch.param_count)
        assert len(qcnn.circuit_ops(arch, params)) == blocks
        assert len(per_gate_ops(arch, params)) == gates
    arch = qcnn.build_architecture(10, 2)
    readout = qcnn.circuit_ops(arch, np.zeros(arch.param_count))[-1]
    assert readout.targets == (0, 4, 8) and readout.matrix.shape == (8, 8)


def test_fused_block_derivatives_match_finite_differences():
    rng = np.random.default_rng(33)
    arch = qcnn.build_architecture(4, 1)
    params = rng.uniform(-np.pi, np.pi, arch.param_count)
    step = 1e-6
    for j, op in enumerate(qcnn.circuit_ops(arch, params)):
        index, derivs = op.grads
        assert len(set(index.tolist())) == len(index)
        for p, dm in zip(index, derivs):
            up, down = params.copy(), params.copy()
            up[p] += step
            down[p] -= step
            fd = (qcnn.circuit_ops(arch, up)[j].matrix - qcnn.circuit_ops(arch, down)[j].matrix) / (2 * step)
            np.testing.assert_allclose(dm, fd, atol=1e-8)


# ---------------------------------------------------------------------------
# reference build: per-gate ops with derivatives, fused block by block
# ---------------------------------------------------------------------------

def _u3_grads(theta, phi, lam):
    """Entrywise (theta, phi, lam) derivatives of sim.u3_matrix, stacked (3, 2, 2)."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    ep, el, epl = np.exp(1j * phi), np.exp(1j * lam), np.exp(1j * (phi + lam))
    return np.array(
        [[[-0.5 * s, -0.5 * el * c],
          [0.5 * ep * c, -0.5 * epl * s]],
         [[0, 0],
          [1j * ep * s, 1j * epl * c]],
         [[0, -1j * el * s],
          [0, 1j * epl * c]]],
        dtype=np.complex128,
    )


def _rotation_grad(generator, theta):
    """d/dtheta of cos(theta/2) I - i sin(theta/2) W."""
    return (-0.5 * np.sin(theta / 2) * np.eye(len(generator), dtype=np.complex128)
            - 0.5j * np.cos(theta / 2) * generator)


def _u3_op(angles, wire, base):
    return qcnn.GateOp(sim.u3_matrix(*angles), (wire,), ((base, base + 1, base + 2), _u3_grads(*angles)))


def _reference_conv(w, head, base):
    ops = [_u3_op(w[0:3], 0, base), _u3_op(w[3:6], 1, base + 3)] if head else []
    for k, kind in enumerate(("XX", "YY", "ZZ")):
        generator = np.kron(sim.PAULIS[kind[0]], sim.PAULIS[kind[1]])
        ops.append(qcnn.GateOp(sim.ising_matrix(kind, w[6 + k]), (0, 1),
                               ((base + 6 + k,), _rotation_grad(generator, w[6 + k])[None])))
    return ops + [_u3_op(w[9:12], 0, base + 9), _u3_op(w[12:15], 1, base + 12)]


def _reference_pool(w, base):
    big = np.zeros((3, 4, 4), dtype=np.complex128)
    big[:, 2:, 2:] = _u3_grads(*w)
    return [qcnn.GateOp(sim.controlled(sim.u3_matrix(*w)), (1, 0), ((base, base + 1, base + 2), big))]


def _reference_readout(w, r, base):
    ops = []
    for k in range(1, 4**r):
        word = qcnn.pauli_word(k, r)
        grad = _rotation_grad(qcnn.pauli_word_matrix(word), w[k - 1])
        ops.append(qcnn.GateOp(qcnn.pauli_rotation(word, w[k - 1]), tuple(range(r)), ((base + k - 1,), grad[None])))
    return ops


@lru_cache(maxsize=None)
def _embedding_index(local_targets, k):
    rest = tuple(p for p in range(k) if p not in local_targets)

    def place(values, wires):
        out = np.zeros_like(values)
        for j, p in enumerate(wires):
            out |= ((values >> (len(wires) - 1 - j)) & 1) << (k - 1 - p)
        return out

    g = np.arange(2 ** len(local_targets))
    gi, gj, s = (a.reshape(-1) for a in np.meshgrid(g, g, np.arange(2 ** len(rest)), indexing="ij"))
    spectator = place(s, rest)
    return place(gi, local_targets) | spectator, place(gj, local_targets) | spectator, gi, gj


def _embed(m, local_targets, k):
    """A gate (or a stack of them) on ``local_targets`` as 2**k x 2**k blocks."""
    if local_targets == tuple(range(k)):
        return m
    rows, cols, gi, gj = _embedding_index(local_targets, k)
    out = np.zeros(m.shape[:-2] + (2**k, 2**k), dtype=np.complex128)
    out[..., rows, cols] = m[..., gi, gj]
    return out


def _fuse(ops, k):
    """Per-gate ``ops`` on local wires 0..k-1 as one block; the derivative for a
    parameter of gate j is (gates after j) dG_j (gates before j)."""
    dim = 2**k
    mats = [_embed(op.matrix, op.targets, k) for op in ops]
    prefix = [np.eye(dim, dtype=np.complex128)]
    for m in mats:
        prefix.append(m @ prefix[-1])
    suffix = np.eye(dim, dtype=np.complex128)
    index, derivs = [], []
    for j in range(len(ops) - 1, -1, -1):
        pidx, dstack = ops[j].grads
        index.extend(pidx)
        derivs.append(suffix @ _embed(dstack, ops[j].targets, k) @ prefix[j])
        suffix = suffix @ mats[j]
    return qcnn.GateOp(prefix[-1], tuple(range(k)), (np.array(index), np.concatenate(derivs)))


def reference_circuit_ops(arch, params):
    """circuit_ops built gate by gate and fused one distinct block at a time."""
    blocks, flat_w = qcnn.split_params(arch, params)
    ops = []
    for d, wires in enumerate(arch.active_wires):
        base = qcnn.BLOCK_WEIGHTS * d
        conv_w, pool_w = blocks[d]
        plain = _fuse(_reference_conv(conv_w, False, base), 2)
        head = _fuse(_reference_conv(conv_w, True, base), 2) if d == 0 else plain
        for parity, block in ((0, head), (1, plain)):
            ops += [replace(block, targets=(wires[i], wires[i + 1])) for i in range(parity, len(wires) - 1, 2)]
        pool = _fuse(_reference_pool(pool_w, base + qcnn.CONV_WEIGHTS), 2)
        ops += [replace(pool, targets=(wires[j - 1], wires[j])) for j in range(1, len(wires), 2)]
    r = len(arch.remaining_wires)
    readout = _fuse(_reference_readout(flat_w, r, qcnn.BLOCK_WEIGHTS * arch.depth), r)
    return ops + [replace(readout, targets=arch.remaining_wires)]


def allowed_shapes():
    """Every architecture with n = 2..12 that the register allows, up to a
    4-wire readout: a 5-wire one already holds 1023 dense 32x32 derivatives."""
    for n in range(2, 13):
        for d in range(n):
            try:
                arch = qcnn.build_architecture(n, d)
            except qcnn.QcnnError:  # the depth exhausts the register or leaves too wide a readout
                continue
            if len(arch.remaining_wires) <= 4:
                yield arch


def test_circuit_ops_is_bitwise_the_per_gate_fused_reference():
    rng = np.random.default_rng(34)
    shapes = list(allowed_shapes())
    assert len({(arch.n_qubits, arch.depth) for arch in shapes}) == len(shapes) == 32
    for arch in shapes:
        for _ in range(3):
            params = rng.uniform(-np.pi, np.pi, arch.param_count)
            got, want = qcnn.circuit_ops(arch, params), reference_circuit_ops(arch, params)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.targets == w.targets
                assert g.matrix.tobytes() == w.matrix.tobytes()  # signs of zero count too
                (g_index, g_derivs), (w_index, w_derivs) = g.grads, w.grads
                assert sorted(g_index.tolist()) == sorted(w_index.tolist())
                by_index = dict(zip(w_index.tolist(), w_derivs))
                for p, dm in zip(g_index.tolist(), g_derivs):
                    assert dm.tobytes() == by_index[p].tobytes()
                eye = np.eye(len(g.matrix))
                assert np.max(np.abs(g.matrix.conj().T @ g.matrix - eye)) <= 1e-10


def test_circuit_ops_rejects_wrong_param_length():
    arch = qcnn.build_architecture(6, 2)
    for count in (arch.param_count - 1, arch.param_count + 1):
        with pytest.raises(qcnn.QcnnError, match=f"parameters for n=6, depth=2; got {count}"):
            qcnn.circuit_ops(arch, np.zeros(count))


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def test_forward_zero_params_on_basis_image():
    arch = qcnn.build_architecture(4, 1)
    pixels = np.zeros(16)
    pixels[0] = 1.0
    assert qcnn.batch_p1s(arch, np.zeros(arch.param_count), [pixels])[0] == 0.0


def test_forward_probability_in_range_and_norm_kept():
    arch = qcnn.build_architecture(6, 2)
    for _ in range(100):
        params = RNG.uniform(-np.pi, np.pi, arch.param_count)
        pixels = RNG.uniform(0.01, 1, 64)
        state = amplitude_embed(pixels, arch.n_qubits)
        for op in qcnn.circuit_ops(arch, params):
            state = sim.apply_gate(state, op.matrix, op.targets)
        assert abs(np.linalg.norm(state) - 1) < 1e-10
        p1 = sim.readout_prob_one(state, arch.readout_wire)
        assert 0 <= p1 <= 1


def test_forward_matches_branching_oracle_small():
    arch = qcnn.build_architecture(4, 1)
    for _ in range(20):
        params = RNG.uniform(-np.pi, np.pi, arch.param_count)
        pixels = RNG.uniform(0.01, 1, 16)
        a = qcnn.batch_p1s(arch, params, [pixels])[0]
        b = qcnn.forward_branching(arch, params, pixels)
        assert abs(a - b) < 1e-12


def test_zero_parameter_circuit_reads_embedded_marginal():
    arch = qcnn.build_architecture(4, 1)
    pixels = RNG.uniform(0.01, 1, 16)
    p1 = qcnn.batch_p1s(arch, np.zeros(arch.param_count), [pixels])[0]
    embedded = amplitude_embed(pixels, 4)
    assert abs(p1 - sim.readout_prob_one(embedded, arch.readout_wire)) < 1e-12


# ---------------------------------------------------------------------------
# layout plan
# ---------------------------------------------------------------------------

PLAN_SHAPES = ((4, 1), (6, 2), (7, 2), (10, 2))


def two_gather_backward(arch, ops, ket, p1s, labels):
    """The adjoint sweep with each block's gather in and scatter back out,
    for ket and bra alike: what the plan's one composed gather replaces."""
    labels = np.asarray(labels, dtype=np.float64)
    bra = ket * (2.0 * (p1s - labels) / labels.size)
    bra[((np.arange(len(bra)) >> arch.readout_wire) & 1) == 0] = 0
    grads = np.zeros(arch.param_count)
    for op in reversed(ops):
        order, inverse = sim._row_order(op.targets, arch.n_qubits)
        inv = op.matrix.conj().T
        rows = bra[order].reshape(len(inv), -1)
        ket_out, bra_out = inv @ ket[order].reshape(len(inv), -1), inv @ rows
        env = ket_out @ rows.conj().T
        index, derivs = op.grads
        grads[index] += 2.0 * np.real(derivs.reshape(len(index), -1) @ env.T.reshape(-1))
        ket, bra = ket_out.reshape(ket.shape)[inverse], bra_out.reshape(bra.shape)[inverse]
    return grads


@pytest.mark.parametrize("n, d", PLAN_SHAPES)
def test_layout_plan_composes_each_scatter_with_the_next_gather(n, d):
    arch = qcnn.build_architecture(n, d)
    targets = [op.targets for op in qcnn.circuit_ops(arch, np.zeros(arch.param_count))]
    forward, backward = sim._layout_plan(tuple(targets), n)
    orders = [sim._row_order(t, n) for t in targets]
    rows = RNG.permutation(2**n)
    assert len(forward) == len(targets) + 1 and len(backward) == len(targets)
    assert np.array_equal(rows[forward[0]], rows[orders[0][0]])
    for (_, inverse), (order, _), gather in zip(orders, orders[1:], forward[1:]):
        assert np.array_equal(rows[gather], rows[inverse][order])
    assert np.array_equal(rows[forward[-1]], rows[orders[-1][1]])
    assert np.array_equal(rows[backward[0]], rows[orders[-1][0]])
    for (_, inverse), (order, _), gather in zip(orders[::-1], orders[-2::-1], backward[1:]):
        assert np.array_equal(rows[gather], rows[inverse][order])
    assert not any(gather.flags.writeable for gather in forward + backward)


@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("n, d", PLAN_SHAPES)
def test_run_columns_and_backward_are_bitwise_the_two_gather_reference(n, d, m):
    rng = np.random.default_rng(36 + n)
    arch = qcnn.build_architecture(n, d)
    ops = qcnn.circuit_ops(arch, rng.uniform(-np.pi, np.pi, arch.param_count))
    cols = embed_columns(rng.random((m, 2**n)), n)
    labels = rng.integers(0, 2, m)
    want = apply_ops(cols, ops)
    ket, p1s = qcnn.run_columns(arch, ops, cols)
    mask = ((np.arange(2**n) >> arch.readout_wire) & 1).astype(bool)
    assert np.array_equal(ket, want)
    assert np.array_equal(p1s, np.sum(np.abs(want[mask]) ** 2, axis=0))
    assert np.array_equal(qcnn._backward(arch, ops, [ket, p1s, labels]),
                          two_gather_backward(arch, ops, want, p1s, labels))


@pytest.mark.parametrize("n, d", PLAN_SHAPES)
def test_run_columns_takes_real_and_complex_states_alike_and_leaves_them_unmodified(n, d):
    rng = np.random.default_rng(40 + n)
    arch = qcnn.build_architecture(n, d)
    ops = qcnn.circuit_ops(arch, rng.uniform(-np.pi, np.pi, arch.param_count))
    real = embed_columns(rng.random((3, 2**n)), n)
    runs = []
    for cols in (real, real.astype(np.complex128)):
        before = cols.copy()
        runs.append(qcnn.run_columns(arch, ops, cols))
        assert cols.tobytes() == before.tobytes()
    (ket_r, p1s_r), (ket_c, p1s_c) = runs
    assert ket_r.dtype == ket_c.dtype == np.complex128
    assert ket_r.tobytes() == ket_c.tobytes() and p1s_r.tobytes() == p1s_c.tobytes()


@pytest.mark.parametrize("kernel", ["run_columns", "apply_gate"])
def test_repeated_gate_calls_hold_no_memory(kernel):
    """Target tuples are built from lists.  Built from a generator, a tuple is
    resized, and CPython parks one more freed tuple on its per-size free list
    every call: about 259 KiB over 3000 run_columns calls (the plan's cache
    key) and 94 KiB over 3000 apply_gate calls."""
    arch = qcnn.build_architecture(6, 2)
    ops = qcnn.circuit_ops(arch, RNG.uniform(-np.pi, np.pi, arch.param_count))
    cols = embed_columns(RNG.random((2, 64)), 6)
    call = {"run_columns": lambda: qcnn.run_columns(arch, ops, cols),
            "apply_gate": lambda: sim.apply_gate(cols, ops[0].matrix, ops[0].targets)}[kernel]
    for _ in range(50):
        call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(3000):
            call()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 16 * 1024
