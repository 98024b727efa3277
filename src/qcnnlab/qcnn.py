"""The variational quantum convolutional classifier circuit.

Structure per depth: a shared-parameter convolution over adjacent pairs of
active wires (two-qubit Ising rotations framed by general one-qubit
unitaries), then pooling that conditions each odd-position wire's partner on
it and drops the odd-position wires from the active list.  After the last
depth, a universal rotation layer acts on the r surviving wires, and the
class probability is the |1> readout probability of the first survivor.

Pooling's measure-then-condition step is realized as a controlled gate:
by the deferred measurement principle the final readout statistics are
identical, and the simulation stays exact and deterministic.  The explicit
measure-and-branch evaluator kept here (:func:`forward_branching`) is a
verification oracle only; nothing in the training path calls it.

Parameters live in one flat vector: one 18-value block per depth
(15 convolution angles, 3 pooling angles), then 4**r - 1 angles for the
final layer, so the total is 18*d + 4**r - 1.

The simulated circuit is a list of fused blocks (:func:`circuit_ops`): one
4x4 matrix per convolution pair and per pooling pair, and one 2**r x 2**r
matrix for the final layer, each carrying its derivative for every angle
it depends on.  The per-gate builders (:func:`conv_block_ops`,
:func:`pool_block_ops`, :func:`flatten_block_ops`) stay the one definition
of the gates; a block is their product on local wires.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .embedding import amplitude_embed, embed_columns
from .simulator import (
    PAULIS,
    _apply_gate,
    apply_gate,
    controlled,
    ising_matrix,
    ising_matrix_grad,
    readout_prob_one,
    u3_matrix,
    u3_matrix_grads,
)


class QcnnError(ValueError):
    pass


class TooDeep(QcnnError):
    pass


class WeightLengthMismatch(QcnnError):
    pass


CONV_WEIGHTS = 15
POOL_WEIGHTS = 3
BLOCK_WEIGHTS = CONV_WEIGHTS + POOL_WEIGHTS


@dataclass(frozen=True)
class Architecture:
    """Wire bookkeeping and parameter layout for a circuit of given size."""

    n_qubits: int
    depth: int
    active_wires: tuple[tuple[int, ...], ...]  # per depth, before its pooling
    remaining_wires: tuple[int, ...]
    param_count: int = field(init=False)

    def __post_init__(self):
        r = len(self.remaining_wires)
        object.__setattr__(self, "param_count", BLOCK_WEIGHTS * self.depth + 4**r - 1)

    @property
    def readout_wire(self) -> int:
        return self.remaining_wires[0]


def build_architecture(n_qubits: int, depth: int) -> Architecture:
    """Survivor lists under even-position pooling, plus the parameter count.

    Each pooling keeps the even-position wires of the current active list,
    so the width goes n -> ceil(n/2) per depth (10 -> 5 -> 3 at depth 2).
    """
    if n_qubits < 2:
        raise QcnnError(f"need at least 2 qubits, got {n_qubits}")
    if depth < 0:
        raise QcnnError(f"depth must be >= 0, got {depth}")
    wires = tuple(range(n_qubits))
    per_depth = []
    for _ in range(depth):
        if len(wires) < 2:
            raise TooDeep(f"depth {depth} exhausts a {n_qubits}-qubit register")
        per_depth.append(wires)
        wires = wires[0::2]
    return Architecture(n_qubits, depth, tuple(per_depth), wires)


def split_params(arch: Architecture, params) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Split a flat parameter vector into per-depth (conv, pool) blocks + final layer."""
    params = np.asarray(params, dtype=np.float64).reshape(-1)
    if len(params) != arch.param_count:
        raise WeightLengthMismatch(
            f"expected {arch.param_count} parameters for n={arch.n_qubits}, "
            f"depth={arch.depth}; got {len(params)}"
        )
    blocks = []
    for d in range(arch.depth):
        base = BLOCK_WEIGHTS * d
        blocks.append((params[base : base + CONV_WEIGHTS], params[base + CONV_WEIGHTS : base + BLOCK_WEIGHTS]))
    return blocks, params[BLOCK_WEIGHTS * arch.depth :]


# ---------------------------------------------------------------------------
# gate sequence construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateOp:
    """One gate or fused block applied to ``targets``.

    ``grads`` is empty or a pair (parameter indices, dM/dtheta stacked as a
    (P, k, k) array), one derivative per index; within one op the indices
    are distinct.
    """

    matrix: np.ndarray
    targets: tuple[int, ...]
    grads: tuple = ()


def _u3_op(angles, wire, base, with_grads) -> GateOp:
    m = u3_matrix(*angles)
    if not with_grads:
        return GateOp(m, (wire,))
    return GateOp(m, (wire,), ((base, base + 1, base + 2), u3_matrix_grads(*angles)))


def _controlled_u3_op(angles, control, target, base, with_grads) -> GateOp:
    m = controlled(u3_matrix(*angles))
    if not with_grads:
        return GateOp(m, (control, target))
    big = np.zeros((3, 4, 4), dtype=np.complex128)
    big[:, 2:, 2:] = u3_matrix_grads(*angles)
    return GateOp(m, (control, target), ((base, base + 1, base + 2), big))


def _ising_op(kind, theta, pair, idx, with_grads) -> GateOp:
    m = ising_matrix(kind, theta)
    if not with_grads:
        return GateOp(m, pair)
    return GateOp(m, pair, ((idx,), ising_matrix_grad(kind, theta)[None]))


def conv_block_ops(weights15, wires, first_depth: bool, base: int = 0,
                   with_grads: bool = False) -> list[GateOp]:
    """Shared-parameter convolution over adjacent pairs of ``wires``, gate by gate.

    Two sub-rounds cover even-offset then odd-offset pairs.  Every pair gets
    the Ising XX/YY/ZZ rotations (weights 6..8) followed by a one-qubit
    unitary on each wire (weights 9..11 and 12..14).  Only at the first
    depth, even-offset pairs are preceded by an extra unitary on each wire
    (weights 0..2 and 3..5).
    """
    w = np.asarray(weights15, dtype=np.float64)
    if len(w) != CONV_WEIGHTS:
        raise WeightLengthMismatch(f"convolution takes {CONV_WEIGHTS} weights, got {len(w)}")
    if len(wires) < 2:
        raise QcnnError("convolution needs at least 2 wires")
    ops: list[GateOp] = []
    for parity in (0, 1):
        for i in range(parity, len(wires) - 1, 2):
            a, b = wires[i], wires[i + 1]
            if parity == 0 and first_depth:
                ops.append(_u3_op(w[0:3], a, base + 0, with_grads))
                ops.append(_u3_op(w[3:6], b, base + 3, with_grads))
            for k, kind in enumerate(("XX", "YY", "ZZ")):
                ops.append(_ising_op(kind, w[6 + k], (a, b), base + 6 + k, with_grads))
            ops.append(_u3_op(w[9:12], a, base + 9, with_grads))
            ops.append(_u3_op(w[12:15], b, base + 12, with_grads))
    return ops


def pool_block_ops(weights3, wires, base: int = 0,
                   with_grads: bool = False) -> tuple[list[GateOp], tuple[int, ...]]:
    """Pooling over ``wires``: condition each odd-position wire's left
    neighbour on it, keep the even-position wires.

    The controlled gate realizes measure-then-conditionally-rotate exactly;
    the control wire is simply never addressed by any later layer.
    """
    w = np.asarray(weights3, dtype=np.float64)
    if len(w) != POOL_WEIGHTS:
        raise WeightLengthMismatch(f"pooling takes {POOL_WEIGHTS} weights, got {len(w)}")
    if len(wires) < 2:
        raise QcnnError("pooling needs at least 2 wires")
    ops = [
        _controlled_u3_op(w, wires[j], wires[j - 1], base, with_grads)
        for j in range(1, len(wires), 2)
    ]
    return ops, tuple(wires[0::2])


def pauli_word(index: int, r: int) -> str:
    """The ``index``-th word of {I,X,Y,Z}**r counted base 4, leftmost digit first."""
    digits = []
    for _ in range(r):
        digits.append("IXYZ"[index % 4])
        index //= 4
    return "".join(reversed(digits))


@lru_cache(maxsize=None)
def pauli_word_matrix(word: str) -> np.ndarray:
    """Kronecker product of the word's Paulis, built once per word (read-only)."""
    m = np.array([[1]], dtype=np.complex128)
    for ch in word:
        m = np.kron(m, PAULIS[ch])
    m.setflags(write=False)
    return m


def pauli_rotation(word: str, theta: float) -> np.ndarray:
    """exp(-i*(theta/2)*W) for a Pauli word W; W**2 = I gives the closed form."""
    dim = 2 ** len(word)
    w = pauli_word_matrix(word)
    return np.cos(theta / 2) * np.eye(dim, dtype=np.complex128) - 1j * np.sin(theta / 2) * w


def pauli_rotation_grad(word: str, theta: float) -> np.ndarray:
    dim = 2 ** len(word)
    w = pauli_word_matrix(word)
    return -0.5 * np.sin(theta / 2) * np.eye(dim, dtype=np.complex128) - 0.5j * np.cos(theta / 2) * w


def flatten_block_ops(weights, wires, base: int = 0, with_grads: bool = False) -> list[GateOp]:
    """Universal layer on the survivors, gate by gate: one rotation per
    nonidentity Pauli word over the r wires, in base-4 counting order
    (leftmost digit is the lowest-indexed wire), 4**r - 1 rotations in total.
    """
    r = len(wires)
    w = np.asarray(weights, dtype=np.float64)
    if len(w) != 4**r - 1:
        raise WeightLengthMismatch(f"final layer on {r} wires takes {4**r - 1} weights, got {len(w)}")
    targets = tuple(wires)
    ops = []
    for k in range(1, 4**r):
        word = pauli_word(k, r)
        m = pauli_rotation(word, w[k - 1])
        grads = ((base + k - 1,), pauli_rotation_grad(word, w[k - 1])[None]) if with_grads else ()
        ops.append(GateOp(m, targets, grads))
    return ops


# ---------------------------------------------------------------------------
# fused blocks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _embedding_index(local_targets: tuple[int, ...], k: int):
    """Where each entry of a gate on ``local_targets`` lands in a k-wire block.

    Block wire p is bit k-1-p of the block's index (wire 0 most
    significant).  Returns (rows, cols, gate_rows, gate_cols) for
    ``block[rows, cols] = gate[gate_rows, gate_cols]``.
    """
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


def _embed(m: np.ndarray, local_targets: tuple[int, ...], k: int) -> np.ndarray:
    """A gate (or a stack of them) on ``local_targets`` as 2**k x 2**k blocks."""
    if local_targets == tuple(range(k)):
        return m
    rows, cols, gi, gj = _embedding_index(local_targets, k)
    out = np.zeros(m.shape[:-2] + (2**k, 2**k), dtype=np.complex128)
    out[..., rows, cols] = m[..., gi, gj]
    return out


def _fuse(ops, k: int, with_grads: bool) -> GateOp:
    """Multiply per-gate ``ops`` on local wires 0..k-1 into one block.

    Local wire p becomes the block's p-th target.  With ``with_grads``, the
    derivative for a parameter of gate j is (gates after j) dG_j (gates
    before j), taken from prefix and suffix products.
    """
    dim = 2**k
    mats = [_embed(op.matrix, op.targets, k) for op in ops]
    prefix = [np.eye(dim, dtype=np.complex128)]
    for m in mats:
        prefix.append(m @ prefix[-1])
    local = tuple(range(k))
    if not with_grads:
        return GateOp(prefix[-1], local)
    suffix = np.eye(dim, dtype=np.complex128)
    index, derivs = [], []
    for j in range(len(ops) - 1, -1, -1):
        pidx, dstack = ops[j].grads
        index.extend(pidx)
        derivs.append(suffix @ _embed(dstack, ops[j].targets, k) @ prefix[j])
        suffix = suffix @ mats[j]
    return GateOp(prefix[-1], local, (np.array(index), np.concatenate(derivs)))


def circuit_ops(arch: Architecture, params, with_grads: bool = False) -> list[GateOp]:
    """The circuit for one forward pass as fused blocks, embedding excluded.

    One 4x4 block per convolution pair, one per pooling pair and one
    2**r x 2**r block for the final layer.  Each distinct block is built once
    from the per-gate ops on local wires (0, 1) (the readout layer on
    0..r-1) and shared by every pair it acts on: the first depth has a
    conv block with head unitaries for the even-offset pairs and one
    without for the odd-offset pairs; later depths have one conv block.
    """
    blocks, flat_w = split_params(arch, params)
    pair = (0, 1)
    ops: list[GateOp] = []
    for d, wires in enumerate(arch.active_wires):
        base = BLOCK_WEIGHTS * d
        conv_w, pool_w = blocks[d]
        plain = _fuse(conv_block_ops(conv_w, pair, False, base, with_grads), 2, with_grads)
        head = _fuse(conv_block_ops(conv_w, pair, True, base, with_grads), 2, with_grads) if d == 0 else plain
        for parity, block in ((0, head), (1, plain)):
            ops += [replace(block, targets=(wires[i], wires[i + 1]))
                    for i in range(parity, len(wires) - 1, 2)]
        pool = _fuse(pool_block_ops(pool_w, pair, base + CONV_WEIGHTS, with_grads)[0], 2, with_grads)
        ops += [replace(pool, targets=(wires[j - 1], wires[j])) for j in range(1, len(wires), 2)]
    r = len(arch.remaining_wires)
    readout = _fuse(flatten_block_ops(flat_w, tuple(range(r)), BLOCK_WEIGHTS * arch.depth, with_grads),
                    r, with_grads)
    ops.append(replace(readout, targets=arch.remaining_wires))
    return ops


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def run_columns(arch: Architecture, ops, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evolve every column of ``states`` through ``ops`` and read each out.

    Returns (final states, class-1 probability per column).  Every QCNN
    forward pass but the measure-and-branch oracle runs through here.
    """
    for op in ops:
        states = _apply_gate(states, op.matrix, op.targets, arch.n_qubits)
    mask = ((np.arange(states.shape[0]) >> arch.readout_wire) & 1).astype(bool)
    return states, np.sum(np.abs(states[mask]) ** 2, axis=0)


def forward(arch: Architecture, params, pixels) -> float:
    """Class-1 probability of one image: embed, run the circuit, read out."""
    _, p1s = run_columns(arch, circuit_ops(arch, params), embed_columns([pixels], arch.n_qubits))
    return float(p1s[0])


# ---------------------------------------------------------------------------
# measure-and-branch oracle
# ---------------------------------------------------------------------------

def _apply_ops(state: np.ndarray, ops) -> np.ndarray:
    for op in ops:
        state = apply_gate(state, op.matrix, op.targets)
    return state


def _project(state: np.ndarray, wire: int, outcome: int) -> tuple[float, np.ndarray]:
    keep = (((np.arange(len(state)) >> wire) & 1) == outcome)
    projected = np.where(keep, state, 0)
    prob = float(np.sum(np.abs(projected) ** 2))
    return prob, projected


def forward_branching(arch: Architecture, params, pixels) -> float:
    """Forward pass with real projective measurements at every pooling step.

    Enumerates both outcomes of each measured wire (renormalizing and
    applying the pooling unitary only in the |1> branch) and averages the
    final readout over the branch distribution.  Exponential in the number
    of pooled wires; verification use only.
    """
    blocks, flat_w = split_params(arch, params)
    branches: list[tuple[float, np.ndarray]] = [(1.0, amplitude_embed(pixels, arch.n_qubits))]
    for d, wires in enumerate(arch.active_wires):
        conv_ops = conv_block_ops(blocks[d][0], wires, first_depth=(d == 0))
        branches = [(p, _apply_ops(s, conv_ops)) for p, s in branches]
        pool_u3 = u3_matrix(*blocks[d][1])
        for j in range(1, len(wires), 2):
            measured, partner = wires[j], wires[j - 1]
            next_branches = []
            for weight, state in branches:
                p0, s0 = _project(state, measured, 0)
                if p0 > 0:
                    next_branches.append((weight * p0, s0 / np.sqrt(p0)))
                p1, s1 = _project(state, measured, 1)
                if p1 > 0:
                    s1 = apply_gate(s1 / np.sqrt(p1), pool_u3, (partner,))
                    next_branches.append((weight * p1, s1))
            branches = next_branches
    flat_ops = flatten_block_ops(flat_w, arch.remaining_wires)
    return float(sum(p * readout_prob_one(_apply_ops(s, flat_ops), arch.readout_wire)
                     for p, s in branches))
