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
matrix for the final layer, each always carrying its derivative for every
angle it depends on.  Closed-form gate stacks are written straight into the
chains and multiplied in gate order, so a block is bit for bit the product
of the per-gate builders (:func:`conv_block_ops`, :func:`pool_block_ops`,
:func:`flatten_block_ops`), which stay the one definition of the gates.

:func:`train_qcnn` hands :func:`training.fit` the amplitude embedding,
:func:`circuit_ops`, the batched forward :func:`run_columns` scored by the
MSE loss (:func:`_forward`), and the loss's exact gradient: the adjoint
method of Jones & Gacon (arXiv:2009.02823), one reverse sweep over the fused
blocks (:func:`_backward`), checked against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .augment import AugmentConfig
from .embedding import amplitude_embed, embed_columns
from .simulator import (
    _ISING_GENERATORS,
    PAULIS,
    _layout_plan,
    apply_gate,
    controlled,
    ising_matrix,
    readout_prob_one,
    rotation_matrix,
    u3_matrix,
)
from .training import TrainConfig, TrainingError, fit


class QcnnError(ValueError):
    pass


CONV_WEIGHTS = 15
POOL_WEIGHTS = 3
BLOCK_WEIGHTS = CONV_WEIGHTS + POOL_WEIGHTS
MAX_READOUT_WIRES = 5  # a 6-wire readout's Pauli words alone take 256 MiB at every bind


@dataclass(frozen=True)
class Architecture:
    """Wire bookkeeping and parameter layout for a circuit of given size."""

    n_qubits: int
    depth: int
    active_wires: tuple[tuple[int, ...], ...]  # per depth, before its pooling
    remaining_wires: tuple[int, ...]

    @property
    def param_count(self) -> int:
        return BLOCK_WEIGHTS * self.depth + 4 ** len(self.remaining_wires) - 1

    @property
    def readout_wire(self) -> int:
        return self.remaining_wires[0]


def build_architecture(n_qubits: int, depth: int) -> Architecture:
    """Survivor lists under even-position pooling, plus the parameter count.

    Each pooling keeps the even-position wires of the current active list,
    so the width goes n -> ceil(n/2) per depth (10 -> 5 -> 3 at depth 2).  A
    readout wider than :data:`MAX_READOUT_WIRES` is refused.
    """
    if n_qubits < 2:
        raise QcnnError(f"need at least 2 qubits, got {n_qubits}")
    if depth < 0:
        raise QcnnError(f"depth must be >= 0, got {depth}")
    wires = tuple(range(n_qubits))
    per_depth = []
    for _ in range(depth):
        if len(wires) < 2:
            raise QcnnError(f"depth {depth} exhausts a {n_qubits}-qubit register")
        per_depth.append(wires)
        wires = wires[0::2]
    if len(wires) > MAX_READOUT_WIRES:
        raise QcnnError(f"a {len(wires)}-wire readout takes {4**len(wires) - 1} rotations; "
                        f"at most {MAX_READOUT_WIRES} wires are supported, so raise depth")
    return Architecture(n_qubits, depth, tuple(per_depth), wires)


def split_params(arch: Architecture, params) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Split a flat parameter vector into per-depth (conv, pool) blocks + final layer."""
    params = np.asarray(params, dtype=np.float64).reshape(-1)
    if len(params) != arch.param_count:
        raise QcnnError(
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

    ``grads`` is empty for the per-gate builders' ops.  Every block from
    :func:`circuit_ops` carries it: a pair (parameter indices, dM/dtheta
    stacked as a (P, k, k) array), one derivative per index; within one op
    the indices are distinct.
    """

    matrix: np.ndarray
    targets: tuple[int, ...]
    grads: tuple = ()


def conv_block_ops(weights15, wires, first_depth: bool) -> list[GateOp]:
    """Shared-parameter convolution over adjacent pairs of ``wires``, gate by gate.

    Two sub-rounds cover even-offset then odd-offset pairs.  Every pair gets
    the Ising XX/YY/ZZ rotations (weights 6..8) followed by a one-qubit
    unitary on each wire (weights 9..11 and 12..14).  Only at the first
    depth, even-offset pairs are preceded by an extra unitary on each wire
    (weights 0..2 and 3..5).
    """
    w = np.asarray(weights15, dtype=np.float64)
    if len(w) != CONV_WEIGHTS:
        raise QcnnError(f"convolution takes {CONV_WEIGHTS} weights, got {len(w)}")
    if len(wires) < 2:
        raise QcnnError("convolution needs at least 2 wires")
    ops: list[GateOp] = []
    for parity in (0, 1):
        for i in range(parity, len(wires) - 1, 2):
            a, b = wires[i], wires[i + 1]
            if parity == 0 and first_depth:
                ops.append(GateOp(u3_matrix(*w[0:3]), (a,)))
                ops.append(GateOp(u3_matrix(*w[3:6]), (b,)))
            for k, kind in enumerate(("XX", "YY", "ZZ")):
                ops.append(GateOp(ising_matrix(kind, w[6 + k]), (a, b)))
            ops.append(GateOp(u3_matrix(*w[9:12]), (a,)))
            ops.append(GateOp(u3_matrix(*w[12:15]), (b,)))
    return ops


def pool_block_ops(weights3, wires) -> list[GateOp]:
    """Pooling over ``wires``: condition each odd-position wire's left
    neighbour on it (:func:`build_architecture` keeps the even-position wires).

    The controlled gate realizes measure-then-conditionally-rotate exactly;
    the control wire is simply never addressed by any later layer.
    """
    w = np.asarray(weights3, dtype=np.float64)
    if len(w) != POOL_WEIGHTS:
        raise QcnnError(f"pooling takes {POOL_WEIGHTS} weights, got {len(w)}")
    if len(wires) < 2:
        raise QcnnError("pooling needs at least 2 wires")
    return [GateOp(controlled(u3_matrix(*w)), (wires[j], wires[j - 1])) for j in range(1, len(wires), 2)]


def pauli_word(index: int, r: int) -> str:
    """The ``index``-th word of {I,X,Y,Z}**r counted base 4, leftmost digit first."""
    digits = []
    for _ in range(r):
        digits.append("IXYZ"[index % 4])
        index //= 4
    return "".join(reversed(digits))


def pauli_word_matrix(word: str) -> np.ndarray:
    """Kronecker product of the word's Paulis."""
    m = np.array([[1]], dtype=np.complex128)
    for ch in word:
        m = np.kron(m, PAULIS[ch])
    return m


def pauli_rotation(word: str, theta: float) -> np.ndarray:
    """exp(-i*(theta/2)*W) for a Pauli word W."""
    return rotation_matrix(pauli_word_matrix(word), theta)


def flatten_block_ops(weights, wires) -> list[GateOp]:
    """Universal layer on the survivors, gate by gate: one rotation per
    nonidentity Pauli word over the r wires, in base-4 counting order
    (leftmost digit is the lowest-indexed wire), 4**r - 1 rotations in total.
    """
    r = len(wires)
    w = np.asarray(weights, dtype=np.float64)
    if len(w) != 4**r - 1:
        raise QcnnError(f"final layer on {r} wires takes {4**r - 1} weights, got {len(w)}")
    targets = tuple(wires)
    return [GateOp(pauli_rotation(pauli_word(k, r), w[k - 1]), targets) for k in range(1, 4**r)]


# ---------------------------------------------------------------------------
# fused blocks
# ---------------------------------------------------------------------------

# A convolution block is a chain of seven gates on local wires (0, 1): U3 on
# wire 0, U3 on wire 1, XX, YY, ZZ, U3 on wire 0, U3 on wire 1; the first two
# exist only in the first depth's even-offset block.  A depth's five U3s take
# weights 0-2, 3-5, 9-11 and 12-14, and 15-17 for pooling.  A block's
# derivatives run last gate first; per derivative, its chain position and weight.
_U3_WEIGHTS = np.array([[0, 1, 2], [3, 4, 5], [9, 10, 11], [12, 13, 14], [15, 16, 17]])
_ISING = np.stack([_ISING_GENERATORS[kind] for kind in ("XX", "YY", "ZZ")])  # ising_matrix's own, bit for bit
_DERIV_POS = np.array([6, 6, 6, 5, 5, 5, 4, 3, 2, 1, 1, 1, 0, 0, 0])
_DERIV_WEIGHT = np.array([12, 13, 14, 9, 10, 11, 8, 7, 6, 3, 4, 5, 0, 1, 2])


def _place(blocks: np.ndarray, u: np.ndarray, wire) -> None:
    """Write one-qubit gates ``u`` (..., 2, 2) into 4x4 ``blocks``: kron(U, I)
    on local wire 0, kron(I, U) on wire 1, and for ``None`` the pooling gate,
    controlled by local wire 1, which keeps the rest of the block."""
    if wire == 0:
        blocks[..., 0::2, 0::2] = blocks[..., 1::2, 1::2] = u
    elif wire == 1:
        blocks[..., :2, :2] = blocks[..., 2:, 2:] = u
    else:
        blocks[..., 1::2, 1::2] = u


@lru_cache(maxsize=None)
def _readout_words(r: int) -> np.ndarray:
    """The readout's (4**r - 1, 2**r, 2**r) Pauli words in gate order, built once per r."""
    return np.stack([pauli_word_matrix(pauli_word(k, r)) for k in range(1, 4**r)])


def _u3_stacks(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`u3_matrix` and its (theta, phi, lam) derivatives for a (..., 3)
    stack of angles, as (..., 2, 2) and (..., 3, 2, 2) stacks, each entry the
    same expression as in the one-gate closed form."""
    theta, phi, lam = angles[..., 0], angles[..., 1], angles[..., 2]
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    ep, el, epl = np.exp(1j * phi), np.exp(1j * lam), np.exp(1j * (phi + lam))
    zero = np.zeros_like(ep)
    m = np.stack([c, -el * s, ep * s, epl * c], axis=-1)
    dm = np.stack([-0.5 * s, -0.5 * el * c, 0.5 * ep * c, -0.5 * epl * s,
                   zero, zero, 1j * ep * s, 1j * epl * c,
                   zero, -1j * el * s, zero, 1j * epl * c], axis=-1)
    return m.reshape(theta.shape + (2, 2)), dm.reshape(theta.shape + (3, 2, 2))


def _rotations(theta: np.ndarray, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i*(theta/2)*W) and its theta-derivative, broadcast over stacks of
    angles and Pauli words, in the form of :func:`rotation_matrix`."""
    c, s = np.cos(theta / 2)[..., None, None], np.sin(theta / 2)[..., None, None]
    eye = np.eye(words.shape[-1], dtype=np.complex128)
    return c * eye - 1j * s * words, -0.5 * s * eye - 0.5j * c * words


def _chain(gates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix and suffix products of a (L, ..., k, k) gate chain, in gate order.

    prefix[j] = G[j-1] ... G[0] (prefix[0] = I, prefix[L] the block) and
    suffix[j] = G[L-1] ... G[j+1] (suffix[L-1] = I).  work[j] holds prefix[j],
    G[L-1-j], G[j] and suffix[L-1-j], so one batched matmul per step,
    work[j, 2:] @ work[j, :2], yields prefix[j+1] and suffix[L-2-j].
    """
    n = len(gates)
    work = np.empty((n + 1, 4) + gates.shape[1:], dtype=np.complex128)
    work[0, 0] = work[0, 3] = np.eye(gates.shape[-1])
    work[:n, 1] = gates[::-1]
    work[:n, 2] = gates
    for j in range(n):
        np.matmul(work[j, 2:], work[j, :2], out=work[j + 1, ::3])
    return work[:, 0], work[n - 1::-1, 3]


def circuit_ops(arch: Architecture, params) -> list[GateOp]:
    """The circuit for one forward pass as fused blocks with their derivatives, embedding excluded.

    One 4x4 block per convolution pair, one per pooling pair and one
    2**r x 2**r block for the final layer; each distinct block is shared by
    every pair it acts on.  All U3s, Ising and readout rotations are
    evaluated with their derivatives as closed-form stacks and written
    straight into gate chains, which are multiplied in gate order
    (:func:`_chain`), and a parameter of gate j gets
    suffix[j] @ dG_j @ prefix[j], so each result is the per-gate product,
    term for term.
    """
    params = np.asarray(params, dtype=np.float64).reshape(-1)
    _, readout_w = split_params(arch, params)
    depth = arch.depth
    # Chain rows: 0 the first depth's head convolution block, 1..D the plain ones (identity at
    # the two head positions), D+1..2D the pooling blocks (their gate last); derivatives follow
    # _DERIV_POS, all 15 for the head, the first 9 for plain rows and 3 for pooling.
    conv = [0, *range(depth)] if depth else []  # the depth of each convolution row and of u's rows
    w = params[:BLOCK_WEIGHTS * depth].reshape(depth, BLOCK_WEIGHTS)[conv]
    u, du = _u3_stacks(w[:, _U3_WEIGHTS])
    x, dx = _rotations(w[:, 6:9], _ISING)
    gates = np.empty((7, len(conv) + depth, 4, 4), dtype=np.complex128)
    gates[...] = np.eye(4)
    dg = np.zeros((len(conv) + depth, 15, 4, 4), dtype=np.complex128)
    for pos, slot, wire, k in ((0, 0, 0, 12), (1, 1, 1, 9), (5, 2, 0, 3), (6, 3, 1, 0)):
        rows = slice(0, 1 if pos < 2 else depth + 1)
        _place(gates[pos, rows], u[rows, slot], wire)
        _place(dg[rows, k:k + 3], du[rows, slot], wire)
    gates[2:5, :depth + 1] = np.swapaxes(x, 0, 1)
    dg[:depth + 1, 6:9] = dx[:, ::-1]
    _place(gates[6, depth + 1:], u[1:, 4], None)
    _place(dg[depth + 1:, :3], du[1:, 4], None)
    prefix, suffix = _chain(gates)
    derivs = suffix[_DERIV_POS].swapaxes(0, 1) @ dg @ prefix[_DERIV_POS].swapaxes(0, 1)
    blocks = prefix[-1].copy()  # copies, so that the ops do not hold the chain buffers
    ops: list[GateOp] = []
    for d, wires in enumerate(arch.active_wires):
        base = BLOCK_WEIGHTS * d
        plain = blocks[d + 1], (base + _DERIV_WEIGHT[:9], derivs[d + 1, :9])
        head = (blocks[0], (base + _DERIV_WEIGHT, derivs[0])) if d == 0 else plain
        pool = blocks[depth + 1 + d], (np.arange(base + CONV_WEIGHTS, base + BLOCK_WEIGHTS), derivs[depth + 1 + d, :3])
        # pooling pairs an odd-position wire with its left neighbour: the even-offset pairs
        for parity, (m, grads) in ((0, head), (1, plain), (0, pool)):
            ops += [GateOp(m, (wires[i], wires[i + 1]), grads) for i in range(parity, len(wires) - 1, 2)]

    g, dg = _rotations(readout_w, _readout_words(len(arch.remaining_wires)))
    prefix, suffix = _chain(g)
    derivs = suffix[::-1] @ dg[::-1] @ prefix[-2::-1]
    index = np.arange(arch.param_count - 1, BLOCK_WEIGHTS * depth - 1, -1)
    ops.append(GateOp(prefix[-1].copy(), arch.remaining_wires, (index, derivs)))
    return ops


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def _plan(arch: Architecture, ops):
    """What the forward and the sweep share: the (forward, backward) gathers of
    :func:`_layout_plan` for ``ops``, and the rows whose readout bit is 1."""
    return (_layout_plan(tuple([op.targets for op in ops]), arch.n_qubits),
            ((np.arange(2**arch.n_qubits) >> arch.readout_wire) & 1).astype(bool))


def run_columns(arch: Architecture, ops, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evolve every column of ``states`` through ``ops`` and read each out.

    Returns (final states, class-1 probability per column).  One gather per
    block (:func:`_layout_plan`); every QCNN forward but the oracle's runs here.
    It holds two (2**n, m) complex state buffers: the first gather copies ``states`` (left
    unmodified) into one, and each block multiplies it into the other and ``take``s it back
    ("clip" writes ``out`` unbuffered, "raise" would not).
    """
    (gathers, _), ones = _plan(arch, ops)
    cur, buf = states[gathers[0]].astype(np.complex128, copy=False), np.empty(states.shape, np.complex128)
    for op, gather in zip(ops, gathers[1:]):
        np.matmul(op.matrix, cur.reshape(len(op.matrix), -1), out=buf.reshape(len(op.matrix), -1))
        np.take(buf, gather, axis=0, out=cur, mode="clip")
    del buf  # freed before the readout's temporaries
    return cur, np.sum(np.abs(cur[ones]) ** 2, axis=0)


def batch_p1s(arch: Architecture, params, images) -> np.ndarray:
    """Class-1 probability for every image, sharing one gate-sequence build."""
    _, p1s = run_columns(arch, circuit_ops(arch, params), embed_columns(images, arch.n_qubits))
    return p1s


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


# ---------------------------------------------------------------------------
# loss, exact gradient and training
# ---------------------------------------------------------------------------

def _batch(p1s, labels, what: str, dtype=None):
    """Flat float64 ``p1s`` and flat ``labels``, refused when empty or unequal in size."""
    p1s = np.asarray(p1s, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=dtype).reshape(-1)
    if p1s.size == 0:
        raise TrainingError(f"{what} over an empty batch")
    if p1s.size != labels.size:
        raise TrainingError(f"{p1s.size} probabilities vs {labels.size} labels")
    return p1s, labels


def mse_loss(p1s, labels) -> float:
    p1s, labels = _batch(p1s, labels, "loss", np.float64)
    return float(np.mean((p1s - labels) ** 2))


def accuracy(p1s, labels) -> float:
    """Share of samples whose class decision p1 > 0.5 matches the label; ties go to class 0."""
    p1s, labels = _batch(p1s, labels, "accuracy")
    return float(np.mean((p1s > 0.5) == labels))


def _forward(arch: Architecture, ops, cols: np.ndarray, labels):
    """(MSE loss, accuracy, cache) of the columns; :func:`_backward` takes the cache."""
    ket, p1s = run_columns(arch, ops, cols)
    return mse_loss(p1s, labels), accuracy(p1s, labels), [ket, p1s, labels]


def _backward(arch: Architecture, ops, cache: list) -> np.ndarray:
    """Exact MSE gradient via a reverse sweep with local environments.

    Forward gives phi = U_L ... U_1 psi and p1 = <phi|P1|phi> per column.
    The loss chain rule weights column s by c_s = 2 (p1_s - y_s) / m, so
    the sweep starts from bra = P1 phi c.  Sweeping blocks j = L..1, with
    bra = (U_L ... U_{j+1})^dag P1 phi c and ket the state entering block
    j, both with the block's target bits gathered into the rows, the
    block's environment E = ket @ bra^H contracts every other wire and
    the batch into a k x k matrix, and dL/dtheta = 2 Re tr(dU_j/dtheta E)
    for all of the block's parameters at once.  Shared parameters
    accumulate over every block they drive.  One gather per block moves ket
    and bra between layouts (:func:`_layout_plan`); the sweep empties ``cache``
    so that its first gather frees the forward's states, whoever holds the list.
    It holds three (2**n, m) complex states: bra, ket, and the new copy that each gather
    or product makes of one of them.
    """
    ket, p1s, labels = cache
    cache.clear()
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    shape = ket.shape
    (_, gathers), ones = _plan(arch, ops)
    bra = ket * (2.0 * (p1s - labels) / labels.size)
    bra[~ones] = 0
    grads = np.zeros(arch.param_count, dtype=np.float64)
    for op, gather in zip(reversed(ops), gathers):
        ket = ket.reshape(shape)[gather]
        rows = bra.reshape(shape)[gather].reshape(len(op.matrix), -1)
        del bra
        inv = op.matrix.conj().T
        ket = inv @ ket.reshape(len(inv), -1)
        bra = inv @ rows
        env = ket @ np.conjugate(rows, out=rows).T
        del rows
        index, derivs = op.grads
        grads[index] += 2.0 * np.real(derivs.reshape(len(index), -1) @ env.T.reshape(-1))
    return grads


def grad_exact(arch: Architecture, params, images, labels) -> np.ndarray:
    """Exact gradient of mse_loss over the batch w.r.t. every parameter."""
    labels = np.asarray(labels).reshape(-1)
    if len(images) == 0:
        raise TrainingError("gradient over an empty batch")
    if len(images) != labels.size:
        raise TrainingError(f"{len(images)} images vs {labels.size} labels")
    ops = circuit_ops(arch, params)
    return _backward(arch, ops, _forward(arch, ops, embed_columns(images, arch.n_qubits), labels)[2])


def init_params(arch: Architecture, seed: int) -> np.ndarray:
    """Seeded uniform(-pi, pi) start for every angle."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-np.pi, np.pi, arch.param_count)


def train_qcnn(arch: Architecture, train_set, test_set, cfg: TrainConfig,
               augment_cfg: AugmentConfig | None = None):
    """:func:`fit` the circuit from :func:`init_params` on the MSE loss.

    Each parameter vector is bound to its fused blocks with their
    derivatives (:func:`circuit_ops`) once, and they serve both the metrics
    after a step and the next step's gradient, so an E-epoch run builds the
    circuit E + 1 times.  It runs 2E + 1 forwards without augmentation,
    where each gradient reuses the metrics' train-set forward, and 3E with
    it.
    """
    return fit(init_params(arch, cfg.seed), train_set, test_set, cfg, augment_cfg,
               encode=partial(embed_columns, n_qubits=arch.n_qubits),
               bind=partial(circuit_ops, arch), forward=partial(_forward, arch),
               backward=partial(_backward, arch))
