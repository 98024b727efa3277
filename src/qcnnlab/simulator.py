"""Exact state-vector simulation of few-qubit registers.

States are plain numpy arrays of 2**n complex amplitudes; a batch of states
is a (2**n, m) matrix with one state per column.  A state may also arrive
real (an amplitude embedding of pixels); the first gate's matmul promotes it
to complex exactly, so every gate's output is complex.  Qubit 0 is the
least-significant bit of the basis-state index, so basis state |q1 q0> = |10>
sits at index 2.  Gates are dense 2x2 or 4x4 complex matrices; for a
multi-qubit gate the first entry of ``targets`` addresses the most
significant bit of the gate's own index.  The checked one-gate kernel gathers
the target bits into the leading rows, multiplies and scatters back; a circuit
runs one cached, composed gather per gate and scatters back once at the end.

All amplitudes are double precision; the unitarity and norm tolerances used
by the test suite (1e-10 / 1e-12) assume that.  Global phase is never
tracked or normalized.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class SimulatorError(ValueError):
    """A contract violation in the simulator."""


# Pauli matrices
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

PAULIS = {"I": np.eye(2, dtype=np.complex128), "X": X, "Y": Y, "Z": Z}

# P(x)P for the two-qubit Ising rotations, built once
_ISING_GENERATORS = {kind: np.kron(PAULIS[kind[0]], PAULIS[kind[0]]) for kind in ("XX", "YY", "ZZ")}


def num_qubits(state: np.ndarray) -> int:
    n = int(len(state)).bit_length() - 1
    if 2**n != len(state):
        raise SimulatorError(f"state length {len(state)} is not a power of two")
    return n


def zero_state(n_qubits: int) -> np.ndarray:
    """|0...0> on ``n_qubits`` wires."""
    state = np.zeros(2**n_qubits, dtype=np.complex128)
    state[0] = 1.0
    return state


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """General single-qubit unitary from its three Euler-like angles.

    U = [[cos(t/2),            -e^{i*lam} sin(t/2)],
         [e^{i*phi} sin(t/2),   e^{i*(phi+lam)} cos(t/2)]]
    """
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [[c, -np.exp(1j * lam) * s],
         [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]],
        dtype=np.complex128,
    )


def rotation_matrix(generator: np.ndarray, theta: float) -> np.ndarray:
    """exp(-i*(theta/2)*W) for a generator with W**2 = I: cos(theta/2)*I - i*sin(theta/2)*W."""
    return np.cos(theta / 2) * np.eye(len(generator), dtype=np.complex128) - 1j * np.sin(theta / 2) * generator


def axis_rotation_matrix(alpha: float, axis: tuple[float, float, float]) -> np.ndarray:
    """exp(-i*(alpha/2)*(n . sigma)) for a unit axis n = (nx, ny, nz)."""
    nx, ny, nz = axis
    norm = np.sqrt(nx * nx + ny * ny + nz * nz)
    if abs(norm - 1.0) > 1e-9:
        raise SimulatorError(f"axis norm {norm} differs from 1 by more than 1e-9")
    return rotation_matrix(nx * X + ny * Y + nz * Z, alpha)


def ising_matrix(kind: str, theta: float) -> np.ndarray:
    """Two-qubit rotation exp(-i*(theta/2)*P(x)P) for kind in {"XX","YY","ZZ"}."""
    if kind not in _ISING_GENERATORS:
        raise SimulatorError(f"unknown Ising kind {kind!r}")
    return rotation_matrix(_ISING_GENERATORS[kind], theta)


def is_unitary(g: np.ndarray, tol: float = 1e-10) -> bool:
    return bool(np.max(np.abs(g.conj().T @ g - np.eye(g.shape[0]))) <= tol)


def controlled(g: np.ndarray) -> np.ndarray:
    """Block-diagonal [I, g]: acts as g on the target iff the control is |1>.

    Apply with targets (control, target).  controlled(X) is CNOT.
    """
    if g.shape != (2, 2):
        raise SimulatorError(f"controlled() expects a 2x2 gate, got {g.shape}")
    if not is_unitary(g, tol=1e-9):
        raise SimulatorError("controlled() requires a unitary gate")
    out = np.eye(4, dtype=np.complex128)
    out[2:, 2:] = g
    return out


def _check_targets(n: int, targets, g=None) -> tuple[int, ...]:
    """``targets`` as an int tuple (list-built, see :func:`_layout_plan`), checked
    against an n-qubit register and, when given, against gate ``g``'s shape."""
    targets = tuple([int(t) for t in targets])
    for q in targets:
        if not 0 <= q < n:
            raise SimulatorError(f"qubit {q} out of range for {n}-qubit register")
    if len(set(targets)) != len(targets):
        raise SimulatorError(f"duplicate target in {targets}")
    k = len(targets)
    if g is not None and g.shape != (2**k, 2**k):
        raise SimulatorError(f"gate shape {g.shape} does not match {k} target(s)")
    return targets


def apply_gate(state: np.ndarray, g: np.ndarray, targets) -> np.ndarray:
    """Apply ``g`` to the listed qubits of ``state``; identity elsewhere.

    ``state`` is one state of shape (2**n,) or a batch of shape (2**n, m),
    one state per column.  ``targets[0]`` is the most significant bit of the
    gate's own index, so a 4x4 block-diagonal controlled gate takes targets
    (control, target).  Returns a new array; the input is never mutated.
    """
    if state.ndim not in (1, 2):
        raise SimulatorError(f"state must be (2**n,) or (2**n, m), got shape {state.shape}")
    n = num_qubits(state)
    order, inverse = _row_order(_check_targets(n, targets, g), n)
    return (g @ state[order].reshape(len(g), -1)).reshape(state.shape)[inverse]


@lru_cache(maxsize=None)
def _row_order(targets: tuple[int, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row order that gathers ``targets`` into the leading index bits, and its inverse.

    Row p of ``state[order]`` is basis state ``order[p]``: the top k bits of p
    are the target bits (``targets[0]`` most significant), the low n-k bits
    the other qubits, highest first.  So ``state[order].reshape(2**k, -1)``
    puts a k-target gate's own index on the rows, and ``[inverse]`` undoes it.
    """
    rest = [q for q in range(n - 1, -1, -1) if q not in targets]
    axes = [n - 1 - q for q in (*targets, *rest)]  # axis n-1-q of the (2,)*n index view is qubit q
    order = np.arange(2**n).reshape((2,) * n).transpose(axes).reshape(-1)
    inverse = np.argsort(order)
    order.setflags(write=False)
    inverse.setflags(write=False)
    return order, inverse


@lru_cache(maxsize=None)
def _layout_plan(targets: tuple[tuple[int, ...], ...], n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """(forward, backward) row gathers that run gates 0..L on ``targets``, one per gate.

    With :func:`_row_order`'s (order_j, inverse_j), forward is order_0, each
    inverse_j[order_{j+1}], then inverse_L; backward is order_L, then each
    inverse_j[order_{j-1}].  Build the key from a list: a generator-built
    tuple is resized, which parks one more tuple on CPython's free list.
    """
    orders = [_row_order(t, n) for t in targets]
    forward, backward = ([seq[0][0]] + [inv[order] for (_, inv), (order, _) in zip(seq, seq[1:])]
                         for seq in (orders, orders[::-1]))
    for gather in forward + backward:
        gather.setflags(write=False)
    return (*forward, orders[-1][1]), tuple(backward)


def readout_prob_one(state: np.ndarray, qubit: int) -> float:
    """Probability that measuring ``qubit`` yields 1."""
    _check_targets(num_qubits(state), (qubit,))
    mask = (np.arange(len(state)) >> qubit) & 1
    return float(np.sum(np.abs(state[mask == 1]) ** 2))


def expand_gate(g: np.ndarray, targets, n_qubits: int) -> np.ndarray:
    """Kronecker-expand ``g`` to the full 2**n x 2**n register matrix.

    Builds kron(g, I) on a register ordered as (targets..., rest...), views
    it as one axis per row bit and per column bit, and moves qubit q to axis
    n-1-q of each half: the qubit-0-least-significant convention.
    """
    targets = _check_targets(n_qubits, targets, g)
    k = len(targets)
    order = [*targets, *(q for q in range(n_qubits) if q not in targets)]
    big = np.kron(g, np.eye(2 ** (n_qubits - k), dtype=np.complex128))
    axes = [order.index(q) for q in range(n_qubits - 1, -1, -1)]
    return (big.reshape((2,) * 2 * n_qubits).transpose(axes + [n_qubits + a for a in axes])
            .reshape(2**n_qubits, 2**n_qubits))


def dense_circuit_oracle(gates, n_qubits: int) -> np.ndarray:
    """Full-register matrix of a gate list, for cross-checking apply_gate.

    ``gates`` is a sequence of (matrix, targets) applied in order.  Test-scale
    only: refuses registers above 10 qubits.
    """
    if n_qubits > 10:
        raise SimulatorError(f"dense oracle limited to 10 qubits, got {n_qubits}")
    full = np.eye(2**n_qubits, dtype=np.complex128)
    for g, targets in gates:
        full = expand_gate(g, targets, n_qubits) @ full
    return full
