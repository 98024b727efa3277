"""Map classical pixel vectors into quantum states.

Amplitude embedding writes N normalized pixel values into the first N
amplitudes of a 2**n register (zero-padded past the pixels), which is the
encoding every experiment in this lab uses.
"""

from __future__ import annotations

import numpy as np


class EmbeddingError(ValueError):
    pass


class AllZeroImage(EmbeddingError):
    pass


class RegisterTooSmall(EmbeddingError):
    pass


def amplitude_embed(pixels, n_qubits: int) -> np.ndarray:
    """Normalize ``pixels`` into the amplitudes of an ``n_qubits`` register.

    amps[i] = pixels[i] / ||pixels|| for i < N, zero past that.  Pixels are
    flattened row-major if 2-D.
    """
    values = np.asarray(pixels, dtype=np.float64).reshape(-1)
    dim = 2**n_qubits
    if len(values) > dim:
        raise RegisterTooSmall(f"{len(values)} pixels need more than {n_qubits} qubits")
    norm = np.linalg.norm(values)
    if norm == 0.0:
        raise AllZeroImage("cannot amplitude-embed an all-zero image")
    state = np.zeros(dim, dtype=np.complex128)
    state[: len(values)] = values / norm
    return state

