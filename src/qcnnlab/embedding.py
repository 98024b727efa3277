"""Map classical pixel vectors into quantum states.

Amplitude embedding writes N normalized pixel values into the first N
amplitudes of a 2**n register (zero-padded past the pixels), which is the
encoding every experiment in this lab uses.  :func:`embed_columns`
normalizes a whole stack of images in one pass; :func:`amplitude_embed` is
its one-image call.  Pixels are real, so embedded states are real float64
arrays; the circuit copies them into a complex buffer before its first
gate, and that promotion is exact.
"""

from __future__ import annotations

import numpy as np


class EmbeddingError(ValueError):
    pass


def embed_columns(images, n_qubits: int) -> np.ndarray:
    """Amplitude embeddings of a stack of images as the columns of a (2**n, m) matrix.

    Column s holds image s flattened row-major and divided by its L2 norm,
    zero past the pixels.  ``images`` is an array whose first axis runs over
    the images, or a list of equal-size images.  The states are float64.
    """
    values = np.asarray(images, dtype=np.float64)
    values = values.reshape(len(values), -1)
    dim = 2**n_qubits
    if values.shape[1] > dim:
        raise EmbeddingError(f"{values.shape[1]} pixels need more than {n_qubits} qubits")
    # each (1, n) @ (n, 1) product sums like norm(row); norm(values, axis=1) does not
    norms = np.sqrt((values[:, None, :] @ values[:, :, None])[:, 0, 0])
    if not norms.all():
        raise EmbeddingError("cannot amplitude-embed an all-zero image")
    states = np.zeros((dim, len(values)))
    np.divide(values.T, norms, out=states[: values.shape[1]])
    return states


def amplitude_embed(pixels, n_qubits: int) -> np.ndarray:
    """Normalize ``pixels`` into the amplitudes of an ``n_qubits`` register.

    amps[i] = pixels[i] / ||pixels|| for i < N, zero past that.  Pixels are
    flattened row-major if 2-D.
    """
    return embed_columns(np.asarray(pixels, dtype=np.float64).reshape(1, -1), n_qubits)[:, 0]
