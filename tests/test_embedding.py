"""Amplitude embedding."""

import numpy as np
import pytest

from qcnnlab import embedding
from qcnnlab.qcnn import build_architecture, circuit_ops, run_columns


RNG = np.random.default_rng(7)


def test_basis_pixel_maps_to_basis_state():
    state = embedding.amplitude_embed([1, 0, 0, 0], 2)
    np.testing.assert_array_equal(state, [1, 0, 0, 0])


def test_three_four_five_normalization():
    state = embedding.amplitude_embed([3 / 16, 4 / 16], 1)
    np.testing.assert_allclose(state, [0.6, 0.8], atol=1e-15)


def test_784_pixels_pad_to_10_qubits():
    pixels = RNG.uniform(0.01, 1.0, size=784)
    state = embedding.amplitude_embed(pixels, 10)
    assert len(state) == 1024
    assert np.all(state[784:] == 0)
    assert abs(np.linalg.norm(state) - 1) < 1e-12


def test_2d_input_flattens_row_major():
    img = np.array([[1.0, 2.0], [3.0, 4.0]])
    state = embedding.amplitude_embed(img, 2)
    np.testing.assert_allclose(state, np.array([1, 2, 3, 4]) / np.sqrt(30), atol=1e-15)


def test_norm_one_for_random_inputs():
    for _ in range(50):
        n = int(RNG.integers(1, 8))
        pixels = RNG.uniform(0, 1, size=int(RNG.integers(1, 2**n + 1)))
        pixels[0] = max(pixels[0], 1e-3)
        state = embedding.amplitude_embed(pixels, n)
        assert abs(np.linalg.norm(state) - 1) < 1e-12


def test_scale_invariance():
    pixels = RNG.uniform(0, 1, size=13) + 0.01
    base = embedding.amplitude_embed(pixels, 4)
    for c in (0.02, 0.5, 3.0, 417.0):
        np.testing.assert_allclose(embedding.amplitude_embed(c * pixels, 4), base, atol=1e-12)


def test_all_zero_image_rejected():
    with pytest.raises(embedding.EmbeddingError, match="cannot amplitude-embed an all-zero image"):
        embedding.amplitude_embed(np.zeros(8), 3)


def test_register_too_small_rejected():
    with pytest.raises(embedding.EmbeddingError, match="5 pixels need more than 2 qubits"):
        embedding.amplitude_embed(np.ones(5), 2)



def _loop_embed(pixels, n_qubits):
    """One image at a time: the 1-D norm, then zero padding."""
    values = np.asarray(pixels, dtype=np.float64).reshape(-1)
    state = np.zeros(2**n_qubits, dtype=np.complex128)
    state[: len(values)] = values / np.linalg.norm(values)
    return state


def test_embed_columns_equals_stacked_amplitude_embed():
    rng = np.random.default_rng(8)
    for n, shape in ((6, (8, 8)), (10, (32, 32)), (4, (3, 5)), (3, (8,))):
        images = rng.random((40,) + shape) * rng.uniform(0.01, 20.0)
        images[1] = 0.0
        images[1, 0] = 1e-3
        got = embedding.embed_columns(images, n)
        assert got.shape == (2**n, 40)
        assert np.array_equal(got, np.stack([embedding.amplitude_embed(img, n) for img in images], axis=1))
        assert np.array_equal(got, np.stack([_loop_embed(img, n) for img in images], axis=1))
        assert np.array_equal(embedding.embed_columns(list(images), n), got)


@pytest.mark.parametrize("rows, cols", [(1, 1024), (1, 1), (2, 3), (17, 64), (300, 64), (50, 1024)])
def test_embed_columns_divides_by_the_per_row_norm(rows, cols):
    rng = np.random.default_rng(rows * 10000 + cols)
    values = rng.random((rows, cols)) * rng.uniform(0.01, 20.0, (rows, 1))
    n = (cols - 1).bit_length()
    want = np.stack([row / np.linalg.norm(row) for row in values], axis=1)
    assert embedding.embed_columns(values, n)[:cols].tobytes() == want.tobytes()
    values[-1] = 0.0
    with pytest.raises(embedding.EmbeddingError, match="all-zero image"):
        embedding.embed_columns(values, n)


def test_embed_columns_rejects_what_amplitude_embed_rejects():
    images = np.random.default_rng(9).random((5, 8))
    images[3] = 0.0
    with pytest.raises(embedding.EmbeddingError, match="all-zero image"):
        embedding.embed_columns(images, 3)
    with pytest.raises(embedding.EmbeddingError, match="8 pixels need more than 2 qubits"):
        embedding.embed_columns(np.ones((4, 8)), 2)


@pytest.mark.parametrize("n_qubits,depth,hw", [(4, 1, (4, 4)), (6, 2, (8, 8)), (10, 2, (32, 32))])
def test_real_embeddings_evolve_exactly_like_their_complex_cast(n_qubits, depth, hw):
    """The first gate promotes the float64 states to complex exactly, so the
    circuit sees the same operands either way."""
    rng = np.random.default_rng(n_qubits)
    states = embedding.embed_columns(rng.random((5,) + hw), n_qubits)
    assert states.dtype == np.float64
    arch = build_architecture(n_qubits, depth)
    ops = circuit_ops(arch, rng.uniform(-np.pi, np.pi, arch.param_count))
    real_states, real_p1s = run_columns(arch, ops, states)
    cast_states, cast_p1s = run_columns(arch, ops, states.astype(np.complex128))
    assert real_states.tobytes() == cast_states.tobytes()
    assert real_p1s.tobytes() == cast_p1s.tobytes()
