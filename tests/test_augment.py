"""Tests for the random image transforms."""

import numpy as np
import pytest

from qcnnlab import augment
from qcnnlab.augment import (
    AugmentConfig,
    AugmentError,
    augment_batch,
    augment_sample,
    contrast,
    flip_h,
    preset,
    rotate,
)


# ---------------------------------------------------------------------------
# individual transforms
# ---------------------------------------------------------------------------

def test_flip_is_an_involution():
    """Flipping twice restores the image bitwise."""
    rng = np.random.default_rng(0)
    img = rng.random((8, 8))
    assert np.array_equal(flip_h(flip_h(img)), img)


def test_flip_mirrors_columns():
    img = np.array([[0.1, 0.2, 0.3]])
    assert np.array_equal(flip_h(img), np.array([[0.3, 0.2, 0.1]]))


def test_rotate_zero_angle_is_identity():
    rng = np.random.default_rng(1)
    img = rng.random((8, 8))
    assert np.allclose(rotate(img, 0.0), img, atol=1e-15)


def test_rotate_rejects_angle_beyond_bound():
    img = np.zeros((4, 4))
    with pytest.raises(AugmentError, match="exceeds the 0.05 radian bound"):
        rotate(img, 0.06)
    with pytest.raises(AugmentError, match="exceeds the 0.05 radian bound"):
        rotate(img, -0.06)


def test_rotate_keeps_center_pixel():
    """The center of an odd-sized image is a fixed point of the rotation."""
    img = np.zeros((9, 9))
    img[4, 4] = 1.0
    out = rotate(img, 0.05)
    assert out[4, 4] == pytest.approx(1.0, abs=1e-12)


def test_rotate_output_clamped_and_finite():
    rng = np.random.default_rng(2)
    img = rng.random((16, 16))
    out = rotate(img, -0.05)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert np.all(np.isfinite(out))


def test_rotate_small_angle_stays_close():
    """A 0.05 rad rotation barely moves an 8x8 image's mass."""
    rng = np.random.default_rng(3)
    img = rng.random((8, 8))
    out = rotate(img, 0.05)
    # max displacement is ~0.05 * (half diagonal ~ 5px) = a quarter pixel
    assert np.max(np.abs(out - img)) < 0.5


def test_contrast_scales_about_the_mean():
    img = np.array([[0.2, 0.8]])
    out = contrast(img, 0.9)
    assert np.allclose(out, [[0.23, 0.77]], atol=1e-12)


def test_contrast_unit_factor_is_identity():
    rng = np.random.default_rng(4)
    img = rng.random((5, 5))
    assert np.allclose(contrast(img, 1.0), img, atol=1e-15)


def test_contrast_rejects_factor_outside_range():
    img = np.full((2, 2), 0.5)
    with pytest.raises(AugmentError, match="factor 0.8 outside"):
        contrast(img, 0.8)
    with pytest.raises(AugmentError, match="factor 1.2 outside"):
        contrast(img, 1.2)


def test_contrast_clamps_to_unit_interval():
    img = np.array([[0.0, 1.0]])
    out = contrast(img, 1.1)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


# ---------------------------------------------------------------------------
# config and the combined pass
# ---------------------------------------------------------------------------

def test_presets_match_recipes():
    assert preset("digits") == AugmentConfig(rotation=True, contrast=True)
    assert preset("fashion") == AugmentConfig(flip_horizontal=True, rotation=True)
    assert preset("catdog") == AugmentConfig(flip_horizontal=True, rotation=True)
    assert not preset("none").enabled


def test_preset_rejects_unknown_name():
    with pytest.raises(AugmentError, match="unknown augmentation preset 'cifar'"):
        preset("cifar")


def test_disabled_config_returns_input_bitwise():
    rng = np.random.default_rng(5)
    img = rng.random((8, 8))
    out = augment_sample(img, AugmentConfig(), rng)
    assert out is img


def test_augment_sample_draws_stay_within_bounds():
    """10k augmented digits stay in [0, 1] and close to the original."""
    rng = np.random.default_rng(6)
    img = rng.random((8, 8))
    cfg = preset("digits")
    for _ in range(10_000):
        out = augment_sample(img, cfg, rng)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_augment_sample_flip_only_is_identity_or_mirror():
    rng = np.random.default_rng(7)
    img = rng.random((6, 6))
    cfg = AugmentConfig(flip_horizontal=True)
    seen = set()
    for _ in range(64):
        out = augment_sample(img, cfg, rng)
        if np.array_equal(out, img):
            seen.add("id")
        elif np.array_equal(out, flip_h(img)):
            seen.add("mirror")
        else:
            raise AssertionError("flip-only augmentation produced a third image")
    assert seen == {"id", "mirror"}


def test_augment_sample_order_is_flip_rotate_contrast():
    """Replaying the draws by hand in the documented order reproduces the output."""
    img = np.random.default_rng(8).random((8, 8))
    cfg = AugmentConfig(flip_horizontal=True, rotation=True, contrast=True)

    out = augment_sample(img, cfg, np.random.default_rng(42))

    rng = np.random.default_rng(42)
    expect = img
    if rng.random() < 0.5:
        expect = flip_h(expect)
    expect = rotate(expect, rng.uniform(-augment.MAX_ROTATION, augment.MAX_ROTATION))
    expect = contrast(expect, rng.uniform(*augment.CONTRAST_RANGE))
    assert np.array_equal(out, expect)


def test_augment_sample_is_reproducible_per_seed():
    img = np.random.default_rng(9).random((8, 8))
    cfg = preset("fashion")
    a = augment_sample(img, cfg, np.random.default_rng(123))
    b = augment_sample(img, cfg, np.random.default_rng(123))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# the batched kernel against a per-image loop
# ---------------------------------------------------------------------------

def _loop_rotate(img, angle):
    """Bilinear rotation one image at a time: meshgrid and masked gathers."""
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dy, dx = ys - cy, xs - cx
    c, s = np.cos(angle), np.sin(angle)
    src_x = cx + c * dx + s * dy
    src_y = cy - s * dx + c * dy
    x0 = np.floor(src_x).astype(int)
    y0 = np.floor(src_y).astype(int)
    fx, fy = src_x - x0, src_y - y0

    def sample(yy, xx):
        inside = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        out = np.zeros_like(src_x)
        out[inside] = img[yy[inside], xx[inside]]
        return out

    out = ((1 - fy) * (1 - fx) * sample(y0, x0)
           + (1 - fy) * fx * sample(y0, x0 + 1)
           + fy * (1 - fx) * sample(y0 + 1, x0)
           + fy * fx * sample(y0 + 1, x0 + 1))
    return np.clip(out, 0.0, 1.0)


def _loop_augment(img, cfg, rng):
    """Per-image draws and transforms in the order flip, rotate, contrast."""
    out = np.asarray(img, dtype=np.float64)
    if cfg.flip_horizontal and rng.random() < 0.5:
        out = np.ascontiguousarray(out[:, ::-1])
    if cfg.rotation:
        out = _loop_rotate(out, rng.uniform(-augment.MAX_ROTATION, augment.MAX_ROTATION))
    if cfg.contrast:
        factor = rng.uniform(*augment.CONTRAST_RANGE)
        mean = out.mean()
        out = np.clip(mean + factor * (out - mean), 0.0, 1.0)
    return out


@pytest.mark.parametrize("name", ["none", "digits", "fashion", "catdog"])
def test_batched_augmentation_equals_per_image_loop(name):
    """20 epochs of one batched call each draw and transform exactly like the loop."""
    cfg = preset(name)
    for seed, shape in ((0, (8, 8)), (1, (28, 28)), (2, (5, 7))):
        images = np.random.default_rng(seed).random((30,) + shape)
        images[0] = 0.0
        batched, looped = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        for _ in range(20):
            expect = np.stack([_loop_augment(img, cfg, looped) for img in images])
            assert np.array_equal(augment_batch(list(images), cfg, batched), expect)
            if cfg.enabled:
                assert np.array_equal(augment_sample(images[1], cfg, batched),
                                      _loop_augment(images[1], cfg, looped))


def test_batched_augmentation_all_transforms_wide_angle(monkeypatch):
    monkeypatch.setattr(augment, "MAX_ROTATION", 0.8)
    cfg = AugmentConfig(flip_horizontal=True, rotation=True, contrast=True)
    images = np.random.default_rng(3).random((25, 9, 9))
    batched, looped = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(20):
        expect = np.stack([_loop_augment(img, cfg, looped) for img in images])
        assert np.array_equal(augment_batch(images, cfg, batched), expect)


def test_one_image_transforms_equal_the_loop():
    rng = np.random.default_rng(10)
    for _ in range(50):
        img = rng.random((8, 8))
        angle, factor = rng.uniform(-0.05, 0.05), rng.uniform(0.9, 1.1)
        assert np.array_equal(rotate(img, angle), _loop_rotate(img, angle))
        mean = img.mean()
        assert np.array_equal(contrast(img, factor), np.clip(mean + factor * (img - mean), 0.0, 1.0))


def test_disabled_batch_returns_input_and_draws_nothing():
    images = np.random.default_rng(11).random((4, 8, 8))
    rng = np.random.default_rng(12)
    assert augment_batch(images, AugmentConfig(), rng) is images
    assert rng.random() == np.random.default_rng(12).random()


def test_bound_errors_still_fire_on_the_shared_kernel():
    img = np.random.default_rng(13).random((8, 8))
    with pytest.raises(AugmentError, match="exceeds the 0.05 radian bound"):
        rotate(img, 0.2)
    with pytest.raises(AugmentError, match="factor 1.5 outside"):
        contrast(img, 1.5)
