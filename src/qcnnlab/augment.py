"""Label-preserving random image transforms applied during training.

Three transforms: horizontal flip, small rotation (bilinear, zero fill
outside the frame), and contrast scaling about the image mean, bounded by
the module constants MAX_ROTATION and CONTRAST_RANGE.  Recipes:
photographic datasets get flip + rotation, the hand-written digits get
rotation + contrast.  Transforms run in the fixed order
flip -> rotate -> contrast; test data is never augmented.

:func:`augment_batch` augments a whole (m, h, w) stack in one array pass
(one draw call, flat-index bilinear gathers), which is how training
redraws its batch every epoch; :func:`rotate`, :func:`contrast` and
:func:`augment_sample` are one-image calls of the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AugmentError(ValueError):
    pass


MAX_ROTATION = 0.05  # radians
CONTRAST_RANGE = (0.9, 1.1)


@dataclass(frozen=True)
class AugmentConfig:
    """Which transforms run; the module constants MAX_ROTATION and CONTRAST_RANGE bound them."""

    flip_horizontal: bool = False
    rotation: bool = False
    contrast: bool = False

    @property
    def enabled(self) -> bool:
        return self.flip_horizontal or self.rotation or self.contrast


def preset(name: str) -> AugmentConfig:
    """Per-dataset recipe: digits rotate+contrast, photo sets flip+rotate."""
    recipes = {
        "none": AugmentConfig(),
        "digits": AugmentConfig(rotation=True, contrast=True),
        "fashion": AugmentConfig(flip_horizontal=True, rotation=True),
        "catdog": AugmentConfig(flip_horizontal=True, rotation=True),
    }
    if name not in recipes:
        raise AugmentError(f"unknown augmentation preset {name!r}; know {sorted(recipes)}")
    return recipes[name]


def flip_h(img: np.ndarray) -> np.ndarray:
    """Mirror left-right: pixel (x, y) -> (W-1-x, y); a stack flips image by image."""
    return np.ascontiguousarray(np.asarray(img)[..., ::-1])


def _transform(images: np.ndarray, flips=None, angles=None, factors=None) -> np.ndarray:
    """Flip, rotate, then contrast-scale every image of an (m, h, w) float64 stack.

    ``flips`` (bool), ``angles`` (radians) and ``factors`` give one value per
    image; None skips that transform.  Rotation turns each image about its
    center with bilinear interpolation, reading samples outside the frame
    as 0; contrast scales deviations from each image's mean.  Both clamp
    their output to [0, 1].  This is the one implementation behind every
    public transform.
    """
    out = images
    m, h, w = out.shape
    if flips is not None:
        out = np.where(flips[:, None, None], flip_h(out), out)
    if angles is not None:
        # inverse map: source coordinates that land on each output pixel
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        dy, dx = np.arange(h)[:, None] - cy, np.arange(w)[None, :] - cx
        c, s = np.cos(angles)[:, None, None], np.sin(angles)[:, None, None]
        src_x = cx + c * dx + s * dy
        src_y = cy - s * dx + c * dy
        x0 = np.floor(src_x).astype(int)
        y0 = np.floor(src_y).astype(int)
        fx, fy = src_x - x0, src_y - y0
        flat = out.reshape(-1)
        first = (np.arange(m) * (h * w))[:, None, None]

        def sample(yy, xx):
            inside = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
            return np.where(inside, flat[np.where(inside, first + yy * w + xx, 0)], 0.0)

        out = ((1 - fy) * (1 - fx) * sample(y0, x0)
               + (1 - fy) * fx * sample(y0, x0 + 1)
               + fy * (1 - fx) * sample(y0 + 1, x0)
               + fy * fx * sample(y0 + 1, x0 + 1))
        out = np.clip(out, 0.0, 1.0)
    if factors is not None:
        mean = out.reshape(m, -1).mean(axis=1)[:, None, None]
        out = np.clip(mean + factors[:, None, None] * (out - mean), 0.0, 1.0)
    return out


def _one(img) -> np.ndarray:
    return np.asarray(img, dtype=np.float64)[None]


def rotate(img: np.ndarray, angle: float) -> np.ndarray:
    """Rotate about the image center with bilinear interpolation.

    Samples falling outside the frame read as 0; output is clamped to [0, 1].
    """
    if abs(angle) > MAX_ROTATION + 1e-12:
        raise AugmentError(f"|{angle}| exceeds the {MAX_ROTATION} radian bound")
    return _transform(_one(img), angles=np.array([angle], dtype=np.float64))[0]


def contrast(img: np.ndarray, factor: float) -> np.ndarray:
    """Scale deviations from the image mean by ``factor``, clamped to [0, 1]."""
    lo, hi = CONTRAST_RANGE
    if not lo <= factor <= hi:
        raise AugmentError(f"factor {factor} outside [{lo}, {hi}]")
    return _transform(_one(img), factors=np.array([factor], dtype=np.float64))[0]


def augment_batch(images, cfg: AugmentConfig, rng: np.random.Generator):
    """One freshly randomized pass over the enabled transforms for every image.

    ``images`` is an (m, h, w) stack or a list of equal-shape images; the
    result is an (m, h, w) float64 array.  Per image, flip fires with
    probability 1/2 and the angle and contrast factor are uniform within the
    module bounds.  One ``rng.random((m, k))`` call draws them all, k
    being the number of enabled transforms, image by image in the order
    flip, angle, contrast: the same stream and values as k scalar draws per
    image, since ``Generator.uniform(low, high)`` is ``low + (high - low) * u``.
    Disabled transforms draw nothing, so an all-disabled config returns
    ``images`` itself.
    """
    if not cfg.enabled:
        return images
    stack = np.asarray(images, dtype=np.float64)
    draws = iter(rng.random((len(stack), cfg.flip_horizontal + cfg.rotation + cfg.contrast)).T)

    def uniform(low, high):
        return low + (high - low) * next(draws)

    flips = next(draws) < 0.5 if cfg.flip_horizontal else None
    angles = uniform(-MAX_ROTATION, MAX_ROTATION) if cfg.rotation else None
    factors = uniform(*CONTRAST_RANGE) if cfg.contrast else None
    return _transform(stack, flips, angles, factors)


def augment_sample(img: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """:func:`augment_batch` for one image; an all-disabled config returns ``img`` itself."""
    if not cfg.enabled:
        return img
    return augment_batch(_one(img), cfg, rng)[0]
