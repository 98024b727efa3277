"""Dataset loading, normalization, subsetting, and bit-exact file formats.

Three sources are supported: 8x8 hand-written digits re-hosted as a plain
CSV (one row per image: label then 64 integers 0..16), Fashion-MNIST in its
native big-endian IDX container, and grayscale photos as binary PGM ("P5")
files whose class is taken from the filename prefix.  Every loader returns
one :class:`Dataset`: all images as one (N, H, W) uint8 array of the file's
levels and the ``scale`` that divides them to [0, 1] (only by :meth:`Dataset.pixels`,
which training calls on the subsets it is given), all labels as one (N,) int64
array, so every image of a dataset has the same size.  Loaders refuse malformed records.
"""

from __future__ import annotations

import contextlib
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    """Grayscale images as one (N, H, W) array whose pixel values are ``images /
    scale`` (:meth:`pixels`); labels[i] is the integer class id of images[i]."""

    images: np.ndarray
    labels: np.ndarray
    scale: int = 1

    def __post_init__(self):
        if self.images.ndim != 3:
            raise DatasetError(f"images must be an (N, H, W) array, got shape {self.images.shape}")
        if len(self.images) != len(self.labels):
            raise DatasetError(f"{len(self.images)} images vs {len(self.labels)} labels")

    def __len__(self) -> int:
        return len(self.labels)

    def pixels(self, index) -> np.ndarray:
        """images[index] as float64 pixel values in [0, 1]."""
        return self.images[index] / self.scale


# ---------------------------------------------------------------------------
# digits CSV
# ---------------------------------------------------------------------------

DIGITS_FIELDS = 65  # label + 64 pixels
DIGITS_MAX = 16


def load_digits_csv(path: str | os.PathLike) -> Dataset:
    """Read 8x8 digit images: rows of `label,p0,...,p63` with pixels 0..16."""
    # an open file, as numpy imports gzip to open a path; a refusal or warning goes line by line
    with contextlib.suppress(ValueError, Warning), open(path, "rb") as fh, warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = np.loadtxt(fh, delimiter=",", dtype=np.uint8, comments=None, ndmin=2)
        if rows.shape[1] == DIGITS_FIELDS and rows[:, 0].max() <= 9 and rows[:, 1:].max() <= DIGITS_MAX:
            return Dataset(rows[:, 1:].reshape(-1, 8, 8), rows[:, 0].astype(np.int64), DIGITS_MAX)
    return _parse_digits_rows(path)


def _parse_digits_rows(path) -> Dataset:
    raw = bytearray()  # every checked field fits in a byte
    # a byte that is not UTF-8 decodes to a lone surrogate, which no field check accepts
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != DIGITS_FIELDS:
                raise DatasetError(
                    f"{path}:{lineno}: expected {DIGITS_FIELDS} fields, got {len(fields)}")
            try:
                values = [int(f) for f in fields]
            except ValueError as exc:
                raise DatasetError(f"{path}:{lineno}: non-integer field ({exc})") from exc
            label, pixels = values[0], values[1:]
            if not 0 <= label <= 9:
                raise DatasetError(f"{path}:{lineno}: label {label} outside 0..9")
            bad = [v for v in pixels if not 0 <= v <= DIGITS_MAX]
            if bad:
                raise DatasetError(
                    f"{path}:{lineno}: pixel value {bad[0]} outside 0..{DIGITS_MAX}")
            raw.extend(values)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(-1, DIGITS_FIELDS)
    return Dataset(rows[:, 1:].reshape(-1, 8, 8), rows[:, 0].astype(np.int64), DIGITS_MAX)


def write_digits_csv(path: str | os.PathLike, ds: Dataset) -> None:
    """Inverse of load_digits_csv: quantizes pixels back to integers 0..16."""
    with open(path, "w", encoding="utf-8") as fh:
        for img, label in zip(ds.pixels(slice(None)), ds.labels):
            ints = np.rint(img * DIGITS_MAX).astype(int).reshape(-1)
            fh.write(",".join([str(int(label))] + [str(v) for v in ints]) + "\n")


# ---------------------------------------------------------------------------
# IDX (Fashion-MNIST container)
# ---------------------------------------------------------------------------

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def _read_exact(fh, n: int, path, what: str) -> bytes:
    buf = fh.read(min(n, os.fstat(fh.fileno()).st_size))  # n comes from the file's header
    if len(buf) != n:
        raise DatasetError(f"{path}: wanted {n} bytes for {what}, got {len(buf)}")
    return buf


def load_idx(images_path: str | os.PathLike, labels_path: str | os.PathLike) -> Dataset:
    """Read an IDX image/label file pair (big-endian, magics 2051/2049)."""
    with open(images_path, "rb") as fh:
        magic, count, rows, cols = np.frombuffer(
            _read_exact(fh, 16, images_path, "image header"), dtype=">u4")
        if magic != IDX_IMAGE_MAGIC:
            raise DatasetError(f"{images_path}: magic {magic:#010x}, wanted {IDX_IMAGE_MAGIC:#010x}")
        if rows < 1 or cols < 1:
            raise DatasetError(f"{images_path}: {rows} rows, {cols} cols; both must be >= 1")
        raw = _read_exact(fh, int(count) * int(rows) * int(cols), images_path, "pixel data")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(int(count), int(rows), int(cols))

    with open(labels_path, "rb") as fh:
        magic, n_labels = np.frombuffer(
            _read_exact(fh, 8, labels_path, "label header"), dtype=">u4")
        if magic != IDX_LABEL_MAGIC:
            raise DatasetError(f"{labels_path}: magic {magic:#010x}, wanted {IDX_LABEL_MAGIC:#010x}")
        labels = np.frombuffer(_read_exact(fh, int(n_labels), labels_path, "labels"),
                               dtype=np.uint8)

    return Dataset(images, labels.astype(np.int64), 255)


# ---------------------------------------------------------------------------
# binary PGM
# ---------------------------------------------------------------------------

# width, height and maxval, each after whitespace or '#'-to-end-of-line comments; the
# lookaheads keep backtracking from splitting a field or a comment
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]\S*)(?!\S)" * 3)


def _pgm_levels(path) -> np.ndarray:
    """Read one 8-bit binary P5 PGM's H x W uint8 raster."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] == b"P2":
        raise DatasetError(f"{path}: ASCII 'P2' files not supported, convert to binary 'P5'")
    if data[:2] != b"P5":
        raise DatasetError(f"{path}: not a PGM file (no 'P5' signature)")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise DatasetError(f"{path}: truncated header")
    try:
        width, height, maxval = map(int, header.groups())
    except ValueError:
        raise DatasetError(f"{path}: non-numeric header fields {list(header.groups())}") from None
    if width < 1 or height < 1:
        raise DatasetError(f"{path}: width {width}, height {height}; both must be >= 1")
    if maxval != 255:
        raise DatasetError(f"{path}: maxval {maxval}, only 255 supported")
    offset = header.end() + 1  # one whitespace byte after maxval, then the raster
    need = width * height
    raster = data[offset : offset + need]
    if len(raster) != need:
        raise DatasetError(f"{path}: wanted {need} raster bytes, got {len(raster)}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def write_pgm(path: str | os.PathLike, img: np.ndarray) -> None:
    """Write a [0,1] float image as binary PGM (quantized to 8 bits)."""
    img = np.asarray(img)
    h, w = img.shape
    raster = np.rint(img * 255.0).astype(np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(raster)


def load_pgm_dir(directory: str | os.PathLike, class_map: dict[str, int]) -> Dataset:
    """Load every .pgm in a directory; class comes from the filename prefix.

    Every file must have the first file's size."""
    names = sorted(f for f in os.listdir(directory) if f.lower().endswith(".pgm"))
    if not names:
        raise DatasetError(f"{directory}: no .pgm files found")
    images, labels = None, []
    for k, name in enumerate(names):
        prefixes = [p for p in class_map if name.startswith(p)]
        if not prefixes:
            raise DatasetError(
                f"{name}: no prefix from {sorted(class_map)} matches")
        img = _pgm_levels(os.path.join(directory, name))
        if images is None:
            images = np.empty((len(names),) + img.shape, dtype=np.uint8)
        elif img.shape != images.shape[1:]:
            raise DatasetError(
                f"{name} is {img.shape[0]}x{img.shape[1]} but {names[0]} is "
                f"{images.shape[1]}x{images.shape[2]}; all images in {directory} "
                "must have one size")
        images[k] = img
        labels.append(class_map[max(prefixes, key=len)])
    return Dataset(images, np.array(labels, dtype=np.int64), 255)


# ---------------------------------------------------------------------------
# resizing and subsetting
# ---------------------------------------------------------------------------

def resize_area(images: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Downscale by integer block averaging (each output pixel = block mean).

    ``images`` is one (h, w) image or a (..., h, w) stack of them.
    """
    images = np.asarray(images, dtype=np.float64)
    h, w = images.shape[-2:]
    if out_h <= 0 or out_w <= 0 or h % out_h or w % out_w:
        raise DatasetError(f"cannot block-average {h}x{w} to {out_h}x{out_w}")
    fh, fw = h // out_h, w // out_w
    return images.reshape(images.shape[:-2] + (out_h, fh, out_w, fw)).mean(axis=(-3, -1))


def resize_pool(ds: Dataset, size: int) -> Dataset:
    """Every image's pixel values through ``resize_area``, 256 at a time (not a whole float64 pool)."""
    return Dataset(np.concatenate([resize_area(ds.pixels(slice(i, i + 256)), size, size)
                                   for i in range(0, max(len(ds), 1), 256)]), ds.labels)


def binary_subset(ds: Dataset, class_a: int, class_b: int, n_per_class: int,
                  n_test: int, seed: int) -> tuple[Dataset, Dataset]:
    """Draw a balanced two-class train/test split with labels remapped a->0, b->1.

    Sampling is without replacement from a seeded shuffle, so the same seed
    selects the same images and train/test never overlap; both keep the pool's dtype and scale.
    """
    if n_test % 2:
        raise DatasetError(f"n_test {n_test} must be even for a balanced test set")
    if class_a == class_b:
        raise DatasetError("class_a and class_b must differ")
    rng = np.random.default_rng(seed)
    n_half = n_test // 2
    picked = []
    for cls in (class_a, class_b):
        idx = np.flatnonzero(ds.labels == cls)
        need = n_per_class + n_half
        if len(idx) < need:
            raise DatasetError(
                f"class {cls}: need {need} samples, dataset has {len(idx)}")
        picked.append(idx[rng.permutation(len(idx))[:need]])
    train = np.concatenate([p[:n_per_class] for p in picked])
    test = np.concatenate([p[n_per_class:] for p in picked])
    return (Dataset(ds.images[train], np.repeat([0, 1], n_per_class), ds.scale),
            Dataset(ds.images[test], np.repeat([0, 1], n_half), ds.scale))
