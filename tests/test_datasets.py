"""Tests for dataset loaders, writers, resizing, and subset sampling."""

import io
import os
import random
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from qcnnlab import datasets
from qcnnlab.datasets import (
    Dataset,
    DatasetError,
    _pgm_levels,
    binary_subset,
    load_digits_csv,
    load_idx,
    load_pgm_dir,
    resize_area,
    resize_pool,
    write_digits_csv,
    write_pgm,
)
from qcnnlab.harness import ExperimentConfig, load_pool

DIGITS_CSV = os.path.join(os.path.dirname(__file__), "..", "data", "digits.csv")


# ---------------------------------------------------------------------------
# the in-memory format
# ---------------------------------------------------------------------------

def test_dataset_rejects_unstacked_images_and_mismatched_lengths():
    with pytest.raises(DatasetError, match=r"\(N, H, W\) array, got shape \(3, 64\)"):
        Dataset(np.zeros((3, 64)), np.zeros(3, dtype=np.int64))
    with pytest.raises(DatasetError, match="3 images vs 2 labels"):
        Dataset(np.zeros((3, 8, 8)), np.zeros(2, dtype=np.int64))


# ---------------------------------------------------------------------------
# digits CSV
# ---------------------------------------------------------------------------

def _write_rows(path, rows):
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def test_digits_row_parses_and_normalizes(tmp_path):
    path = tmp_path / "one.csv"
    _write_rows(path, ["3," + ",".join(["16"] + ["0"] * 63)])
    ds = load_digits_csv(path)
    assert len(ds) == 1
    assert ds.labels[0] == 3
    assert ds.images[0].shape == (8, 8)
    pixels = ds.images[0] / ds.scale
    assert pixels[0, 0] == 1.0
    assert pixels[0, 1] == 0.0


def test_digits_all_zero_row_loads():
    """All-zero images are valid at load time (embedding rejects them later)."""
    ds_rows = ["0," + ",".join(["0"] * 64)]
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "z.csv")
        _write_rows(path, ds_rows)
        ds = load_digits_csv(path)
    assert np.all(ds.images[0] == 0.0)


def test_digits_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "short.csv"
    _write_rows(path, ["1,2,3"])
    with pytest.raises(DatasetError, match=":1: expected 65 fields, got 3"):
        load_digits_csv(path)


def test_digits_rejects_out_of_range_pixel(tmp_path):
    path = tmp_path / "hot.csv"
    _write_rows(path, ["0," + ",".join(["17"] + ["0"] * 63)])
    with pytest.raises(DatasetError, match=":1: pixel value 17 outside 0..16"):
        load_digits_csv(path)


def test_digits_rejects_bad_label_with_line_number(tmp_path):
    path = tmp_path / "lab.csv"
    ok = "1," + ",".join(["0"] * 64)
    bad = "12," + ",".join(["0"] * 64)
    _write_rows(path, [ok, bad])
    with pytest.raises(DatasetError, match=":2: label 12 outside 0..9"):
        load_digits_csv(path)


def test_digits_rejects_non_integer(tmp_path):
    path = tmp_path / "float.csv"
    _write_rows(path, ["0," + ",".join(["1.5"] + ["0"] * 63)])
    with pytest.raises(DatasetError, match=":1: non-integer field"):
        load_digits_csv(path)


def test_digits_rejects_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"3," + b"0," * 63 + b"0\n7,\xe9" + b",0" * 63 + b"\n")
    with pytest.raises(DatasetError, match=":2: non-integer field"):
        load_digits_csv(path)


def test_bundled_digits_file_loads():
    ds = load_digits_csv(DIGITS_CSV)
    assert len(ds) == 1797
    labels = ds.labels
    assert set(labels.tolist()) == set(range(10))
    for img in ds.images[:50] / ds.scale:
        assert img.shape == (8, 8)
        assert img.min() >= 0.0 and img.max() <= 1.0


def test_digits_csv_round_trip(tmp_path):
    ds = load_digits_csv(DIGITS_CSV)
    subset = Dataset(ds.images[:20], ds.labels[:20], ds.scale)
    out = tmp_path / "echo.csv"
    write_digits_csv(out, subset)
    again = load_digits_csv(out)
    assert len(again) == 20
    assert again.scale == subset.scale
    for a_img, a_label, b_img, b_label in zip(subset.images, subset.labels,
                                              again.images, again.labels):
        assert a_label == b_label
        assert np.array_equal(a_img, b_img)


def _reference_digits_csv(path):
    """The per-line parser the array pass replaced, kept verbatim as the
    reference: float64 pixels in [0, 1], or a DatasetError with a line number."""
    raw = bytearray()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 65:
                raise DatasetError(f"{path}:{lineno}: expected 65 fields, got {len(fields)}")
            try:
                values = [int(f) for f in fields]
            except ValueError as exc:
                raise DatasetError(f"{path}:{lineno}: non-integer field ({exc})") from exc
            label, pixels = values[0], values[1:]
            if not 0 <= label <= 9:
                raise DatasetError(f"{path}:{lineno}: label {label} outside 0..9")
            bad = [v for v in pixels if not 0 <= v <= 16]
            if bad:
                raise DatasetError(f"{path}:{lineno}: pixel value {bad[0]} outside 0..16")
            raw.extend(values)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 65)
    return Dataset((rows[:, 1:] / 16).reshape(-1, 8, 8), rows[:, 0].astype(np.int64))


def _digits_outcome(load, path):
    try:
        ds = load(path)
    except DatasetError as exc:
        return "DatasetError", str(exc)
    pixels = ds.images / ds.scale
    return pixels.dtype, pixels.shape, pixels.tobytes(), ds.labels.dtype, ds.labels.tobytes()


_ROW = "3," + ",".join(str(v % 17) for v in range(64))
_ZEROS = ",".join(["0"] * 63)

_DIGITS_EDGE_FILES = {
    "plain": _ROW + "\n" + _ROW.replace("3,", "7,", 1) + "\n",
    "no final newline": _ROW,
    "crlf": _ROW + "\r\n" + _ROW + "\r\n",
    "cr only": _ROW + "\r" + _ROW + "\r",
    "spaces and tabs": " 3 ,\t16\t, 0," + ",".join(["1"] * 62) + "  \n",
    "plus sign": "+3,+16," + _ZEROS + "\n",
    "underscore digits": "3,1_6," + _ZEROS + "\n",
    "non-ascii digits": "\u0663,\u0661\u0666," + _ZEROS + "\n",
    "leading zeros": "03,016," + _ZEROS + "\n",
    "blank lines in the middle": _ROW + "\n\n  \n\t\n" + _ROW + "\n",
    "hash line": "# digits\n" + _ROW + "\n",
    "hash after a row": _ROW + "\n#\n",
    "trailing comma": _ROW + ",\n",
    "64 fields": ",".join(["0"] * 64) + "\n",
    "64 fields on every row": (",".join(["0"] * 64) + "\n") * 3,
    "66 fields": _ROW + ",0\n",
    "label 10": "10,0," + _ZEROS + "\n",
    "pixel 17": _ROW + "\n3,17," + _ZEROS + "\n",
    "float": "3,1.5," + _ZEROS + "\n",
    "300": "3,300," + _ZEROS + "\n",
    "-1": "-1,0," + _ZEROS + "\n",
    "272 wraps to 16": "3,272," + _ZEROS + "\n",
    "-240 wraps to 16": "3,-240," + _ZEROS + "\n",
    "empty field": "3,," + _ZEROS + "\n",
    "byte order mark": "\ufeff" + _ROW + "\n",
    "empty": "",
    "blank only": "\n  \n\t\n",
}


@pytest.mark.parametrize("name", sorted(_DIGITS_EDGE_FILES))
def test_digits_array_parse_equals_the_per_line_parser(tmp_path, name):
    path = tmp_path / "edge.csv"
    path.write_bytes(_DIGITS_EDGE_FILES[name].encode("utf-8"))
    # every warning is recorded, so loadtxt's "input contained no data" on
    # an empty file fails the test even where a filter would turn it into
    # an exception that the loader catches
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _digits_outcome(load_digits_csv, path)
    assert caught == []
    assert got == _digits_outcome(_reference_digits_csv, path)


def test_bundled_digits_file_takes_the_array_pass(monkeypatch):
    def refuse(path):
        raise AssertionError("fell back to the per-line parser")

    monkeypatch.setattr(datasets, "_parse_digits_rows", refuse)
    ds = load_digits_csv(DIGITS_CSV)
    assert ds.images.dtype == np.uint8 and ds.scale == 16
    want = _digits_outcome(_reference_digits_csv, DIGITS_CSV)
    assert _digits_outcome(load_digits_csv, DIGITS_CSV) == want


def test_digits_parse_leaves_gzip_unimported():
    """Given a path, numpy's loadtxt opens it through a module that imports
    gzip; the loader hands it an open file.  A fresh interpreter, so that
    pytest's own imports cannot hide the module."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = ("import sys; from qcnnlab.datasets import load_digits_csv; "
            f"load_digits_csv({os.path.abspath(DIGITS_CSV)!r}); print('gzip' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# IDX
# ---------------------------------------------------------------------------

def _idx_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801,
              label_count=None):
    images = np.asarray(images, dtype=np.uint8)
    n, h, w = images.shape
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labs.idx"
    ip.write_bytes(struct.pack(">IIII", image_magic, n, h, w) + images.tobytes())
    labels = np.asarray(labels, dtype=np.uint8)
    lp.write_bytes(struct.pack(">II", label_magic,
                               len(labels) if label_count is None else label_count)
                   + labels.tobytes())
    return ip, lp


def test_idx_minimal_pair(tmp_path):
    ip, lp = _idx_pair(tmp_path, [[[0, 255], [0, 255]]], [7])
    ds = load_idx(ip, lp)
    assert len(ds) == 1
    assert ds.labels[0] == 7
    assert np.array_equal(ds.images[0] / ds.scale, [[0.0, 1.0], [0.0, 1.0]])


def test_idx_label_magic_on_image_file(tmp_path):
    ip, lp = _idx_pair(tmp_path, [[[0]]], [0], image_magic=0x801)
    with pytest.raises(DatasetError, match="magic 0x00000801, wanted 0x00000803"):
        load_idx(ip, lp)


def test_idx_bad_label_magic(tmp_path):
    ip, lp = _idx_pair(tmp_path, [[[0]]], [0], label_magic=0x803)
    with pytest.raises(DatasetError, match="magic 0x00000803, wanted 0x00000801"):
        load_idx(ip, lp)


def test_idx_count_mismatch(tmp_path):
    ip, lp = _idx_pair(tmp_path, [[[0]]], [0, 1], label_count=2)
    with pytest.raises(DatasetError, match="1 images vs 2 labels"):
        load_idx(ip, lp)


def test_idx_truncated_pixels(tmp_path):
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labs.idx"
    ip.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + b"\x00" * 5)
    lp.write_bytes(struct.pack(">II", 0x801, 2) + b"\x00\x01")
    with pytest.raises(DatasetError, match="wanted 8 bytes for pixel data, got 5"):
        load_idx(ip, lp)


@pytest.mark.parametrize("count,rows,cols,n_labels,what,wanted,got", [
    (0xFFFFFFFF, 0xFFFF, 0xFFFF, 1, "pixel data", 0xFFFFFFFF * 0xFFFF * 0xFFFF, 4),
    (100000, 1000, 1000, 1, "pixel data", 10**11, 4),
    (1, 2, 2, 0xFFFFFFFF, "labels", 0xFFFFFFFF, 1),
])
def test_idx_header_claiming_more_than_the_file_holds(tmp_path, count, rows, cols, n_labels,
                                                      what, wanted, got):
    """The header's sizes are never handed to read() beyond the file's own size."""
    ip, lp = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    ip.write_bytes(struct.pack(">IIII", 0x803, count, rows, cols) + bytes(4))
    lp.write_bytes(struct.pack(">II", 0x801, n_labels) + bytes(1))
    path = ip if what == "pixel data" else lp
    with pytest.raises(DatasetError, match=f"{path.name}: wanted {wanted} bytes for {what}, "
                                           f"got {got}$"):
        load_idx(ip, lp)


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
def test_idx_rejects_an_empty_image_size(tmp_path, rows, cols):
    ip, lp = _idx_pair(tmp_path, np.zeros((1, rows, cols)), [0])
    with pytest.raises(DatasetError, match=f"imgs.idx: {rows} rows, {cols} cols; both must be >= 1"):
        load_idx(ip, lp)


def test_fashion_mnist_train_file_loads_if_present():
    """Full 60000-image check; skipped when the public files are not on disk."""
    base = os.path.join(os.path.dirname(__file__), "..", "data", "fashion")
    ip = os.path.join(base, "train-images-idx3-ubyte")
    lp = os.path.join(base, "train-labels-idx1-ubyte")
    if not (os.path.exists(ip) and os.path.exists(lp)):
        pytest.skip("Fashion-MNIST files not present under data/fashion/")
    ds = load_idx(ip, lp)
    assert len(ds) == 60000
    assert ds.images[0].shape == (28, 28)


# ---------------------------------------------------------------------------
# PGM
# ---------------------------------------------------------------------------

def test_pgm_minimal_file(tmp_path):
    path = tmp_path / "cat.0.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    levels = _pgm_levels(path)
    assert levels.dtype == np.uint8
    assert np.array_equal(levels, [[0, 128], [255, 64]])


def test_pgm_header_comments_are_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 1\n255\n" + bytes([10, 20]))
    assert np.array_equal(_pgm_levels(path), [[10, 20]])


def test_pgm_rejects_ascii_p2(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(DatasetError, match="ASCII 'P2' files not supported"):
        _pgm_levels(path)


def test_pgm_rejects_wide_maxval(tmp_path):
    path = tmp_path / "wide.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(DatasetError, match="maxval 65535, only 255 supported"):
        _pgm_levels(path)


def test_pgm_rejects_truncated_raster(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(DatasetError, match="wanted 4 raster bytes, got 2"):
        _pgm_levels(path)


@pytest.mark.parametrize("size", [b"-5 -5", b"0 0", b"-4 2", b"2 0"])
def test_pgm_rejects_a_size_below_one(tmp_path, size):
    path = tmp_path / "z.pgm"
    path.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(4))
    width, height = size.decode().split()
    with pytest.raises(DatasetError, match=f"z.pgm: width {width}, height {height}; both must be >= 1"):
        _pgm_levels(path)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = np.rint(rng.random((5, 7)) * 255) / 255.0
    path = tmp_path / "rt.pgm"
    write_pgm(path, img)
    assert np.array_equal(_pgm_levels(path) / 255.0, img)


def test_pgm_dir_classes_from_prefix(tmp_path):
    write_pgm(tmp_path / "cat.001.pgm", np.zeros((2, 2)))
    write_pgm(tmp_path / "dog.001.pgm", np.ones((2, 2)))
    write_pgm(tmp_path / "cat.002.pgm", np.full((2, 2), 0.5))
    ds = load_pgm_dir(tmp_path, {"cat": 0, "dog": 1})
    assert len(ds) == 3
    assert ds.labels.tolist() == [0, 0, 1]  # sorted filename order


def test_pgm_dir_unknown_prefix(tmp_path):
    write_pgm(tmp_path / "bird.pgm", np.zeros((2, 2)))
    with pytest.raises(DatasetError, match="bird.pgm: no prefix from"):
        load_pgm_dir(tmp_path, {"cat": 0, "dog": 1})


def _reference_pgm_header(data: bytes, path) -> tuple[int, int, int]:
    """The byte lexer the header pattern replaced, kept verbatim as the reference."""
    if data[:2] == b"P2":
        raise DatasetError(f"{path}: ASCII 'P2' files not supported, convert to binary 'P5'")
    if data[:2] != b"P5":
        raise DatasetError(f"{path}: not a PGM file (no 'P5' signature)")
    # header = magic, width, height, maxval as whitespace-separated tokens;
    # '#' starts a comment running to end of line
    tokens, pos = [], 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DatasetError(f"{path}: truncated header")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval, then raster data
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise DatasetError(f"{path}: non-numeric header fields {tokens}") from None
    if width < 1 or height < 1:
        raise DatasetError(f"{path}: width {width}, height {height}; both must be >= 1")
    if maxval != 255:
        raise DatasetError(f"{path}: maxval {maxval}, only 255 supported")
    return width, height, pos


def _reference_pgm_levels(data, path):
    """The levels _pgm_levels read around the lexer, and the lexer's raster offset."""
    width, height, offset = _reference_pgm_header(data, path)
    need = width * height
    raster = data[offset : offset + need]
    if len(raster) != need:
        raise DatasetError(f"{path}: wanted {need} raster bytes, got {len(raster)}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width), offset


def _pgm_outcome(read):
    """(width, height, raster offset, raster) from ``read()``, or its DatasetError text."""
    try:
        levels, offset = read()
    except DatasetError as exc:
        return str(exc)
    return levels.shape[1], levels.shape[0], offset, levels.tobytes()


@pytest.fixture
def pgm_outcomes(monkeypatch):
    """``outcomes(data)``: the _pgm_outcome of _pgm_levels and of the reference, each
    reading a file "h.pgm" that holds ``data``; _pgm_levels' raster starts one byte
    after its header pattern's match."""
    held = {}
    monkeypatch.setattr(datasets, "open", lambda path, mode: io.BytesIO(held[path]),
                        raising=False)

    def outcomes(data):
        held["h.pgm"] = data
        return (_pgm_outcome(lambda: (_pgm_levels("h.pgm"),
                                      datasets._PGM_HEADER.match(data).end() + 1)),
                _pgm_outcome(lambda: _reference_pgm_levels(data, "h.pgm")))

    return outcomes


_RASTER = bytes(range(40, 104))  # none of them whitespace

_PGM_EDGE_HEADERS = {
    "plain": b"P5\n2 3\n255\n",
    "comment right after P5": b"P5# made by hand\n2 3 255\n",
    "comment at EOF": b"P5 2 3 # 255",
    "comment between width and height": b"P5 2#x\n3 255 ",
    "comment ending in CR LF": b"P5\n# c\r\n2 3\n255\n",
    "empty comments": b"P5#\n#\n2\n#\n3#\n255\n",
    "# inside a field": b"P5 2#x 3 255\n",
    "# inside maxval": b"P5 2 3 255#\n",
    "CR, VT and FF separators": b"P5\r2\x0b3\x0c255\r",
    "tabs only": b"P5\t2\t3\t255\t",
    "P52 2 255": b"P52 2 255 ",
    "nothing after maxval": b"P5 2 3 255",
    "two whitespace bytes after maxval": b"P5 2 3 255\n\n",
    "no fields": b"P5",
    "no fields, whitespace": b"P5 \n\t",
    "one field": b"P5 2 ",
    "two fields": b"P5 2 3\n",
    "two fields and a comment": b"P5 2 3 # 255\n",
    "a field split by backtracking in a naive pattern": b"P5-3#0+42\t",
    "non-numeric width": b"P5 two 3 255\n",
    "file separator byte": b"P5 2\x1c3 255\n",
    "NEL byte": b"P5 2\x853 255\n",
    "no-break space": b"P5 2\xa03 255\n",
    "signs, underscores and leading zeros": b"P5 +2 0_3 0255\n",
    "width 0": b"P5 0 3 255\n",
    "negative height": b"P5 2 -3 255\n",
    "maxval 65535": b"P5 2 3 65535\n",
    "P2": b"P2 2 3 255\n",
    "no signature": b"P6 2 3 255\n",
    "empty file": b"",
    "P only": b"P",
}


@pytest.mark.parametrize("name", sorted(_PGM_EDGE_HEADERS))
def test_pgm_header_pattern_equals_the_byte_lexer(pgm_outcomes, name):
    for raster in (_RASTER, _RASTER[:5], b""):
        got, want = pgm_outcomes(_PGM_EDGE_HEADERS[name] + raster)
        assert got == want, raster


_PGM_SEPARATORS = [b" ", b"\n", b"\t\r", b"\x0b\x0c", b"# c\n", b"\n#\r\n"]
_PGM_NOISE = b" \t\n\r\x0b\x0c#0123456789+-_x\x1c\x85\xa0"  # \x1c, \x85, \xa0: str whitespace only


def test_pgm_header_pattern_equals_the_byte_lexer_on_fuzzed_headers(pgm_outcomes):
    """Well-formed headers with up to three bytes inserted or deleted."""
    rng = random.Random(22)
    kinds = {}
    for _ in range(20_000):
        header = bytearray(b"P5")
        for field in (rng.choice([b"0", b"1", b"2", b"3"]), rng.choice([b"1", b"2", b"3"]), b"255"):
            header += rng.choice(_PGM_SEPARATORS) + field
        header += rng.choice(_PGM_SEPARATORS)
        for _ in range(rng.randrange(4)):
            at = rng.randrange(2, len(header) + 1)
            if rng.random() < 0.5:
                header[at:at] = bytes([rng.choice(_PGM_NOISE)])
            else:
                del header[at : at + 1]
        got, want = pgm_outcomes(bytes(header) + _RASTER[: rng.randrange(12)])
        assert got == want, header
        kind = "read" if isinstance(got, tuple) else got.split()[1]
        kinds[kind] = kinds.get(kind, 0) + 1
    # every outcome of the reader is reached, and not only by a few headers
    assert set(kinds) == {"read", "truncated", "non-numeric", "width", "maxval", "wanted"}
    assert min(kinds.values()) >= 100, kinds


# ---------------------------------------------------------------------------
# resize and subset
# ---------------------------------------------------------------------------

def test_resize_identity():
    img = np.random.default_rng(1).random((8, 8))
    assert np.array_equal(resize_area(img, 8, 8), img)


def test_resize_constant_stays_constant():
    img = np.full((32, 32), 0.7)
    out = resize_area(img, 8, 8)
    assert np.allclose(out, 0.7)
    assert out.shape == (8, 8)


def test_resize_block_mean():
    img = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert resize_area(img, 1, 1)[0, 0] == pytest.approx(0.5)


def test_resize_512_to_32():
    img = np.random.default_rng(2).random((512, 512))
    out = resize_area(img, 32, 32)
    assert out.shape == (32, 32)
    assert out[0, 0] == pytest.approx(img[:16, :16].mean())


def test_resize_rejects_non_integer_factor():
    with pytest.raises(DatasetError, match="cannot block-average 10x10 to 4x4"):
        resize_area(np.zeros((10, 10)), 4, 4)


@pytest.mark.parametrize("size,out", [(32, 8), (28, 7), (28, 14), (32, 16), (32, 4), (32, 2),
                                      (8, 4)])
def test_resize_of_a_stack_is_bitwise_the_per_image_block_mean(size, out):
    stack = np.random.default_rng(size * out).random((6, size, size))
    f = size // out
    want = np.stack([img.reshape(out, f, out, f).mean(axis=(1, 3)) for img in stack])
    assert resize_area(stack, out, out).tobytes() == want.tobytes()


def test_binary_subset_counts_and_labels():
    ds = load_digits_csv(DIGITS_CSV)
    train, test = binary_subset(ds, 0, 1, n_per_class=50, n_test=100, seed=7)
    assert len(train) == 100 and len(test) == 100
    assert sorted(np.bincount(train.labels).tolist()) == [50, 50]
    assert sorted(np.bincount(test.labels).tolist()) == [50, 50]
    assert set(train.labels.tolist()) == {0, 1}


def test_binary_subset_is_seeded():
    ds = load_digits_csv(DIGITS_CSV)
    t1, _ = binary_subset(ds, 0, 9, 10, 20, seed=5)
    t2, _ = binary_subset(ds, 0, 9, 10, 20, seed=5)
    for a_img, a_label, b_img, b_label in zip(t1.images, t1.labels, t2.images, t2.labels):
        assert a_label == b_label and np.array_equal(a_img, b_img)
    t3, _ = binary_subset(ds, 0, 9, 10, 20, seed=6)
    assert any(not np.array_equal(a, b) for a, b in zip(t1.images, t3.images))


def test_binary_subset_train_test_disjoint():
    ds = load_digits_csv(DIGITS_CSV)
    train, test = binary_subset(ds, 3, 8, 30, 40, seed=11)
    train_keys = {img.tobytes() for img in train.images}
    test_keys = {img.tobytes() for img in test.images}
    # distinct scans of the same glyph can collide pixelwise, but a full
    # overlap would mean the split reused images; require no intersection
    assert not (train_keys & test_keys)


def test_binary_subset_insufficient_samples():
    ds = load_digits_csv(DIGITS_CSV)
    with pytest.raises(DatasetError, match="class 0: need 220 samples, dataset has 178"):
        binary_subset(ds, 0, 1, n_per_class=170, n_test=100, seed=0)


def test_binary_subset_rejects_odd_test_count():
    ds = load_digits_csv(DIGITS_CSV)
    with pytest.raises(DatasetError, match="n_test 9 must be even"):
        binary_subset(ds, 0, 1, 5, 9, seed=0)


def test_binary_subset_five_per_class():
    ds = load_digits_csv(DIGITS_CSV)
    train, test = binary_subset(ds, 0, 1, n_per_class=5, n_test=100, seed=1)
    assert len(train) == 10
    assert sorted(np.bincount(train.labels).tolist()) == [5, 5]


def _per_sample_binary_subset(ds, class_a, class_b, n_per_class, n_test, seed):
    """The selection spelled out per sample: per class, the matching indices
    in dataset order, one seeded permutation, then a -> 0 and b -> 1."""
    samples = list(zip(ds.images / ds.scale, ds.labels))
    rng = np.random.default_rng(seed)
    picked = {}
    for cls in (class_a, class_b):
        idx = [i for i, (_, label) in enumerate(samples) if label == cls]
        order = rng.permutation(len(idx))
        picked[cls] = [samples[idx[j]] for j in order[:n_per_class + n_test // 2]]

    def relabel(part):
        return [(img, 0 if label == class_a else 1)
                for cls in (class_a, class_b) for img, label in part(picked[cls])]

    return relabel(lambda p: p[:n_per_class]), relabel(lambda p: p[n_per_class:])


@pytest.mark.parametrize("seed", [0, 5, 11])
@pytest.mark.parametrize("class_a,class_b,n_per_class,n_test",
                         [(0, 1, 50, 100), (3, 8, 30, 40), (9, 2, 5, 20), (7, 4, 1, 2)])
def test_binary_subset_equals_the_per_sample_selection(seed, class_a, class_b, n_per_class,
                                                       n_test):
    ds = load_digits_csv(DIGITS_CSV)
    got = binary_subset(ds, class_a, class_b, n_per_class, n_test, seed)
    for part, want in zip(got, _per_sample_binary_subset(ds, class_a, class_b, n_per_class,
                                                          n_test, seed)):
        assert part.images.dtype == ds.images.dtype and part.scale == ds.scale
        assert part.pixels(slice(None)).tobytes() == np.stack([img for img, _ in want]).tobytes()
        assert part.labels.tolist() == [label for _, label in want]
        assert part.labels.dtype == np.int64


# ---------------------------------------------------------------------------
# 8-bit pools: memory, one uint8 array, and subsets bitwise equal to float pools
# ---------------------------------------------------------------------------

def _pgm_dir(path, n_per_class, h, w, seed=0):
    """Random-level PGMs named cat000.pgm.. and dog000.pgm..; returns the
    float64 pool read from them one file at a time."""
    path.mkdir(exist_ok=True)
    rng = np.random.default_rng(seed)
    for k in range(n_per_class):
        for cls in ("cat", "dog"):
            write_pgm(path / f"{cls}{k:03d}.pgm", rng.integers(0, 256, (h, w)) / 255.0)
    names = sorted(os.listdir(path))
    return Dataset(np.stack([_pgm_levels(path / name) / 255.0 for name in names]),
                   np.array([int(name.startswith("dog")) for name in names]))


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_per_class,resize", [(180, 0), (360, 8)])
def test_pgm_pool_peak_stays_below_one_float_pool(tmp_path, n_per_class, resize):
    _pgm_dir(tmp_path / "pgm", n_per_class, 32, 32)
    cfg = ExperimentConfig(dataset="catdog", data_path=str(tmp_path / "pgm"), resize=resize)
    assert _peak_bytes(load_pool, cfg) < 2 * n_per_class * 32 * 32 * 8


def test_subset_of_an_8bit_pool_peaks_below_one_float_set():
    """Drawn sets keep the pool's levels; only training widens them."""
    rng = np.random.default_rng(6)
    pool = Dataset(rng.integers(0, 256, (360, 32, 32), dtype=np.uint8),
                   np.arange(360) % 2, 255)
    assert _peak_bytes(binary_subset, pool, 0, 1, 50, 100, 0) < 100 * 32 * 32 * 8


def test_resize_pool_in_chunks_is_bitwise_the_whole_float_pool_resize(tmp_path):
    float_pgm = _pgm_dir(tmp_path / "pgm", 150, 8, 8, seed=5)  # 300 images: two chunks
    pool = load_pgm_dir(tmp_path / "pgm", {"cat": 0, "dog": 1})
    for size in (4, 2):
        got = resize_pool(pool, size)
        assert got.scale == 1 and np.array_equal(got.labels, pool.labels)
        assert got.images.tobytes() == resize_area(float_pgm.images, size, size).tobytes()
    empty = Dataset(np.zeros((0, 8, 8), dtype=np.uint8), np.zeros(0, dtype=np.int64), 255)
    assert resize_pool(empty, 4).images.shape == (0, 4, 4)


def test_digits_load_peak_stays_below_one_float_pool():
    assert _peak_bytes(load_digits_csv, DIGITS_CSV) < 1797 * 64 * 8


def test_pgm_dir_reads_headers_spelled_differently_into_one_array(tmp_path):
    (tmp_path / "cat0.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes([0, 1, 2, 3]))
    (tmp_path / "cat1.pgm").write_bytes(b"P5 # other\n2\t2 255 " + bytes([4, 5, 6, 7]))
    (tmp_path / "cat2.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes([8, 9, 10, 11]))
    ds = load_pgm_dir(tmp_path, {"cat": 0})
    assert ds.scale == 255
    assert ds.images.dtype == np.uint8 and ds.images.flags.c_contiguous
    assert ds.images.reshape(-1).tolist() == list(range(12))


@pytest.mark.parametrize("later,match", [
    (b"P5\n2 2\n255\n\x00", "wanted 4 raster bytes, got 1"),
    (b"P5\n2 2\n65535\n" + bytes(8), "maxval 65535"),
    (b"P5\n1 4\n255\n" + bytes(4), "b.pgm is 4x1 but a.pgm is 2x2"),
])
def test_pgm_dir_later_file_errors_are_unchanged(tmp_path, later, match):
    (tmp_path / "a.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    (tmp_path / "b.pgm").write_bytes(later)
    with pytest.raises(DatasetError, match=match):
        load_pgm_dir(tmp_path, {"a": 0, "b": 1})


def _pools(tmp_path):
    """(8-bit pool, float64 pool as today's loaders built it) per source."""
    digits = (load_digits_csv(DIGITS_CSV), _reference_digits_csv(DIGITS_CSV))
    float_pgm = _pgm_dir(tmp_path / "pgm", 30, 16, 16, seed=3)
    pgm = (load_pgm_dir(tmp_path / "pgm", {"cat": 0, "dog": 1}), float_pgm)
    resized = (load_pool(ExperimentConfig(dataset="catdog", data_path=str(tmp_path / "pgm"),
                                          resize=4)),
               Dataset(resize_area(float_pgm.images, 4, 4), float_pgm.labels))
    levels = np.random.default_rng(4).integers(0, 256, (60, 5, 7), dtype=np.uint8)
    ip, lp = _idx_pair(tmp_path, levels, np.arange(60) % 3)
    idx = (load_idx(ip, lp), Dataset(levels.astype(np.float64) / 255.0, np.arange(60) % 3))
    return {"digits": digits, "pgm": pgm, "resized pgm": resized, "idx": idx}


def test_subsets_of_8bit_pools_equal_the_float_pools_bitwise(tmp_path):
    for name, (pool, float_pool) in _pools(tmp_path).items():
        assert pool.images.dtype == (np.float64 if name == "resized pgm" else np.uint8), name
        assert np.array_equal(pool.labels, float_pool.labels), name
        for seed in (0, 7):
            got = binary_subset(pool, 0, 1, 10, 8, seed)
            want = binary_subset(float_pool, 0, 1, 10, 8, seed)
            for part, ref in zip(got, want):
                assert part.scale == pool.scale and part.images.dtype == pool.images.dtype, name
                assert ref.scale == 1 and ref.images.dtype == np.float64, name
                assert part.pixels(slice(None)).tobytes() == ref.pixels(slice(None)).tobytes(), name
                assert part.labels.tobytes() == ref.labels.tobytes(), name
