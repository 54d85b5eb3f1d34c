"""On-disk formats: text model files, sample dumps, IDX images, synthetic data.

Model files and sample dumps are line-oriented ASCII. Floats are written with
repr(), i.e. shortest decimal that round-trips, so save -> load -> save is
byte-identical. Parse failures point at the byte offset of the offending
line.

Model file layout ("GMRBM1"):
    GMRBM1 <n_visible> <n_hidden>
    <n_visible lines: W row, n_hidden floats>
    <1 line: visible biases, n_visible floats>
    <1 line: hidden biases, n_hidden floats>

Sample dump layout ("GMSAMP1"):
    GMSAMP1 <n_samples> <n_visible>
    <1 line: JSON metadata (sampler_id, seed, chain settings)>
    <n_samples lines: bitstrings of length n_visible>
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .rbm import ChainSettings, RbmModel, SampleBatch
from .rng import derive_rng

__all__ = [
    "save_model",
    "load_model",
    "save_samples",
    "load_samples",
    "load_idx_images",
    "synth_dataset",
    "ModelFormatError",
]

MODEL_MAGIC = "GMRBM1"
SAMPLES_MAGIC = "GMSAMP1"
IDX_IMAGE_MAGIC = 0x00000803

_SYNTH_TAG = 0xDA


class ModelFormatError(ValueError):
    """A model or sample file failed to parse; message names the byte offset."""


class _LineReader:
    """Iterates decoded lines while tracking the byte offset of each."""

    def __init__(self, data: bytes, path):
        self.data = data
        self.path = path
        self.offset = 0

    def next_line(self, what: str) -> tuple[str, int]:
        if self.offset >= len(self.data):
            raise ModelFormatError(
                f"{self.path}: truncated file, expected {what} at byte {self.offset}")
        end = self.data.find(b"\n", self.offset)
        if end == -1:
            end = len(self.data)
        start = self.offset
        raw = self.data[self.offset:end]
        self.offset = end + 1
        try:
            return raw.decode("ascii"), start
        except UnicodeDecodeError as exc:
            raise ModelFormatError(
                f"{self.path}: non-ASCII {what} at byte {start}: {exc}") from None


def _read_header(reader: _LineReader, magic: str, what: str) -> tuple[int, int, int]:
    """Parse "<magic> <a> <b>" with positive integers a, b; returns (a, b, byte offset)."""
    header, off = reader.next_line("header")
    parts, path = header.split(), reader.path
    if not parts or not parts[0].startswith(magic.rstrip("0123456789")):
        raise ModelFormatError(f"{path}: not a {what} (bad magic at byte {off})")
    if parts[0] != magic:
        raise ModelFormatError(f"{path}: unsupported {what} version {parts[0]!r}")
    if len(parts) != 3:
        raise ModelFormatError(f"{path}: malformed header at byte {off}")
    try:
        a, b = int(parts[1]), int(parts[2])
    except ValueError:
        raise ModelFormatError(f"{path}: malformed header dimensions at byte {off}") from None
    if a < 1 or b < 1:
        raise ModelFormatError(f"{path}: non-positive dimensions in header at byte {off}")
    return a, b, off


def _fmt_row(values) -> str:
    return " ".join(repr(float(x)) for x in values)


def _parse_floats(line: str, count: int, what: str, offset: int, path) -> np.ndarray:
    parts = line.split()
    if len(parts) != count:
        raise ModelFormatError(
            f"{path}: {what} at byte {offset} has {len(parts)} values, expected {count}")
    try:
        row = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ModelFormatError(f"{path}: bad number in {what} at byte {offset}: {exc}") from None
    if not np.isfinite(row).all():
        raise ModelFormatError(f"{path}: non-finite value in {what} at byte {offset}")
    return row


def save_model(model: RbmModel, path) -> None:
    lines = [f"{MODEL_MAGIC} {model.n_visible} {model.n_hidden}"]
    lines += [_fmt_row(row) for row in model.W]
    lines.append(_fmt_row(model.b_v))
    lines.append(_fmt_row(model.b_h))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def load_model(path) -> RbmModel:
    reader = _LineReader(Path(path).read_bytes(), path)
    n_visible, n_hidden, _ = _read_header(reader, MODEL_MAGIC, "model file")
    w_rows = []
    for i in range(n_visible):
        line, off = reader.next_line(f"weight row {i}")
        w_rows.append(_parse_floats(line, n_hidden, f"weight row {i}", off, path))
    line, off = reader.next_line("visible biases")
    b_v = _parse_floats(line, n_visible, "visible biases", off, path)
    line, off = reader.next_line("hidden biases")
    b_h = _parse_floats(line, n_hidden, "hidden biases", off, path)
    return RbmModel(W=np.vstack(w_rows), b_v=b_v, b_h=b_h)


def _settings_meta(settings: ChainSettings) -> dict:
    meta = {"n_samples": settings.n_samples, "burn_in": settings.burn_in,
            "thin": settings.thin, "init": settings.init}
    if settings.init_vector is not None:
        meta["init_vector"] = [int(b) for b in settings.init_vector]
    return meta


def save_samples(batch: SampleBatch, path) -> None:
    meta = {"sampler_id": batch.sampler_id, "seed": batch.seed,
            "settings": _settings_meta(batch.settings)}
    lines = [f"{SAMPLES_MAGIC} {batch.n} {batch.n_visible}",
             json.dumps(meta, separators=(",", ":"))]
    lines += ["".join("1" if b else "0" for b in row) for row in batch.samples]
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def load_samples(path) -> SampleBatch:
    reader = _LineReader(Path(path).read_bytes(), path)
    n, r, header_off = _read_header(reader, SAMPLES_MAGIC, "sample dump")
    meta_line, off = reader.next_line("metadata")
    try:
        meta = json.loads(meta_line)
        s = meta["settings"]
        vec = s.get("init_vector")
        settings = ChainSettings(
            n_samples=s["n_samples"], burn_in=s["burn_in"], thin=s["thin"], init=s["init"],
            init_vector=None if vec is None else np.array(vec, dtype=np.uint8))
        sampler_id, seed = meta["sampler_id"], meta["seed"]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ModelFormatError(f"{path}: bad metadata at byte {off}: {exc!r}") from None
    # Every row is r bits and a newline (optional after the last one).
    room = len(reader.data) - reader.offset
    if room < n * (r + 1) - 1:
        raise ModelFormatError(
            f"{path}: header at byte {header_off} declares {n} rows of {r} bits, "
            f"but only {max(room, 0)} bytes follow the metadata")
    rows = np.empty((n, r), dtype=np.uint8)
    for i in range(n):
        line, off = reader.next_line(f"sample row {i}")
        if len(line) != r or set(line) - {"0", "1"}:
            raise ModelFormatError(
                f"{path}: sample row {i} at byte {off} is not a {r}-bit string")
        rows[i] = np.frombuffer(line.encode("ascii"), dtype=np.uint8) - ord("0")
    return SampleBatch(samples=rows, sampler_id=sampler_id, seed=seed, settings=settings)


def load_idx_images(path, threshold: float = 0.5) -> np.ndarray:
    """Binarized images from an IDX3 unsigned-byte file, one flattened row each.

    A pixel maps to 1 when pixel/255 >= threshold.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    data = Path(path).read_bytes()
    if len(data) < 16:
        raise ModelFormatError(f"{path}: short read, IDX header needs 16 bytes")
    magic, count, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise ModelFormatError(
            f"{path}: bad IDX magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}")
    need = count * rows * cols
    pixels = np.frombuffer(data, dtype=np.uint8, offset=16)
    if pixels.size < need:
        raise ModelFormatError(
            f"{path}: short read, expected {need} pixel bytes, found {pixels.size}")
    pixels = pixels[:need].reshape(count, rows * cols)
    return (pixels / 255.0 >= threshold).astype(np.uint8)


def synth_dataset(kind: str, r: int, count: int, noise: float, seed: int) -> np.ndarray:
    """Deterministic desk-scale binary dataset.

    two-cluster: rows are the all-zeros or all-ones prototype; bars: rows have
    one contiguous active half. Every bit is then flipped independently with
    probability `noise`. Draw order: per-row prototype choices, then the flip
    matrix.
    """
    if r < 4:
        raise ValueError(f"r must be >= 4, got {r}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must be in [0, 1], got {noise}")
    rng = derive_rng(seed, _SYNTH_TAG)
    which = rng.random(count) < 0.5
    base = np.zeros((count, r), dtype=np.uint8)
    if kind == "two-cluster":
        base[which] = 1
    elif kind == "bars":
        half = r // 2
        base[which, :half] = 1
        base[~which, half:] = 1
    else:
        raise ValueError(f"unknown synthetic dataset kind: {kind!r}")
    flips = (rng.random((count, r)) < noise).astype(np.uint8)
    return base ^ flips
