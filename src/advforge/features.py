"""Static feature extraction: 552 numbers per binary.

Layout (block slices exported below):
  [0, 256)    normalized byte histogram
  [256, 512)  byte-entropy joint histogram, 16 entropy x 16 value bins
  [512, 528)  PE header numerics (zeros for non-PE input)
  [528, 544)  section aggregates (zeros for non-PE input)
  [544, 552)  printable-string statistics
"""

from __future__ import annotations

import hashlib
import pathlib

import numpy as np

from . import pe
from .records import file_row, list_files, write_jsonl

FEATURE_DIM = 552

BYTE_HISTOGRAM = slice(0, 256)
BYTE_ENTROPY = slice(256, 512)
HEADER_BLOCK = slice(512, 528)
SECTION_BLOCK = slice(528, 544)
STRING_BLOCK = slice(544, 552)

ENTROPY_WINDOW = 2048
ENTROPY_STRIDE = 1024
# input bytes per byte-count chunk, a multiple of ENTROPY_STRIDE: every
# input up to 1 MiB takes one bincount
_CHUNK = 1 << 20

# 1 for a printable ASCII byte (0x20..0x7E), 0 otherwise; for bytes.translate
_PRINTABLE = bytes(0x20 <= c <= 0x7E for c in range(256))
_MIN_RUN = 5


def _shannon_bits(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _block_counts(chunk: np.ndarray, rows: int) -> np.ndarray:
    """(rows, 256) byte counts of each full ENTROPY_STRIDE-byte block of
    ``chunk``, from one ``bincount`` over ``block * 256 + byte``; the bytes
    after the last full block count as one more row."""
    blocks = chunk.size // ENTROPY_STRIDE
    full = blocks * ENTROPY_STRIDE
    keys = chunk.astype(np.intp)
    head = keys[:full].reshape(blocks, ENTROPY_STRIDE)
    head += (np.arange(blocks) * 256)[:, None]
    keys[full:] += blocks * 256
    return np.bincount(keys, minlength=256 * rows).reshape(rows, 256)


def _byte_blocks(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(byte counts of the input, byte counts of each full
    ENTROPY_STRIDE-byte block).  The ``bincount`` keys take 8 bytes per
    input byte, so the input is counted one _CHUNK at a time; the bytes
    after the last full block count as one more row, kept in the total."""
    blocks = arr.size // ENTROPY_STRIDE
    counts = np.empty((blocks + 1, 256), dtype=np.intp)
    step = _CHUNK // ENTROPY_STRIDE
    for first in range(0, blocks + 1, step):
        rows = min(step, blocks + 1 - first)
        chunk = arr[first * ENTROPY_STRIDE : (first + step) * ENTROPY_STRIDE]
        counts[first : first + rows] = _block_counts(chunk, rows)
    return counts.sum(axis=0), counts[:blocks]


def _byte_entropy_histogram(total: np.ndarray, per_block: np.ndarray,
                            size: int) -> np.ndarray:
    """Joint (entropy bin, value bin) histogram over sliding windows.

    A window of ENTROPY_WINDOW bytes at stride ENTROPY_STRIDE is two
    adjacent blocks, so its 16 coarse value counts (byte >> 4) are the sum
    of theirs.  Short inputs fall back to a single whole-file window.
    Window entropy over the coarse bins is doubled onto a 0..8 scale, then
    quantized to 16 bins.  Counts stay integers until the final division,
    so the sum order of the joint histogram cannot change a bit of it.
    """
    if size < ENTROPY_WINDOW:
        counts = total.reshape(1, 16, 16).sum(axis=2)
        width = size
    else:
        coarse = per_block.reshape(-1, 16, 16).sum(axis=2)
        counts = coarse[:-1] + coarse[1:]
        width = ENTROPY_WINDOW
    p = counts / width
    logs = np.log2(p, out=np.zeros_like(p), where=p > 0)
    entropy = -(p * logs).sum(axis=1) * 2.0
    bins = np.minimum((entropy * 2).astype(np.int64), 15)
    keys = (bins[:, None] * 16 + np.arange(16)).ravel()
    hist = np.bincount(keys, weights=counts.ravel(), minlength=256)
    return hist / hist.sum()


def _header_numerics(image: pe.PeImage, file_size: int) -> np.ndarray:
    opt = image.optional

    def dir_flag(index: int) -> float:
        if opt.num_data_directories <= index:
            return 0.0
        rva, size = opt.data_directory(index)
        return 1.0 if (rva or size) else 0.0

    return np.array([
        image.coff.machine, opt.subsystem, opt.dll_characteristics,
        opt.linker_major, opt.linker_minor, opt.os_major, opt.os_minor,
        image.coff.timestamp, image.num_sections, opt.size_of_image,
        1.0 if opt.checksum else 0.0, dir_flag(pe.DIR_SECURITY),
        dir_flag(pe.DIR_DEBUG), len(image.overlay), file_size, 0.0,
    ], dtype=np.float64)


def _section_aggregates(image: pe.PeImage) -> np.ndarray:
    block = np.zeros(16)
    sections = image.sections
    if not sections:
        return block
    entropies = np.array([
        _shannon_bits(np.bincount(np.frombuffer(s.raw_data, dtype=np.uint8),
                                  minlength=256)) for s in sections])
    names = [s.name.rstrip(b"\x00") for s in sections]
    printability = np.array([
        name.translate(_PRINTABLE).count(1) / len(name) if name else 0.0
        for name in names])
    raw_sizes = [s.raw_size for s in sections]
    block[0] = len(sections)
    block[1] = float(entropies.mean())
    block[2] = float(entropies.max())
    block[3] = sum(raw_sizes) / len(raw_sizes)
    block[4] = max(raw_sizes)
    block[5] = sum(1 for s in sections if s.characteristics & 0x20000000)
    block[6] = sum(1 for s in sections if s.characteristics & 0x80000000)
    block[7] = float(printability.mean())
    return block


def _string_stats(data: bytes) -> np.ndarray:
    """Runs of at least _MIN_RUN printable bytes: count, mean and longest
    length, and the entropy of the bytes inside them."""
    block = np.zeros(8)
    flags = np.frombuffer(b"\x00" + data.translate(_PRINTABLE) + b"\x00",
                          dtype=np.bool_)
    edges = np.flatnonzero(flags[1:] != flags[:-1])
    starts, ends = edges[::2], edges[1::2]
    lengths = ends - starts
    keep = lengths >= _MIN_RUN
    lengths = lengths[keep]
    if lengths.size:
        chars = b"".join([data[s:e] for s, e in
                          zip(starts[keep].tolist(), ends[keep].tolist())])
        block[0] = lengths.size
        block[1] = float(lengths.mean())
        block[2] = float(lengths.max())
        block[3] = _shannon_bits(
            np.bincount(np.frombuffer(chars, dtype=np.uint8), minlength=256))
    block[4] = data.count(b"http")
    block[5] = data.count(b"MZ")
    return block


def extract(data: bytes, image: pe.PeImage | None = None) -> np.ndarray:
    """Total, pure extraction; returns a float64 vector of FEATURE_DIM.

    ``image`` saves the parse: pass ``pe.parse(data)`` or the image that
    ``data`` was serialized from, whose fields parse back unchanged.  The
    vector is bit-identical either way.
    """
    vec = np.zeros(FEATURE_DIM)
    if not data:
        return vec
    arr = np.frombuffer(data, dtype=np.uint8)
    total, per_block = _byte_blocks(arr)
    vec[BYTE_HISTOGRAM] = total / arr.size
    vec[BYTE_ENTROPY] = _byte_entropy_histogram(total, per_block, arr.size)
    del per_block  # 2 bytes per input byte, freed before the string scan
    if image is None:
        try:
            image = pe.parse(data)
        except pe.PeError:
            pass
    if image is not None:
        vec[HEADER_BLOCK] = _header_numerics(image, len(data))
        vec[SECTION_BLOCK] = _section_aggregates(image)
    vec[STRING_BLOCK] = _string_stats(data)
    return vec


def write_matrix(path, matrix: np.ndarray) -> None:
    """Little-endian float32 rows, preceded by {u32 rows, u32 cols}."""
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    header = np.array(matrix.shape, dtype="<u4").tobytes()
    pathlib.Path(path).write_bytes(header + matrix.tobytes())


def batch_extract(src_dir, matrix_path, manifest_path) -> tuple:
    """Extract every entry of ``src_dir`` that is not a directory into
    ``matrix_path`` and ``manifest_path``.  Returns the ``<f4`` matrix and
    the ``records.file_row`` rows as written: ``{"path", "row", "sha256"}``,
    ``row`` indexing the matrix, or ``{"path", "error"}``."""
    vectors: list[np.ndarray] = []

    def one(_path, data: bytes) -> dict:
        vectors.append(extract(data))
        return {"row": len(vectors) - 1,
                "sha256": hashlib.sha256(data).hexdigest()}

    rows = [file_row(path, one) for path in list_files(src_dir)]
    matrix = np.array(vectors, dtype="<f4").reshape(-1, FEATURE_DIM)
    write_matrix(matrix_path, matrix)
    write_jsonl(manifest_path, rows)
    return matrix, rows
