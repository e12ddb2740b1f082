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
from .records import list_files, write_jsonl

FEATURE_DIM = 552

BYTE_HISTOGRAM = slice(0, 256)
BYTE_ENTROPY = slice(256, 512)
HEADER_BLOCK = slice(512, 528)
SECTION_BLOCK = slice(528, 544)
STRING_BLOCK = slice(544, 552)

ENTROPY_WINDOW = 2048
ENTROPY_STRIDE = 1024

_PRINTABLE_LO = 0x20
_PRINTABLE_HI = 0x7E
_MIN_RUN = 5


def _shannon_bits(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _byte_entropy_histogram(arr: np.ndarray) -> np.ndarray:
    """Joint (entropy bin, value bin) histogram over sliding windows.

    Short inputs fall back to a single whole-file window.  Window entropy
    is computed over the 16 coarse value bins (byte >> 4), doubled onto a
    0..8 scale, then quantized to 16 bins.
    """
    hist = np.zeros((16, 16))
    if arr.size == 0:
        return hist.ravel()
    if arr.size < ENTROPY_WINDOW:
        windows = arr.reshape(1, -1)
    else:
        view = np.lib.stride_tricks.sliding_window_view(arr, ENTROPY_WINDOW)
        windows = view[::ENTROPY_STRIDE]

    width = windows.shape[1]
    chunk = 4096  # rows per pass, bounds the bincount intermediate
    for lo in range(0, windows.shape[0], chunk):
        rows = (windows[lo : lo + chunk] >> 4).astype(np.int32)
        n = rows.shape[0]
        offsets = (np.arange(n, dtype=np.int32) * 16)[:, None]
        counts = np.bincount(
            (rows + offsets).ravel(), minlength=16 * n
        ).reshape(n, 16)
        p = counts / width
        logs = np.log2(p, out=np.zeros_like(p), where=p > 0)
        entropy = -(p * logs).sum(axis=1) * 2.0
        bins = np.minimum((entropy * 2).astype(np.int64), 15)
        np.add.at(hist, bins, counts)
    return hist.ravel() / hist.sum()


def _printable_runs(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (run lengths >= MIN_RUN, bytes inside those runs)."""
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8)
    mask = (arr >= _PRINTABLE_LO) & (arr <= _PRINTABLE_HI)
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    starts, ends = edges[::2], edges[1::2]
    lengths = ends - starts
    keep = lengths >= _MIN_RUN
    starts, ends, lengths = starts[keep], ends[keep], lengths[keep]
    if lengths.size == 0:
        return lengths, np.zeros(0, dtype=np.uint8)
    chunks = [arr[s:e] for s, e in zip(starts, ends)]
    return lengths, np.concatenate(chunks)


def _header_numerics(image: pe.PeImage, file_size: int) -> np.ndarray:
    opt = image.optional

    def dir_flag(index: int) -> float:
        if opt.num_data_directories <= index:
            return 0.0
        rva, size = opt.data_directory(index)
        return 1.0 if (rva or size) else 0.0

    block = np.zeros(16)
    block[0] = image.coff.machine
    block[1] = opt.subsystem
    block[2] = opt.dll_characteristics
    block[3] = opt.linker_major
    block[4] = opt.linker_minor
    block[5] = opt.os_major
    block[6] = opt.os_minor
    block[7] = image.coff.timestamp
    block[8] = image.num_sections
    block[9] = opt.size_of_image
    block[10] = 1.0 if opt.checksum else 0.0
    block[11] = dir_flag(pe.DIR_SECURITY)
    block[12] = dir_flag(pe.DIR_DEBUG)
    block[13] = len(image.overlay)
    block[14] = file_size
    return block


def _section_aggregates(image: pe.PeImage) -> np.ndarray:
    block = np.zeros(16)
    sections = image.sections
    if not sections:
        return block
    entropies = []
    printability = []
    for s in sections:
        body = np.frombuffer(s.raw_data, dtype=np.uint8)
        entropies.append(_shannon_bits(np.bincount(body, minlength=256)))
        name = s.name.rstrip(b"\x00")
        if name:
            printable = sum(_PRINTABLE_LO <= c <= _PRINTABLE_HI for c in name)
            printability.append(printable / len(name))
        else:
            printability.append(0.0)
    raw_sizes = [s.raw_size for s in sections]
    block[0] = len(sections)
    block[1] = float(np.mean(entropies))
    block[2] = float(np.max(entropies))
    block[3] = float(np.mean(raw_sizes))
    block[4] = float(np.max(raw_sizes))
    block[5] = sum(1 for s in sections if s.characteristics & 0x20000000)
    block[6] = sum(1 for s in sections if s.characteristics & 0x80000000)
    block[7] = float(np.mean(printability))
    return block


def _string_stats(data: bytes, arr: np.ndarray) -> np.ndarray:
    block = np.zeros(8)
    lengths, chars = _printable_runs(arr)
    if lengths.size:
        block[0] = lengths.size
        block[1] = float(lengths.mean())
        block[2] = float(lengths.max())
        block[3] = _shannon_bits(np.bincount(chars, minlength=256))
    block[4] = data.count(b"http")
    block[5] = data.count(b"MZ")
    return block


def extract(data: bytes) -> np.ndarray:
    """Total, pure extraction; returns a float64 vector of FEATURE_DIM."""
    vec = np.zeros(FEATURE_DIM)
    if not data:
        return vec
    arr = np.frombuffer(data, dtype=np.uint8)
    vec[BYTE_HISTOGRAM] = np.bincount(arr, minlength=256) / arr.size
    vec[BYTE_ENTROPY] = _byte_entropy_histogram(arr)
    try:
        image = pe.parse(data)
    except pe.PeError:
        image = None
    if image is not None:
        vec[HEADER_BLOCK] = _header_numerics(image, len(data))
        vec[SECTION_BLOCK] = _section_aggregates(image)
    vec[STRING_BLOCK] = _string_stats(data, arr)
    return vec


def write_matrix(path, matrix: np.ndarray) -> None:
    """Little-endian float32 rows, preceded by {u32 rows, u32 cols}."""
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    header = np.array(matrix.shape, dtype="<u4").tobytes()
    pathlib.Path(path).write_bytes(header + matrix.tobytes())


def read_matrix(path) -> np.ndarray:
    blob = pathlib.Path(path).read_bytes()
    rows, cols = np.frombuffer(blob[:8], dtype="<u4")
    out = np.frombuffer(blob[8:], dtype="<f4").reshape(int(rows), int(cols))
    return out.copy()


def batch_extract(src_dir, matrix_path, manifest_path) -> tuple[int, int]:
    """Extract every entry of ``src_dir`` that is not a directory, by name.

    Returns (rows written, files skipped).  Unreadable entries produce a
    manifest record with an ``error`` field instead of a row.
    """
    rows: list[np.ndarray] = []
    records: list[dict] = []
    for path in list_files(src_dir):
        try:
            data = path.read_bytes()
        except OSError as exc:
            records.append({"path": path.name,
                            "error": f"{type(exc).__name__}: {exc}"})
            continue
        records.append({"row": len(rows),
                        "sha256": hashlib.sha256(data).hexdigest(),
                        "path": path.name})
        rows.append(extract(data))
    matrix = np.vstack(rows) if rows else np.zeros((0, FEATURE_DIM))
    write_matrix(matrix_path, matrix)
    write_jsonl(manifest_path, records)
    return len(rows), len(records) - len(rows)
