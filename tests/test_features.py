"""Featurizer tests with naive re-implementations as oracles."""

import json
import math
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pe_oracle
from advforge import features, pe, synth
from advforge.features import (
    BYTE_ENTROPY,
    BYTE_HISTOGRAM,
    FEATURE_DIM,
    HEADER_BLOCK,
    SECTION_BLOCK,
    STRING_BLOCK,
    batch_extract,
    extract,
    write_matrix,
)
from advforge.records import read_jsonl as read_manifest
from features_oracle import oracle


def naive_byte_entropy(data: bytes) -> np.ndarray:
    """Window loop written without vectorization, used as a second route."""
    hist = [[0.0] * 16 for _ in range(16)]
    if not data:
        return np.zeros(256)
    if len(data) < 2048:
        windows = [data]
    else:
        windows = [
            data[i : i + 2048] for i in range(0, len(data) - 2048 + 1, 1024)
        ]
    for win in windows:
        counts = [0] * 16
        for b in win:
            counts[b >> 4] += 1
        total = len(win)
        ent = 0.0
        for c in counts:
            if c:
                p = c / total
                ent -= p * math.log2(p)
        ent *= 2.0
        hbin = min(int(ent * 2), 15)
        for i, c in enumerate(counts):
            hist[hbin][i] += c
    flat = np.array(hist).ravel()
    return flat / flat.sum()


def naive_strings(data: bytes) -> tuple[int, float, float, float, int, int]:
    runs = [m.group() for m in re.finditer(rb"[\x20-\x7e]{5,}", data)]
    if not runs:
        return 0, 0.0, 0.0, 0.0, data.count(b"http"), data.count(b"MZ")
    lengths = [len(r) for r in runs]
    blob = b"".join(runs)
    freq = {}
    for b in blob:
        freq[b] = freq.get(b, 0) + 1
    ent = -sum(
        (c / len(blob)) * math.log2(c / len(blob)) for c in freq.values()
    )
    return (
        len(runs),
        sum(lengths) / len(lengths),
        max(lengths),
        ent,
        data.count(b"http"),
        data.count(b"MZ"),
    )


class TestExtract:
    def test_empty_input_all_zero(self):
        vec = extract(b"")
        assert vec.shape == (FEATURE_DIM,)
        assert not vec.any()

    def test_constant_file(self):
        vec = extract(b"\x41" * 4096)
        hist = vec[BYTE_HISTOGRAM]
        assert hist[0x41] == pytest.approx(1.0)
        assert np.count_nonzero(hist) == 1
        be = vec[BYTE_ENTROPY].reshape(16, 16)
        # zero-entropy windows, all bytes in value bin 4 (0x41 >> 4)
        assert be[0, 4] == pytest.approx(1.0)
        assert np.count_nonzero(be) == 1
        assert not vec[HEADER_BLOCK].any()
        assert not vec[SECTION_BLOCK].any()
        strings = vec[STRING_BLOCK]
        assert strings[0] == 1
        assert strings[1] == 4096
        assert strings[2] == 4096
        assert strings[3] == 0.0

    def test_header_numerics_match_oracle(self):
        data = pe_oracle.build_pe(
            machine=0x14C,
            timestamp=0x60010203,
            checksum=0xDEAD,
            subsystem=2,
            dll_characteristics=0x4142,
            linker=(11, 22),
            os_version=(10, 1),
            pe32_plus=False,
            overlay=b"Z" * 33,
            cert=(0x4000, 0x100),
        )
        fields = pe_oracle.read_fields(data)
        vec = extract(data)
        hdr = vec[HEADER_BLOCK]
        assert hdr[0] == fields["machine"]
        assert hdr[1] == fields["subsystem"]
        assert hdr[2] == fields["dll_characteristics"]
        assert hdr[3] == fields["linker_major"]
        assert hdr[4] == fields["linker_minor"]
        assert hdr[5] == fields["os_major"]
        assert hdr[6] == fields["os_minor"]
        assert hdr[7] == fields["timestamp"]
        assert hdr[8] == fields["num_sections"]
        assert hdr[9] == fields["size_of_image"]
        assert hdr[10] == 1.0  # checksum set
        assert hdr[11] == 1.0  # cert dir set
        assert hdr[12] == 0.0  # debug dir empty
        assert hdr[13] == fields["overlay_size"]
        assert hdr[14] == len(data)
        assert hdr[15] == 0.0

    def test_section_aggregates(self):
        data = pe_oracle.build_pe(
            sections=[
                (b".text", b"\xcc" * 512, 0x60000020),
                (b".data", bytes(range(256)) * 2, 0xC0000040),
            ]
        )
        vec = extract(data)
        sec = vec[SECTION_BLOCK]
        assert sec[0] == 2
        # .text is constant (entropy 0), .data is uniform over 256 (8 bits)
        assert sec[1] == pytest.approx(4.0)
        assert sec[2] == pytest.approx(8.0)
        assert sec[3] == 512.0
        assert sec[4] == 512.0
        assert sec[5] == 1  # executable count
        assert sec[6] == 1  # writable count
        assert sec[7] == pytest.approx(1.0)

    def test_byte_entropy_matches_naive(self, rng):
        for size in (0, 100, 2048, 5000, 9001):
            data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            got = extract(data)[BYTE_ENTROPY]
            want = naive_byte_entropy(data)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_string_stats_match_naive(self, rng):
        samples = [
            b"http://x.example/MZMZ plus padding\x00\x01\x02 tail9",
            rng.integers(0, 256, 4096, dtype=np.uint8).tobytes(),
            b"\x00" * 64,
            b"abcd",  # one run below the length-5 floor
        ]
        for data in samples:
            got = extract(data)[STRING_BLOCK]
            want = naive_strings(data)
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1])
            assert got[2] == want[2]
            assert got[3] == pytest.approx(want[3])
            assert got[4] == want[4]
            assert got[5] == want[5]
            assert got[6] == 0.0 and got[7] == 0.0

    def test_histogram_blocks_sum_to_one(self, corpus_files):
        for path in corpus_files[:20]:
            vec = extract(path.read_bytes())
            assert abs(vec[BYTE_HISTOGRAM].sum() - 1.0) < 1e-9
            assert abs(vec[BYTE_ENTROPY].sum() - 1.0) < 1e-9
            assert np.isfinite(vec).all()

    def test_byte_histogram_permutation_invariant(self, rng):
        data = rng.integers(0, 256, 3000, dtype=np.uint8)
        shuffled = data.copy()
        rng.shuffle(shuffled)
        a = extract(data.tobytes())
        b = extract(shuffled.tobytes())
        np.testing.assert_array_equal(a[BYTE_HISTOGRAM], b[BYTE_HISTOGRAM])

    def test_pure(self, corpus_files):
        data = corpus_files[0].read_bytes()
        np.testing.assert_array_equal(extract(data), extract(data))


@st.composite
def synth_mutants(draw):
    """A synthetic PE, cut short or with a few bytes overwritten."""
    data = bytearray(synth.synth_pe(np.random.default_rng(
        draw(st.integers(0, 2**32 - 1)))))
    if draw(st.booleans()):
        return bytes(data[:draw(st.integers(0, len(data)))])
    for _ in range(draw(st.integers(1, 8))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


def assert_matches_oracle(data: bytes) -> None:
    """``extract`` equals the frozen oracle bit for bit, with and without
    a parsed image, and neither it nor ``pe.validate`` raises."""
    want = oracle(data).tobytes()
    assert extract(data).tobytes() == want
    report = pe.validate(data)
    if report.is_valid_pe:
        assert extract(data, pe.parse(data)).tobytes() == want


class TestOracle:
    """Bit-identity with the extractor as it stood before its blocks were
    rebuilt: a last-ulp change can flip a tree's split."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=9000), synth_mutants()))
    def test_fuzzed_inputs(self, data):
        assert_matches_oracle(data)

    @pytest.mark.parametrize("size", [0, 1, 2047, 2048, 3071, 3072, 3073])
    def test_window_edges(self, size, rng):
        assert_matches_oracle(rng.integers(0, 256, size, dtype=np.uint8)
                              .tobytes())
        assert_matches_oracle(b"printable run " * (size // 14)
                              + b"\x00" * (size % 14))

    @pytest.mark.parametrize("chunk", [1024, 3072])
    @pytest.mark.parametrize("size", [1, 1023, 1024, 1025, 2048, 3071, 3072,
                                      3073, 6144, 8191, 8193])
    def test_chunked_byte_counts(self, size, chunk, rng):
        # small chunks put the chunk edges inside small inputs
        with mock.patch.object(features, "_CHUNK", chunk):
            assert_matches_oracle(rng.integers(0, 256, size, dtype=np.uint8)
                                  .tobytes())
            assert_matches_oracle((b"printable run \xff" * size)[:size])

    def test_large_input_memory(self):
        # 16 MiB holding every byte value, in printable runs of 95: the
        # parent's int keys alone took 8 bytes per input byte (168 MB)
        data = bytes(range(256)) * (1 << 16)
        extract(data[:5000])
        tracemalloc.start()
        try:
            got = extract(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * len(data)
        assert got.tobytes() == oracle(data).tobytes()

    def test_synth_corpora(self, corpus_files, tmp_path):
        paths = list(corpus_files)
        for seed in (1, 2, 3):
            paths += synth.write_corpus(tmp_path / str(seed), 32, seed=seed)
        for path in paths:
            assert_matches_oracle(path.read_bytes())
        for blob in synth.fallback_benign_pool():
            assert_matches_oracle(blob)


def read_f32(path) -> np.ndarray:
    """A ``.f32`` file as documented: {u32 rows, u32 cols}, then
    little-endian float32 rows."""
    blob = path.read_bytes()
    rows, cols = (int.from_bytes(blob[i:i + 4], "little") for i in (0, 4))
    return np.frombuffer(blob[8:], dtype="<f4").reshape(rows, cols)


class TestBatch:
    def test_three_files(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        blobs = {"a.bin": b"alpha" * 40, "b.bin": b"\x00" * 10, "c.bin": b"x"}
        for name, blob in blobs.items():
            (src / name).write_bytes(blob)
        matrix, rows = batch_extract(src, tmp_path / "m.f32", tmp_path / "m.jsonl")
        assert matrix.dtype == np.dtype("<f4")
        assert matrix.shape == (3, FEATURE_DIM)
        np.testing.assert_array_equal(read_f32(tmp_path / "m.f32"), matrix)
        manifest = read_manifest(tmp_path / "m.jsonl")
        assert manifest == rows
        assert [m["path"] for m in manifest] == [
            str(src / name) for name in ("a.bin", "b.bin", "c.bin")]
        for rec in manifest:
            want = extract(blobs[os.path.basename(rec["path"])])
            np.testing.assert_array_equal(matrix[rec["row"]],
                                          want.astype(np.float32))

    def test_empty_dir(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        matrix, rows = batch_extract(src, tmp_path / "m.f32", tmp_path / "m.jsonl")
        assert (matrix.shape, rows) == ((0, FEATURE_DIM), [])
        assert read_f32(tmp_path / "m.f32").shape == (0, FEATURE_DIM)
        assert read_manifest(tmp_path / "m.jsonl") == []

    def test_unreadable_file_skipped(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        for name in ("a.bin", "b.bin", "d.bin"):
            (src / name).write_bytes(b"data-" + name.encode())
        os.symlink(src / "missing-target", src / "c.bin")
        matrix, rows = batch_extract(
            src, tmp_path / "m.f32", tmp_path / "m.jsonl"
        )
        assert len(matrix) == 3
        assert read_manifest(tmp_path / "m.jsonl") == rows
        errors = [m for m in rows if "error" in m]
        assert len(errors) == 1
        assert errors[0]["path"] == str(src / "c.bin")
        assert set(errors[0]) == {"path", "error"}
        assert [m["row"] for m in rows if "error" not in m] == [0, 1, 2]

    def test_matrix_round_trip(self, tmp_path, rng):
        mat = rng.normal(size=(5, 7)).astype(np.float32)
        write_matrix(tmp_path / "x.f32", mat)
        np.testing.assert_array_equal(read_f32(tmp_path / "x.f32"), mat)

    def test_matrix_header_layout(self, tmp_path):
        write_matrix(tmp_path / "x.f32", np.zeros((2, 3), dtype=np.float32))
        blob = (tmp_path / "x.f32").read_bytes()
        assert blob[:8] == (2).to_bytes(4, "little") + (3).to_bytes(4, "little")
        assert len(blob) == 8 + 2 * 3 * 4
