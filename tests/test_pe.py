from __future__ import annotations

import struct
from dataclasses import replace

import numpy as np
import pytest
from cryptography.hazmat.primitives import hashes
from hypothesis import given, settings
from hypothesis import strategies as st

import pe_oracle
from advforge import pe


def indep_sha256(data: bytes) -> str:
    digest = hashes.Hash(hashes.SHA256())
    digest.update(data)
    return digest.finalize().hex()


class TestParse:
    def test_mz_only_is_bad_signature(self):
        data = b"MZ" + bytes(62)
        with pytest.raises(pe.BadSignature):
            pe.parse(data)

    def test_minimal_pe_fields_match_oracle(self):
        data = pe_oracle.build_pe([(b".text", b"\xcc" * 512, 0x60000020)])
        img = pe.parse(data)
        want = pe_oracle.read_fields(data)
        assert img.num_sections == 1
        assert img.overlay == b""
        assert img.e_lfanew == want["e_lfanew"]
        assert img.coff.machine == want["machine"]
        assert img.coff.timestamp == want["timestamp"]
        assert img.optional.checksum == want["checksum"]
        assert img.optional.subsystem == want["subsystem"]
        assert img.optional.dll_characteristics == want["dll_characteristics"]
        assert img.optional.size_of_image == want["size_of_image"]
        sect = img.sections[0]
        osect = want["sections"][0]
        assert sect.name == osect["name"]
        assert sect.virtual_size == osect["virtual_size"]
        assert sect.virtual_address == osect["virtual_address"]
        assert sect.raw_size == osect["raw_size"]
        assert sect.raw_offset == osect["raw_offset"]
        assert sect.characteristics == osect["characteristics"]
        assert sect.raw_data[: 512] == b"\xcc" * 512

    def test_trailing_bytes_become_overlay(self):
        data = pe_oracle.build_pe() + b"\xab" * 16
        img = pe.parse(data)
        assert len(img.overlay) == 16
        assert img.overlay == b"\xab" * 16

    def test_truncated_section_data(self):
        data = pe_oracle.build_pe()
        with pytest.raises(pe.Truncated):
            pe.parse(data[:-40])

    def test_bad_mz(self):
        data = bytearray(pe_oracle.build_pe())
        data[0:2] = b"ZM"
        with pytest.raises(pe.BadSignature):
            pe.parse(bytes(data))

    def test_overlapping_sections_rejected(self):
        data = pe_oracle.build_pe(
            [(b".a", b"A" * 512, 0x40000040), (b".b", b"B" * 512, 0x40000040)]
        )
        fields = pe_oracle.read_fields(data)
        # point section 2's raw data into section 1's extent
        blob = bytearray(data)
        e_lfanew = fields["e_lfanew"]
        table_off = e_lfanew + 24 + 240
        struct.pack_into("<I", blob, table_off + 40 + 20, fields["sections"][0]["raw_offset"])
        with pytest.raises(pe.OverlappingSections):
            pe.parse(bytes(blob))


class TestValidate:
    def test_empty_input(self):
        rep = pe.validate(b"")
        assert rep.is_valid_pe is False
        assert rep.reasons == ("truncated",)
        assert rep.file_size == 0

    def test_minimal_pe_valid(self):
        rep = pe.validate(pe_oracle.build_pe())
        assert rep.is_valid_pe is True
        assert rep.reasons == ()

    def test_incremented_section_count_invalid(self):
        # tight layout: the table abuts the first section's raw data, so a
        # phantom 41-byte-later entry must collide with it or run off the file
        data = pe_oracle.build_pe(tight=True)
        assert pe.validate(data).is_valid_pe
        fields = pe_oracle.read_fields(data)
        blob = bytearray(data)
        struct.pack_into("<H", blob, fields["e_lfanew"] + 6, fields["num_sections"] + 1)
        rep = pe.validate(bytes(blob))
        assert rep.is_valid_pe is False
        assert set(rep.reasons) & {"truncated", "overlapping-sections"}

    def test_oversize_reason(self, monkeypatch):
        monkeypatch.setattr(pe, "MAX_FILE_SIZE", 1024)
        rep = pe.validate(b"MZ" + bytes(2048))
        assert rep.reasons == ("oversize",)

    def test_corpus_all_valid(self, corpus_files):
        for path in corpus_files:
            rep = pe.validate(path.read_bytes())
            assert rep.is_valid_pe, (path, rep.reasons)

    def test_sha256_matches_independent_digest(self, rng):
        for _ in range(100):
            blob = bytes(rng.integers(0, 256, size=int(rng.integers(0, 300)), dtype=np.uint8))
            assert pe.validate(blob).sha256 == indep_sha256(blob)

    @given(st.binary(max_size=4096))
    @settings(max_examples=200, deadline=None)
    def test_validate_iff_parse(self, data):
        rep = pe.validate(data)
        if rep.is_valid_pe:
            pe.parse(data)
        else:
            with pytest.raises(pe.PeError):
                pe.parse(data)


class TestSerialize:
    def test_round_trip_corpus(self, corpus_files):
        for path in corpus_files:
            data = path.read_bytes()
            assert pe.serialize(pe.parse(data)) == data, path

    def test_round_trip_equal_image(self):
        data = pe_oracle.build_pe(overlay=b"tail" * 8, header_pad=b"\x11" * 24)
        img = pe.parse(data)
        again = pe.parse(pe.serialize(img))
        assert again == img

    def test_idempotence(self, corpus_files):
        for path in corpus_files[:20]:
            one = pe.serialize(pe.parse(path.read_bytes()))
            two = pe.serialize(pe.parse(one))
            assert one == two

    def test_checksum_zero_diff_is_four_bytes(self):
        data = pe_oracle.build_pe(checksum=0x89ABCDEF)
        img = pe.parse(data)
        opt = img.optional.copy()
        opt.checksum = 0
        out = pe.serialize(pe.PeImage(
            dos_header=img.dos_header,
            coff=img.coff,
            optional=opt,
            sections=img.sections,
            overlay=img.overlay,
            gaps=img.gaps,
        ))
        assert len(out) == len(data)
        diff = [i for i, (a, b) in enumerate(zip(data, out)) if a != b]
        assert len(diff) == 4
        assert struct.unpack_from("<I", out, diff[0])[0] == 0

    def test_oversized_raw_size_overflows(self):
        img = pe.parse(pe_oracle.build_pe())
        sect = img.sections[0]
        bad = pe.SectionEntry(
            name=sect.name,
            virtual_size=sect.virtual_size,
            virtual_address=sect.virtual_address,
            raw_size=2**32,
            raw_offset=sect.raw_offset,
            reloc_offset=0,
            linenum_offset=0,
            reloc_count=0,
            linenum_count=0,
            characteristics=sect.characteristics,
            raw_data=sect.raw_data,
        )
        with pytest.raises(pe.LayoutOverflow):
            pe.serialize(replace(img, sections=(bad,)))
