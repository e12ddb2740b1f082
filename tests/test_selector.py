"""Tests for candidate selection, degenerate rejection, and assembly."""

import hashlib
import json
import time

import numpy as np
import pytest

from advforge.selector import (
    CandidateRecord,
    FinalRecord,
    SelectionConstants,
    SourceSample,
    assemble_dataset,
    pick_best_record,
    reject_degenerate,
)

from alg1_oracle import alg1_reference
from pe_oracle import build_pe


def cand(generator, score, orig=1_000_000, modified=None, ratio=None, **kw):
    if modified is None:
        modified = int(orig * (ratio if ratio is not None else 1.0))
    return CandidateRecord(generator=generator, ember_score=score,
                           orig_size=orig, modified_size=modified, **kw)


class TestPickBest:
    def test_singleton(self):
        rec = pick_best_record([cand("solo", 0.1, ratio=1.2)])
        assert rec.generator == "solo"

    def test_all_oversized_returns_none(self):
        cands = [cand("a", 0.05, orig=30_000_000, modified=30_000_001),
                 cand("b", 0.01, orig=26_000_000, modified=26_000_000)]
        assert pick_best_record(cands) is None

    def test_pass_two_replaces_high_score(self):
        # Pass one keeps A at 0.95 (over threshold, no early exit);
        # pass two admits B's 0.30 despite its 3.0x growth.
        cands = [cand("A", 0.95, ratio=1.2), cand("B", 0.30, ratio=3.0)]
        assert pick_best_record(cands).generator == "B"

    def test_pass_one_winner_blocks_lower_bloated_score(self):
        # B's 0.50 ends pass one under the threshold, so A's lower score
        # never gets its ratio bound relaxed.
        cands = [cand("A", 0.20, ratio=2.0), cand("B", 0.50, ratio=1.1)]
        assert pick_best_record(cands).generator == "B"

    def test_mixed_source_hashes_rejected(self):
        cands = [cand("a", 0.1, sha256_orig="x" * 64),
                 cand("b", 0.2, sha256_orig="y" * 64)]
        with pytest.raises(ValueError):
            pick_best_record(cands)

    def test_empty_list(self):
        assert pick_best_record([]) is None

    def test_custom_constants(self):
        consts = SelectionConstants(size_ratio_threshold=1.0,
                                    maximum_size=100)
        cands = [cand("a", 0.4, orig=50, modified=60),
                 cand("b", 0.45, orig=60, modified=60)]
        # a exceeds ratio 1.0; b wins pass one and sits under 0.5.
        assert pick_best_record(cands, 0.5, consts).generator == "b"

    def test_size_at_maximum_can_win(self):
        # the size bound excludes only outputs larger than maximum_size
        consts = SelectionConstants(maximum_size=100)
        cands = [cand("a", 0.1, orig=100, modified=100),
                 cand("b", 0.05, orig=100, modified=101)]
        assert pick_best_record(cands, 0.5, consts).generator == "a"


def random_candidate_set(rng):
    names = [f"g{int(i):02d}" for i in rng.integers(0, 8, size=int(rng.integers(0, 7)))]
    out = []
    for name in names:
        orig = int(rng.integers(1_000, 30_000_000))
        ratio = float(rng.uniform(0.5, 5.0))
        modified = max(1, int(orig * ratio))
        out.append(cand(name, float(rng.uniform(0.0, 1.0)),
                        orig=orig, modified=modified))
    return out


class TestOracleEquivalence:
    def test_ten_thousand_random_sets(self):
        rng = np.random.default_rng(20260818)
        started = time.perf_counter()
        for _ in range(10_000):
            cands = random_candidate_set(rng)
            ordered = sorted(cands, key=lambda r: r.generator)
            expected = alg1_reference([r.to_dict() for r in ordered])
            rec = pick_best_record(cands)
            assert (rec.generator if rec else None) == expected
        assert time.perf_counter() - started < 60.0

    def test_winner_never_oversized_and_threshold_property(self):
        rng = np.random.default_rng(99)
        for _ in range(4_000):
            cands = random_candidate_set(rng)
            rec = pick_best_record(cands)
            if rec is None:
                assert all(c.modified_size > 25_000_000 for c in cands)
                continue
            assert rec.modified_size <= 25_000_000
            fully_ok = [c for c in cands
                        if c.ember_score < 0.871
                        and c.modified_size / c.orig_size <= 1.5
                        and c.modified_size <= 25_000_000]
            if fully_ok:
                assert rec.ember_score < 0.871


HEXA = "a" * 64
HEXB = "b" * 64
HEXC = "c" * 64
HEXD = "d" * 64


class TestRejectDegenerate:
    def test_collapse_same_generator(self):
        records = [
            cand("G", 0.1, sha256_adv=HEXC, sha256_orig=HEXA),
            cand("G", 0.2, sha256_adv=HEXC, sha256_orig=HEXB),
            cand("G", 0.3, sha256_adv=HEXD, sha256_orig=HEXA),
        ]
        kept, log = reject_degenerate(records)
        assert [r.sha256_adv for r in kept] == [HEXD]
        (entry,) = log
        assert entry["reason"] == "collapse"
        assert entry["generator"] == "G"
        assert entry["sha256_origs"] == sorted([HEXA, HEXB])

    def test_unmodified_output(self):
        records = [cand("G", 0.1, sha256_adv=HEXA, sha256_orig=HEXA)]
        kept, log = reject_degenerate(records)
        assert kept == []
        assert log[0]["reason"] == "unmodified"

    def test_cross_generator_identity_is_kept(self):
        records = [
            cand("G1", 0.1, sha256_adv=HEXC, sha256_orig=HEXA),
            cand("G2", 0.2, sha256_adv=HEXC, sha256_orig=HEXB),
        ]
        kept, log = reject_degenerate(records)
        assert len(kept) == 2
        assert log == []

    def test_same_source_repeat_not_collapse(self):
        records = [
            cand("G", 0.1, sha256_adv=HEXC, sha256_orig=HEXA),
            cand("G", 0.2, sha256_adv=HEXC, sha256_orig=HEXA),
        ]
        kept, log = reject_degenerate(records)
        assert len(kept) == 2
        assert log == []

    def test_missing_hashes_rejected(self):
        with pytest.raises(ValueError):
            reject_degenerate([cand("G", 0.1)])


def write_candidate(dir_path, name, payload, *, broken=False):
    data = b"junk not a pe" if broken else build_pe(
        sections=[(b".text", payload, 0x60000020)])
    path = dir_path / name
    path.write_bytes(data)
    return path, hashlib.sha256(data).hexdigest(), len(data)


class TestAssembleDataset:
    def make_fixture(self, tmp_path, rng):
        """Three sources; the third only has an oversized candidate."""
        cand_dir = tmp_path / "cands"
        cand_dir.mkdir()
        sources = [SourceSample(sha256=f"{i:02x}" * 32, label_scheme="family",
                                label_value=f"fam{i}", ember_score=0.95)
                   for i in range(3)]
        candidates = []
        specs = [
            (0, "genA", 0.10, 1.2), (0, "genB", 0.40, 1.3),
            (1, "genA", 0.90, 1.1), (1, "genB", 0.30, 4.0),
        ]
        for i, (src, gen, score, ratio) in enumerate(specs):
            payload = bytes(rng.integers(0, 256, size=600 + 37 * i, dtype=np.uint8))
            path, sha, size = write_candidate(cand_dir, f"c{i}.bin", payload)
            candidates.append(CandidateRecord(
                generator=gen, ember_score=score,
                orig_size=size, modified_size=int(size * ratio),
                path=str(path), sha256_adv=sha,
                sha256_orig=sources[src].sha256))
        path, sha, size = write_candidate(
            cand_dir, "big.bin", bytes(rng.integers(0, 256, size=700, dtype=np.uint8)))
        candidates.append(CandidateRecord(
            generator="genA", ember_score=0.05,
            orig_size=size, modified_size=30_000_000,
            path=str(path), sha256_adv=sha, sha256_orig=sources[2].sha256))
        return sources, candidates

    def test_none_propagation_and_counts(self, tmp_path, rng):
        sources, candidates = self.make_fixture(tmp_path, rng)
        out = tmp_path / "final"
        summary = assemble_dataset(sources, candidates, out)
        rows = [json.loads(line) for line in
                (out / "metadata.jsonl").read_text().splitlines()]
        assert len(rows) == 2
        assert summary["failed_count"] == 1
        assert len(rows) + summary["failed_count"] == len(sources)
        copied = sorted(p.name for p in (out / "files").iterdir())
        assert copied == sorted(r["sha256_adv"] for r in rows)

    def test_share_table_sums_to_hundred(self, tmp_path, rng):
        sources, candidates = self.make_fixture(tmp_path, rng)
        summary = assemble_dataset(sources, candidates, tmp_path / "final")
        total_share = sum(g["share"] for g in summary["per_generator"])
        assert total_share == pytest.approx(100.0, abs=0.01)

    def test_winners_match_reference(self, tmp_path, rng):
        sources, candidates = self.make_fixture(tmp_path, rng)
        out = tmp_path / "final"
        assemble_dataset(sources, candidates, out)
        rows = {json.loads(line)["sha256_orig"]: json.loads(line)["generator"]
                for line in (out / "metadata.jsonl").read_text().splitlines()}
        for source in sources:
            pool = sorted((c for c in candidates
                           if c.sha256_orig == source.sha256),
                          key=lambda c: c.generator)
            expected = alg1_reference([c.to_dict() for c in pool])
            assert rows.get(source.sha256) == expected

    def test_invalid_pe_candidate_dropped(self, tmp_path, rng):
        cand_dir = tmp_path / "cands"
        cand_dir.mkdir()
        source = SourceSample(sha256="ee" * 32, label_scheme="type",
                              label_value="trojan", ember_score=0.9)
        path, sha, size = write_candidate(cand_dir, "bad.bin", b"", broken=True)
        broken = CandidateRecord(generator="genX", ember_score=0.01,
                                 orig_size=size, modified_size=size,
                                 path=str(path), sha256_adv=sha,
                                 sha256_orig=source.sha256)
        out = tmp_path / "final"
        summary = assemble_dataset([source], [broken], out)
        assert summary["failed_count"] == 1
        rejections = [json.loads(line) for line in
                      (out / "rejections.jsonl").read_text().splitlines()]
        assert rejections[0]["reason"] == "invalid-pe"

    def test_degenerate_counted_as_pathological(self, tmp_path, rng):
        cand_dir = tmp_path / "cands"
        cand_dir.mkdir()
        sources = [SourceSample(sha256="0a" * 32, label_scheme="family",
                                label_value="x", ember_score=0.9),
                   SourceSample(sha256="0b" * 32, label_scheme="family",
                                label_value="y", ember_score=0.9)]
        payload = bytes(rng.integers(0, 256, size=512, dtype=np.uint8))
        path, sha, size = write_candidate(cand_dir, "same.bin", payload)
        candidates = [
            CandidateRecord(generator="G", ember_score=0.1, orig_size=size,
                            modified_size=size, path=str(path),
                            sha256_adv=sha, sha256_orig=s.sha256)
            for s in sources
        ]
        summary = assemble_dataset(sources, candidates, tmp_path / "final")
        assert summary["pathological_count"] == 1
        assert summary["failed_count"] == 2
        assert summary["per_generator"] == []

    def test_missing_candidate_file_is_io_error(self, tmp_path):
        source = SourceSample(sha256="cc" * 32, label_scheme="family",
                              label_value="z", ember_score=0.5)
        ghost = CandidateRecord(generator="G", ember_score=0.2,
                                orig_size=100, modified_size=100,
                                path=str(tmp_path / "missing.bin"),
                                sha256_adv="dd" * 32,
                                sha256_orig=source.sha256)
        out = tmp_path / "final"
        summary = assemble_dataset([source], [ghost], out)
        assert summary["failed_count"] == 1
        rejections = [json.loads(line) for line in
                      (out / "rejections.jsonl").read_text().splitlines()]
        assert rejections[0]["reason"] == "io-error"

    def test_evasive_count(self, tmp_path, rng):
        sources, candidates = self.make_fixture(tmp_path, rng)
        summary = assemble_dataset(sources, candidates, tmp_path / "final")
        # Both winners score under the threshold in this fixture.
        assert summary["evasive_count"] == 2

    def test_winner_at_threshold_is_not_evasive(self, tmp_path, rng):
        # at a threshold of 0.30 the winners score 0.10 and exactly 0.30,
        # and a score at the threshold counts as detected
        sources, candidates = self.make_fixture(tmp_path, rng)
        out = tmp_path / "final"
        summary = assemble_dataset(sources, candidates, out, threshold=0.30)
        scores = sorted(json.loads(line)["ember_score_adv"] for line in
                        (out / "metadata.jsonl").read_text().splitlines())
        assert scores == [0.10, 0.30]
        assert summary["evasive_count"] == 1

    def test_duplicate_sources_rejected(self, tmp_path):
        src = SourceSample(sha256="ab" * 32, label_scheme="family",
                           label_value="x")
        with pytest.raises(ValueError):
            assemble_dataset([src, src], [], tmp_path / "final")

    def test_record_field_names(self):
        rec = FinalRecord(sha256_orig="o", sha256_adv="a",
                          label={"scheme": "family", "value": "v"},
                          generator="g", ember_score_orig=0.5,
                          ember_score_adv=0.1, orig_size=10, adv_size=12)
        keys = set(rec.to_dict())
        assert keys == {
            "sha256_orig", "sha256_adv", "label", "generator",
            "ember_score_orig", "ember_score_adv",
            "ember2024_score_orig", "ember2024_score_adv",
            "engine_detections_orig", "engine_detections_adv",
            "orig_size", "adv_size",
        }
