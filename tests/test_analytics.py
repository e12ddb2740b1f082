"""Tests for dataset statistics against independent recount oracles."""

import csv
import math

import pytest

from advforge.analytics import (
    ScoreDropBins,
    detection_drops,
    evasion_rate,
    score_drop_bins,
    size_ratio_stats,
    write_engine_drop_csv,
    write_score_drop_csv,
    write_size_ratio_csv,
)


def oracle_quantile(values, q):
    """Sort-based rank interpolation, written independently."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    pos = (n - 1) * q
    lo = int(math.floor(pos))
    hi = lo + 1 if lo + 1 < n else n - 1
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def make_pairs(evading, total):
    pairs = [{"orig_verdict_malicious": True, "adv_score": 0.1}
             for _ in range(evading)]
    pairs += [{"orig_verdict_malicious": True, "adv_score": 0.99}
              for _ in range(total - evading)]
    return pairs


class TestEvasionRate:
    def test_family_dataset_rate(self):
        rate = evasion_rate(make_pairs(18_441, 18_750), threshold=0.871)
        assert rate == pytest.approx(0.9835, abs=1e-4)

    def test_type_dataset_rate(self):
        rate = evasion_rate(make_pairs(23_239, 25_204), threshold=0.871)
        assert rate == pytest.approx(0.9220, abs=1e-4)

    def test_empty_denominator(self):
        pairs = [{"orig_verdict_malicious": False, "adv_score": 0.0}]
        assert evasion_rate(pairs, 0.871) == 0.0
        assert evasion_rate([], 0.5) == 0.0

    def test_benign_samples_ignored(self):
        pairs = make_pairs(1, 2)
        pairs.append({"orig_verdict_malicious": False, "adv_score": 0.0})
        assert evasion_rate(pairs, 0.871) == 0.5

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            evasion_rate([], 1.5)

    def test_score_at_threshold_is_detected(self):
        # a score at or above the threshold counts as detected
        pairs = [{"orig_verdict_malicious": True, "adv_score": score}
                 for score in (0.5, 0.25)]
        assert evasion_rate(pairs, 0.5) == 0.5


class TestScoreDropBins:
    def test_constant_pairs(self):
        pairs = [{"orig_score": 0.9, "adv_score": 0.1}] * 50
        result = score_drop_bins(pairs)
        nonzero = [b for b in result.bins if b["count"]]
        assert len(nonzero) == 1
        (b,) = nonzero
        assert b["original_score_bin"] == [0.9, 0.95]
        assert b["median_drop"] == pytest.approx(0.8)
        assert b["q25"] == b["q75"] == b["median_drop"]

    def test_identity_pairs(self, rng):
        pairs = [{"orig_score": float(s), "adv_score": float(s)}
                 for s in rng.uniform(0, 1, size=200)]
        result = score_drop_bins(pairs)
        for b in result.bins:
            if b["count"]:
                assert b["median_drop"] == 0.0
                assert b["q25"] == 0.0 and b["q75"] == 0.0

    def test_against_sort_oracle(self, rng):
        pairs = [{"orig_score": float(o), "adv_score": float(a)}
                 for o, a in zip(rng.uniform(0, 1, 1000),
                                 rng.uniform(0, 1, 1000))]
        result = score_drop_bins(pairs, bin_count=20)
        expected = [[] for _ in range(20)]
        for p in pairs:
            idx = min(int(p["orig_score"] * 20), 19)
            expected[idx].append(p["orig_score"] - p["adv_score"])
        for i, b in enumerate(result.bins):
            assert b["count"] == len(expected[i])
            if expected[i]:
                assert b["median_drop"] == oracle_quantile(expected[i], 0.5)
                assert b["q25"] == oracle_quantile(expected[i], 0.25)
                assert b["q75"] == oracle_quantile(expected[i], 0.75)
            else:
                assert b["median_drop"] is None

    def test_counts_conserved(self, rng):
        pairs = [{"orig_score": float(s), "adv_score": 0.0}
                 for s in rng.uniform(0, 1, size=333)]
        result = score_drop_bins(pairs)
        assert result.sample_count == 333
        assert sum(b["count"] for b in result.bins) == 333
        assert len(result.bins) == 20

    def test_boundary_score_one(self):
        result = score_drop_bins([{"orig_score": 1.0, "adv_score": 0.5}])
        assert result.bins[-1]["count"] == 1

    def test_conservation_enforced(self):
        with pytest.raises(ValueError):
            ScoreDropBins(bins=({"count": 1},), sample_count=2)


def engines(verdicts):
    """A ``MultiEngineReport.engines`` map from ``{engine: detected}``."""
    return {name: {"detected": hit} for name, hit in verdicts.items()}


def engine_row(orig, adv):
    return {"engine_detections_orig": engines(orig),
            "engine_detections_adv": engines(adv)}


class TestDetectionDrops:
    def test_extremes(self):
        rows = [engine_row({"av1": True, "av2": True},
                           {"av1": False, "av2": True}) for _ in range(4)]
        table = detection_drops(rows)
        by_name = {e["engine"]: e for e in table["per_engine"]}
        assert by_name["av1"]["drop"] == 1.0
        assert by_name["av2"]["drop"] == 0.0
        assert table["all_engines"]["median"] == 0.5

    def test_identical_reports(self):
        rows = [engine_row({"av1": True, "av2": False},
                           {"av1": True, "av2": False}) for _ in range(3)]
        table = detection_drops(rows)
        for e in table["per_engine"]:
            assert e["drop"] == 0.0
        assert table["all_engines"]["median"] == 0.0

    def test_three_engine_hand_fixture(self):
        # Pair 1: 3/3 -> 1/3 detected.  Pair 2: 2/3 -> 2/3.
        table = detection_drops([
            engine_row({"a": True, "b": True, "c": True},
                       {"a": True, "b": False, "c": False}),
            engine_row({"a": True, "b": True, "c": False},
                       {"a": False, "b": True, "c": True})])
        by_name = {e["engine"]: e for e in table["per_engine"]}
        assert by_name["a"] == {"engine": "a", "pairs": 2, "orig_rate": 1.0,
                                "adv_rate": 0.5, "drop": 0.5}
        assert by_name["b"]["drop"] == 0.5
        # Engine c: detected for o1 only, then for a2 only -> rates cancel.
        assert by_name["c"] == {"engine": "c", "pairs": 2, "orig_rate": 0.5,
                                "adv_rate": 0.5, "drop": 0.0}
        # Aggregate per-pair drops: (1 - 1/3) and (2/3 - 2/3).
        drops = sorted([1 - 1 / 3, 0.0])
        assert table["all_engines"]["median"] == oracle_quantile(drops, 0.5)


class TestSizeRatio:
    def test_matches_recount(self, rng):
        rows = []
        for i in range(300):
            gen = f"g{int(rng.integers(0, 4))}"
            orig = int(rng.integers(1_000, 100_000))
            rows.append({"generator": gen, "orig_size": orig,
                         "modified_size": int(orig * rng.uniform(0.8, 4.0))})
        stats = size_ratio_stats(rows)
        by_gen = {}
        for row in rows:
            by_gen.setdefault(row["generator"], []).append(
                row["modified_size"] / row["orig_size"])
        assert [s["generator"] for s in stats] == sorted(by_gen)
        for s in stats:
            vals = by_gen[s["generator"]]
            assert s["count"] == len(vals)
            assert s["mean"] == pytest.approx(sum(vals) / len(vals), rel=1e-12)
            assert s["median"] == oracle_quantile(vals, 0.5)
            assert s["q25"] == oracle_quantile(vals, 0.25)
            assert s["q75"] == oracle_quantile(vals, 0.75)

    def test_rates_in_range(self, rng):
        pairs = [{"orig_verdict_malicious": bool(rng.integers(0, 2)),
                  "adv_score": float(rng.uniform(0, 1))} for _ in range(100)]
        assert 0.0 <= evasion_rate(pairs, 0.5) <= 1.0


class TestCsvWriters:
    def test_score_drop_csv(self, tmp_path):
        result = score_drop_bins([{"orig_score": 0.9, "adv_score": 0.1}] * 3)
        path = tmp_path / "drops.csv"
        write_score_drop_csv(result, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin_lo", "bin_hi", "count", "median_drop",
                           "q25", "q75"]
        assert len(rows) == 21
        filled = [r for r in rows[1:] if r[2] != "0"]
        assert len(filled) == 1
        assert filled[0][3] == f"{0.9 - 0.1:.6f}"
        empty = [r for r in rows[1:] if r[2] == "0"]
        assert all(r[3] == "" for r in empty)

    def test_engine_and_aggregate_csv(self, tmp_path):
        table = detection_drops([engine_row({"a": True, "b": False},
                                            {"a": False, "b": False})])
        write_engine_drop_csv(table, tmp_path / "engines.csv")
        with open(tmp_path / "engines.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["engine", "pairs", "orig_rate", "adv_rate", "drop"]
        assert rows[1] == ["a", "1", "1.000000", "0.000000", "1.000000"]
        assert table["all_engines"] == {"count": 1, "median": 0.5,
                                        "q25": 0.5, "q75": 0.5}

    def test_size_ratio_csv(self, tmp_path):
        stats = size_ratio_stats([
            {"generator": "g", "orig_size": 100, "modified_size": 150}])
        write_size_ratio_csv(stats, tmp_path / "ratio.csv")
        with open(tmp_path / "ratio.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[1] == ["g", "1", "1.500000", "1.500000", "1.500000",
                           "1.500000"]
