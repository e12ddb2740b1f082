"""Dataset statistics: evasion rates, score-drop distributions, detection
drops across engines and size-ratio tables, all emitted as plain CSV for
plotting elsewhere.

Quantiles use linear interpolation between closest ranks: for n sorted
values and quantile q, pos = (n-1)*q, and the result is
values[floor(pos)] + (values[floor(pos)+1] - values[floor(pos)]) * frac(pos).
Score bins over [0, 1] are half-open [i/k, (i+1)/k) with the final bin
closed at 1.0.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .records import engine_verdicts, write_csv

SCORE_DROP_BINS = 20
ENGINE_COLUMNS = ("engine_detections_orig", "engine_detections_adv")


def _quantile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks; input must be sorted."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("quantile of empty data")
    if n == 1:
        return float(sorted_values[0])
    pos = (n - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    t = pos - lo
    a = float(sorted_values[lo])
    b = float(sorted_values[hi])
    return a + (b - a) * t


def _quartiles(sorted_values) -> dict:
    """``median``, ``q25`` and ``q75`` of sorted values; None when empty."""
    return {name: _quantile(sorted_values, q) if sorted_values else None
            for name, q in (("median", 0.5), ("q25", 0.25), ("q75", 0.75))}


def _score(value) -> float:
    """``value``; ValueError unless it is a number in [0, 1]."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0.0 <= value <= 1.0):
        raise ValueError(f"score {value!r} must be a number in [0, 1]")
    return value


def evasion_rate(pairs, threshold: float) -> float:
    """Fraction of originally-malicious rows whose ``adv_score`` falls
    below the threshold, 0 when there are none; ValueError unless every
    row's verdict is a bool and its ``adv_score`` a number in [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    malicious = evading = 0
    for p in pairs:
        verdict, adv = p["orig_verdict_malicious"], _score(p["adv_score"])
        if not isinstance(verdict, bool):
            raise ValueError("orig_verdict_malicious must be true or false")
        malicious += verdict
        evading += verdict and adv < threshold
    return evading / malicious if malicious else 0.0


@dataclass(frozen=True)
class ScoreDropBins:
    bins: tuple
    sample_count: int

    def __post_init__(self) -> None:
        total = sum(b["count"] for b in self.bins)
        if total != self.sample_count:
            raise ValueError("bin counts do not conserve the sample count")


def score_drop_bins(pairs, bin_count: int = SCORE_DROP_BINS) -> ScoreDropBins:
    """Bin score drops (orig - adv) by original score; median and IQR per bin."""
    if bin_count < 1:
        raise ValueError("bin_count must be positive")
    drops_by_bin = defaultdict(list)
    n = 0
    for pair in pairs:
        orig, adv = _score(pair["orig_score"]), _score(pair["adv_score"])
        idx = min(int(orig * bin_count), bin_count - 1)
        drops_by_bin[idx].append(orig - adv)
        n += 1
    bins = []
    for i in range(bin_count):
        drops = sorted(drops_by_bin.get(i, ()))
        quartiles = _quartiles(drops)
        bins.append({
            "original_score_bin": [i / bin_count, (i + 1) / bin_count],
            "count": len(drops),
            "median_drop": quartiles["median"],
            "q25": quartiles["q25"],
            "q75": quartiles["q75"],
        })
    return ScoreDropBins(bins=tuple(bins), sample_count=n)


def detection_drops(rows) -> dict:
    """Detection-rate deltas between each row's original and adversarial
    engine maps.

    Each row carries both ``ENGINE_COLUMNS``, maps of ``{engine:
    {"detected": bool, ...}}``.  Per-engine rates count only rows where
    both maps carry the engine; ``all_engines`` is the distribution of the
    per-row drop in the fraction of engines that detect.
    """
    engine_hits = defaultdict(lambda: [0, 0, 0])  # pairs, orig hits, adv hits
    all_drops = []
    for row in rows:
        orig, adv = (engine_verdicts(row[column], column)
                     for column in ENGINE_COLUMNS)
        for name in orig.keys() & adv.keys():
            slot = engine_hits[name]
            slot[0] += 1
            slot[1] += orig[name]
            slot[2] += adv[name]
        all_drops.append(sum(orig.values()) / max(len(orig), 1)
                         - sum(adv.values()) / max(len(adv), 1))
    per_engine = []
    for name in sorted(engine_hits):
        count, ohits, ahits = engine_hits[name]
        orate = ohits / count
        arate = ahits / count
        per_engine.append({
            "engine": name,
            "pairs": count,
            "orig_rate": orate,
            "adv_rate": arate,
            "drop": orate - arate,
        })
    return {"per_engine": per_engine,
            "all_engines": {"count": len(all_drops),
                            **_quartiles(sorted(all_drops))}}


def size_ratio_stats(rows) -> list:
    """Per-generator distribution of modified_size/orig_size.

    rows: iterable of mappings with generator, orig_size, modified_size.
    """
    ratios = defaultdict(list)
    for row in rows:
        if row["orig_size"] < 1:
            raise ValueError("orig_size must be at least 1")
        ratios[row["generator"]].append(row["modified_size"] / row["orig_size"])
    out = []
    for name in sorted(ratios):
        values = sorted(ratios[name])
        out.append({
            "generator": name,
            "count": len(values),
            "mean": float(np.mean(values)),
            **_quartiles(values),
        })
    return out


def write_score_drop_csv(bins: ScoreDropBins, path) -> None:
    write_csv(path,
              ["bin_lo", "bin_hi", "count", "median_drop", "q25", "q75"],
              [(b["original_score_bin"][0], b["original_score_bin"][1],
                b["count"], b["median_drop"], b["q25"], b["q75"])
               for b in bins.bins])


def write_engine_drop_csv(table: dict, path) -> None:
    write_csv(path,
              ["engine", "pairs", "orig_rate", "adv_rate", "drop"],
              [(e["engine"], e["pairs"], e["orig_rate"], e["adv_rate"],
                e["drop"]) for e in table["per_engine"]])


def write_size_ratio_csv(stats: list, path) -> None:
    write_csv(path,
              ["generator", "count", "mean", "q25", "median", "q75"],
              [(s["generator"], s["count"], s["mean"], s["q25"], s["median"],
                s["q75"]) for s in stats])
