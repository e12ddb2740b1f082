"""Dataset statistics: evasion rates, score-drop distributions, detection
drops across engines, transferability between classifiers, and size-ratio
tables, all emitted as plain CSV for plotting elsewhere.

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

from .records import write_csv
from .scoring import score as score_file

SCORE_DROP_BINS = 20


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


def evasion_rate(pairs, threshold: float) -> float:
    """Fraction of originally-malicious samples whose adversarial score
    falls below the threshold; 0 when no sample was originally malicious."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    malicious = [p for p in pairs if p["orig_verdict_malicious"]]
    if not malicious:
        return 0.0
    evading = sum(1 for p in malicious if p["adv_score"] < threshold)
    return evading / len(malicious)


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
        orig = pair["orig_score"]
        adv = pair["adv_score"]
        if not (0.0 <= orig <= 1.0 and 0.0 <= adv <= 1.0):
            raise ValueError("scores must lie in [0, 1]")
        idx = min(int(orig * bin_count), bin_count - 1)
        drops_by_bin[idx].append(orig - adv)
        n += 1
    bins = []
    for i in range(bin_count):
        drops = sorted(drops_by_bin.get(i, ()))
        entry = {
            "original_score_bin": [i / bin_count, (i + 1) / bin_count],
            "count": len(drops),
            "median_drop": _quantile(drops, 0.5) if drops else None,
            "q25": _quantile(drops, 0.25) if drops else None,
            "q75": _quantile(drops, 0.75) if drops else None,
        }
        bins.append(entry)
    return ScoreDropBins(bins=tuple(bins), sample_count=n)


def _engine_rates(report) -> dict:
    return {name: bool(entry.get("detected"))
            for name, entry in report.engines.items()}


def _detected_fraction(report) -> float:
    if not report.engines:
        return 0.0
    hits = sum(1 for v in report.engines.values() if v.get("detected"))
    return hits / len(report.engines)


def _top_group_fraction(report, top_group) -> float:
    if not top_group:
        return 0.0
    hits = sum(1 for name in top_group
               if report.engines.get(name, {}).get("detected"))
    return hits / len(top_group)


def _distribution(values) -> dict:
    if not values:
        return {"count": 0, "median": None, "q25": None, "q75": None}
    ordered = sorted(values)
    return {
        "count": len(ordered),
        "median": _quantile(ordered, 0.5),
        "q25": _quantile(ordered, 0.25),
        "q75": _quantile(ordered, 0.75),
    }


def detection_drops(orig_reports, adv_reports, pairs, top_group=()) -> dict:
    """Detection-rate deltas between paired original/adversarial reports.

    pairs is a list of (sha256_orig, sha256_adv).  A pair missing either
    report is logged under "unpaired" and skipped.  Per-engine rates count
    only pairs where both reports carry the engine.
    """
    orig_by_sha = {r.sha256: r for r in orig_reports}
    adv_by_sha = {r.sha256: r for r in adv_reports}
    unpaired = []
    matched = []
    for orig_sha, adv_sha in pairs:
        orig = orig_by_sha.get(orig_sha)
        adv = adv_by_sha.get(adv_sha)
        if orig is None or adv is None:
            unpaired.append({
                "sha256_orig": orig_sha,
                "sha256_adv": adv_sha,
                "missing": "orig" if orig is None else "adv",
            })
            continue
        matched.append((orig, adv))

    engine_hits = defaultdict(lambda: [0, 0, 0])  # pairs, orig hits, adv hits
    for orig, adv in matched:
        orates = _engine_rates(orig)
        arates = _engine_rates(adv)
        for name in orates.keys() & arates.keys():
            slot = engine_hits[name]
            slot[0] += 1
            slot[1] += int(orates[name])
            slot[2] += int(arates[name])
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

    all_drops = [_detected_fraction(o) - _detected_fraction(a)
                 for o, a in matched]
    top_drops = [_top_group_fraction(o, top_group)
                 - _top_group_fraction(a, top_group)
                 for o, a in matched] if top_group else []
    return {
        "per_engine": per_engine,
        "all_engines": _distribution(all_drops),
        "top_group": _distribution(top_drops),
        "unpaired": unpaired,
    }


def measure_transferability(scorer_a, scorer_b, files, thresholds) -> float:
    """Among files evading scorer_a, the fraction that also evade scorer_b."""
    threshold_a, threshold_b = thresholds
    evading_a = []
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        if score_file(scorer_a, data) < threshold_a:
            evading_a.append(data)
    if not evading_a:
        return 0.0
    both = sum(1 for data in evading_a
               if score_file(scorer_b, data) < threshold_b)
    return both / len(evading_a)


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
            "q25": _quantile(values, 0.25),
            "median": _quantile(values, 0.5),
            "q75": _quantile(values, 0.75),
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


def write_aggregate_drop_csv(table: dict, path) -> None:
    rows = []
    for name in ("all_engines", "top_group"):
        dist = table[name]
        rows.append((name, dist["count"], dist["median"], dist["q25"],
                     dist["q75"]))
    write_csv(path, ["group", "count", "median", "q25", "q75"], rows)


def write_size_ratio_csv(stats: list, path) -> None:
    write_csv(path,
              ["generator", "count", "mean", "q25", "median", "q75"],
              [(s["generator"], s["count"], s["mean"], s["q25"], s["median"],
                s["q75"]) for s in stats])
