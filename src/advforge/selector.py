"""Final-sample selection: per-source best candidate, degenerate rejection,
and dataset assembly with metadata.

The picking routine runs two passes over a source sample's candidates with a
single running minimum: pass one only accepts candidates whose size growth
stays within the ratio bound, pass two relaxes that bound, and both passes
skip anything above the absolute size cap.  The scan stops after pass one
when the running best already sits below the score threshold.  Evaluation
order is fixed to ascending generator name so equal scores resolve
reproducibly.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from . import pe
from .records import Record, write_jsonl
from .scoring import DEFAULT_SCORE_THRESHOLD

LABEL_SCHEMES = ("family", "type")


@dataclass(frozen=True)
class SelectionConstants(Record):
    size_ratio_threshold: float = 1.5
    maximum_size: int = 25_000_000


@dataclass(frozen=True)
class CandidateRecord(Record):
    """One generator output for one source sample."""

    generator: str
    ember_score: float
    orig_size: int
    modified_size: int
    path: str = ""
    sha256_adv: str = ""
    sha256_orig: str = ""
    ember2024_score: float | None = None
    engine_detections: dict | None = None

    def __post_init__(self) -> None:
        if not self.generator:
            raise ValueError("generator name must be non-empty")
        if not 0.0 <= self.ember_score <= 1.0:
            raise ValueError("ember_score must lie in [0, 1]")
        if self.orig_size < 1 or self.modified_size < 1:
            raise ValueError("sizes must be at least 1 byte")


@dataclass(frozen=True)
class SourceSample(Record):
    """Input-side metadata for one source binary."""

    sha256: str
    label_scheme: str
    label_value: str
    ember_score: float | None = None
    ember2024_score: float | None = None
    engine_detections: dict | None = None

    def __post_init__(self) -> None:
        if self.label_scheme not in LABEL_SCHEMES:
            raise ValueError(f"unknown label scheme: {self.label_scheme!r}")
        if not self.sha256:
            raise ValueError("source sha256 must be non-empty")


@dataclass(frozen=True)
class FinalRecord(Record):
    """Metadata emitted for each sample copied into the final dataset."""

    sha256_orig: str
    sha256_adv: str
    label: dict
    generator: str
    ember_score_orig: float | None
    ember_score_adv: float
    orig_size: int
    adv_size: int
    ember2024_score_orig: float | None = None
    ember2024_score_adv: float | None = None
    engine_detections_orig: dict | None = None
    engine_detections_adv: dict | None = None


def _check_single_source(candidates) -> None:
    origs = {c.sha256_orig for c in candidates if c.sha256_orig}
    if len(origs) > 1:
        raise ValueError("candidates span multiple source samples")


def _select_index(records, threshold: float,
                  constants: SelectionConstants) -> int:
    """Two-pass scan with one running minimum; returns winning index or -1."""
    best_score = math.inf
    best_idx = -1
    for ignore_size in (False, True):
        for i, rec in enumerate(records):
            if rec.modified_size > constants.maximum_size:
                continue
            ratio = rec.modified_size / rec.orig_size
            if rec.ember_score < best_score:
                if ignore_size or ratio <= constants.size_ratio_threshold:
                    best_score = rec.ember_score
                    best_idx = i
        if best_idx >= 0 and best_score < threshold:
            break
    return best_idx


def pick_best_record(candidates, threshold: float = DEFAULT_SCORE_THRESHOLD,
                     constants: SelectionConstants = SelectionConstants()):
    """Return the winning CandidateRecord for one source, or None."""
    _check_single_source(candidates)
    ordered = sorted(candidates, key=lambda r: r.generator)
    idx = _select_index(ordered, threshold, constants)
    return None if idx < 0 else ordered[idx]


def reject_degenerate(records):
    """Filter generator pathologies; returns (kept, rejection log).

    A record is dropped when its output hash equals its input hash, or when
    the same generator produced that exact output for two or more distinct
    inputs (in which case every involved record goes).
    """
    for rec in records:
        if not rec.sha256_adv or not rec.sha256_orig:
            raise ValueError("degenerate filtering requires both hashes")
    rejected: set[int] = set()
    log: list[dict] = []
    for i, rec in enumerate(records):
        if rec.sha256_adv == rec.sha256_orig:
            rejected.add(i)
            log.append({
                "generator": rec.generator,
                "reason": "unmodified",
                "sha256_adv": rec.sha256_adv,
                "sha256_origs": [rec.sha256_orig],
            })
    groups: dict = defaultdict(list)
    for i, rec in enumerate(records):
        groups[(rec.generator, rec.sha256_adv)].append(i)
    for (generator, adv), idxs in groups.items():
        origs = sorted({records[i].sha256_orig for i in idxs})
        if len(origs) >= 2:
            rejected.update(idxs)
            log.append({
                "generator": generator,
                "reason": "collapse",
                "sha256_adv": adv,
                "sha256_origs": origs,
            })
    kept = [rec for i, rec in enumerate(records) if i not in rejected]
    return kept, log


def _screen_candidate(rec: CandidateRecord):
    """Validate the candidate's file on disk; returns None when it is usable."""
    try:
        data = Path(rec.path).read_bytes()
    except OSError as exc:
        return {"generator": rec.generator, "reason": "io-error",
                "sha256_adv": rec.sha256_adv, "detail": str(exc)}
    report = pe.validate(data)
    if not report.is_valid_pe:
        return {"generator": rec.generator, "reason": "invalid-pe",
                "sha256_adv": rec.sha256_adv,
                "detail": ",".join(report.reasons)}
    return None


def assemble_dataset(sources, candidates, out_dir,
                     threshold: float = DEFAULT_SCORE_THRESHOLD,
                     constants: SelectionConstants = SelectionConstants()) -> dict:
    """Copy each source's winning candidate and emit metadata plus a summary.

    Candidates are screened (readable, structurally valid PE) and run
    through the degenerate filter before picking.  Sources whose candidate
    pool empties out, or whose winner cannot be copied, count as failures;
    every source lands in exactly one of the two buckets.
    """
    out = Path(out_dir)
    files_dir = out / "files"
    files_dir.mkdir(parents=True, exist_ok=True)

    shas = [s.sha256 for s in sources]
    if len(shas) != len(set(shas)):
        raise ValueError("duplicate source sha256 in input")

    screen_log = []
    usable = []
    for rec in candidates:
        problem = _screen_candidate(rec)
        if problem is None:
            usable.append(rec)
        else:
            screen_log.append(problem)
    kept, degenerate_log = reject_degenerate(usable)

    by_source = defaultdict(list)
    for rec in kept:
        by_source[rec.sha256_orig].append(rec)

    winners = []
    failures = []
    for source in sorted(sources, key=lambda s: s.sha256):
        pool = by_source.get(source.sha256, [])
        rec = pick_best_record(pool, threshold, constants) if pool else None
        if rec is None:
            failures.append({"sha256_orig": source.sha256,
                             "reason": "no-eligible-candidate"})
        else:
            winners.append((source, rec))

    records = []
    for source, rec in winners:
        try:
            data = Path(rec.path).read_bytes()
            (files_dir / rec.sha256_adv).write_bytes(data)
        except OSError as exc:
            failures.append({"sha256_orig": source.sha256,
                             "reason": "io-error", "detail": str(exc)})
            continue
        records.append(FinalRecord(
            sha256_orig=source.sha256,
            sha256_adv=rec.sha256_adv,
            label={"scheme": source.label_scheme, "value": source.label_value},
            generator=rec.generator,
            ember_score_orig=source.ember_score,
            ember_score_adv=rec.ember_score,
            orig_size=rec.orig_size,
            adv_size=rec.modified_size,
            ember2024_score_orig=source.ember2024_score,
            ember2024_score_adv=rec.ember2024_score,
            engine_detections_orig=source.engine_detections,
            engine_detections_adv=rec.engine_detections,
        ))

    write_jsonl(out / "metadata.jsonl", [r.to_dict() for r in records])
    write_jsonl(out / "rejections.jsonl", screen_log + degenerate_log)

    counts = defaultdict(int)
    for record in records:
        counts[record.generator] += 1
    total = len(records)
    per_generator = [
        {"name": name, "count": counts[name],
         "share": 100.0 * counts[name] / total}
        for name in sorted(counts)
    ]
    summary = {
        "per_generator": per_generator,
        "evasive_count": sum(
            1 for r in records if r.ember_score_adv < threshold),
        "failed_count": len(failures),
        "pathological_count": len(degenerate_log),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=1))
    return summary
