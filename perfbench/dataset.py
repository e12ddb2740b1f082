"""``dataset``: the post-mutation session, end to end through ``forge``.

One session runs, in order: ``harness run`` once per stand-in generator,
``score`` against a loopback HTTP classifier, ``verdicts`` against an
in-process instant service from a pre-loaded quota state, ``select`` and
``stats``.  It is writes and orchestration beside ``campaign``'s
in-memory reads, and it holds the two costs of persisting quota state on
every transition and of noticing finished chunks only on the harness's
``stale_window / 10`` tick.
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import verdict_service
import worker
from common import Outcome, read_jsonl, write_json, write_jsonl

NAME = "dataset"
# JSON state files, hashing and orchestration: a mixed kernel
PROBE = "mixed"

HERE = Path(__file__).resolve().parent
SOURCES = 24
GENERATORS = ("padder", "stamper")
CHUNKS = 4
MAX_PARALLEL = 2
# a worker runs for tens of milliseconds; the window is far above that
STALE_WINDOW = 2.0
PRELOADED = 200
DAILY_LIMIT = 8
PAD_BYTES = 16384


def _surrogate_scores(sources: list, outputs: list, seed: int) -> dict:
    """sha256 -> score of a small local GBDT, for the stand-in classifier."""
    from advforge import features, gbdt, mutator

    pool = mutator.ContentPool.fallback()
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for data in sources:
        rows += [features.extract(data),
                 features.extract(data + pool.sample(rng, PAD_BYTES))]
        labels += [1, 0]
    hp = gbdt.Hyperparams(learning_rate=0.1, num_leaves=4, min_data_in_leaf=3,
                          max_rounds=30, early_stop_rounds=0)
    model = gbdt.train(np.asarray(rows, dtype=np.float32), np.asarray(labels),
                       hp, rng_seed=seed)
    blobs = sources + outputs
    probs = model.predict_proba(np.asarray([features.extract(b) for b in blobs],
                                           dtype=np.float32))
    return {hashlib.sha256(b).hexdigest(): float(p)
            for b, p in zip(blobs, probs)}


def _start_classifier(table_path: Path) -> tuple:
    proc = subprocess.Popen([sys.executable, str(HERE / "classifier.py"),
                             str(table_path)], stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    proc.stdout.close()
    if not line.strip():
        proc.wait()
        raise RuntimeError("stand-in classifier did not start")
    return proc, int(line)


def setup(work: Path, seed: int) -> dict:
    from advforge import pe, scoring, synth

    paths = synth.write_corpus(work / "corpus", SOURCES, seed=seed)
    sources = [p.read_bytes() for p in paths]
    valid = sum(pe.validate(d).is_valid_pe for d in sources)
    expected = {g: {hashlib.sha256(worker.transform(g, d)).hexdigest()
                    for d in sources} for g in GENERATORS}
    outputs = [worker.transform(g, d) for g in GENERATORS for d in sources]
    table = _surrogate_scores(sources, outputs, seed)
    table_path = write_json(work / "scores_table.json", table)

    sizes = {}
    rows = []
    for i, data in enumerate(sources):
        sha = hashlib.sha256(data).hexdigest()
        sizes[sha] = len(data)
        rows.append({"sha256": sha, "label_scheme": "family",
                     "label_value": f"family{i % 5}",
                     "ember_score": table[sha]})
    sources_path = write_jsonl(work / "sources.jsonl", rows)

    now = time.time()
    state = scoring.QuotaState.new(DAILY_LIMIT, now=now)
    for i in range(PRELOADED):
        sha = hashlib.sha256(f"preloaded-{seed}-{i}".encode()).hexdigest()
        state.completed[sha] = verdict_service.report_for(sha, now)
    quota_seed = work / "quota_seed.json"
    state.save(quota_seed)

    harness_cfg = {}
    for g in GENERATORS:
        command = " ".join(shlex.quote(a) for a in (
            sys.executable, str(HERE / "worker.py"), g))
        harness_cfg[g] = write_json(work / f"harness_{g}.json", {
            "rng_seed": seed,
            "harness": {"worker_command":
                        command + " {input_dir} {output_dir} {log_file}",
                        "chunk_count": CHUNKS, "stale_window": STALE_WINDOW,
                        "max_restarts": 1, "max_parallel": MAX_PARALLEL}})

    proc, port = _start_classifier(table_path)
    http_cfg = write_json(work / "http.json", {
        "rng_seed": seed,
        "scorer": {"kind": "http", "endpoint": f"http://127.0.0.1:{port}/",
                   "timeout_ms": 10_000}})
    return {"corpus": work / "corpus", "valid": valid, "expected": expected,
            "table": table, "sizes": sizes, "sources": sources_path,
            "source_count": len(sources), "quota_seed": quota_seed,
            "harness_cfg": harness_cfg, "http_cfg": http_cfg,
            "server": proc}


def teardown(ctx: dict) -> None:
    proc = ctx["server"]
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def unit(ctx: dict, index: int, out: Path, forge) -> None:
    """One session; return codes and service counts go to ``session.json``."""
    from advforge import scoring

    out.mkdir(parents=True)
    codes = {}
    cand_dir = out / "candidates"
    cand_dir.mkdir()
    for g in GENERATORS:
        harness_out = out / f"harness_{g}"
        codes[f"harness_{g}"], _ = forge([
            "--config", ctx["harness_cfg"][g], "harness", "run",
            "--input", ctx["corpus"], "--out", harness_out])
        merged = harness_out / "merged"
        provenance = json.loads((merged / "provenance.json").read_text())
        for name in provenance:
            os.link(merged / name, cand_dir / f"{g}__{name}")

    codes["score"], _ = forge(["--config", ctx["http_cfg"], "score",
                               "--in", cand_dir, "--out", out / "scores"])

    state_path = out / "quota.json"
    shutil.copyfile(ctx["quota_seed"], state_path)
    verdict_cfg = write_json(out / "verdicts.json", {"quota": {
        "daily_limit": DAILY_LIMIT, "state_path": str(state_path),
        "service": "verdict_service:make_service"}})
    codes["verdicts"], verdicts_text = forge(["--config", verdict_cfg,
                                              "verdicts", "--in", cand_dir])
    services = verdict_service.created[:]
    verdict_service.created.clear()

    scores = json.loads((out / "scores" / "scores.json").read_text())
    rows = []
    for path in sorted(cand_dir.iterdir()):
        g, _, name = path.name.partition("__")
        sha_adv = hashlib.sha256(path.read_bytes()).hexdigest()
        sha_orig = Path(name).stem
        rows.append({"generator": g, "ember_score": scores[sha_adv]["score"],
                     "orig_size": ctx["sizes"][sha_orig],
                     "modified_size": path.stat().st_size, "path": str(path),
                     "sha256_adv": sha_adv, "sha256_orig": sha_orig})
    write_jsonl(out / "candidates.jsonl", rows)
    codes["select"], select_text = forge([
        "select", "--sources", ctx["sources"],
        "--candidates", out / "candidates.jsonl", "--out", out / "dataset"])

    pairs = [{"orig_score": r["ember_score_orig"],
              "adv_score": r["ember_score_adv"],
              "orig_verdict_malicious":
                  r["ember_score_orig"] >= scoring.DEFAULT_SCORE_THRESHOLD,
              "generator": r["generator"], "orig_size": r["orig_size"],
              "modified_size": r["adv_size"]}
             for r in read_jsonl(out / "dataset" / "metadata.jsonl")]
    write_jsonl(out / "pairs.jsonl", pairs)
    codes["stats"], _ = forge(["stats", "--pairs", out / "pairs.jsonl",
                               "--out", out / "stats"])
    write_json(out / "session.json", {
        "codes": codes,
        "verdicts": json.loads(verdicts_text) if verdicts_text else None,
        "select": json.loads(select_text) if select_text else None,
        "service": [{"lookups": s.lookups, "submits": s.submits,
                     "polls": s.polls} for s in services]})


def warm_up(ctx: dict, out: Path, forge) -> None:
    unit(ctx, -1, out, forge)


def _reap_lags(harness_out: Path) -> list:
    """Seconds from each chunk's last worker log line to its ``done``."""
    summary = json.loads((harness_out / "summary.json").read_text())
    done = {e["chunk_id"]: e["ts"] for e in summary["events"]
            if e["event"] == "done"}
    chunks = harness_out / "work" / "chunks"
    return [ts - float((chunks / f"chunk_{chunk_id:04d}" / "log.txt")
                       .read_text().split()[-1])
            for chunk_id, ts in done.items()]


def check(ctx: dict, outs: list) -> Outcome:
    """Chunks all done; merged count = valid inputs x generators; scores
    match the classifier's table; quota within its limit and accounted;
    every source lands in exactly one bucket; dataset files validate and
    hash to their names."""
    from advforge import pe

    outcome = Outcome()
    facts = {"reap_lags": [], "restarts": 0, "discarded": 0, "lookups": 0,
             "submits": 0, "polls": 0, "quota_used": 0, "sessions": 0,
             "chunks": 0}
    for out in outs:
        where = out.name
        session = json.loads((out / "session.json").read_text())
        outcome.expect(all(c == 0 for c in session["codes"].values()),
                       f"{where}: forge exit codes {session['codes']}")
        facts["sessions"] += 1

        merged_total = 0
        for g in GENERATORS:
            harness_out = out / f"harness_{g}"
            summary = json.loads((harness_out / "summary.json").read_text())
            states = list(summary["chunk_states"].values())
            discarded = states.count("discarded")
            outcome.attempted += len(states)
            facts["chunks"] += len(states)
            outcome.failed += discarded
            facts["discarded"] += discarded
            facts["restarts"] += sum(summary["restarts"].values())
            outcome.expect(states and all(s == "done" for s in states),
                           f"{where}/{g}: chunk states {states}")
            facts["reap_lags"] += _reap_lags(harness_out)
            merged = harness_out / "merged"
            names = [p.name for p in merged.iterdir()
                     if p.name != "provenance.json"]
            merged_total += len(names)
            digests = {hashlib.sha256((merged / n).read_bytes()).hexdigest()
                       for n in names}
            outcome.expect(digests == ctx["expected"][g],
                           f"{where}/{g}: merged outputs differ from the "
                           f"generator's")
        outcome.expect(merged_total == ctx["valid"] * len(GENERATORS),
                       f"{where}: merged {merged_total} files, want "
                       f"{ctx['valid']} x {len(GENERATORS)}")

        candidates = read_jsonl(out / "candidates.jsonl")
        scores = json.loads((out / "scores" / "scores.json").read_text())
        scored = len(list((out / "candidates").iterdir()))
        outcome.attempted += scored
        outcome.failed += scored - len(scores)
        outcome.expect(all(scores[c["sha256_adv"]]["score"]
                           == ctx["table"][c["sha256_adv"]]
                           for c in candidates if c["sha256_adv"] in scores)
                       and len(scores) == scored,
                       f"{where}: scores disagree with the classifier")

        verdicts = session["verdicts"] or {}
        service = session["service"]
        polls = sum(s["polls"] for s in service)
        used = verdicts.get("used_today", -1)
        outcome.expect(0 <= used <= DAILY_LIMIT,
                       f"{where}: used_today {used} > limit {DAILY_LIMIT}")
        outcome.expect(verdicts.get("completed") == PRELOADED + polls
                       and verdicts.get("pending") == 0,
                       f"{where}: completed {verdicts.get('completed')} != "
                       f"{PRELOADED} pre-loaded + {polls} polled")
        for key in ("lookups", "submits", "polls"):
            facts[key] += sum(s[key] for s in service)
        facts["quota_used"] += max(used, 0)

        select = session["select"] or {}
        metadata = read_jsonl(out / "dataset" / "metadata.jsonl")
        landed = [r["sha256_orig"] for r in metadata]
        failed = select.get("failed_count", ctx["source_count"])
        outcome.attempted += ctx["source_count"]
        outcome.failed += failed
        outcome.expect(len(landed) == len(set(landed))
                       and len(landed) + failed == ctx["source_count"],
                       f"{where}: {len(landed)} in metadata + {failed} failed "
                       f"!= {ctx['source_count']} sources")
        files = list((out / "dataset" / "files").iterdir())
        outcome.expect(len(files) == len(metadata),
                       f"{where}: {len(files)} dataset files for "
                       f"{len(metadata)} metadata rows")
        for path in files:
            data = path.read_bytes()
            outcome.expect(pe.validate(data).is_valid_pe
                           and hashlib.sha256(data).hexdigest() == path.name,
                           f"{where}: dataset file {path.name} is corrupt")
        stats = json.loads((out / "stats" / "stats.json").read_text())
        outcome.expect(stats["pairs"] == len(metadata),
                       f"{where}: stats saw {stats['pairs']} of "
                       f"{len(metadata)} pairs")
        outcome.work += stats["pairs"]
    outcome.facts = facts
    return outcome
