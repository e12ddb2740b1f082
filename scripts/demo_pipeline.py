"""End-to-end walkthrough of the evasion and poisoning pipeline.

One ``forge`` session on synthetic data, run in this process through
``advforge.cli.dispatch``: validate, train, score, mutate, select, stats
and poison run, each into its own directory with its run manifest.
Python builds only what comes from outside ``forge``: the labelled
samples, the generator records (``sources``, ``candidates`` and
``pairs``) and the 8-dim poisoning data.

    python3 scripts/demo_pipeline.py work/demo --count 24
"""

import argparse
import hashlib
import json
import statistics
import time
from pathlib import Path

import numpy as np

from advforge.cli import dispatch
from advforge.mutator import ContentPool
from advforge.records import read_jsonl, write_jsonl
from advforge.synth import write_corpus

SURROGATE_HP = {"learning_rate": 0.2, "num_leaves": 8, "max_depth": 4,
                "min_data_in_leaf": 3, "max_rounds": 30,
                "early_stop_rounds": 0}
POISON_HP = {"learning_rate": 0.3, "num_leaves": 6, "min_data_in_leaf": 10,
             "max_rounds": 12, "early_stop_rounds": 0}
PAD_BYTES = 16384


def write_samples(work: Path, count: int, seed: int) -> None:
    """A synthetic corpus, the malicious class, and the same files padded
    with clean content, a benign class that overlay appends can reach."""
    pool, rng = ContentPool.fallback(), np.random.default_rng(seed)
    (work / "benign").mkdir(parents=True, exist_ok=True)
    for path in write_corpus(work / "corpus", count, seed=seed):
        (work / "benign" / path.name).write_bytes(
            path.read_bytes() + pool.sample(rng, PAD_BYTES))


def write_poison_data(path: Path, rng, dim: int = 8) -> None:
    """Benign and malicious blobs whose tails overlap in one region.

    The adversarial cluster sits in that contested region. Malicious
    mass dominates it, so the clean model detects the cluster, and
    label flips concentrated there can genuinely move the boundary.
    """
    def group(n, x0, x1, spread):
        pts = rng.normal(0.0, spread, size=(n, dim)).astype(np.float32)
        pts[:, 0] += x0
        pts[:, 1] += x1
        return pts

    def side():
        x = np.vstack([group(380, 0.0, 0.0, 0.5), group(20, 2.5, 0.0, 0.25),
                       group(330, 2.5, 2.5, 0.5), group(70, 2.5, 0.0, 0.25)])
        return x, np.repeat([0, 1], 400)

    (train_x, train_y), (test_x, test_y) = side(), side()
    adv = group(400, 2.5, 0.0, 0.25)
    np.savez(path, train_x=train_x, train_y=train_y, test_x=test_x,
             test_y=test_y, adv_pool=adv[:200], adv_test=adv[200:])


def write_generator_records(work: Path) -> None:
    """``sources``, ``candidates`` and ``pairs`` rows for the one generator
    here, the hill climber, from the ``score`` and ``mutate`` outputs."""
    scores = json.loads((work / "scores" / "scores.json").read_text())
    rows = {"sources": [], "candidates": [], "pairs": []}
    for i, row in enumerate(read_jsonl(work / "adv" / "campaigns.jsonl")):
        orig, adv_score = scores[row["sha256"]], row["final_score"]
        adv_path = work / "adv" / "files" / Path(row["path"]).name
        adv = adv_path.read_bytes()
        sizes = {"generator": "hillclimb", "modified_size": len(adv),
                 "orig_size": Path(row["path"]).stat().st_size}
        rows["sources"].append({
            "sha256": row["sha256"], "label_scheme": "family",
            "label_value": f"synth{i % 5}", "ember_score": orig["score"]})
        rows["candidates"].append({
            **sizes, "ember_score": adv_score, "path": str(adv_path),
            "sha256_adv": hashlib.sha256(adv).hexdigest(),
            "sha256_orig": row["sha256"]})
        rows["pairs"].append({
            **sizes, "orig_score": orig["score"], "adv_score": adv_score,
            "orig_verdict_malicious": orig["verdict"]})
    for name, table in rows.items():
        write_jsonl(work / f"{name}.jsonl", table)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("work_dir", help="scratch directory for all outputs")
    ap.add_argument("--count", type=int, default=24, help="corpus size")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)

    work = Path(args.work_dir)
    started = time.time()
    work.mkdir(parents=True, exist_ok=True)
    model_path = str(work / "model" / "model.json")
    for name, config in (
            ("forge", {"rng_seed": args.seed, "gbdt": SURROGATE_HP,
                       "scorer": {"kind": "local", "model_path": model_path}}),
            ("poison", {"rng_seed": args.seed, "gbdt": POISON_HP})):
        (work / f"{name}.json").write_text(json.dumps(config))

    def forge(*argv, config="forge") -> None:
        code = dispatch(["--config", str(work / f"{config}.json")]
                        + [str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"forge {argv[0]} exited with {code}")

    print("[1/6] corpus")
    write_samples(work, args.count, args.seed)
    forge("validate", work / "corpus", "--out", work / "reports")
    reports = read_jsonl(work / "reports" / "reports.jsonl")
    print(f"  {sum(r['is_valid_pe'] for r in reports)}/{len(reports)} "
          "files parse as valid PE")

    print("[2/6] surrogate detector")
    forge("train", "--malicious", work / "corpus", "--benign", work / "benign",
          "--out", work / "model")
    forge("score", "--in", work / "corpus", "--out", work / "scores")
    scores = json.loads((work / "scores" / "scores.json").read_text())
    print("  mean score on raw corpus: "
          f"{statistics.fmean(s['score'] for s in scores.values()):.3f}")

    print("[3/6] hill-climbing campaigns")
    forge("mutate", "--in", work / "corpus", "--out", work / "adv",
          "--max-steps", 80)
    campaigns = read_jsonl(work / "adv" / "campaigns.jsonl")
    steps = [r["steps_used"] for r in campaigns if r["evaded"]]
    print(f"  {len(steps)}/{len(campaigns)} evaded, median steps "
          f"{int(statistics.median(steps)) if steps else '-'}")

    print("[4/6] dataset assembly")
    write_generator_records(work)
    forge("select", "--sources", work / "sources.jsonl",
          "--candidates", work / "candidates.jsonl", "--out", work / "dataset")

    print("[5/6] analytics")
    forge("stats", "--pairs", work / "pairs.jsonl", "--out", work / "stats",
          "--bins", 10)

    print("[6/6] poisoning grid")
    write_poison_data(work / "poison.npz", np.random.default_rng(args.seed))
    forge("poison", "run", "--data", work / "poison.npz", "--out",
          work / "grid", "--grid", "small", config="poison")
    base, *cells = read_jsonl(work / "grid" / "reports.jsonl")
    worst = max(cells, key=lambda r: r["evasion_rate"])
    print(f"  baseline evasion {base['evasion_rate']:.3f} f1 {base['f1']:.3f}")
    print(f"  worst cell tau={worst['config']['tau']} "
          f"fraction={worst['config']['poisoned_fraction']}: "
          f"evasion {worst['evasion_rate']:.3f} f1 {worst['f1']:.3f}")
    print(f"done in {time.time() - started:.1f}s, outputs under {work}")


if __name__ == "__main__":
    main()
