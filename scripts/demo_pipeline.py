"""End-to-end walkthrough of the evasion and poisoning pipeline.

Runs entirely on synthetic data: builds a small PE corpus, trains a
throwaway surrogate classifier over static features, hill-climbs every
file against it, assembles the winning candidates into a dataset with
metadata, writes summary analytics, and finishes with a small label-flip
poisoning grid. Takes about two seconds on one core.

    python3 scripts/demo_pipeline.py work/demo --count 24
"""

import argparse
import hashlib
import time
from pathlib import Path

import numpy as np

from advforge import analytics, features, pe
from advforge.gbdt import Hyperparams, train
from advforge.mutator import CampaignConfig, ContentPool, run_campaign
from advforge.poisonlab import run_grid
from advforge.scoring import ScorerHandle, score
from advforge.selector import CandidateRecord, SourceSample, assemble_dataset
from advforge.synth import write_corpus

SURROGATE_HP = Hyperparams(learning_rate=0.2, num_leaves=8, max_depth=4,
                           min_data_in_leaf=3, max_rounds=30,
                           early_stop_rounds=0)
POISON_HP = Hyperparams(learning_rate=0.3, num_leaves=6, min_data_in_leaf=10,
                        max_rounds=12, early_stop_rounds=0)


def sha_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def train_surrogate(corpus: list[bytes], pool: ContentPool, seed: int):
    """Fit a tiny detector that flags the raw corpus files as malicious.

    The benign class is the same corpus with a large slab of clean pool
    content appended, which gives the hill climber a direction it can
    actually move in with overlay appends.
    """
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for data in corpus:
        padded = data + pool.sample(rng, 16384)
        rows.append(features.extract(data))
        labels.append(1)
        rows.append(features.extract(padded))
        labels.append(0)
    x = np.asarray(rows, dtype=np.float32)
    y = np.asarray(labels, dtype=np.int64)
    return train(x, y, SURROGATE_HP, rng_seed=seed)


def run_campaigns(corpus, handle, pool, seed, max_steps):
    results = []
    for i, data in enumerate(corpus):
        config = CampaignConfig(max_steps=max_steps,
                                score_threshold=handle.threshold,
                                rng_seed=seed + i)
        results.append(run_campaign(data, lambda d: score(handle, d),
                                    config, pool=pool))
    return results


def poison_world(rng, dim: int = 8):
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
        benign = np.vstack([group(380, 0.0, 0.0, 0.5),
                            group(20, 2.5, 0.0, 0.25)])
        malicious = np.vstack([group(330, 2.5, 2.5, 0.5),
                               group(70, 2.5, 0.0, 0.25)])
        x = np.vstack([benign, malicious])
        y = np.array([0] * 400 + [1] * 400, dtype=np.int64)
        return x, y

    train_x, train_y = side()
    test_x, test_y = side()
    adv = group(400, 2.5, 0.0, 0.25)
    return train_x, train_y, test_x, test_y, adv[:200], adv[200:]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("work_dir", help="scratch directory for all outputs")
    ap.add_argument("--count", type=int, default=24, help="corpus size")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--max-steps", type=int, default=80)
    args = ap.parse_args()

    work = Path(args.work_dir)
    started = time.time()

    print("[1/6] corpus")
    corpus_paths = write_corpus(work / "corpus", args.count, seed=args.seed)
    corpus = [p.read_bytes() for p in corpus_paths]
    valid = sum(pe.validate(d).is_valid_pe for d in corpus)
    print(f"  {valid}/{len(corpus)} files parse as valid PE")

    print("[2/6] surrogate detector")
    pool = ContentPool.fallback()
    model = train_surrogate(corpus, pool, args.seed)
    handle = ScorerHandle.local(model)
    orig_scores = [score(handle, d) for d in corpus]
    print(f"  mean score on raw corpus: {np.mean(orig_scores):.3f} "
          f"(threshold {handle.threshold})")

    print("[3/6] hill-climbing campaigns")
    results = run_campaigns(corpus, handle, pool, args.seed, args.max_steps)
    evaded = sum(r.evaded for r in results)
    steps = [r.steps_used for r in results if r.evaded]
    print(f"  {evaded}/{len(results)} evaded, median steps "
          f"{int(np.median(steps)) if steps else '-'}")

    print("[4/6] dataset assembly")
    cand_dir = work / "candidates"
    cand_dir.mkdir(parents=True, exist_ok=True)
    sources, candidates, pairs = [], [], []
    for data, s0, res in zip(corpus, orig_scores, results):
        sha_orig = sha_of(data)
        s1 = res.score_trace[-1][1]
        sources.append(SourceSample(sha256=sha_orig, label_scheme="family",
                                    label_value=f"synth{len(sources) % 5}",
                                    ember_score=s0))
        adv_path = cand_dir / f"{sha_orig}.bin"
        adv_path.write_bytes(res.final_bytes)
        candidates.append(CandidateRecord(generator="hillclimb",
                                          ember_score=s1,
                                          orig_size=len(data),
                                          modified_size=len(res.final_bytes),
                                          path=str(adv_path),
                                          sha256_adv=sha_of(res.final_bytes),
                                          sha256_orig=sha_orig))
        pairs.append({"orig_score": s0, "adv_score": s1,
                      "orig_verdict_malicious": s0 >= handle.threshold})
    summary = assemble_dataset(sources, candidates, work / "dataset")
    print(f"  {summary['evasive_count']} evasive of "
          f"{len(sources) - summary['failed_count']} selected, "
          f"{summary['failed_count']} failed")

    print("[5/6] analytics")
    stats_dir = work / "stats"
    stats_dir.mkdir(parents=True, exist_ok=True)
    rate = analytics.evasion_rate(pairs, handle.threshold)
    bins = analytics.score_drop_bins(pairs, bin_count=10)
    analytics.write_score_drop_csv(bins, stats_dir / "score_drop.csv")
    ratios = analytics.size_ratio_stats([c.to_dict() for c in candidates])
    analytics.write_size_ratio_csv(ratios, stats_dir / "size_ratio.csv")
    print(f"  evasion rate {rate:.3f}, size ratio median "
          f"{ratios[0]['median']:.3f}")

    print("[6/6] poisoning grid")
    rng = np.random.default_rng(args.seed)
    tx, ty, sx, sy, adv_pool, adv_test = poison_world(rng)
    grid = run_grid(tx, ty, sx, sy, adv_pool, adv_test, POISON_HP,
                    rng_seed=args.seed, tau_list=(0.0, 0.5, 1.0),
                    fraction_list=(0.01, 0.05, 0.1),
                    out_dir=work / "poison")
    base = grid["baseline"]
    worst = max(grid["cells"], key=lambda r: r.evasion_rate)
    print(f"  baseline evasion {base.evasion_rate:.3f} f1 {base.f1:.3f}")
    print(f"  worst cell tau={worst.config.tau} "
          f"fraction={worst.config.poisoned_fraction}: "
          f"evasion {worst.evasion_rate:.3f} f1 {worst.f1:.3f}")

    print(f"done in {time.time() - started:.1f}s, outputs under {work}")


if __name__ == "__main__":
    main()
