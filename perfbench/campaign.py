"""``campaign``: ``forge mutate`` over a synthetic corpus against a local
surrogate GBDT.

This is the evasion hot loop: every step parses, mutates, re-serializes,
extracts features and predicts one row with a 400-tree ensemble.  No
training happens in the timed part; the surrogate is trained at set-up
and saved as model JSON, as a user would before mutating.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from common import Outcome, read_jsonl, write_json

TRAIN_FILES = 32
TARGET_FILES = 96
BATCH = 4
WARM_FILES = 2
PAD_BYTES = 16384

NAME = "campaign"
# one-row predictions dominate, but they slow down less than pure tree
# walks do under load; the mixed kernel follows them (see probe.py)
PROBE = "mixed"


def surrogate_hyperparams():
    from advforge import gbdt

    # Library-default ensemble size (max_rounds=400) and learning rate;
    # leaves and leaf size fit the 2 x TRAIN_FILES training rows.  Early
    # stopping is off, so the ensemble always has 400 trees, and the depth
    # cap keeps a one-row prediction's cost from varying with the seed.
    return gbdt.Hyperparams(num_leaves=8, max_depth=3, min_data_in_leaf=5,
                            early_stop_rounds=0)


def setup(work: Path, seed: int) -> dict:
    """Corpus, surrogate model JSON, config, and the batch directories.

    The surrogate flags raw synthetic PEs as malicious and the same files
    with benign pool content appended as benign, so hill climbing has a
    direction to move in.
    """
    from advforge import features, gbdt, mutator, synth

    train_paths = synth.write_corpus(work / "train", TRAIN_FILES, seed=seed)
    pool = mutator.ContentPool.fallback()
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for path in train_paths:
        data = path.read_bytes()
        rows += [features.extract(data),
                 features.extract(data + pool.sample(rng, PAD_BYTES))]
        labels += [1, 0]
    model = gbdt.train(np.asarray(rows, dtype=np.float32),
                       np.asarray(labels), surrogate_hyperparams(),
                       rng_seed=seed)
    model_path = work / "model.json"
    model.save(model_path)
    config = write_json(work / "forge.json", {
        "rng_seed": seed,
        "scorer": {"kind": "local", "model_path": str(model_path)}})

    targets = synth.write_corpus(work / "targets", TARGET_FILES + WARM_FILES,
                                 seed=seed + 1)
    batches = []
    for start in range(0, len(targets), BATCH):
        batch_dir = work / f"batch_{start // BATCH:03d}"
        batch_dir.mkdir()
        for path in targets[start:start + BATCH]:
            path.rename(batch_dir / path.name)
        batches.append(batch_dir)
    return {"config": config, "model": model_path,
            "warm": batches.pop(), "batches": batches}


def warm_up(ctx: dict, out: Path, forge) -> None:
    forge(["--config", ctx["config"], "mutate", "--in", ctx["warm"],
           "--out", out])


def unit(ctx: dict, index: int, out: Path, forge) -> None:
    batch = ctx["batches"][index % len(ctx["batches"])]
    forge(["--config", ctx["config"], "mutate", "--in", batch, "--out", out])


def teardown(ctx: dict) -> None:
    pass


def check(ctx: dict, outs: list) -> Outcome:
    """Every output validates, replays byte for byte from its plan, has a
    strictly decreasing score trace, and ``evaded`` matches its score."""
    from advforge import gbdt, mutator, scoring

    handle = scoring.ScorerHandle.local(gbdt.TrainedModel.load(ctx["model"]))
    pool = mutator.ContentPool.fallback()
    outcome = Outcome()
    steps = accepted = 0
    replayed = {}  # (row, output) -> problems; a long pass repeats batches
    for out in outs:
        rows = read_jsonl(out / "campaigns.jsonl")
        for row in rows:
            outcome.attempted += 1
            if "error" in row:
                outcome.failed += 1
                outcome.problems.append(f"{row['path']}: {row['error']}")
                continue
            steps += row["steps_used"]
            accepted += len(row["plan"]["actions"])
            name = Path(row["path"]).name
            output = (out / "files" / name).read_bytes()
            key = (json.dumps(row, sort_keys=True),
                   hashlib.sha256(output).hexdigest())
            if key not in replayed:
                replayed[key] = _replay(row, output, handle, pool)
            outcome.problems += [f"{out.name}/{name}: {p}"
                                 for p in replayed[key]]
    outcome.work = steps
    outcome.facts = {"campaigns": outcome.attempted - outcome.failed,
                     "steps": steps, "accepted": accepted}
    return outcome


def _replay(row: dict, output: bytes, handle, pool) -> list:
    """Problems with one campaign row and its output file."""
    from advforge import mutator, pe, scoring

    found = Outcome()
    source = Path(row["path"]).read_bytes()
    plan = mutator.MutationPlan.from_dict(row["plan"])
    found.expect(hashlib.sha256(source).hexdigest() == row["sha256"],
                 "input hash mismatch")
    found.expect(pe.validate(output).is_valid_pe, "output is not a valid PE")
    found.expect(mutator.apply_plan(source, plan, pool) == output,
                 "plan does not rebuild the output")
    trace = [scoring.score(handle, source)]
    for i in range(1, len(plan.actions) + 1):
        prefix = mutator.MutationPlan(plan.actions[:i], plan.rng_seed)
        trace.append(scoring.score(handle,
                                   mutator.apply_plan(source, prefix, pool)))
    found.expect(all(b < a for a, b in zip(trace, trace[1:])),
                 "score trace does not strictly decrease")
    found.expect(trace[-1] == row["final_score"],
                 f"replayed score {trace[-1]} != reported {row['final_score']}")
    found.expect(row["evaded"] == (row["final_score"]
                                   < mutator.DEFAULT_THRESHOLD),
                 "evaded flag disagrees with final score")
    return found.problems
