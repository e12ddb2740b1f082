"""``grid``: ``forge poison run --grid small`` on 500 x 552 training rows.

The bundle has the acceptance test's layout (two labelled clusters plus
an adversarial cluster where a thin benign mode overlaps a malicious
shoulder, 552 features) and the run uses its GRID_HP.  It has 500
training rows, not the paper's 4000: one grid then takes about 5 s
instead of 50 s, so a run times several grids.  GBDT
training is nearly all of the work: seven trains (baseline plus 3 tau x
2 fractions), each followed by batch prediction over the test rows.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from common import Outcome, read_jsonl, write_json

NAME = "grid"
# training dominates: time it against matrix gathers and scans
PROBE = "scan"

GRID_HP = {"learning_rate": 0.3, "num_leaves": 6, "min_data_in_leaf": 50,
           "max_rounds": 15, "early_stop_rounds": 0}
TAUS = (0.0, 0.5, 1.0)
FRACTIONS = (0.01, 0.1)
DIM = 552
PER_CLASS = 250


def poison_world(rng, per_class: int = PER_CLASS, dim: int = DIM) -> dict:
    """Arrays for ``poison run``; ``per_class`` rows of each label."""
    minor = per_class * 3 // 100
    shift = per_class * 9 // 100

    def group(n, x0, x1, spread):
        out = rng.normal(0.0, 1.0, size=(n, dim))
        out[:, 0] = rng.normal(x0, spread, size=n)
        out[:, 1] = rng.normal(x1, spread, size=n)
        return out

    def split():
        major = per_class - minor
        benign = np.vstack([group(major, 0.0, 0.0, 0.5),
                            group(minor, 2.5, 0.0, 0.25)])
        malicious = np.vstack([group(major - shift, 2.5, 2.5, 0.5),
                               group(minor + shift, 2.5, 0.0, 0.25)])
        x = np.vstack([benign, malicious]).astype(np.float32)
        y = np.array([0] * per_class + [1] * per_class, dtype=np.int8)
        return x, y

    train_x, train_y = split()
    test_x, test_y = split()
    adv_pool = group(per_class * 4 // 5, 2.5, 0.0, 0.25).astype(np.float32)
    adv_test = group(per_class * 2 // 5, 2.5, 0.0, 0.25).astype(np.float32)
    return {"train_x": train_x, "train_y": train_y, "test_x": test_x,
            "test_y": test_y, "adv_pool": adv_pool, "adv_test": adv_test}


def setup(work: Path, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    bundle = work / "bundle.npz"
    np.savez(bundle, **poison_world(rng))
    warm = work / "warm.npz"
    np.savez(warm, **poison_world(rng, per_class=100))
    config = write_json(work / "forge.json",
                        {"rng_seed": seed, "gbdt": GRID_HP})
    return {"config": config, "bundle": bundle, "warm": warm}


def _poison_run(ctx, data, out, forge) -> None:
    forge(["--config", ctx["config"], "poison", "run", "--data", data,
           "--out", out, "--grid", "small"])


def warm_up(ctx: dict, out: Path, forge) -> None:
    _poison_run(ctx, ctx["warm"], out, forge)


def unit(ctx: dict, index: int, out: Path, forge) -> None:
    _poison_run(ctx, ctx["bundle"], out, forge)


def teardown(ctx: dict) -> None:
    pass


def _cell(reports, tau, fraction):
    for report in reports:
        config = report["config"]
        if (isinstance(config, dict) and config["tau"] == tau
                and config["poisoned_fraction"] == fraction):
            return report
    return None


def check(ctx: dict, outs: list) -> Outcome:
    """Six cells plus the baseline and no failures; the label-flip cell
    lifts evasion by at least 0.20 and the clean-label cell does not raise
    it; both heatmaps are 4 x 3."""
    outcome = Outcome()
    expected = len(TAUS) * len(FRACTIONS)
    for out in outs:
        reports = read_jsonl(out / "reports.jsonl")
        failures = read_jsonl(out / "failures.jsonl")
        outcome.attempted += expected + 1
        outcome.failed += len(failures)
        outcome.work += len(reports)
        where = out.name
        baselines = [r for r in reports if r["config"] == "baseline"]
        outcome.expect(len(baselines) == 1 and len(reports) == expected + 1,
                       f"{where}: {len(reports)} reports, want 1 baseline "
                       f"+ {expected} cells")
        outcome.expect(not failures, f"{where}: failed cells {failures}")
        flip = _cell(reports, 1.0, 0.1)
        clean = _cell(reports, 0.0, 0.1)
        if baselines and flip and clean:
            base = baselines[0]["evasion_rate"]
            outcome.expect(flip["evasion_rate"] >= base + 0.20,
                           f"{where}: tau=1 f=0.1 evasion "
                           f"{flip['evasion_rate']} < baseline {base} + 0.20")
            outcome.expect(clean["evasion_rate"] <= base,
                           f"{where}: tau=0 f=0.1 evasion "
                           f"{clean['evasion_rate']} > baseline {base}")
        else:
            outcome.problems.append(f"{where}: baseline or f=0.1 cells missing")
        for name in ("evasion_heatmap.csv", "f1_heatmap.csv"):
            with open(out / name, newline="") as fh:
                rows = list(csv.reader(fh))
            shape = (len(rows), {len(r) for r in rows})
            outcome.expect(shape == (len(TAUS) + 1, {len(FRACTIONS) + 1}),
                           f"{where}/{name}: shape {shape}, want 4 x 3")
    return outcome
