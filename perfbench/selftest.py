"""Self-test: each correctness check fires on a deliberately corrupted output.

    python3 perfbench/selftest.py

For every workload it produces one real unit of output on small inputs,
shows that the workload's check passes on it, then corrupts a copy in one
way at a time and shows that the check reports that corruption.  It also
checks that a traced run reports exactly the per-layer metrics that
BENCHMARK.json lists.  Exits 1 if any expectation fails.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import run

run._import_program()

import campaign  # noqa: E402
import dataset  # noqa: E402
import grid  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from common import Forge, read_jsonl, write_json, write_jsonl  # noqa: E402

WORK = run.WORK / "selftest"
failures = []


def report(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def edit_jsonl(path: Path, change) -> None:
    rows = read_jsonl(path)
    write_jsonl(path, change(rows))


def edit_json(path: Path, change) -> None:
    obj = json.loads(path.read_text())
    change(obj)
    path.write_text(json.dumps(obj))


def flip_byte(path: Path, offset: int = -1) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def fires(module, ctx, good: Path, what: str, corrupt, needle: str) -> None:
    """Corrupt a copy of ``good`` and require a problem containing needle."""
    bad = good.with_name(good.name + "_" + what.replace(" ", "_"))
    shutil.copytree(good, bad)
    corrupt(bad)
    outcome = module.check(ctx, [bad])
    hit = [p for p in outcome.problems if needle in p]
    report(bool(hit), f"{module.NAME}: {what} -> {hit[:1] or outcome.problems}")


def passes(module, ctx, good: Path) -> None:
    outcome = module.check(ctx, [good])
    report(not outcome.problems and outcome.failed == 0,
           f"{module.NAME}: clean output passes {outcome.problems}")


def self_test_campaign(forge) -> None:
    from advforge import mutator

    work = WORK / "campaign"
    ctx = campaign.setup(work, 5)
    good = work / "unit"
    campaign.unit(ctx, 0, good, forge)
    passes(campaign, ctx, good)
    rows = read_jsonl(good / "campaigns.jsonl")
    target = next(r for r in rows if r["plan"]["actions"])
    name = Path(target["path"]).name

    def flip_output(d):
        flip_byte(d / "files" / name)

    def break_mz(d):
        flip_byte(d / "files" / name, 0)

    def flat_trace(d):
        # two trailing checksum_zero actions: the second leaves the bytes,
        # and so the score, unchanged; output and final score are rebuilt
        # so that only the trace check can object
        from advforge import gbdt, scoring

        plan = mutator.MutationPlan.from_dict(target["plan"])
        zero = mutator.MutationAction("checksum_zero")
        plan = mutator.MutationPlan(plan.actions + (zero, zero), plan.rng_seed)
        pool = mutator.ContentPool.fallback()
        data = mutator.apply_plan(Path(target["path"]).read_bytes(), plan, pool)
        (d / "files" / name).write_bytes(data)
        handle = scoring.ScorerHandle.local(gbdt.TrainedModel.load(ctx["model"]))
        score = scoring.score(handle, data)

        def change(rows):
            for r in rows:
                if r["path"] == target["path"]:
                    r["plan"] = plan.to_dict()
                    r["final_score"] = score
                    r["evaded"] = score < mutator.DEFAULT_THRESHOLD
            return rows
        edit_jsonl(d / "campaigns.jsonl", change)

    def wrong_evaded(d):
        def change(rows):
            for r in rows:
                if r["path"] == target["path"]:
                    r["evaded"] = not r["evaded"]
            return rows
        edit_jsonl(d / "campaigns.jsonl", change)

    def error_row(d):
        edit_jsonl(d / "campaigns.jsonl",
                   lambda rows: rows + [{"path": target["path"],
                                         "sha256": target["sha256"],
                                         "error": "injected"}])

    fires(campaign, ctx, good, "flipped output byte", flip_output,
          "plan does not rebuild")
    fires(campaign, ctx, good, "broken MZ", break_mz, "not a valid PE")
    fires(campaign, ctx, good, "flat score step", flat_trace,
          "does not strictly decrease")
    fires(campaign, ctx, good, "wrong evaded flag", wrong_evaded,
          "evaded flag")
    fires(campaign, ctx, good, "error row", error_row, "injected")


def self_test_grid(forge) -> None:
    import numpy as np

    work = WORK / "grid"
    work.mkdir(parents=True)
    # the acceptance shape with 20 instead of 552 columns trains in a
    # fraction of the time and keeps the directional properties
    bundle = work / "small.npz"
    np.savez(bundle, **grid.poison_world(np.random.default_rng(5), dim=20))
    config = write_json(work / "forge.json",
                        {"rng_seed": 5, "gbdt": grid.GRID_HP})
    ctx = {"config": config, "bundle": bundle}
    good = work / "unit"
    grid.unit(ctx, 0, good, forge)
    passes(grid, ctx, good)

    def set_cell(tau, value_from_base):
        def corrupt(d):
            def change(rows):
                base = rows[0]["evasion_rate"]
                for r in rows[1:]:
                    if (r["config"]["tau"] == tau
                            and r["config"]["poisoned_fraction"] == 0.1):
                        r["evasion_rate"] = value_from_base(base)
                return rows
            edit_jsonl(d / "reports.jsonl", change)
        return corrupt

    def drop_heatmap_row(d):
        with open(d / "evasion_heatmap.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        with open(d / "evasion_heatmap.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows[:-1])

    fires(grid, ctx, good, "missing cell",
          lambda d: edit_jsonl(d / "reports.jsonl", lambda r: r[:-1]),
          "reports, want")
    fires(grid, ctx, good, "failed cell",
          lambda d: write_jsonl(d / "failures.jsonl",
                                [{"tau": 0.5, "poisoned_fraction": 0.01,
                                  "error": "injected"}]),
          "failed cells")
    fires(grid, ctx, good, "no label-flip lift", set_cell(1.0, lambda b: b),
          "tau=1 f=0.1")
    fires(grid, ctx, good, "clean-label cell above baseline",
          set_cell(0.0, lambda b: b + 0.05), "tau=0 f=0.1")
    fires(grid, ctx, good, "3-row heatmap", drop_heatmap_row, "want 4 x 3")


def self_test_dataset(forge) -> None:
    work = WORK / "dataset"
    work.mkdir(parents=True)
    ctx = dataset.setup(work, 5)
    try:
        good = work / "unit"
        dataset.unit(ctx, 0, good, forge)
        tracer = spans.Tracer()
        with tracer.phase("pass"), tracer.install():
            traced = work / "traced"
            dataset.unit(ctx, 1, traced, Forge(tracer))
    finally:
        dataset.teardown(ctx)
    passes(dataset, ctx, good)

    listed = {(m["name"], m["unit"]) for m in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    got = {(name, unit) for name, (_value, unit) in layers.metrics(
        tracer, dataset.check(ctx, [traced]), 1.0, 0.0).items()}
    report(got == listed, f"per-layer metrics and units match BENCHMARK.json "
           f"(missing {sorted(listed - got)}, extra {sorted(got - listed)})")

    def discard_chunk(d):
        def change(summary):
            summary["chunk_states"]["0"] = "discarded"
        edit_json(d / "harness_padder" / "summary.json", change)

    def drop_merged(d):
        merged = d / "harness_stamper" / "merged"
        next(p for p in merged.iterdir() if p.suffix == ".bin").unlink()

    def drop_metadata(d):
        edit_jsonl(d / "dataset" / "metadata.jsonl", lambda rows: rows[1:])

    def over_quota(d):
        edit_json(d / "session.json", lambda s: s["verdicts"].update(
            used_today=dataset.DAILY_LIMIT + 1))

    def lost_report(d):
        edit_json(d / "session.json", lambda s: s["verdicts"].update(
            completed=s["verdicts"]["completed"] - 1))

    def flip_dataset_file(d):
        flip_byte(next((d / "dataset" / "files").iterdir()), 100)

    def wrong_score(d):
        def change(scores):
            first = next(iter(scores))
            scores[first]["score"] = 1.0 - scores[first]["score"]
        edit_json(d / "scores" / "scores.json", change)

    fires(dataset, ctx, good, "discarded chunk", discard_chunk, "chunk states")
    fires(dataset, ctx, good, "wrong merged count", drop_merged,
          f"merged {dataset.SOURCES * len(dataset.GENERATORS) - 1} files")
    fires(dataset, ctx, good, "source in no bucket", drop_metadata,
          "in metadata +")
    fires(dataset, ctx, good, "quota overrun", over_quota, "used_today")
    fires(dataset, ctx, good, "lost verdict", lost_report, "pre-loaded")
    fires(dataset, ctx, good, "flipped dataset byte", flip_dataset_file,
          "is corrupt")
    fires(dataset, ctx, good, "wrong score", wrong_score, "scores disagree")


def main() -> int:
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir(parents=True)
    forge = Forge()
    self_test_campaign(forge)
    self_test_grid(forge)
    self_test_dataset(forge)
    shutil.rmtree(WORK)
    print(f"{len(failures)} expectation(s) failed" if failures
          else "all checks fire")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
