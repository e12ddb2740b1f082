"""The forge command line: one entry point over the whole pipeline.

Subcommands cover surrogate training, validation, mutation campaigns,
worker orchestration, scoring, verdict submission, candidate selection,
dataset analytics, and the poisoning grid.  Configuration comes from a
single JSON file given via --config or the FORGE_CONFIG environment
variable; unknown keys are rejected.  Exit codes: 0 success, 1 partial
per-item failures, 2 config or usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, analytics, features, gbdt, harness, mutator, pe
from . import poisonlab, scoring, selector
from .records import Record, file_row, list_files, read_jsonl, write_jsonl


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScorerConfig(Record):
    kind: str | None = None
    model_path: str | None = None
    endpoint: str | None = None
    timeout_ms: int = scoring.DEFAULT_TIMEOUT_MS
    threshold: float = scoring.DEFAULT_SCORE_THRESHOLD

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")


_SECTIONS = {"selection": selector.SelectionConstants,
             "harness": harness.HarnessConfig, "scorer": ScorerConfig,
             "quota": scoring.QuotaConfig, "gbdt": gbdt.Hyperparams}
_OPTIONAL_SECTIONS = ("harness", "scorer", "quota")


@dataclass(frozen=True)
class GlobalConfig(Record):
    rng_seed: int = 0
    selection: selector.SelectionConstants = field(
        default_factory=selector.SelectionConstants)
    harness: harness.HarnessConfig | None = None
    scorer: ScorerConfig | None = None
    quota: scoring.QuotaConfig | None = None
    gbdt: gbdt.Hyperparams = field(default_factory=gbdt.Hyperparams)

    def __post_init__(self) -> None:
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")

    @classmethod
    def from_dict(cls, obj: dict) -> "GlobalConfig":
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(obj)
        for name, section in _SECTIONS.items():
            if name not in obj or (obj[name] is None
                                   and name in _OPTIONAL_SECTIONS):
                continue
            try:
                kwargs[name] = section.from_dict(obj[name])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name}: {exc}") from exc
        try:
            if "rng_seed" in obj:
                kwargs["rng_seed"] = int(obj["rng_seed"])
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def threshold(self) -> float:
        """The evasion cut of every subcommand: ``scorer.threshold``."""
        return (self.scorer or ScorerConfig()).threshold


def load_config(path: str | None) -> GlobalConfig:
    path = path or os.environ.get("FORGE_CONFIG")
    if not path:
        return GlobalConfig()
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return GlobalConfig.from_dict(obj)


def build_scorer(config: GlobalConfig) -> scoring.ScorerHandle:
    section = config.scorer
    if section is None:
        raise ConfigError("this subcommand needs a scorer config section")
    if section.kind == "local":
        if not section.model_path:
            raise ConfigError("local scorer needs model_path")
        model = gbdt.TrainedModel.load(section.model_path)
        if model.feature_dim != features.FEATURE_DIM:
            raise ConfigError(
                f"model {section.model_path} takes {model.feature_dim} "
                f"features, but extraction gives {features.FEATURE_DIM}")
        return scoring.ScorerHandle.local(model, threshold=section.threshold)
    if section.kind == "http":
        if not section.endpoint:
            raise ConfigError("http scorer needs endpoint")
        return scoring.ScorerHandle.http(
            section.endpoint, timeout_ms=section.timeout_ms,
            threshold=section.threshold)
    raise ConfigError(f"unknown scorer kind: {section.kind!r}")


def write_run_manifest(out_dir, command: str, argv, config: GlobalConfig,
                       inputs: dict) -> None:
    """Record what ran: argv, inputs, seeds, and versions."""
    manifest = {
        "command": command,
        "argv": list(argv),
        "rng_seed": config.rng_seed,
        "config": config.to_dict(),
        "inputs": inputs,
        "versions": {"advforge": __version__,
                     "python": platform.python_version(),
                     "numpy": np.__version__},
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (Path(out_dir) / "run_manifest.json").write_text(
        json.dumps(manifest, indent=1))


def _describe_input(path) -> dict | None:
    """``{"path", "sha256"}`` of an input: the digest of a file's contents,
    or of a directory's sorted entry names, each with its entry's digest or,
    for an entry that cannot be read, the marker ``unreadable``."""
    if path is None:
        return None
    p = Path(path)
    if p.is_dir():
        lines = []
        for x in sorted(p.iterdir()):
            try:
                lines.append(f"{x.name} {_describe_input(x)['sha256']}")
            except OSError:
                lines.append(f"{x.name} unreadable")
        blob = "\n".join(lines).encode()
    else:
        blob = p.read_bytes()
    return {"path": str(path), "sha256": hashlib.sha256(blob).hexdigest()}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _input_dir(dir_path) -> Path:
    root = Path(dir_path)
    if not root.is_dir():
        raise ConfigError(f"not a directory: {dir_path}")
    return root


def _input_files(dir_path) -> list:
    return list_files(_input_dir(dir_path))


# ---------------------------------------------------------------- commands


def cmd_train(args, config: GlobalConfig) -> int:
    """Extract each class directory into ``--out`` (``<class>.f32`` and
    ``.jsonl``), train on those rows and save ``model.json``."""
    out = Path(args.out)
    matrices, errors = [], []
    for name in ("malicious", "benign"):
        src = _input_dir(getattr(args, name))
        matrix, rows = features.batch_extract(src, out / f"{name}.f32",
                                              out / f"{name}.jsonl")
        if not len(matrix):
            raise ConfigError(f"no readable file in {src}")
        errors += [r for r in rows if "error" in r]
        matrices.append(matrix)
    labels = np.repeat([1, 0], [len(m) for m in matrices])
    model = gbdt.train(np.vstack(matrices), labels, config.gbdt,
                       rng_seed=config.rng_seed)
    model.save(out / "model.json")
    for problem in errors:
        print(f"forge: {problem['path']}: {problem['error']}", file=sys.stderr)
    return 1 if errors else 0


def cmd_validate(args, config: GlobalConfig) -> int:
    rows = [file_row(path, lambda _path, data: pe.validate(data).to_dict())
            for path in _input_files(args.input_dir)]
    if args.out:
        write_jsonl(Path(args.out) / "reports.jsonl", rows)
    else:
        print("\n".join(json.dumps(r) for r in rows))
    return 1 if any("error" in r for r in rows) else 0


def cmd_mutate(args, config: GlobalConfig) -> int:
    handle = build_scorer(config)
    files = _input_files(args.input_dir)
    if args.pool:
        pool_dir = _input_dir(args.pool)
        try:
            pool = mutator.ContentPool.from_dir(pool_dir)
        except ValueError:
            raise ConfigError(
                f"no non-empty file in pool {args.pool}") from None
    else:
        pool = mutator.ContentPool.fallback()
    out = Path(args.out)
    files_dir = out / "files"
    files_dir.mkdir(exist_ok=True)

    def campaign(path: Path, data: bytes) -> dict:
        sha = hashlib.sha256(data).hexdigest()
        # stable per-file seed: order of files must not matter
        seed = (config.rng_seed ^ int(sha[:16], 16)) & ((1 << 64) - 1)
        result = mutator.run_campaign(
            data, lambda b, image: scoring.score(handle, b, image),
            mutator.CampaignConfig(max_steps=args.max_steps,
                                   score_threshold=handle.threshold,
                                   rng_seed=seed), pool)
        (files_dir / path.name).write_bytes(result.final_bytes)
        return {"sha256": sha,
                "evaded": result.evaded,
                "steps_used": result.steps_used,
                "final_score": result.score_trace[-1][1],
                "plan": result.plan.to_dict()}

    rows = [file_row(path, campaign,
                     (mutator.MutatorError, scoring.ScoringError))
            for path in files]
    write_jsonl(out / "campaigns.jsonl", rows)
    return 1 if any("error" in r for r in rows) else 0


def cmd_harness_run(args, config: GlobalConfig) -> int:
    if config.harness is None:
        raise ConfigError("harness run needs a harness config section")
    out = Path(args.out)
    manifest = harness.split_dataset(args.input_dir,
                                     config.harness.chunk_count)
    manifest.save(out / "chunks.json")
    summary = harness.run(config.harness, manifest, out / "work",
                          status_stream=sys.stdout)
    harness.merge_outputs(manifest, summary, out / "work", out / "merged")
    (out / "summary.json").write_text(json.dumps(summary.to_dict(), indent=1))
    discarded = [c for c, s in summary.chunk_states.items()
                 if s == "discarded"]
    if discarded:
        print(f"forge: {len(discarded)} chunk(s) discarded", file=sys.stderr)
        return 1
    return 0


def cmd_score(args, config: GlobalConfig) -> int:
    handle = build_scorer(config)
    report, errors = scoring.classify_dir(handle, args.input_dir,
                                          parallelism=args.parallelism)
    payload = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        (Path(args.out) / "scores.json").write_text(payload)
        write_jsonl(Path(args.out) / "errors.jsonl", errors)
    else:
        print(payload)
    for problem in errors:
        print(f"forge: {problem['path']}: {problem['error']}", file=sys.stderr)
    return 1 if errors else 0


def _load_service(spec: str) -> scoring.VerdictService:
    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise ConfigError(f"service must look like module:factory, got {spec!r}")
    import importlib
    try:
        module = importlib.import_module(module_name)
        factory = getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise ConfigError(f"cannot load service {spec!r}: {exc}") from exc
    service = factory()
    if not isinstance(service, scoring.VerdictService):
        raise ConfigError(f"{spec!r} did not produce a VerdictService")
    return service


def cmd_verdicts(args, config: GlobalConfig) -> int:
    section = config.quota
    if section is None:
        raise ConfigError("verdicts needs a quota config section")
    spec = args.service or section.service
    if not spec:
        raise ConfigError("verdicts needs a service (flag or quota.service)")
    if section.state_path is None or section.daily_limit is None:
        raise ConfigError("quota config needs state_path and daily_limit")
    service = _load_service(spec)
    files = _input_files(args.input_dir)
    state = scoring.verdicts_submit_poll(files, section, service)
    print(json.dumps({"used_today": state.used_today,
                      "pending": len(state.pending),
                      "completed": len(state.completed)}))
    return 0


def cmd_select(args, config: GlobalConfig) -> int:
    try:
        sources = [selector.SourceSample.from_dict(row)
                   for row in read_jsonl(args.sources)]
        candidates = [selector.CandidateRecord.from_dict(row)
                      for row in read_jsonl(args.candidates)]
        summary = selector.assemble_dataset(sources, candidates, args.out,
                                            config.threshold, config.selection)
    except (TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad selection input: {exc}") from exc
    print(json.dumps(summary))
    return 1 if summary["failed_count"] else 0


def cmd_stats(args, config: GlobalConfig) -> int:
    out = Path(args.out)
    try:
        pairs = read_jsonl(args.pairs)
        if not pairs:
            raise ValueError(f"no rows in {args.pairs}")
        summary: dict = {"pairs": len(pairs)}

        verdict_rows = [p for p in pairs if "orig_verdict_malicious" in p
                        and "adv_score" in p]
        if verdict_rows:
            summary["evasion_rate"] = analytics.evasion_rate(
                verdict_rows, config.threshold)

        drop_rows = [p for p in pairs
                     if "orig_score" in p and "adv_score" in p]
        if drop_rows:
            bins = analytics.score_drop_bins(drop_rows, bin_count=args.bins)
            analytics.write_score_drop_csv(bins, out / "score_drops.csv")
            summary["score_drop_rows"] = bins.sample_count

        ratio_rows = [p for p in pairs if "generator" in p
                      and "orig_size" in p and "modified_size" in p]
        if ratio_rows:
            stats = analytics.size_ratio_stats(ratio_rows)
            analytics.write_size_ratio_csv(stats, out / "size_ratios.csv")
            summary["generators"] = len(stats)

        engine_rows = [p for p in pairs
                       if None not in map(p.get, analytics.ENGINE_COLUMNS)]
        if engine_rows:
            drops = analytics.detection_drops(engine_rows)
            analytics.write_engine_drop_csv(drops, out / "engine_drops.csv")
            summary["detection_drops"] = drops["all_engines"]
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad stats input: {exc}") from exc

    (out / "stats.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps(summary))
    return 0


def _load_bundle(path, keys) -> dict:
    try:
        bundle = np.load(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read data bundle {path}: {exc}") from exc
    missing = [k for k in keys if k not in bundle.files]
    if missing:
        raise ConfigError(f"data bundle {path} lacks arrays: {missing}")
    return {k: bundle[k] for k in keys}


SMALL_GRID = {"tau_list": (0.0, 0.5, 1.0), "fraction_list": (0.01, 0.1)}


def cmd_poison_run(args, config: GlobalConfig) -> int:
    data = _load_bundle(args.data, ["train_x", "train_y", "test_x",
                                    "test_y", "adv_pool", "adv_test"])
    grids = SMALL_GRID if args.grid == "small" else {}
    result = poisonlab.run_grid(
        data["train_x"], data["train_y"], data["test_x"], data["test_y"],
        data["adv_pool"], data["adv_test"], config.gbdt,
        rng_seed=config.rng_seed, out_dir=args.out, **grids)
    print(json.dumps({"cells": len(result["cells"]),
                      "failures": len(result["failures"])}))
    return 1 if result["failures"] else 0


def cmd_poison_cross_eval(args, config: GlobalConfig) -> int:
    model = gbdt.TrainedModel.load(args.model)
    data = _load_bundle(args.data, ["test_x", "test_y"])
    report = poisonlab.cross_evaluate(model, data["test_x"], data["test_y"])
    print(json.dumps(report.to_dict(), indent=1))
    return 0


# ---------------------------------------------------------------- dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forge",
        description="Adversarial PE pipeline: train, validate, mutate, "
                    "orchestrate, score, select, analyze, poison.")
    parser.add_argument("--config", help="path to JSON config "
                        "(fallback: FORGE_CONFIG env var)")
    parser.add_argument("--version", action="version",
                        version=f"forge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the surrogate classifier")
    p.add_argument("--malicious", required=True, help="label-1 samples")
    p.add_argument("--benign", required=True, help="label-0 samples")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train, inputs=("malicious", "benign"))

    p = sub.add_parser("validate", help="structural PE validation reports")
    p.add_argument("input_dir")
    p.add_argument("--out", help="write reports.jsonl here instead of stdout")
    p.set_defaults(func=cmd_validate, inputs=("input_dir",))

    p = sub.add_parser("mutate", help="hill-climbing evasion campaigns")
    p.add_argument("--in", dest="input_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-steps", type=_positive_int,
                   default=mutator.DEFAULT_MAX_STEPS)
    p.add_argument("--pool", help="directory of benign content donors")
    p.set_defaults(func=cmd_mutate, inputs=("input_dir", "pool"))

    p = sub.add_parser("harness", help="generator worker orchestration")
    hsub = p.add_subparsers(dest="action", required=True)
    hr = hsub.add_parser("run", help="split, supervise, and merge")
    hr.add_argument("--input", dest="input_dir", required=True)
    hr.add_argument("--out", required=True)
    hr.set_defaults(func=cmd_harness_run, inputs=("input_dir",))

    p = sub.add_parser("score", help="classify a directory of binaries")
    p.add_argument("--in", dest="input_dir", required=True)
    p.add_argument("--out")
    p.add_argument("--parallelism", type=_positive_int, default=1)
    p.set_defaults(func=cmd_score, inputs=("input_dir",))

    p = sub.add_parser("verdicts", help="quota-limited verdict submission")
    p.add_argument("--in", dest="input_dir", required=True)
    p.add_argument("--service", help="module:factory for the verdict service")
    p.set_defaults(func=cmd_verdicts)

    p = sub.add_parser("select", help="assemble the final dataset")
    p.add_argument("--sources", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select, inputs=("sources", "candidates"))

    p = sub.add_parser("stats", help="evasion, score drop, and size stats")
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bins", type=_positive_int,
                   default=analytics.SCORE_DROP_BINS)
    p.set_defaults(func=cmd_stats, inputs=("pairs",))

    p = sub.add_parser("poison", help="poisoning experiments")
    psub = p.add_subparsers(dest="action", required=True)
    pr = psub.add_parser("run", help="tau x fraction grid")
    pr.add_argument("--data", required=True,
                    help="npz bundle: train_x/train_y/test_x/test_y/"
                         "adv_pool/adv_test")
    pr.add_argument("--out", required=True)
    pr.add_argument("--grid", choices=["table4", "small"], default="table4")
    pr.set_defaults(func=cmd_poison_run, inputs=("data",))
    pc = psub.add_parser("cross-eval", help="evaluate a saved model")
    pc.add_argument("--model", required=True)
    pc.add_argument("--data", required=True)
    pc.set_defaults(func=cmd_poison_cross_eval)

    return parser


def dispatch(argv=None) -> int:
    """Parse argv, run the subcommand, and, for one run with ``--out``,
    write its ``run_manifest.json`` there once the command returns."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    out = getattr(args, "out", None)
    try:
        config = load_config(args.config)
        if out:
            Path(out).mkdir(parents=True, exist_ok=True)
        code = args.func(args, config)
        if out:
            command = " ".join(filter(None, (args.command,
                                             getattr(args, "action", None))))
            inputs = {name: _describe_input(getattr(args, name))
                      for name in args.inputs}
            write_run_manifest(out, command, argv, config, inputs)
        return code
    except ConfigError as exc:
        print(f"forge: {exc}", file=sys.stderr)
        return 2
    except (pe.PeError, mutator.MutatorError, scoring.ScoringError,
            harness.HarnessError, poisonlab.PoisonLabError,
            gbdt.GbdtError) as exc:
        print(f"forge: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"forge: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
