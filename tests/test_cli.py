"""End-to-end tests for the forge command line."""

import hashlib
import json
import textwrap
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import cli_service
from advforge import cli, features, gbdt, pe, scoring, selector, synth
from advforge.cli import dispatch
from advforge.records import read_jsonl
from alg1_oracle import alg1_reference
from pe_oracle import build_pe


def make_corpus(root: Path, count: int) -> list:
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(count):
        data = build_pe([(b".text", bytes([40 + i]) * 700, 0x60000020)])
        p = root / f"s{i:03d}.bin"
        p.write_bytes(data)
        paths.append(p)
    return paths


def dangling_link(path: Path) -> None:
    path.symlink_to(path.parent / "no-such-target")


def constant_model_file(path, base_score: float) -> None:
    model = gbdt.TrainedModel(
        trees=(), base_score=base_score, learning_rate=0.05,
        feature_dim=552, decision_threshold=0.5, degenerate=False,
        train_loss_trace=())
    model.save(path)


def write_config(path: Path, obj: dict) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def local_scorer_config(tmp_path: Path) -> str:
    """A config whose scorer is a constant local model that scores every
    file 0.119, under its 0.5 cut."""
    constant_model_file(tmp_path / "model.json", -2.0)
    return write_config(tmp_path / "c.json", {
        "scorer": {"kind": "local",
                   "model_path": str(tmp_path / "model.json"),
                   "threshold": 0.5}})


class TestConfig:
    def test_defaults_when_unset(self, monkeypatch):
        monkeypatch.delenv("FORGE_CONFIG", raising=False)
        config = cli.load_config(None)
        assert config.rng_seed == 0
        assert config.selection == selector.SelectionConstants()

    def test_unknown_top_level_key_rejected(self, tmp_path):
        for key in ("rngseed", "work_dir"):
            path = write_config(tmp_path / "c.json", {key: 3})
            with pytest.raises(cli.ConfigError, match="unknown config keys"):
                cli.load_config(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        harness = {"worker_command": "w {input_dir} {output_dir} {log_file}",
                   "load_gate": {"target_load": 1.0}}
        for section, body in (("selection", {"ember_thresh": 0.9}),
                              ("harness", harness)):
            path = write_config(tmp_path / "c.json", {section: body})
            with pytest.raises(cli.ConfigError, match=section):
                cli.load_config(path)

    def test_env_fallback(self, tmp_path, monkeypatch):
        path = write_config(tmp_path / "c.json", {"rng_seed": 99})
        monkeypatch.setenv("FORGE_CONFIG", path)
        assert cli.load_config(None).rng_seed == 99

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        env_cfg = write_config(tmp_path / "env.json", {"rng_seed": 1})
        flag_cfg = write_config(tmp_path / "flag.json", {"rng_seed": 2})
        monkeypatch.setenv("FORGE_CONFIG", env_cfg)
        assert cli.load_config(flag_cfg).rng_seed == 2

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(cli.ConfigError, match="not valid JSON"):
            cli.load_config(str(path))

    def test_sections_become_typed_values(self, tmp_path):
        path = write_config(tmp_path / "c.json", {
            "selection": {"maximum_size": 1000},
            "gbdt": {"max_rounds": 7},
        })
        config = cli.load_config(path)
        assert config.selection.maximum_size == 1000
        assert config.gbdt.max_rounds == 7


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert dispatch(["--bogus"]) == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert dispatch(["conquer"]) == 2

    def test_no_arguments_is_usage_error(self):
        assert dispatch([]) == 2

    def test_bad_config_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"wat": 1})
        make_corpus(tmp_path / "in", 1)
        code = dispatch(["--config", cfg, "validate", str(tmp_path / "in")])
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_scorer_section_is_exit_2(self, tmp_path, capsys):
        make_corpus(tmp_path / "in", 1)
        code = dispatch(["score", "--in", str(tmp_path / "in")])
        assert code == 2
        assert "scorer" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold, argv, message", [
        (1.5, ["score", "--in", "{in}"], "threshold"),
        (0.5, ["mutate", "--in", "{in}", "--out", "{out}",
               "--max-steps", "0"], "--max-steps"),
        (0.5, ["score", "--in", "{in}", "--parallelism", "0"],
         "--parallelism"),
        (0.5, ["stats", "--pairs", "{pairs}", "--out", "{out}",
               "--bins", "0"], "--bins"),
    ])
    def test_out_of_range_setting_is_exit_2(self, tmp_path, capsys,
                                            threshold, argv, message):
        make_corpus(tmp_path / "in", 1)
        constant_model_file(tmp_path / "model.json", 0.0)
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"orig_score": 0.9, "adv_score": 0.1}))
        cfg = write_config(tmp_path / "c.json", {
            "scorer": {"kind": "local",
                       "model_path": str(tmp_path / "model.json"),
                       "threshold": threshold}})
        paths = {"in": tmp_path / "in", "out": tmp_path / "out",
                 "pairs": pairs}
        code = dispatch(["--config", cfg]
                        + [arg.format(**paths) for arg in argv])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("section, message", [
        ({"scorer": {"kind": "http", "endpoint": "http://localhost:1",
                     "timeout_ms": 0}}, "timeout_ms"),
        ({"quota": {"daily_limit": -1, "state_path": "q.json"}},
         "daily_limit"),
        ({"gbdt": {"bagging_freq": 0, "bagging_fraction": 0.5}},
         "bagging_freq"),
        ({"gbdt": {"l2_lambda": -1.0}}, "l2_lambda"),
        ({"quota": {"daily_limit": 1, "state_path": "q.json",
                    "poll_interval": -1.0}}, "poll_interval"),
    ])
    def test_out_of_range_section_is_exit_2(self, tmp_path, capsys,
                                            section, message):
        make_corpus(tmp_path / "in", 1)
        cfg = write_config(tmp_path / "c.json", section)
        assert dispatch(["--config", cfg, "validate",
                         str(tmp_path / "in")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["score", "--in", "{in}"],
        ["mutate", "--in", "{in}", "--out", "{out}"],
        ["poison", "cross-eval", "--model", "{model}", "--data", "{in}"],
    ])
    @pytest.mark.parametrize("blob", ["{}", "{not json", "[1]", pytest.param(
        json.dumps({"base_score": 0.0, "learning_rate": 1.0,
                    "feature_dim": features.FEATURE_DIM,
                    "decision_threshold": 0.5, "degenerate": False,
                    "train_loss_trace": [],
                    "trees": [{"feature": [0, -1, -1],
                               "threshold": [0.5, 0.0, 0.0],
                               "left": [1, -1, -1], "right": [3, -1, -1],
                               "value": [0.0, 1.0, 2.0]}]}),
        id="child-outside-its-tree")])
    def test_bad_model_file_exits_1_naming_it(self, tmp_path, capsys, argv,
                                              blob):
        make_corpus(tmp_path / "in", 1)
        model = tmp_path / "model.json"
        model.write_text(blob)
        cfg = write_config(tmp_path / "c.json", {
            "scorer": {"kind": "local", "model_path": str(model)}})
        paths = {"in": tmp_path / "in", "out": tmp_path / "out",
                 "model": model}
        code = dispatch(["--config", cfg]
                        + [arg.format(**paths) for arg in argv])
        assert code == 1
        assert f"bad model file {model}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["score", "--in", "{in}"],
        ["mutate", "--in", "{in}", "--out", "{out}"],
    ])
    def test_model_of_wrong_width_is_exit_2(self, tmp_path, capsys, argv):
        make_corpus(tmp_path / "in", 1)
        model = tmp_path / "model.json"
        gbdt.TrainedModel(trees=(), base_score=0.0, learning_rate=0.05,
                          feature_dim=3).save(model)
        cfg = write_config(tmp_path / "c.json", {
            "scorer": {"kind": "local", "model_path": str(model)}})
        paths = {"in": tmp_path / "in", "out": tmp_path / "out"}
        code = dispatch(["--config", cfg]
                        + [arg.format(**paths) for arg in argv])
        assert code == 2
        err = capsys.readouterr().err
        assert str(model) in err
        assert "3" in err and str(features.FEATURE_DIM) in err
        assert not (tmp_path / "out" / "campaigns.jsonl").exists()


TRAIN_GBDT = {"max_rounds": 5, "num_leaves": 4, "min_data_in_leaf": 2,
              "early_stop_rounds": 0}


def make_classes(root: Path, count: int) -> tuple:
    """A malicious corpus and, as the benign class, its padded copies."""
    malicious, benign = root / "mal", root / "ben"
    benign.mkdir(parents=True)
    for path in make_corpus(malicious, count):
        (benign / path.name).write_bytes(path.read_bytes()
                                         + bytes(range(256)) * 16)
    return malicious, benign


def run_train(tmp_path, malicious, benign, extra=None) -> int:
    config = {"rng_seed": 3, "gbdt": TRAIN_GBDT, **(extra or {})}
    cfg = write_config(tmp_path / "c.json", config)
    return dispatch(["--config", cfg, "train", "--malicious", str(malicious),
                     "--benign", str(benign), "--out", str(tmp_path / "out")])


class TestTrainCommand:
    def test_model_matches_gbdt_train_on_extracted_rows(self, tmp_path):
        malicious, benign = make_classes(tmp_path, 4)
        assert run_train(tmp_path, malicious, benign) == 0
        blocks = []
        out = tmp_path / "out"
        for name, src in (("malicious", malicious), ("benign", benign)):
            matrix, rows = features.batch_extract(
                src, tmp_path / f"{name}.f32", tmp_path / f"{name}.jsonl")
            assert (len(matrix), len(rows)) == (4, 4)
            assert not any("error" in r for r in rows)
            assert ((out / f"{name}.f32").read_bytes()
                    == (tmp_path / f"{name}.f32").read_bytes())
            blocks.append(matrix)
        model = gbdt.train(np.vstack(blocks), np.array([1] * 4 + [0] * 4),
                           gbdt.Hyperparams(**TRAIN_GBDT), rng_seed=3)
        assert model.trees and not model.degenerate
        model.save(tmp_path / "oracle.json")
        assert ((out / "model.json").read_bytes()
                == (tmp_path / "oracle.json").read_bytes())
        for name, src in (("malicious", malicious), ("benign", benign)):
            rows = read_jsonl(out / f"{name}.jsonl")
            assert [r["path"] for r in rows] == [str(p) for p in
                                                 sorted(src.iterdir())]

    def test_manifest_digests_both_directories(self, tmp_path):
        malicious, benign = make_classes(tmp_path, 4)
        assert run_train(tmp_path, malicious, benign) == 0
        manifest = json.loads(
            (tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["inputs"] == {
            "malicious": cli._describe_input(str(malicious)),
            "benign": cli._describe_input(str(benign))}
        assert (manifest["inputs"]["malicious"]["sha256"]
                != manifest["inputs"]["benign"]["sha256"])

    def test_unreadable_file_is_exit_1(self, tmp_path, capsys):
        malicious, benign = make_classes(tmp_path, 4)
        dangling_link(benign / "gone.bin")
        assert run_train(tmp_path, malicious, benign) == 1
        assert "gone.bin" in capsys.readouterr().err
        out = tmp_path / "out"
        assert gbdt.TrainedModel.load(out / "model.json").trees
        errors = [r for r in read_jsonl(out / "benign.jsonl") if "error" in r]
        assert [r["path"] for r in errors] == [str(benign / "gone.bin")]

    def test_error_row_is_validates_row(self, tmp_path):
        malicious, benign = make_classes(tmp_path, 4)
        dangling_link(benign / "gone.bin")
        assert run_train(tmp_path, malicious, benign) == 1
        assert dispatch(["validate", str(benign),
                         "--out", str(tmp_path / "reports")]) == 1
        [trained] = [r for r in read_jsonl(tmp_path / "out" / "benign.jsonl")
                     if "error" in r]
        [validated] = [r for r in read_jsonl(tmp_path / "reports"
                                             / "reports.jsonl")
                       if "error" in r]
        assert trained == validated

    def test_class_directory_without_readable_file_is_exit_2(self, tmp_path,
                                                             capsys):
        malicious, benign = make_classes(tmp_path, 4)
        empty, links = tmp_path / "empty", tmp_path / "links"
        empty.mkdir()
        links.mkdir()
        dangling_link(links / "gone.bin")
        assert run_train(tmp_path, malicious, empty) == 2
        assert run_train(tmp_path, links, benign) == 2
        assert run_train(tmp_path, malicious, tmp_path / "missing") == 2
        err = capsys.readouterr().err
        assert "no readable file" in err and "not a directory" in err
        assert not (tmp_path / "out" / "model.json").exists()

    def test_trained_model_drives_mutate(self, tmp_path):
        malicious, benign = make_classes(tmp_path, 4)
        model_path = tmp_path / "out" / "model.json"
        scorer = {"scorer": {"kind": "local", "model_path": str(model_path)}}
        assert run_train(tmp_path, malicious, benign, scorer) == 0
        out = tmp_path / "adv"
        assert dispatch(["--config", str(tmp_path / "c.json"), "mutate",
                         "--in", str(malicious), "--out", str(out),
                         "--max-steps", "8"]) == 0
        assert len(read_jsonl(out / "campaigns.jsonl")) == 4

    def test_mutate_parses_each_input_once(self, tmp_path, monkeypatch):
        """The campaign hands each candidate's image to the scorer, so
        ``extract`` never parses again, and that image gives the vector
        the bytes alone give."""
        malicious, benign = tmp_path / "mal", tmp_path / "ben"
        benign.mkdir()
        inputs = synth.write_corpus(malicious, 4, seed=11)
        for path in inputs:
            (benign / path.name).write_bytes(path.read_bytes()
                                             + bytes(range(256)) * 16)
        model_path = tmp_path / "out" / "model.json"
        # a cut below every score the model gives: each campaign runs all
        # its steps, and later candidates grow from an accepted image that
        # was serialized, never parsed
        scorer = {"scorer": {"kind": "local", "model_path": str(model_path),
                             "threshold": 0.01}}
        assert run_train(tmp_path, malicious, benign, scorer) == 0
        parsed, scored = [], []
        real_parse, real_extract = pe.parse, features.extract

        def counting_parse(data):
            parsed.append(len(data))
            return real_parse(data)

        def recording_extract(data, image=None):
            scored.append((data, image))
            return real_extract(data, image)

        monkeypatch.setattr(pe, "parse", counting_parse)
        monkeypatch.setattr(features, "extract", recording_extract)
        out = tmp_path / "adv"
        assert dispatch(["--config", str(tmp_path / "c.json"), "mutate",
                         "--in", str(malicious), "--out", str(out),
                         "--max-steps", "40"]) == 0
        monkeypatch.undo()
        assert len(parsed) == len(inputs)
        rows = read_jsonl(out / "campaigns.jsonl")
        assert [r["steps_used"] for r in rows] == [40] * len(inputs)
        assert all(r["plan"]["actions"] for r in rows)
        assert len(scored) > len(inputs)
        for data, image in scored:
            assert image is not None
            assert (real_extract(data, image).tobytes()
                    == real_extract(data).tobytes())


class TestValidate:
    def test_jsonl_to_stdout(self, tmp_path, capsys):
        make_corpus(tmp_path / "in", 3)
        assert dispatch(["validate", str(tmp_path / "in")]) == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.strip().splitlines()]
        assert len(rows) == 3
        assert all(r["is_valid_pe"] for r in rows)
        assert all(len(r["sha256"]) == 64 for r in rows)
        assert list(rows[0]) == ["path", "sha256", "file_size",
                                 "is_valid_pe", "reasons"]

    def test_invalid_pe_still_exit_zero(self, tmp_path, capsys):
        make_corpus(tmp_path / "in", 1)
        (tmp_path / "in" / "bad.bin").write_bytes(b"garbage")
        assert dispatch(["validate", str(tmp_path / "in")]) == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.strip().splitlines()]
        flags = {Path(r["path"]).name: r["is_valid_pe"] for r in rows}
        assert flags == {"s000.bin": True, "bad.bin": False}

    def test_dangling_link_is_an_error_row(self, tmp_path, capsys):
        make_corpus(tmp_path / "in", 2)
        dangling_link(tmp_path / "in" / "gone.bin")
        assert dispatch(["validate", str(tmp_path / "in")]) == 1
        rows = [json.loads(line)
                for line in capsys.readouterr().out.strip().splitlines()]
        assert [Path(r["path"]).name for r in rows] == [
            "gone.bin", "s000.bin", "s001.bin"]
        assert "error" in rows[0]
        assert all(r["is_valid_pe"] for r in rows[1:])

    def test_dangling_link_keeps_the_manifest(self, tmp_path):
        paths = make_corpus(tmp_path / "in", 1)
        dangling_link(tmp_path / "in" / "gone.bin")
        out = tmp_path / "out"
        assert dispatch(["validate", str(tmp_path / "in"),
                         "--out", str(out)]) == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        blob = (f"gone.bin unreadable\ns000.bin "
                f"{hashlib.sha256(paths[0].read_bytes()).hexdigest()}")
        assert manifest["inputs"]["input_dir"]["sha256"] == (
            hashlib.sha256(blob.encode()).hexdigest())

    def test_out_dir_gets_reports_and_manifest(self, tmp_path):
        make_corpus(tmp_path / "in", 2)
        out = tmp_path / "out"
        assert dispatch(["validate", str(tmp_path / "in"),
                         "--out", str(out)]) == 0
        assert (out / "reports.jsonl").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "validate"
        assert manifest["versions"]["advforge"]
        assert manifest["rng_seed"] == 0

    def test_manifest_records_parsed_argv_and_inputs(self, tmp_path,
                                                     monkeypatch):
        make_corpus(tmp_path / "in", 2)
        monkeypatch.setattr("sys.argv", ["host-program", "--unrelated"])
        argv = ["validate", str(tmp_path / "in"),
                "--out", str(tmp_path / "out")]
        assert dispatch(argv) == 0
        manifest = json.loads(
            (tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["argv"] == argv
        entry = manifest["inputs"]["input_dir"]
        assert entry["path"] == str(tmp_path / "in")
        assert len(entry["sha256"]) == 64

    def test_directory_digest_covers_file_contents(self, tmp_path):
        paths = make_corpus(tmp_path / "in", 2)
        digests = []
        for run in ("a", "b"):
            out = tmp_path / f"out_{run}"
            assert dispatch(["validate", str(tmp_path / "in"),
                             "--out", str(out)]) == 0
            manifest = json.loads((out / "run_manifest.json").read_text())
            digests.append(manifest["inputs"]["input_dir"]["sha256"])
            # same name, new bytes
            paths[0].write_bytes(paths[0].read_bytes() + b"!")
        assert digests[0] != digests[1]

    def test_input_dir_not_mutated(self, tmp_path):
        paths = make_corpus(tmp_path / "in", 2)
        before = {p.name: p.read_bytes() for p in paths}
        dispatch(["validate", str(tmp_path / "in"), "--out",
                  str(tmp_path / "out")])
        after = {p.name: p.read_bytes()
                 for p in (tmp_path / "in").iterdir()}
        assert after == before


class TestMutateAndScore:
    def test_score_writes_report(self, tmp_path):
        make_corpus(tmp_path / "in", 2)
        constant_model_file(tmp_path / "model.json", -2.0)
        cfg = write_config(tmp_path / "c.json", {
            "scorer": {"kind": "local",
                       "model_path": str(tmp_path / "model.json"),
                       "threshold": 0.5}})
        out = tmp_path / "out"
        code = dispatch(["--config", cfg, "score",
                         "--in", str(tmp_path / "in"), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "scores.json").read_text())
        assert len(report) == 2
        assert (out / "errors.jsonl").read_text() == ""
        for row in report.values():
            assert row["verdict"] is False
            assert row["score"] == pytest.approx(1 / (1 + np.exp(2.0)))

    def test_score_keeps_results_when_a_request_fails(self, tmp_path,
                                                      stub_server, capsys):
        make_corpus(tmp_path / "in", 2)
        cfg = write_config(tmp_path / "c.json", {
            "scorer": {"kind": "http", "endpoint": stub_server + "/boom"}})
        out = tmp_path / "out"
        code = dispatch(["--config", cfg, "score",
                         "--in", str(tmp_path / "in"), "--out", str(out)])
        assert code == 1
        assert json.loads((out / "scores.json").read_text()) == {}
        assert (out / "run_manifest.json").exists()
        rows = read_jsonl(out / "errors.jsonl")
        assert [Path(r["path"]).name for r in rows] == ["s000.bin", "s001.bin"]
        assert all(set(r) == {"path", "error"} for r in rows)
        assert capsys.readouterr().err.splitlines() == [
            f"forge: {r['path']}: {r['error']}" for r in rows]

    def test_mutate_dangling_link_is_an_error_row(self, tmp_path):
        make_corpus(tmp_path / "in", 2)
        dangling_link(tmp_path / "in" / "gone.bin")
        # a file that is not a PE fails its campaign and gets the same row
        (tmp_path / "in" / "junk.bin").write_bytes(b"not a pe at all")
        constant_model_file(tmp_path / "model.json", -2.0)
        cfg = write_config(tmp_path / "c.json", {
            "scorer": {"kind": "local",
                       "model_path": str(tmp_path / "model.json"),
                       "threshold": 0.5}})
        out = tmp_path / "out"
        assert dispatch(["--config", cfg, "mutate",
                         "--in", str(tmp_path / "in"),
                         "--out", str(out)]) == 1
        rows = read_jsonl(out / "campaigns.jsonl")
        assert [Path(r["path"]).name for r in rows] == [
            "gone.bin", "junk.bin", "s000.bin", "s001.bin"]
        assert all(set(r) == {"path", "error"} for r in rows[:2])
        assert all(r["evaded"] for r in rows[2:])

    def test_mutate_write_failure_costs_only_its_row(self, tmp_path):
        make_corpus(tmp_path / "in", 3)
        cfg = local_scorer_config(tmp_path)
        out = tmp_path / "out"
        # a directory squatting on one output name makes its write fail
        (out / "files" / "s001.bin").mkdir(parents=True)
        assert dispatch(["--config", cfg, "mutate",
                         "--in", str(tmp_path / "in"),
                         "--out", str(out)]) == 1
        rows = read_jsonl(out / "campaigns.jsonl")
        assert [Path(r["path"]).name for r in rows] == [
            "s000.bin", "s001.bin", "s002.bin"]
        assert set(rows[1]) == {"path", "error"}
        assert rows[0]["evaded"] and rows[2]["evaded"]
        assert (out / "files" / "s002.bin").is_file()
        assert (out / "run_manifest.json").exists()

    def test_mutate_pool_without_content_is_exit_2(self, tmp_path, capsys):
        make_corpus(tmp_path / "in", 1)
        (tmp_path / "pool").mkdir()
        (tmp_path / "pool" / "empty.bin").write_bytes(b"")
        cfg = local_scorer_config(tmp_path)
        assert dispatch(["--config", cfg, "mutate",
                         "--in", str(tmp_path / "in"),
                         "--out", str(tmp_path / "out"),
                         "--pool", str(tmp_path / "pool")]) == 2
        assert str(tmp_path / "pool") in capsys.readouterr().err

    def test_mutate_pool_that_is_a_file_is_exit_2(self, tmp_path, capsys):
        paths = make_corpus(tmp_path / "in", 1)
        cfg = local_scorer_config(tmp_path)
        assert dispatch(["--config", cfg, "mutate",
                         "--in", str(tmp_path / "in"),
                         "--out", str(tmp_path / "out"),
                         "--pool", str(paths[0])]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_mutate_pool_dangling_link_is_reported(self, tmp_path, capsys):
        make_corpus(tmp_path / "in", 1)
        make_corpus(tmp_path / "pool", 1)
        dangling_link(tmp_path / "pool" / "gone.bin")
        cfg = local_scorer_config(tmp_path)
        assert dispatch(["--config", cfg, "mutate",
                         "--in", str(tmp_path / "in"),
                         "--out", str(tmp_path / "out"),
                         "--pool", str(tmp_path / "pool")]) == 1
        assert "gone.bin" in capsys.readouterr().err
        # reported as the pool is read, before any campaign runs
        assert list((tmp_path / "out").iterdir()) == []

    def test_mutate_campaigns_deterministic(self, tmp_path):
        make_corpus(tmp_path / "in", 2)
        constant_model_file(tmp_path / "model.json", 2.0)
        cfg = write_config(tmp_path / "c.json", {
            "rng_seed": 5,
            "scorer": {"kind": "local",
                       "model_path": str(tmp_path / "model.json"),
                       "threshold": 0.5}})
        codes = []
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"out_{run}"
            codes.append(dispatch([
                "--config", cfg, "mutate", "--in", str(tmp_path / "in"),
                "--out", str(out), "--max-steps", "4"]))
            outputs.append((out / "campaigns.jsonl").read_text())
        assert codes == [0, 0]
        assert outputs[0] == outputs[1]
        rows = [json.loads(line)
                for line in outputs[0].strip().splitlines()]
        assert all(r["evaded"] is False for r in rows)
        assert all(r["steps_used"] == 4 for r in rows)

    def test_mutate_instant_evasion(self, tmp_path):
        paths = make_corpus(tmp_path / "in", 2)
        constant_model_file(tmp_path / "model.json", -2.0)
        cfg = write_config(tmp_path / "c.json", {
            "scorer": {"kind": "local",
                       "model_path": str(tmp_path / "model.json"),
                       "threshold": 0.5}})
        out = tmp_path / "out"
        assert dispatch(["--config", cfg, "mutate",
                         "--in", str(tmp_path / "in"),
                         "--out", str(out)]) == 0
        rows = [json.loads(line) for line in
                (out / "campaigns.jsonl").read_text().strip().splitlines()]
        assert all(r["evaded"] for r in rows)
        for p in paths:
            assert (out / "files" / p.name).exists()

    def test_mutate_stops_at_scorer_threshold(self, tmp_path):
        make_corpus(tmp_path / "in", 1)
        constant_model_file(tmp_path / "model.json", 2.0)  # scores 0.881
        cfg = write_config(tmp_path / "c.json", {
            "scorer": {"kind": "local",
                       "model_path": str(tmp_path / "model.json"),
                       "threshold": 0.95}})
        out = tmp_path / "out"
        argv = ["--config", cfg, "mutate", "--in", str(tmp_path / "in"),
                "--out", str(out)]
        assert dispatch(argv) == 0
        row = json.loads((out / "campaigns.jsonl").read_text())
        assert row["evaded"] is True
        assert row["steps_used"] == 0
        # the scorer section is the only threshold a campaign takes
        assert dispatch(argv + ["--threshold", "0.5"]) == 2


class TestHarnessCommand:
    def test_run_end_to_end(self, tmp_path, capsys):
        make_corpus(tmp_path / "in", 4)
        worker = tmp_path / "worker.py"
        worker.write_text(textwrap.dedent("""\
            import hashlib, pathlib, sys
            inp, out, log = (pathlib.Path(a) for a in sys.argv[1:4])
            with open(log, "a") as lg:
                for f in sorted(inp.iterdir()):
                    data = f.read_bytes()
                    sha = hashlib.sha256(data).hexdigest()
                    (out / (sha + ".bin")).write_bytes(data + b"!")
                    print("ok", f.name, file=lg, flush=True)
            """))
        cfg = write_config(tmp_path / "c.json", {"harness": {
            "worker_command":
                f"python3 {worker} {{input_dir}} {{output_dir}} {{log_file}}",
            "chunk_count": 2, "stale_window": 5.0, "max_parallel": 2}})
        out = tmp_path / "out"
        code = dispatch(["--config", cfg, "harness", "run",
                         "--input", str(tmp_path / "in"), "--out", str(out)])
        assert code == 0
        merged = [p.name for p in (out / "merged").iterdir()
                  if p.name != "provenance.json"]
        assert len(merged) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["chunk_states"].values()) == {"done"}
        assert (out / "chunks.json").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "harness run"

    def test_rerun_starts_from_empty_directories(self, tmp_path, capsys):
        # B reuses two of A's three names with other bytes
        make_corpus(tmp_path / "a", 3)
        before = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
        second = {f"s{i:03d}.bin": build_pe([(b".text", bytes([90 + i]) * 700,
                                              0x60000020)])
                  for i in range(2)}
        (tmp_path / "b").mkdir()
        for name, data in second.items():
            (tmp_path / "b" / name).write_bytes(data)
        cfg = write_config(tmp_path / "c.json", {"harness": {
            "worker_command": "cp {input_dir}/* {output_dir}/ && "
                              "echo ok >> {log_file}",
            "chunk_count": 2, "stale_window": 5.0, "max_parallel": 2}})
        out = tmp_path / "out"
        # A then B into one --out, then the same B command again
        for corpus in ("a", "b", "b"):
            assert dispatch(["--config", cfg, "harness", "run",
                             "--input", str(tmp_path / corpus),
                             "--out", str(out)]) == 0
            after = {p.name: p.read_bytes()
                     for p in (tmp_path / "a").iterdir()}
            assert after == before
        merged = {p.name: p.read_bytes() for p in (out / "merged").iterdir()
                  if p.name != "provenance.json"}
        assert merged == second
        provenance = json.loads((out / "merged" / "provenance.json")
                                .read_text())
        assert set(provenance) == set(second)


class TestVerdictsCommand:
    def test_submit_poll_with_factory_service(self, tmp_path, capsys):
        make_corpus(tmp_path / "in", 2)
        state_path = tmp_path / "quota.json"
        cfg = write_config(tmp_path / "c.json", {"quota": {
            "daily_limit": 10, "state_path": str(state_path),
            "service": "cli_service:make_service", "poll_interval": 0.01}})
        code = dispatch(["--config", cfg, "verdicts",
                         "--in", str(tmp_path / "in")])
        assert code == 0
        echoed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert echoed == {"used_today": 2, "pending": 0, "completed": 2}
        state = json.loads(state_path.read_text())
        assert state["used_today"] == 2
        assert len(state["completed"]) == 2

    def test_dangling_link_stops_with_exit_1(self, tmp_path, capsys):
        make_corpus(tmp_path / "in", 2)
        dangling_link(tmp_path / "in" / "gone.bin")
        cfg = write_config(tmp_path / "c.json", {"quota": {
            "daily_limit": 10, "state_path": str(tmp_path / "quota.json"),
            "service": "cli_service:make_service", "poll_interval": 0.01}})
        assert dispatch(["--config", cfg, "verdicts",
                         "--in", str(tmp_path / "in")]) == 1
        assert "gone.bin" in capsys.readouterr().err

    @pytest.mark.parametrize("state", [
        "{not json",
        json.dumps({"v": 1, "day": "2026-01-01", "used_today": 0,
                    "daily_limit": 5, "pending": [],
                    "completed": {"ab": {"sha256": "ab", "fetched_at": 1.0,
                                         "engines": {"e": 1},
                                         "total_engines": 1, "detections": 1,
                                         "top_group_detections": 0}}}),
        json.dumps({"v": 1, "day": "2026-01-01", "used_today": 0,
                    "daily_limit": 5, "pending": [], "completed": {}})
        + '\n{"used_today":1\n{"used_today":2}\n'],
        ids=["not-json", "engine-entry-not-object", "bad-journal-line"])
    def test_corrupt_state_file_exits_1_naming_it(self, tmp_path, capsys,
                                                   state):
        make_corpus(tmp_path / "in", 1)
        state_path = tmp_path / "quota.json"
        state_path.write_text(state)
        cfg = write_config(tmp_path / "c.json", {"quota": {
            "daily_limit": 5, "state_path": str(state_path),
            "service": "cli_service:make_service", "poll_interval": 0.01}})
        assert dispatch(["--config", cfg, "verdicts",
                         "--in", str(tmp_path / "in")]) == 1
        assert str(state_path) in capsys.readouterr().err

    @staticmethod
    def run_verdicts(tmp_path, input_dir, daily_limit):
        cfg = write_config(tmp_path / "c.json", {"quota": {
            "daily_limit": daily_limit,
            "state_path": str(tmp_path / "quota.json"),
            "service": "cli_service:make_service", "poll_interval": 0.01}})
        assert dispatch(["--config", cfg, "verdicts",
                         "--in", str(input_dir)]) == 0
        return json.loads((tmp_path / "quota.json").read_text())

    def test_lowered_limit_stops_submissions_today(self, tmp_path):
        make_corpus(tmp_path / "first", 3)
        self.run_verdicts(tmp_path, tmp_path / "first", 10)
        second = tmp_path / "second"
        second.mkdir()
        for i in range(4):
            (second / f"n{i}.bin").write_bytes(
                build_pe([(b".text", bytes([90 + i]) * 700, 0x60000020)]))
        state = self.run_verdicts(tmp_path, second, 1)
        assert (state["used_today"], state["daily_limit"]) == (3, 1)
        assert len(state["completed"]) == 3

    def test_raised_limit_allows_the_difference(self, tmp_path):
        make_corpus(tmp_path / "in", 4)
        state = self.run_verdicts(tmp_path, tmp_path / "in", 1)
        assert (state["used_today"], state["daily_limit"]) == (1, 1)
        state = self.run_verdicts(tmp_path, tmp_path / "in", 3)
        assert (state["used_today"], state["daily_limit"]) == (3, 3)
        assert len(state["completed"]) == 3

    def test_state_is_read_under_the_lock(self, tmp_path, monkeypatch):
        """A run that finishes the sample just before this one takes the
        lock is seen: nothing is resubmitted and its count stays."""
        (sample,) = make_corpus(tmp_path / "in", 1)
        sha = hashlib.sha256(sample.read_bytes()).hexdigest()
        state_path = tmp_path / "quota.json"
        other = scoring.QuotaState.new(5)
        other.used_today = 2
        other.completed[sha] = scoring.MultiEngineReport.from_engines(
            sha, time.time(), {"alpha": {"detected": True}})
        real_lock = scoring._state_lock

        @contextmanager
        def racing_lock(lock_path):
            other.save(state_path)
            with real_lock(lock_path):
                yield

        service = cli_service.InstantService()
        monkeypatch.setattr(cli_service, "make_service", lambda: service)
        monkeypatch.setattr(scoring, "_state_lock", racing_lock)
        state = self.run_verdicts(tmp_path, tmp_path / "in", 5)
        assert service.submitted == {}
        assert state["used_today"] == 2
        assert list(state["completed"]) == [sha]

    def test_missing_service_is_exit_2(self, tmp_path, capsys):
        make_corpus(tmp_path / "in", 1)
        cfg = write_config(tmp_path / "c.json", {"quota": {
            "daily_limit": 5, "state_path": str(tmp_path / "q.json")}})
        assert dispatch(["--config", cfg, "verdicts",
                         "--in", str(tmp_path / "in")]) == 2


class TestSelectCommand:
    @staticmethod
    def fixture_rows(tmp_path):
        adv_dir = tmp_path / "adv"
        adv_dir.mkdir()
        sources = [{"sha256": f"{i:064x}", "label_scheme": "family",
                    "label_value": "zeus"} for i in (1, 2)]
        candidates = []
        for i, scores in [(1, [0.95, 0.30]), (2, [0.20, 0.50])]:
            for j, score in enumerate(scores):
                name = f"gen{'AB'[j]}"
                blob = build_pe([(b".text",
                                  bytes([i * 16 + j]) * 600, 0x60000020)])
                path = adv_dir / f"adv_{i}_{j}.bin"
                path.write_bytes(blob)
                candidates.append({
                    "generator": name, "ember_score": score,
                    "orig_size": 1000,
                    "modified_size": [1200, 3000][j] if i == 1
                                     else [2000, 1100][j],
                    "path": str(path),
                    "sha256_adv": f"{i * 100 + j:064x}",
                    "sha256_orig": f"{i:064x}"})
        return sources, candidates

    def test_end_to_end_matches_module_oracle(self, tmp_path, capsys):
        sources, candidates = self.fixture_rows(tmp_path)
        src_file = tmp_path / "sources.jsonl"
        cand_file = tmp_path / "cands.jsonl"
        src_file.write_text("\n".join(json.dumps(r) for r in sources))
        cand_file.write_text("\n".join(json.dumps(r) for r in candidates))

        out_cli = tmp_path / "out_cli"
        code = dispatch(["select", "--sources", str(src_file),
                         "--candidates", str(cand_file),
                         "--out", str(out_cli)])
        assert code == 0

        out_mod = tmp_path / "out_mod"
        selector.assemble_dataset(
            [selector.SourceSample(**r) for r in sources],
            [selector.CandidateRecord.from_dict(r) for r in candidates],
            out_mod)

        cli_meta = (out_cli / "metadata.jsonl").read_text()
        mod_meta = (out_mod / "metadata.jsonl").read_text()
        assert cli_meta == mod_meta

        rows = [json.loads(line) for line in cli_meta.strip().splitlines()]
        for row in rows:
            pool = [c for c in candidates
                    if c["sha256_orig"] == row["sha256_orig"]]
            assert row["generator"] == alg1_reference(pool)

    def test_select_and_stats_cut_is_scorer_threshold(self, tmp_path,
                                                      capsys):
        sources, candidates = self.fixture_rows(tmp_path)
        # source 1 now has only scores between 0.871 and 0.99
        candidates[1]["ember_score"] = 0.90
        src_file = tmp_path / "sources.jsonl"
        cand_file = tmp_path / "cands.jsonl"
        src_file.write_text("\n".join(json.dumps(r) for r in sources))
        cand_file.write_text("\n".join(json.dumps(r) for r in candidates))
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("\n".join(json.dumps(
            {"orig_verdict_malicious": True, "adv_score": score})
            for score in (0.5, 0.95)))
        cfg = write_config(tmp_path / "c.json", {"scorer": {"threshold": 0.99}})
        out = tmp_path / "out"

        assert dispatch(["--config", cfg, "select", "--sources", str(src_file),
                         "--candidates", str(cand_file),
                         "--out", str(out / "dataset")]) == 0
        summary = json.loads((out / "dataset" / "summary.json").read_text())
        assert summary["evasive_count"] == 2  # 1 at 0.871
        rows = [json.loads(line) for line in
                (out / "dataset" / "metadata.jsonl").read_text().splitlines()]
        assert [r["ember_score_adv"] for r in rows] == [0.95, 0.50]

        assert dispatch(["--config", cfg, "stats", "--pairs", str(pairs),
                         "--out", str(out / "stats")]) == 0
        stats = json.loads((out / "stats" / "stats.json").read_text())
        assert stats["evasion_rate"] == 1.0  # 0.5 at 0.871

        old = write_config(tmp_path / "old.json",
                           {"selection": {"ember_threshold": 0.99}})
        capsys.readouterr()
        assert dispatch(["--config", old, "select", "--sources",
                         str(src_file), "--candidates", str(cand_file),
                         "--out", str(out / "old")]) == 2
        assert "selection" in capsys.readouterr().err

    def test_candidate_scores_reach_metadata(self, tmp_path, capsys):
        sources, candidates = self.fixture_rows(tmp_path)
        for i, row in enumerate(candidates):
            row["ember2024_score"] = i / 10
            row["engine_detections"] = {"engineA": {"detected": i % 2 == 0}}
        src_file = tmp_path / "sources.jsonl"
        cand_file = tmp_path / "cands.jsonl"
        src_file.write_text("\n".join(json.dumps(r) for r in sources))
        cand_file.write_text("\n".join(json.dumps(r) for r in candidates))
        out = tmp_path / "out"
        assert dispatch(["select", "--sources", str(src_file),
                         "--candidates", str(cand_file),
                         "--out", str(out)]) == 0
        by_adv = {c["sha256_adv"]: c for c in candidates}
        rows = [json.loads(line) for line in
                (out / "metadata.jsonl").read_text().splitlines()]
        assert len(rows) == 2
        for row in rows:
            winner = by_adv[row["sha256_adv"]]
            assert row["ember2024_score_adv"] == winner["ember2024_score"]
            assert row["engine_detections_adv"] == winner["engine_detections"]

    @pytest.mark.parametrize("side", ["sources", "candidates"])
    def test_malformed_engine_map_exit_2(self, tmp_path, capsys, side):
        # stats reads these maps as {engine: {"detected": bool, ...}}; a
        # bare verdict is refused here, not one step later in stats
        sources, candidates = self.fixture_rows(tmp_path)
        rows = {"sources": sources, "candidates": candidates}[side]
        rows[0]["engine_detections"] = {"engineA": True}
        src_file = tmp_path / "sources.jsonl"
        cand_file = tmp_path / "cands.jsonl"
        src_file.write_text("\n".join(json.dumps(r) for r in sources))
        cand_file.write_text("\n".join(json.dumps(r) for r in candidates))
        out = tmp_path / "out"
        assert dispatch(["select", "--sources", str(src_file),
                         "--candidates", str(cand_file),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad selection input: engine_detections" in err
        assert "'engineA'" in err
        assert not (out / "metadata.jsonl").exists()

    def test_malformed_rows_exit_2(self, tmp_path, capsys):
        src_file = tmp_path / "sources.jsonl"
        src_file.write_text(json.dumps({"sha256": "xx",
                                        "label_scheme": "galaxy",
                                        "label_value": "m31"}))
        cand_file = tmp_path / "cands.jsonl"
        cand_file.write_text("")
        assert dispatch(["select", "--sources", str(src_file),
                         "--candidates", str(cand_file),
                         "--out", str(tmp_path / "out")]) == 2


    def test_unknown_candidate_column_exit_2(self, tmp_path, capsys):
        sources, candidates = self.fixture_rows(tmp_path)
        candidates[0]["ember_score_v2"] = 0.5
        src_file = tmp_path / "sources.jsonl"
        cand_file = tmp_path / "cands.jsonl"
        src_file.write_text("\n".join(json.dumps(r) for r in sources))
        cand_file.write_text("\n".join(json.dumps(r) for r in candidates))
        assert dispatch(["select", "--sources", str(src_file),
                         "--candidates", str(cand_file),
                         "--out", str(tmp_path / "out")]) == 2
        assert "ember_score_v2" in capsys.readouterr().err


class TestStatsCommand:
    def test_writes_summary_and_csvs(self, tmp_path, capsys):
        rows = []
        for i in range(40):
            rows.append({"orig_verdict_malicious": True,
                         "adv_score": 0.1 if i < 30 else 0.95,
                         "orig_score": 0.9, "generator": "g1",
                         "orig_size": 1000, "modified_size": 1200})
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("\n".join(json.dumps(r) for r in rows))
        out = tmp_path / "out"
        code = dispatch(["stats", "--pairs", str(pairs), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "stats.json").read_text())
        assert summary["evasion_rate"] == pytest.approx(0.75)
        assert (out / "score_drops.csv").exists()
        assert (out / "size_ratios.csv").exists()
        assert "detection_drops" not in summary
        assert not (out / "engine_drops.csv").exists()
        # the cut is scorer.threshold, as for every subcommand
        assert dispatch(["stats", "--pairs", str(pairs), "--out", str(out),
                         "--threshold", "0.871"]) == 2

    def test_engine_drops_from_three_engine_hand_fixture(self, tmp_path):
        def row(orig, adv):
            return {f"engine_detections_{side}":
                    {name: {"detected": hit} for name, hit in zip("abc", hits)}
                    for side, hits in (("orig", orig), ("adv", adv))}

        # Pair 1: 3/3 -> 1/3 detected.  Pair 2: 2/3 -> 2/3.  A row whose
        # maps are null, as select writes them when absent, is left out.
        rows = [row((True, True, True), (True, False, False)),
                row((True, True, False), (False, True, True)),
                {"engine_detections_orig": None,
                 "engine_detections_adv": None}]
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("\n".join(json.dumps(r) for r in rows))
        out = tmp_path / "out"
        assert dispatch(["stats", "--pairs", str(pairs),
                         "--out", str(out)]) == 0
        assert (out / "engine_drops.csv").read_text().splitlines() == [
            "engine,pairs,orig_rate,adv_rate,drop",
            "a,2,1.000000,0.500000,0.500000",
            "b,2,1.000000,0.500000,0.500000",
            "c,2,0.500000,0.500000,0.000000"]
        summary = json.loads((out / "stats.json").read_text())
        assert summary["pairs"] == 3
        # Per-pair drops (1 - 1/3) and (2/3 - 2/3); rank-interpolated median.
        low, high = sorted([1 - 1 / 3, 0.0])
        assert summary["detection_drops"]["count"] == 2
        assert summary["detection_drops"]["median"] == (
            low + (high - low) * 0.5)

    @pytest.mark.parametrize("row", [
        {"orig_score": 2.0, "adv_score": 0.1},
        {"engine_detections_orig": {"a": True},
         "engine_detections_adv": {"a": False}},
        {"orig_verdict_malicious": "false", "adv_score": 0.1},
        {"orig_verdict_malicious": True, "adv_score": 5.0},
        {"orig_verdict_malicious": True, "adv_score": True}])
    def test_malformed_rows_exit_2(self, tmp_path, capsys, row):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps(row))
        assert dispatch(["stats", "--pairs", str(pairs),
                         "--out", str(tmp_path / "out")]) == 2
        assert "bad stats input" in capsys.readouterr().err

    def test_non_json_line_exits_2(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"orig_score": 0.9, "adv_score": 0.1})
                         + "\n{not json\n")
        assert dispatch(["stats", "--pairs", str(pairs),
                         "--out", str(tmp_path / "out")]) == 2
        assert "bad stats input" in capsys.readouterr().err

    def test_empty_pairs_exit_2(self, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("")
        assert dispatch(["stats", "--pairs", str(pairs),
                         "--out", str(tmp_path / "out")]) == 2


class TestPoisonCommands:
    @staticmethod
    def bundle(tmp_path, rng) -> str:
        dim = 8
        n = 120
        benign = rng.normal(0.0, 0.4, size=(n, dim))
        malicious = rng.normal(3.0, 0.4, size=(n, dim))
        train_x = np.vstack([benign, malicious]).astype(np.float32)
        train_y = np.array([0] * n + [1] * n, dtype=np.int8)
        adv = rng.normal(0.0, 0.4, size=(60, dim)).astype(np.float32)
        path = tmp_path / "bundle.npz"
        np.savez(path, train_x=train_x, train_y=train_y,
                 test_x=train_x, test_y=train_y,
                 adv_pool=adv, adv_test=adv)
        return str(path)

    def test_small_grid_runs(self, tmp_path, rng, capsys):
        data = self.bundle(tmp_path, rng)
        cfg = write_config(tmp_path / "c.json", {
            "rng_seed": 3,
            "gbdt": {"max_rounds": 5, "num_leaves": 4,
                     "min_data_in_leaf": 10, "early_stop_rounds": 0}})
        out = tmp_path / "out"
        code = dispatch(["--config", cfg, "poison", "run",
                         "--data", data, "--out", str(out),
                         "--grid", "small"])
        assert code == 0
        echoed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert echoed == {"cells": 6, "failures": 0}
        heat = (out / "evasion_heatmap.csv").read_text().splitlines()
        assert len(heat) == 4  # header + 3 tau rows
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "poison run"
        assert manifest["inputs"]["data"]["path"] == data

    def test_missing_bundle_key_exit_2(self, tmp_path, rng):
        path = tmp_path / "partial.npz"
        np.savez(path, train_x=np.zeros((4, 2), dtype=np.float32))
        assert dispatch(["poison", "run", "--data", str(path),
                         "--out", str(tmp_path / "out")]) == 2

    def test_cross_eval(self, tmp_path, rng, capsys):
        data = self.bundle(tmp_path, rng)
        bundle = np.load(data)
        hp = gbdt.Hyperparams(max_rounds=5, num_leaves=4,
                              min_data_in_leaf=10, early_stop_rounds=0)
        model = gbdt.train(bundle["train_x"], bundle["train_y"], hp)
        model_path = tmp_path / "model.json"
        model.save(model_path)
        code = dispatch(["poison", "cross-eval", "--model", str(model_path),
                         "--data", data])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["f1"] == pytest.approx(1.0)
