"""Smoke test: the demo is one forge session that runs end to end."""

import json
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_demo_step_exits_zero_and_writes_its_manifest(tmp_path,
                                                            capsys):
    demo = runpy.run_path(str(ROOT / "scripts" / "demo_pipeline.py"))
    work = tmp_path / "demo"
    # main stops with SystemExit as soon as one forge step exits non-zero
    demo["main"]([str(work), "--count", "6"])
    commands = {path.parent.name: json.loads(path.read_text())["command"]
                for path in work.glob("*/run_manifest.json")}
    assert commands == {"reports": "validate", "model": "train",
                        "scores": "score", "adv": "mutate",
                        "dataset": "select", "stats": "stats",
                        "grid": "poison run"}
    assert "done in" in capsys.readouterr().out
