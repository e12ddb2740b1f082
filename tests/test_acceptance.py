"""Acceptance suite: every pipeline-level guarantee, one verdict line each.

Each test prints a single [PASS]/[FAIL] line naming the guarantee and the
measured values, then asserts it.  Heavier fixtures (the full poisoning
grid) are built once at module scope and shared.
"""

import json
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from advforge import analytics, gbdt, harness, mutator, pe, poisonlab
from advforge import scoring, selector
from advforge.gbdt import Hyperparams
from advforge.mutator import CampaignConfig, ContentPool, MutationAction

from alg1_oracle import alg1_reference
from pe_oracle import build_pe
from test_mutator import _nonzero_fraction
from test_scoring import (FakeClock, ScriptedService, SimulatedCrash,
                          make_config, sha_of, write_samples)
from test_selector import random_candidate_set


@pytest.fixture()
def verdict(capsys):
    def emit(name: str, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
        with capsys.disabled():
            print(line)
        assert ok, line
    return emit


def test_selection_oracle_equivalence(verdict):
    rng = np.random.default_rng(13_731)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(10_000):
        cands = random_candidate_set(rng)
        ordered = sorted(cands, key=lambda r: r.generator)
        expected = alg1_reference([r.to_dict() for r in ordered])
        rec = selector.pick_best_record(cands)
        if (rec.generator if rec else None) != expected:
            mismatches += 1
    elapsed = time.perf_counter() - started
    verdict("selection-oracle-equivalence",
            mismatches == 0 and elapsed < 60.0,
            f"10000 random sets, {mismatches} mismatches, {elapsed:.1f}s")


def test_derived_reference_values(verdict):
    def rate(evaded, detected):
        pairs = [{"orig_verdict_malicious": True, "adv_score": 0.0}
                 for _ in range(evaded)]
        pairs += [{"orig_verdict_malicious": True, "adv_score": 0.99}
                  for _ in range(detected - evaded)]
        return analytics.evasion_rate(pairs, 0.871)

    r1 = rate(18_441, 18_750)
    r2 = rate(23_239, 25_204)
    f1a = gbdt.f1_score(0.9922, 0.9999)
    f1b = gbdt.f1_score(0.2753, 0.9995)
    f1c = gbdt.f1_score(0.8771, 0.9950)
    ok = (abs(r1 - 0.9835) <= 1e-4 and abs(r2 - 0.9220) <= 1e-4
          and abs(f1a - 0.9960) <= 5e-4 and abs(f1b - 0.4317) <= 5e-4
          and abs(f1c - 0.9323) <= 5e-4)
    verdict("derived-reference-values", ok,
            f"evasion {r1:.4f}/{r2:.4f}, f1 {f1a:.4f}/{f1b:.4f}/{f1c:.4f}")


def test_pe_round_trip_and_action_integrity(verdict, corpus_files):
    exact = 0
    for path in corpus_files:
        data = path.read_bytes()
        if pe.serialize(pe.parse(data)) == data:
            exact += 1

    rich = build_pe(cert=(0x4000, 0x200), debug=(0x2000, 0x54),
                    checksum=0xDEADBEEF)
    actions = [
        MutationAction("overlay_append", content_len=64),
        MutationAction("section_add", content_len=256, name=".newsec"),
        MutationAction("section_rename", name=".rnmd", index=0),
        MutationAction("checksum_zero"),
        MutationAction("cert_wipe"),
        MutationAction("debug_wipe"),
        MutationAction("timestamp_adjust", delta=1234),
        MutationAction("dos_stub_extend", content_len=32),
    ]
    revalidated = 0
    for action in actions:
        out = pe.serialize(mutator.apply_action(pe.parse(rich), action, 3))
        if pe.validate(out).is_valid_pe:
            revalidated += 1

    zeroed = pe.serialize(
        mutator.apply_action(pe.parse(rich), MutationAction("checksum_zero"), 0))
    a = np.frombuffer(rich, dtype=np.uint8)
    b = np.frombuffer(zeroed, dtype=np.uint8)
    diff = np.flatnonzero(a != b) if a.size == b.size else np.arange(5)
    confined = (len(zeroed) == len(rich) and 1 <= diff.size <= 4
                and int(diff.max() - diff.min()) <= 3)

    ok = (exact == len(corpus_files) and len(corpus_files) >= 50
          and revalidated == len(actions) and confined)
    verdict("pe-round-trip-and-actions", ok,
            f"{exact}/{len(corpus_files)} byte-exact, "
            f"{revalidated}/{len(actions)} action kinds revalidate, "
            f"checksum diff {diff.size} bytes")


def test_campaign_efficacy(verdict):
    pool = ContentPool([b"\x00" * 8192])
    evaded = 0
    monotone = 0
    for i in range(100):
        data = build_pe([(b".text", b"\xcc" * (512 + 8 * i), 0x60000020)])
        config = CampaignConfig(max_steps=200, score_threshold=0.5,
                                rng_seed=1000 + i)
        result = mutator.run_campaign(data, _nonzero_fraction, config, pool)
        evaded += int(result.evaded)
        scores = [s for _, s in result.score_trace]
        if all(b < a for a, b in zip(scores, scores[1:])):
            monotone += 1
    verdict("campaign-efficacy", evaded >= 90 and monotone == 100,
            f"{evaded}/100 evaded within 200 steps, "
            f"{monotone}/100 strictly decreasing traces")


def test_harness_fault_policy(verdict, tmp_path):
    window = 2.0
    for i in range(6):
        blob = build_pe([(b".text", bytes([50 + i]) * 600, 0x60000020)])
        (tmp_path / "in").mkdir(exist_ok=True)
        (tmp_path / "in" / f"s{i:02d}.bin").write_bytes(blob)
    (tmp_path / "in" / "a_hang.bin").write_bytes(
        build_pe([(b".text", b"\xEE" * 600, 0x60000020)]))

    script = tmp_path / "worker.py"
    script.write_text(textwrap.dedent("""\
        import hashlib, pathlib, sys, time
        inp, out, log = (pathlib.Path(a) for a in sys.argv[1:4])
        handle = open(log, "a")
        for f in sorted(inp.iterdir()):
            if "hang" in f.name:
                time.sleep(600)
            data = f.read_bytes()
            sha = hashlib.sha256(data).hexdigest()
            (out / (sha + ".bin")).write_bytes(data + b"ADV!")
            print("did", f.name, file=handle, flush=True)
        """))
    config = harness.HarnessConfig(
        worker_command=f"python3 {script} {{input_dir}} {{output_dir}}"
                       " {log_file}",
        chunk_count=4, stale_window=window, max_restarts=1, max_parallel=4)
    manifest = harness.split_dataset(tmp_path / "in", 4)
    hung = [cid for cid, files in manifest.chunks
            if any("hang" in Path(f).name for f in files)]

    started = time.monotonic()
    summary = harness.run(config, manifest, tmp_path / "work")
    elapsed = time.monotonic() - started

    mine = [e for e in summary.events if e["chunk_id"] == hung[0]]
    kinds = [e["event"] for e in mine]
    launches = [e["ts"] for e in mine if e["event"] == "launch"]
    kills = [e["ts"] for e in mine if e["event"] == "stale-kill"]
    poll = window / 10.0
    timing_ok = len(kills) == 2 and all(
        window - 1e-6 <= k - s <= window + 2 * poll + 1.0
        for s, k in zip(launches, kills))

    index = harness.merge_outputs(manifest, summary, tmp_path / "work",
                                  tmp_path / "merged")
    done = [c for c, s in summary.chunk_states.items() if s == "done"]
    merged_ok = ({r["chunk_id"] for r in index.values()} == set(done)
                 and hung[0] not in {r["chunk_id"] for r in index.values()})

    ok = (len(hung) == 1
          and summary.chunk_states[hung[0]] == "discarded"
          and summary.restarts[hung[0]] == 1
          and kinds == ["launch", "stale-kill", "restart", "launch",
                        "stale-kill", "discard"]
          and timing_ok and merged_ok
          and all(summary.chunk_states[c] == "done"
                  for c, _ in manifest.chunks if c != hung[0])
          and elapsed < 30.0)
    verdict("harness-fault-policy", ok,
            f"stale kills at {kills[0]-launches[0]:.1f}s/"
            f"{kills[1]-launches[1]:.1f}s, 1 restart then discard, "
            f"total {elapsed:.1f}s")


def test_degenerate_rejection(verdict, tmp_path):
    adv_dir = tmp_path / "adv"
    adv_dir.mkdir()

    def blob(tag: int) -> bytes:
        return build_pe([(b".text", bytes([tag]) * 700, 0x60000020)])

    def write(name: str, data: bytes) -> str:
        p = adv_dir / name
        p.write_bytes(data)
        return str(p)

    sources = [selector.SourceSample(sha256=f"{i:064x}",
                                     label_scheme="family",
                                     label_value="zeus")
               for i in (1, 2, 3)]
    collapse_blob = blob(9)
    collapse_path = write("collapse.bin", collapse_blob)
    candidates = []
    # one generator emits byte-identical output for two distinct sources
    for i in (1, 2):
        candidates.append(selector.CandidateRecord(
            generator="genCollapse", ember_score=0.01, orig_size=1000,
            modified_size=1100, path=collapse_path,
            sha256_adv="c" * 64, sha256_orig=f"{i:064x}"))
    # another returns its input byte-for-byte
    candidates.append(selector.CandidateRecord(
        generator="genNoop", ember_score=0.02, orig_size=1000,
        modified_size=1000, path=write("noop.bin", blob(10)),
        sha256_adv=f"{3:064x}", sha256_orig=f"{3:064x}"))
    # and an honest generator covers every source
    for i in (1, 2, 3):
        candidates.append(selector.CandidateRecord(
            generator="genGood", ember_score=0.30, orig_size=1000,
            modified_size=1200, path=write(f"good{i}.bin", blob(20 + i)),
            sha256_adv=f"{i + 500:064x}", sha256_orig=f"{i:064x}"))

    summary = selector.assemble_dataset(sources, candidates,
                                        tmp_path / "out")
    rows = [json.loads(line) for line in
            (tmp_path / "out" / "metadata.jsonl").read_text().splitlines()]
    degenerate_rows = [r for r in rows
                       if r["generator"] in ("genCollapse", "genNoop")
                       or r["sha256_adv"] == r["sha256_orig"]]
    # genCollapse scored better than genGood for sources 1-2, and genNoop
    # for source 3: only rejection explains genGood winning all three.
    ok = (len(degenerate_rows) == 0 and len(rows) == 3
          and all(r["generator"] == "genGood" for r in rows)
          and summary["pathological_count"] == 2)
    verdict("degenerate-rejection", ok,
            f"3 degenerate candidate records "
            f"({summary['pathological_count']} log entries) filtered, "
            f"{len(degenerate_rows)} in final metadata")


def test_quota_client_three_day_audit(verdict, tmp_path):
    clock = FakeClock()
    files = write_samples(tmp_path, 6)
    all_shas = {sha_of(p) for p in files}
    state_path = tmp_path / "state.json"
    limit = 3
    service = ScriptedService(crash_on_submit=3)
    state = scoring.QuotaState.new(daily_limit=limit, now=clock())
    state.save(state_path)

    day_counts = []
    client, _ = make_config(service, state_path, clock, limit)
    with pytest.raises(SimulatedCrash):
        client(files)
    state = scoring.QuotaState.load(state_path)
    survived_kill = state.used_today == 2 and len(state.pending) == 2

    service.crash_on_submit = None
    state = client(files)
    day_counts.append(len(service.submit_calls))
    for _ in range(2):
        clock.advance_days(1)
        state = client(files)
        day_counts.append(len(service.submit_calls))

    per_day = [day_counts[0]] + [b - a for a, b in zip(day_counts,
                                                       day_counts[1:])]
    ok = (survived_kill
          and all(c <= limit for c in per_day)
          and set(state.completed) == all_shas
          and sorted(service.submit_calls) == sorted(all_shas)
          and len(service.submit_calls) == len(set(service.submit_calls)))
    verdict("quota-client-audit", ok,
            f"3 days at limit {limit}, per-day submissions {per_day}, "
            f"{len(set(service.submit_calls))} unique, none lost")


def test_gbdt_correctness_bundle(verdict):
    rng = np.random.default_rng(424)

    # per-round loss never increases in full-sample mode
    hp_full = Hyperparams(learning_rate=0.3, num_leaves=4,
                          min_data_in_leaf=5, max_rounds=10,
                          early_stop_rounds=0)
    non_increasing = 0
    for _ in range(50):
        x = rng.normal(size=(80, 5)).astype(np.float32)
        y = rng.integers(0, 2, size=80)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        model = gbdt.train(x, y, hp_full, rng_seed=1)
        trace = model.train_loss_trace
        if all(b <= a + 1e-12 for a, b in zip(trace, trace[1:])):
            non_increasing += 1

    # leaf values equal the closed-form Newton step
    lam = 0.25
    x_hand = np.array([[0], [0], [0], [1], [1], [1], [1], [1]],
                      dtype=np.float32)
    y_hand = np.array([0, 0, 1, 0, 1, 1, 1, 1], dtype=np.float64)
    hp_hand = Hyperparams(learning_rate=0.7, num_leaves=2,
                          min_data_in_leaf=1, max_rounds=1,
                          early_stop_rounds=0, l2_lambda=lam)
    model = gbdt.train(x_hand, y_hand, hp_hand)
    tree = model.trees[0]
    p0 = 1.0 / (1.0 + np.exp(-model.base_score))
    groups = [y_hand[:3], y_hand[3:]]
    expected = sorted(
        -float((len(g) * p0 - g.sum()) / (len(g) * p0 * (1 - p0) + lam))
        for g in groups)
    got = sorted(float(tree.value[c]) for c in (tree.left[0], tree.right[0]))
    leaf_err = max(abs(e - g) for e, g in zip(expected, got))
    leaves_ok = (tree.feature[0] == 0
                 and tree.feature[tree.left[0]] == -1
                 and tree.feature[tree.right[0]] == -1
                 and leaf_err <= 1e-12)

    # separable clusters are fit exactly
    xa = rng.normal(0.0, 0.3, size=(100, 4))
    xb = rng.normal(3.0, 0.3, size=(100, 4))
    xs = np.vstack([xa, xb]).astype(np.float32)
    ys = np.array([0] * 100 + [1] * 100)
    stump = gbdt.train(xs, ys, Hyperparams(
        learning_rate=0.3, num_leaves=4, min_data_in_leaf=10,
        max_rounds=20, early_stop_rounds=0))
    accuracy = float((stump.predict(xs) == ys).mean())

    # the Newton statistics are the true derivatives of the loss
    raw = rng.normal(0.0, 2.0, size=300)
    y_g = rng.integers(0, 2, size=300).astype(np.float64)
    eps = 1e-5
    n = raw.size
    numeric_g = np.array([
        (gbdt.logistic_loss(raw + eps * np.eye(n)[i], y_g)
         - gbdt.logistic_loss(raw - eps * np.eye(n)[i], y_g)) / (2 * eps) * n
        for i in range(n)])
    p = 1.0 / (1.0 + np.exp(-raw))
    grad_err = float(np.abs(numeric_g - (p - y_g)).max())
    numeric_h = (1.0 / (1.0 + np.exp(-(raw + eps)))
                 - 1.0 / (1.0 + np.exp(-(raw - eps)))) / (2 * eps)
    hess_err = float(np.abs(numeric_h - p * (1 - p)).max())

    ok = (non_increasing == 50 and leaves_ok and accuracy == 1.0
          and grad_err <= 1e-6 and hess_err <= 1e-6)
    verdict("gbdt-correctness", ok,
            f"{non_increasing}/50 non-increasing traces, "
            f"leaf closed-form err {leaf_err:.1e}, "
            f"stump accuracy {accuracy:.2f}, "
            f"gradient err {grad_err:.1e}/{hess_err:.1e}")


GRID_HP = Hyperparams(learning_rate=0.3, num_leaves=6, min_data_in_leaf=50,
                      max_rounds=15, early_stop_rounds=0)


def _poison_world(rng):
    """Two labeled clusters plus an adversarial cluster that sits where a
    thin benign mode overlaps a malicious shoulder."""
    dim = 552

    def group(n, x0, x1, spread):
        out = rng.normal(0.0, 1.0, size=(n, dim))
        out[:, 0] = rng.normal(x0, spread, size=n)
        out[:, 1] = rng.normal(x1, spread, size=n)
        return out

    def split(n_total, minor):
        major = n_total - minor
        benign = np.vstack([group(major, 0.0, 0.0, 0.5),
                            group(minor, 2.5, 0.0, 0.25)])
        malicious = np.vstack([group(major - 180, 2.5, 2.5, 0.5),
                               group(minor + 180, 2.5, 0.0, 0.25)])
        x = np.vstack([benign, malicious]).astype(np.float32)
        y = np.array([0] * n_total + [1] * n_total, dtype=np.int8)
        return x, y

    train_x, train_y = split(2000, 60)
    test_x, test_y = split(2000, 60)
    adv_pool = group(1600, 2.5, 0.0, 0.25).astype(np.float32)
    adv_test = group(800, 2.5, 0.0, 0.25).astype(np.float32)
    return train_x, train_y, test_x, test_y, adv_pool, adv_test


@pytest.fixture(scope="module")
def poison_grid(tmp_path_factory):
    rng = np.random.default_rng(8261)
    arrays = _poison_world(rng)
    out = tmp_path_factory.mktemp("grid")
    started = time.perf_counter()
    result = poisonlab.run_grid(*arrays, GRID_HP, rng_seed=11, out_dir=out)
    elapsed = time.perf_counter() - started
    return {"result": result, "elapsed": elapsed, "out": out}


def _cell(result, tau, fraction):
    for report in result["cells"]:
        config = report.config
        if (abs(config.tau - tau) < 1e-12
                and abs(config.poisoned_fraction - fraction) < 1e-12):
            return report
    raise AssertionError(f"cell ({tau}, {fraction}) missing")


def test_poisoning_directional_properties(verdict, poison_grid):
    result = poison_grid["result"]
    elapsed = poison_grid["elapsed"]
    baseline = result["baseline"]

    flip = _cell(result, 1.0, 0.1)
    clean = _cell(result, 0.0, 0.1)
    lift = flip.evasion_rate - baseline.evasion_rate
    stable = [report for report in result["cells"]
              if report.config.poisoned_fraction <= 0.01]
    f1_dev = max(abs(r.f1 - baseline.f1) for r in stable)

    ok = (lift >= 0.20
          and clean.evasion_rate <= baseline.evasion_rate
          and len(stable) == 44 and f1_dev <= 0.05
          and not result["failures"]
          and elapsed < 600.0)
    verdict("poisoning-directional", ok,
            f"evasion {baseline.evasion_rate:.3f} -> {flip.evasion_rate:.3f}"
            f" (lift {lift:+.3f}) at tau=1/f=0.1, "
            f"tau=0 cell {clean.evasion_rate:.3f}, "
            f"max f1 drift {f1_dev:.3f} over {len(stable)} small-fraction "
            f"cells, grid in {elapsed:.0f}s")


def test_poisoning_grid_shape(verdict, poison_grid):
    result = poison_grid["result"]
    out = poison_grid["out"]

    cell_configs = {(r.config.tau, r.config.poisoned_fraction)
                    for r in result["cells"]}
    evasion_csv = (out / "evasion_heatmap.csv").read_text().splitlines()
    f1_csv = (out / "f1_heatmap.csv").read_text().splitlines()

    def shape_ok(lines):
        if len(lines) != 12:
            return False
        return all(len(line.split(",")) == 10 for line in lines)

    flags = sum(cell.endswith("*")
                for line in f1_csv[1:] + evasion_csv[1:]
                for cell in line.split(",")[1:])
    ok = (len(result["cells"]) == 99 and len(cell_configs) == 99
          and result["baseline"].config == "baseline"
          and shape_ok(evasion_csv) and shape_ok(f1_csv)
          and flags > 0)
    verdict("poisoning-grid-shape", ok,
            f"99 cells + baseline, heatmaps 11x9, "
            f"{flags} below-baseline flags")
