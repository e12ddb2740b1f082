"""Mutator tests: per-action byte-diff oracles plus campaign properties."""

import hashlib
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import campaign_oracle
import pe_oracle
from advforge import features, gbdt, mutator, pe, scoring
from advforge.mutator import (
    ACTION_KINDS,
    CampaignConfig,
    CampaignResult,
    ContentPool,
    MutationAction,
    MutationPlan,
    apply_action,
    apply_plan,
    run_campaign,
)


def _diff_indices(a: bytes, b: bytes) -> list[int]:
    return [i for i, (x, y) in enumerate(zip(a, b)) if x != y]


class TestActions:
    def test_checksum_zero_diff(self):
        data = pe_oracle.build_pe(checksum=0x89ABCDEF)
        img = pe.parse(data)
        out = pe.serialize(apply_action(img, MutationAction("checksum_zero"), 0))
        assert len(out) == len(data)
        diff = _diff_indices(data, out)
        assert len(diff) == 4
        assert diff == list(range(diff[0], diff[0] + 4))
        assert struct.unpack_from("<I", out, diff[0])[0] == 0
        assert pe_oracle.read_fields(out)["checksum"] == 0

    def test_overlay_append_prefix_preserved(self):
        data = pe_oracle.build_pe()
        img = pe.parse(data)
        act = MutationAction("overlay_append", content_len=16, source="random")
        out = pe.serialize(apply_action(img, act, 7))
        assert len(out) == len(data) + 16
        assert out[: len(data)] == data
        assert pe.validate(out).is_valid_pe

    def test_section_add_field_diff(self):
        data = pe_oracle.build_pe()
        before = pe_oracle.read_fields(data)
        img = pe.parse(data)
        act = MutationAction("section_add", content_len=512, name=".xyz")
        out = pe.serialize(apply_action(img, act, 3))
        after = pe_oracle.read_fields(out)

        assert after["num_sections"] == before["num_sections"] + 1
        grown = after["size_of_image"] - before["size_of_image"]
        assert grown > 0 and grown % 4096 == 0
        assert after["sections"][-1]["name"].rstrip(b"\x00") == b".xyz"
        assert after["sections"][-1]["raw_size"] == 512

        # original section raw data is untouched
        s0 = before["sections"][0]
        assert (
            out[s0["raw_offset"] : s0["raw_offset"] + s0["raw_size"]]
            == data[s0["raw_offset"] : s0["raw_offset"] + s0["raw_size"]]
        )
        assert pe.validate(out).is_valid_pe

    def test_section_add_confined_diff(self):
        data = pe_oracle.build_pe(overlay=b"TAIL" * 8)
        img = pe.parse(data)
        act = MutationAction("section_add", content_len=100, name=".new")
        out = pe.serialize(apply_action(img, act, 11))
        fields = pe_oracle.read_fields(data)
        e_lfanew = fields["e_lfanew"]
        table_end = (
            e_lfanew + 24 + len(img.optional.raw) + 40 * len(img.sections)
        )
        allowed = set(range(e_lfanew + 6, e_lfanew + 8))  # section count
        opt_off = e_lfanew + 24
        allowed |= set(range(opt_off + 56, opt_off + 60))  # size_of_image
        allowed |= set(range(table_end, table_end + 40))  # the new entry
        allowed |= set(range(img.overlay_offset, len(out)))  # shifted tail
        assert set(_diff_indices(data, out)) <= allowed

    def test_section_rename(self):
        data = pe_oracle.build_pe()
        img = pe.parse(data)
        act = MutationAction("section_rename", index=0, name=".renamed")
        out = pe.serialize(apply_action(img, act, 0))
        fields = pe_oracle.read_fields(out)
        assert fields["sections"][0]["name"] == b".renamed"
        assert len(out) == len(data)

    def test_section_rename_bad_index(self):
        img = pe.parse(pe_oracle.build_pe())
        act = MutationAction("section_rename", index=5, name=".x")
        with pytest.raises(mutator.InvalidTarget):
            apply_action(img, act, 0)

    def test_cert_and_debug_wipe(self):
        data = pe_oracle.build_pe(cert=(0x4000, 0x200), debug=(0x2000, 0x54))
        img = pe.parse(data)
        wiped = apply_action(img, MutationAction("cert_wipe"), 0)
        wiped = apply_action(wiped, MutationAction("debug_wipe"), 0)
        fields = pe_oracle.read_fields(pe.serialize(wiped))
        assert fields["data_directories"][4] == (0, 0)
        assert fields["data_directories"][6] == (0, 0)

    def test_timestamp_adjust_wraps(self):
        data = pe_oracle.build_pe(timestamp=0xFFFFFFFE)
        img = pe.parse(data)
        out = apply_action(img, MutationAction("timestamp_adjust", delta=5), 0)
        assert out.coff.timestamp == 3
        back = apply_action(img, MutationAction("timestamp_adjust", delta=-5), 0)
        assert back.coff.timestamp == 0xFFFFFFF9

    def test_dos_stub_extend(self):
        data = pe_oracle.build_pe()
        img = pe.parse(data)
        act = MutationAction("dos_stub_extend", content_len=32)
        out = pe.serialize(apply_action(img, act, 9))
        fields = pe_oracle.read_fields(out)
        assert fields["e_lfanew"] == img.e_lfanew + 32
        assert pe.validate(out).is_valid_pe
        # section raw data stays at its original offsets
        s0 = pe_oracle.read_fields(data)["sections"][0]
        assert (
            out[s0["raw_offset"] : s0["raw_offset"] + s0["raw_size"]]
            == data[s0["raw_offset"] : s0["raw_offset"] + s0["raw_size"]]
        )

    def test_dos_stub_extend_no_room(self):
        data = pe_oracle.build_pe(tight=True)
        img = pe.parse(data)
        act = MutationAction("dos_stub_extend", content_len=4096)
        with pytest.raises(pe.LayoutOverflow):
            pe.serialize(apply_action(img, act, 0))

    def test_section_add_no_room(self):
        # the tight table abuts section data, so one more entry overlaps it
        img = pe.parse(pe_oracle.build_pe(tight=True))
        act = MutationAction("section_add", content_len=64, name=".new")
        with pytest.raises(pe.LayoutOverflow):
            pe.serialize(apply_action(img, act, 0))

    def test_apply_deterministic_in_seed(self):
        img = pe.parse(pe_oracle.build_pe())
        act = MutationAction("overlay_append", content_len=64, source="random")
        a = pe.serialize(apply_action(img, act, 42))
        b = pe.serialize(apply_action(img, act, 42))
        c = pe.serialize(apply_action(img, act, 43))
        assert a == b
        assert a != c

    def test_action_validation(self):
        with pytest.raises(ValueError):
            MutationAction("no_such_action")
        with pytest.raises(ValueError):
            MutationAction("overlay_append", content_len=0)
        with pytest.raises(ValueError):
            MutationAction("section_add", content_len=4, name=".wayTooLong")
        with pytest.raises(ValueError):
            MutationAction("overlay_append", content_len=4, source="disk")

    def test_action_dict_round_trip(self):
        acts = [
            MutationAction("overlay_append", content_len=9, source="benign-pool"),
            MutationAction("section_rename", index=1, name=".x"),
            MutationAction("timestamp_adjust", delta=-12),
            MutationAction("cert_wipe"),
        ]
        plan = MutationPlan(actions=tuple(acts), rng_seed=77)
        assert MutationPlan.from_dict(plan.to_dict()) == plan

    @pytest.mark.parametrize("kind", mutator.ACTION_KINDS)
    @pytest.mark.parametrize("has_pool", [False, True])
    def test_sampled_action_round_trip(self, kind, has_pool):
        img = pe.parse(pe_oracle.build_pe())
        rng = np.random.default_rng(5)
        for _ in range(20):
            act = mutator._sample_action(rng, img, (kind,), has_pool)
            data = act.to_dict()
            assert list(data) == ["kind", *mutator.ACTION_FIELDS[kind]]
            assert MutationAction.from_dict(data) == act

    @pytest.mark.parametrize("kind", mutator.ACTION_KINDS)
    def test_field_the_kind_does_not_take_rejected(self, kind):
        extra = {"content_len": 5, "source": "benign-pool", "name": ".x",
                 "index": 1, "delta": 5}
        for name, value in extra.items():
            if name not in mutator.ACTION_FIELDS[kind]:
                with pytest.raises(ValueError, match=f"takes no {name}"):
                    MutationAction.from_dict({"kind": kind, name: value})


class TestContentPool:
    def test_sample_wraps_short_blob(self):
        pool = ContentPool([b"ab"])
        rng = np.random.default_rng(0)
        out = pool.sample(rng, 7)
        assert len(out) == 7
        assert set(out) <= {ord("a"), ord("b")}

    def test_from_dir(self, tmp_path):
        (tmp_path / "one.bin").write_bytes(b"\x01" * 32)
        (tmp_path / "two.bin").write_bytes(b"\x02" * 32)
        pool = ContentPool.from_dir(tmp_path)
        assert len(pool.blobs) == 2

    def test_fallback_pool_nonempty(self):
        pool = ContentPool.fallback()
        assert all(len(b) > 0 for b in pool.blobs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ContentPool([])


def _nonzero_fraction(data: bytes, _image=None) -> float:
    arr = np.frombuffer(data, dtype=np.uint8)
    return int(np.count_nonzero(arr)) / len(arr)


class TestCampaign:
    def test_constant_zero_scorer(self):
        data = pe_oracle.build_pe()
        res = run_campaign(data, lambda b, _image: 0.0, CampaignConfig(max_steps=10))
        assert res.evaded is True
        assert res.steps_used == 0
        assert res.plan.actions == ()
        assert res.final_bytes == data

    def test_constant_one_scorer(self):
        data = pe_oracle.build_pe()
        res = run_campaign(data, lambda b, _image: 1.0, CampaignConfig(max_steps=6))
        assert res.evaded is False
        assert res.steps_used == 6
        assert res.plan.actions == ()
        # every step reverted: working bytes never mutated
        assert hashlib.sha256(res.final_bytes).digest() == hashlib.sha256(data).digest()

    def test_zero_pool_trajectory_closed_form(self):
        data = pe_oracle.build_pe(sections=[(b".text", b"\xcc" * 1536, 0x60000020)])
        n0 = int(np.count_nonzero(np.frombuffer(data, dtype=np.uint8)))
        size = len(data)
        assert _nonzero_fraction(data) > 0.5

        pool = ContentPool([b"\x00" * 4096])
        cfg = CampaignConfig(
            max_steps=60,
            score_threshold=0.5,
            rng_seed=5,
            allowed_actions=("overlay_append",),
        )
        res = run_campaign(data, _nonzero_fraction, cfg, pool=pool)
        assert res.evaded is True
        assert res.plan.actions
        # only zero appends can be accepted, so the whole trace is the
        # closed form n0 / (size + cumulative appended length)
        appended = 0
        expected = [(0, n0 / size)]
        steps = [s for s, _ in res.score_trace[1:]]
        for action, step in zip(res.plan.actions, steps):
            assert action.kind == "overlay_append"
            assert action.source == "benign-pool"
            appended += action.content_len
            expected.append((step, n0 / (size + appended)))
        assert len(res.score_trace) == len(expected)
        for (s_got, v_got), (s_exp, v_exp) in zip(res.score_trace, expected):
            assert s_got == s_exp
            assert v_got == pytest.approx(v_exp, rel=1e-12)
        assert res.score_trace[-1][1] < 0.5
        # replaying the plan reproduces the final bytes exactly
        assert apply_plan(data, res.plan, pool=pool) == res.final_bytes

    def test_campaign_deterministic(self, corpus_files):
        data = corpus_files[0].read_bytes()
        scorer = lambda b, _image: int.from_bytes(hashlib.sha256(b).digest()[:8], "big") / 2**64
        cfg = CampaignConfig(max_steps=12, score_threshold=0.05, rng_seed=99)
        pool = ContentPool.fallback()
        r1 = run_campaign(data, scorer, cfg, pool=pool)
        r2 = run_campaign(data, scorer, cfg, pool=pool)
        assert r1.final_bytes == r2.final_bytes
        assert r1.plan == r2.plan
        assert r1.score_trace == r2.score_trace

    def test_invalid_input_rejected(self):
        with pytest.raises(mutator.InvalidInput):
            run_campaign(b"MZ" + b"\x00" * 100, lambda b, _image: 1.0, CampaignConfig())

    def test_trace_strictly_decreasing_and_outputs_valid_fuzzed(self, corpus_files):
        # >= 1,000 short campaigns; every output must still be a valid PE
        scorer = lambda b, _image: int.from_bytes(hashlib.sha256(b).digest()[:8], "big") / 2**64
        pool = ContentPool.fallback()
        campaigns = 0
        seed = 0
        while campaigns < 1000:
            for path in corpus_files:
                data = path.read_bytes()
                seed += 1
                cfg = CampaignConfig(
                    max_steps=3, score_threshold=0.02, rng_seed=seed
                )
                res = run_campaign(data, scorer, cfg, pool=pool)
                assert pe.validate(res.final_bytes).is_valid_pe
                scores = [v for _, v in res.score_trace]
                assert all(b < a for a, b in zip(scores, scores[1:]))
                assert res.evaded == (scores[-1] < cfg.score_threshold)
                if campaigns % 25 == 0:
                    assert apply_plan(data, res.plan, pool=pool) == res.final_bytes
                campaigns += 1
                if campaigns >= 1000:
                    break

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300))
    def test_overlay_append_property(self, seed, n):
        data = pe_oracle.build_pe()
        img = pe.parse(data)
        act = MutationAction("overlay_append", content_len=n, source="random")
        out = pe.serialize(apply_action(img, act, seed))
        assert out[: len(data)] == data
        assert len(out) == len(data) + n


def _sha256_score(data: bytes, _image=None) -> float:
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big") / 2**64


@pytest.fixture(scope="module")
def local_score(corpus_files):
    """A small surrogate that flags raw corpus files and passes the same
    files with benign pool content appended, so hill climbing can go down."""
    pool = ContentPool.fallback()
    rng = np.random.default_rng(0)
    rows, labels = [], []
    for path in corpus_files[:24]:
        data = path.read_bytes()
        rows += [features.extract(data),
                 features.extract(data + pool.sample(rng, 4096))]
        labels += [1, 0]
    hp = gbdt.Hyperparams(num_leaves=4, min_data_in_leaf=3, max_rounds=40,
                          early_stop_rounds=0)
    handle = scoring.ScorerHandle.local(gbdt.train(
        np.asarray(rows, dtype=np.float32), np.asarray(labels), hp,
        rng_seed=1))
    return lambda data, image: scoring.score(handle, data, image)


def _recording(score, scored: list):
    """``score``, appending the bytes of each call to ``scored``."""
    def spy(data, image):
        scored.append(data)
        return score(data, image)
    return spy


class TestCampaignSkips:
    """A step whose result is already known is not scored: a repeat of an
    action rejected on the current state, and a no-op candidate."""

    @pytest.mark.parametrize("allowed", [ACTION_KINDS, ("checksum_zero",)],
                             ids=["all", "checksum_zero"])
    @pytest.mark.parametrize("with_pool", [False, True],
                             ids=["no_pool", "pool"])
    @pytest.mark.parametrize("scorer,threshold", [("sha256", 0.02),
                                                  ("local", 0.3)])
    def test_matches_the_oracle(self, corpus_files, local_score, allowed,
                                with_pool, scorer, threshold):
        score = _sha256_score if scorer == "sha256" else local_score
        pool = ContentPool.fallback() if with_pool else None
        skipped = 0
        for seed in range(40):
            data = corpus_files[seed % len(corpus_files)].read_bytes()
            cfg = CampaignConfig(max_steps=60, score_threshold=threshold,
                                 rng_seed=seed, allowed_actions=allowed)
            got_scored, want_scored = [], []
            got = run_campaign(data, _recording(score, got_scored), cfg,
                               pool=pool)
            want = campaign_oracle.run_campaign(
                data, _recording(score, want_scored), cfg, pool=pool)
            for f in fields(CampaignResult):
                assert getattr(got, f.name) == getattr(want, f.name), (
                    seed, f.name)
            assert len(got_scored) <= len(want_scored)
            skipped += len(want_scored) - len(got_scored)
        # the skips happened: the oracle scored steps this loop did not
        assert skipped > 0

    @pytest.mark.parametrize("scorer", ["sha256", "local"])
    def test_no_bytes_scored_twice(self, corpus_files, local_score, scorer):
        # the parent scored 28 % of the bench's candidates twice; only a
        # step back to an earlier state's bytes (say, a rename undone)
        # could still be scored twice, and none of these campaigns takes one
        score = _sha256_score if scorer == "sha256" else local_score
        pool = ContentPool.fallback()
        for seed in range(40):
            data = corpus_files[seed % len(corpus_files)].read_bytes()
            scored = []
            cfg = CampaignConfig(max_steps=60, score_threshold=0.02,
                                 rng_seed=seed)
            run_campaign(data, _recording(score, scored), cfg, pool=pool)
            assert len(set(scored)) == len(scored), seed

    @pytest.mark.parametrize("checksum,calls", [(0x1234, 2), (0, 1)])
    def test_rejected_action_scored_once(self, checksum, calls):
        # one action, never an improvement: the input and at most one
        # candidate are scored, and with a zero checksum the candidate is
        # the input's bytes, so only the input is
        data = pe_oracle.build_pe(checksum=checksum)
        scored = []
        cfg = CampaignConfig(max_steps=200, allowed_actions=("checksum_zero",))
        res = run_campaign(data, _recording(lambda _d, _i: 1.0, scored), cfg)
        assert len(scored) == calls
        assert res.steps_used == 200
        assert res.plan.actions == () and res.final_bytes == data
