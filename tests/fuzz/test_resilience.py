"""Fuzz campaign resilience: crash survival, checkpoint/resume, quarantine.

Faults come from the shared chaos injector (:mod:`repro.runtime.chaos`);
chaos keys are campaign task indices (``crash@3`` kills the worker
running task 3).  Campaigns here are minimal — one generated program,
one mitigation, no shrinking, no on-disk corpus — so every test is a
real multi-process campaign that still runs in seconds.
"""

import json

import pytest

from repro.errors import CampaignInterrupted
from repro.fuzz import cli
from repro.fuzz.cli import (
    CHECKPOINT_SCHEMA,
    _campaign_fingerprint,
    _run_task,
    build_tasks,
    checkpoint_path,
    main,
    run_fuzz_campaign,
)
from repro.fuzz.corpus import replay_order as corpus_replay_order
from repro.runtime.quarantine import QUARANTINE_DIR

# 8 built-in regression replays + 1 generated case x (differential +
# oracle) = 10 tasks, ids 0..9; replays come first.


def _campaign(**kwargs):
    options = dict(
        budget=1, seed=1, mitigations=["none"], shrink=False, corpus_dir=None
    )
    options.update(kwargs)
    return run_fuzz_campaign(**options)


def _main_args(out, *extra):
    return [
        "--budget", "1", "--seed", "1", "--mitigation", "none",
        "--no-shrink", "--no-corpus", "--jobs", "2",
        "--out", str(out), *extra,
    ]


class TestCrashIsolation:
    def test_chaos_crash_converges_to_identical_findings(self):
        baseline = _campaign(jobs=2)
        chaotic = _campaign(jobs=2, chaos="crash@3", retries=2)
        assert list(chaotic) == list(baseline)
        assert chaotic.retried >= 1
        assert chaotic.failures == []

    def test_crash_without_retries_is_structured_failure(self):
        campaign = _campaign(jobs=2, chaos="crash@3", retries=0)
        (failure,) = campaign.failures
        assert failure.task == 3 and failure.kind == "crash"


class TestCheckpointResume:
    def test_interrupt_writes_checkpoint_then_resume_converges(self, tmp_path):
        baseline = _campaign(jobs=2)
        ckpt = checkpoint_path(tmp_path / "f.jsonl")
        with pytest.raises(CampaignInterrupted) as excinfo:
            _campaign(jobs=2, checkpoint=ckpt, chaos="interrupt@0")
        assert excinfo.value.checkpoint == ckpt
        data = json.loads(ckpt.read_text())
        assert data["completed"], "interrupt left an empty checkpoint"
        resumed = _campaign(jobs=2, checkpoint=ckpt, resume=True)
        assert resumed.resumed >= 1
        assert list(resumed) == list(baseline)
        assert not ckpt.exists(), "checkpoint must be deleted on completion"

    def test_corrupt_checkpoint_is_quarantined_not_trusted(self, tmp_path):
        baseline = _campaign()
        ckpt = checkpoint_path(tmp_path / "f.jsonl")
        ckpt.write_text('{"schema": 1, "completed"')  # truncated mid-write
        campaign = _campaign(checkpoint=ckpt, resume=True)
        assert campaign.quarantined == 1
        assert campaign.resumed == 0
        assert list(campaign) == list(baseline)
        saved = tmp_path / QUARANTINE_DIR / ckpt.name
        assert saved.exists() and saved.with_name(saved.name + ".reason").exists()

    @pytest.mark.parametrize(
        "completed",
        [[], {"0": {"kind": "leak"}}, {"first": []}],
        ids=["completed-list", "findings-not-list", "non-integer-task"],
    )
    def test_misshapen_checkpoint_is_quarantined(self, tmp_path, completed):
        baseline = _campaign()
        ckpt = checkpoint_path(tmp_path / "f.jsonl")
        ckpt.write_text(json.dumps(
            {"schema": 1, "fingerprint": "x", "completed": completed}
        ))
        campaign = _campaign(checkpoint=ckpt, resume=True)
        assert campaign.quarantined == 1
        assert campaign.resumed == 0
        assert list(campaign) == list(baseline)
        assert (tmp_path / QUARANTINE_DIR / ckpt.name).exists()

    def test_stale_checkpoint_for_other_campaign_is_ignored(self, tmp_path):
        ckpt = checkpoint_path(tmp_path / "f.jsonl")
        ckpt.write_text(json.dumps(
            {"schema": 1, "fingerprint": "0" * 64, "completed": {"0": []}}
        ))
        campaign = _campaign(checkpoint=ckpt, resume=True)
        assert campaign.resumed == 0
        assert campaign.quarantined == 0


class TestCheckpointWriter:
    """Each completed task is serialized once; every rewrite stays whole."""

    def _interrupted(self, tmp_path, monkeypatch):
        """Checkpoint text after each write of an interrupted campaign."""
        writes = []
        original = cli.atomic_write_text

        def recording(path, text, **kwargs):
            if path == ckpt:
                writes.append(text)
            return original(path, text, **kwargs)

        monkeypatch.setattr(cli, "atomic_write_text", recording)
        ckpt = checkpoint_path(tmp_path / "f.jsonl")
        with pytest.raises(CampaignInterrupted):
            _campaign(checkpoint=ckpt, chaos="interrupt@4")
        return ckpt, writes

    def test_file_parses_to_the_full_payload(self, tmp_path, monkeypatch):
        ckpt, writes = self._interrupted(tmp_path, monkeypatch)
        tasks = build_tasks(
            budget=1, seed=1, mitigations=["none"], model_name=None,
            replay=corpus_replay_order(None), inject=None, shrink=False,
            metrics=False,
        )
        data = json.loads(ckpt.read_text())
        done = sorted(int(task_id) for task_id in data["completed"])
        assert done and len(done) < len(tasks)
        # What the whole-payload ``atomic_write_json`` call used to write.
        old_text = json.dumps(
            {
                "schema": CHECKPOINT_SCHEMA,
                "fingerprint": _campaign_fingerprint(tasks),
                "completed": {str(i): _run_task(tasks[i]) for i in done},
            },
            indent=2, sort_keys=True,
        )
        assert data == json.loads(old_text)
        assert writes[-1] == ckpt.read_text()
        # Every rewrite before it was a whole document with one more task.
        for count, text in enumerate(writes[:-1], start=1):
            assert sorted(json.loads(text)) == ["completed", "fingerprint", "schema"]
            assert len(json.loads(text)["completed"]) == count

    def test_one_atomic_write_per_completed_task(self, monkeypatch, tmp_path):
        calls = []
        original = cli.atomic_write_text
        monkeypatch.setattr(
            cli, "atomic_write_text",
            lambda *args, **kwargs: calls.append(args[0]) or original(*args, **kwargs),
        )
        ckpt = checkpoint_path(tmp_path / "f.jsonl")
        campaign = _campaign(checkpoint=ckpt)
        assert not campaign.failures
        assert calls == [ckpt] * 10  # 10 tasks (module header)
        assert not ckpt.exists()

    def test_resume_from_indented_checkpoint_is_byte_identical(self, tmp_path):
        clean = tmp_path / "clean.jsonl"
        assert main(_main_args(clean)) == 0
        out = tmp_path / "f.jsonl"
        assert main(_main_args(out, "--chaos", "interrupt@2")) == 3
        ckpt = checkpoint_path(out)
        payload = json.loads(ckpt.read_text())
        # The layout earlier releases wrote: two-space indent, sorted keys.
        ckpt.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        assert main(_main_args(out, "--resume")) == 0
        assert out.read_bytes() == clean.read_bytes()


class TestMainExitCodes:
    def test_interrupt_exits_3_then_resume_exits_0(self, tmp_path, capsys):
        clean = tmp_path / "clean.jsonl"
        assert main(_main_args(clean)) == 0
        out = tmp_path / "f.jsonl"
        code = main(_main_args(out, "--chaos", "interrupt@0"))
        assert code == 3
        assert checkpoint_path(out).exists()
        assert "--resume" in capsys.readouterr().err
        code = main(_main_args(out, "--resume"))
        assert code == 0
        assert not checkpoint_path(out).exists()
        assert out.read_bytes() == clean.read_bytes()

    def test_exhausted_task_exits_1(self, tmp_path, capsys):
        code = main(_main_args(
            tmp_path / "f.jsonl", "--chaos", "crash@0", "--retries", "0"
        ))
        assert code == 1
        assert "FAILED task 0" in capsys.readouterr().out

    def test_bad_chaos_spec_is_usage_error(self, tmp_path):
        assert main(_main_args(tmp_path / "f.jsonl", "--chaos", "nuke@1")) == 2
