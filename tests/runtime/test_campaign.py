"""The campaign kernel: what it owns beyond the supervisor it drives.

Worker callables live at module level because pool mode ships them to
subprocesses.
"""

import tempfile

import pytest

from repro.errors import CampaignInterrupted, ConfigError
from repro.experiments.runner import run_campaign
from repro.fuzz.cli import run_fuzz_campaign
from repro.runtime.campaign import execute_campaign


def _double(payload):
    return payload * 2


def _boom(payload):
    raise ValueError(f"boom on {payload}")


def _refuse(task_id, result):
    raise OSError("checkpoint disk full")


def _nested_interrupt(payload):
    raise CampaignInterrupted("inner campaign interrupted")


TASKS = [(i, i) for i in range(4)]


class TestChaosLifecycle:
    """The chaos marker directory never outlives the campaign."""

    @pytest.fixture
    def tmp(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    def test_removed_after_an_interrupt(self, tmp):
        with pytest.raises(CampaignInterrupted) as excinfo:
            execute_campaign(TASKS, _double, jobs=2, chaos="interrupt@0")
        assert 0 in excinfo.value.partial.task_ids
        assert not list(tmp.glob("repro-chaos-*"))

    def test_removed_after_a_worker_error(self, tmp):
        campaign = execute_campaign(
            TASKS, _boom, jobs=2, retries=0, chaos="crash@1"
        )
        assert sorted(f.task for f in campaign.failures) == [0, 1, 2, 3]
        assert not list(tmp.glob("repro-chaos-*"))

    def test_removed_when_the_checkpoint_write_raises(self, tmp):
        with pytest.raises(OSError):
            execute_campaign(
                TASKS, _double, jobs=2, on_result=_refuse, chaos="crash@1"
            )
        assert not list(tmp.glob("repro-chaos-*"))


def test_resumed_entries_interleave_in_task_order():
    tasks = [(i, i) for i in range(6)]
    campaign = execute_campaign(
        tasks, _double, jobs=2, recovered={1: "one", 4: "four"}
    )
    assert list(campaign) == [0, "one", 4, 6, "four", 10]
    assert campaign.task_ids == [0, 1, 2, 3, 4, 5]
    assert campaign.resumed == 2


def test_nested_interrupt_stops_the_outer_campaign():
    """A Ctrl-C inside a campaign run inline by another is not a task error."""
    with pytest.raises(CampaignInterrupted) as excinfo:
        execute_campaign(TASKS, _nested_interrupt)
    assert excinfo.value.partial.failures == []
    assert excinfo.value.partial.retried == 0


@pytest.mark.parametrize(
    "entry_point",
    [
        lambda: run_campaign(["fig4"], resume=True, json_dir=None),
        lambda: run_fuzz_campaign(
            budget=1, mitigations=["none"], corpus_dir=None,
            resume=True, checkpoint=None,
        ),
    ],
    ids=["run_campaign", "run_fuzz_campaign"],
)
def test_resume_without_checkpoint_is_config_error(entry_point):
    with pytest.raises(ConfigError):
        entry_point()
