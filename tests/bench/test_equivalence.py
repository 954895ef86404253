"""The equivalence gate: its guards, and the part of it that runs here.

The ``corpus`` and ``traces`` sections of ``benchmarks/GOLDEN.json`` do
not depend on the tier and take well under a second, so they are
recomputed and compared here: they pin dual execution of the regression
corpus under every mitigation and per-cycle pipeline traces.  The
``experiments`` section (every registered experiment at the golden
file's full tier, minutes) is checked by ``make equivalence-check``
before committing core changes (see docs/performance.md).  The other
tests are the guards: tier validation and the golden-file schema check,
which protect against silently comparing incompatible digests.
"""

import json
from pathlib import Path

import pytest

from repro.bench.equivalence import (
    EQUIV_SCHEMA,
    FAST_EXPERIMENTS,
    _corpus_digest,
    _traces_digest,
    check_golden,
    compute_digest,
)

GOLDEN = Path(__file__).resolve().parents[2] / "benchmarks" / "GOLDEN.json"


def test_corpus_and_traces_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())["sections"]
    current = {"corpus": _corpus_digest(), "traces": _traces_digest()}
    changed = [section for section, digest in current.items() if digest != golden[section]]
    assert not changed, f"behaviour changed in GOLDEN.json section(s): {', '.join(changed)}"


def test_unknown_tier_rejected():
    with pytest.raises(ValueError, match="unknown tier"):
        compute_digest("bogus")


def test_wrong_schema_reported_not_compared(tmp_path):
    golden = tmp_path / "GOLDEN.json"
    golden.write_text(json.dumps({"schema": "repro-equivalence/v0", "sections": {}}))
    problems = check_golden(golden)
    assert len(problems) == 1
    assert EQUIV_SCHEMA in problems[0]


def test_fast_tier_experiments_are_registered():
    from repro.experiments.runner import EXPERIMENTS

    for name in FAST_EXPERIMENTS:
        assert name in EXPERIMENTS
