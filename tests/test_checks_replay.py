"""Counterexample replay: model traces drive the real implementation.

The contract under test: for every (protocol, variant) in the
seeded-bug corpus, the trace produced by the model checker on the buggy
model *reproduces* the violation when replayed against the real code
under the corresponding seeded bug — deterministically, because the
replay parks real threads at the trace's interleaving points instead of
hoping a sleep lands in the window.
"""

from __future__ import annotations

import pytest

from repro.checks.model import Step, check_model
from repro.checks.protocols.corpus import CORPUS, build_model
from repro.checks.replay import replay_counterexample

#: Refutation sizing — matches the CLI's corpus mode (two writers is
#: the minimal arena every corpus bug manifests in).
WRITERS = 2


def trace_for(protocol: str, variant: str) -> list[Step]:
    res = check_model(build_model(protocol, variant=variant, writers=WRITERS))
    assert res.violation is not None, res.summary()
    return list(res.violation.trace)


@pytest.mark.parametrize("protocol,variant", CORPUS)
def test_corpus_trace_reproduces(protocol, variant):
    trace = trace_for(protocol, variant)
    result = replay_counterexample(protocol, variant, trace)
    assert result.reproduced, result.summary()
    assert variant in result.summary() and "REPRODUCED" in result.summary()


@pytest.mark.parametrize("protocol,variant", [
    # One per barrier-shaped replay harness: CAS window, RMW overlap.
    ("insert", "tas_claim"),
    ("insert", "shared_stats"),
])
def test_replay_is_deterministic(protocol, variant):
    trace = trace_for(protocol, variant)
    outcomes = [replay_counterexample(protocol, variant, trace).reproduced
                for _ in range(3)]
    assert outcomes == [True, True, True]


class TestTraceValidation:
    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError, match="no replay"):
            replay_counterexample("insert", "no_such_bug", [])

    def test_malformed_trace_reports_not_reproduced(self):
        # A trace that never exhibits the overlap the replay needs must
        # come back "not reproduced" with a reason, not crash or hang.
        bogus = [Step("w1", "tas_load")]
        result = replay_counterexample("insert", "tas_claim", bogus)
        assert not result.reproduced
        assert result.detail

    def test_wrong_protocol_trace_is_rejected_cleanly(self):
        # Feed the shared-stats replay a CAS-window trace: shape
        # validation fails before any thread is started.
        trace = trace_for("insert", "tas_claim")
        result = replay_counterexample("insert", "shared_stats", trace)
        assert not result.reproduced
