"""Explicit-state model checker: core search + the protocol models."""

from __future__ import annotations

from dataclasses import dataclass, replace

import pytest

from repro.checks.model import (
    Action,
    ProtocolModel,
    Step,
    check_model,
    render_trace,
    steps_of,
)
from repro.checks.protocols.cas_insert import INSERT_VARIANTS
from repro.checks.protocols.corpus import CORPUS, build_model


# -- a tiny hand-rolled model to pin the search semantics -----------------------


@dataclass(frozen=True)
class Counter:
    value: int


class CountToThree(ProtocolModel):
    """Two processes increment a shared counter to 3; no invariant."""

    name = "count-to-three"

    def __init__(self, bug: str | None = None, local_marks: bool = False):
        self.bug = bug
        self.local_marks = local_marks

    def initial(self) -> Counter:
        return Counter(0)

    def enabled(self, state: Counter) -> list[Action]:
        if state.value >= 3:
            return []
        return [
            Action(process=p, name="inc",
                   apply=lambda s: replace(s, value=s.value + 1),
                   local=self.local_marks)
            for p in ("a", "b")
        ]

    def invariant(self, state: Counter) -> str | None:
        if self.bug == "invariant" and state.value == 2:
            return "reached two"
        return None

    def is_terminal(self, state: Counter) -> bool:
        if self.bug == "deadlock":
            return False  # value==3 has no actions but isn't terminal
        return state.value >= 3

    def terminal_check(self, state: Counter) -> str | None:
        if self.bug == "terminal" and state.value == 3:
            return "bad final state"
        return None


class TestSearchCore:
    def test_clean_model_verifies(self):
        res = check_model(CountToThree())
        assert res.ok and res.violation is None and not res.truncated
        assert res.states_explored == 4  # values 0..3, hashed once each

    def test_invariant_violation_with_trace(self):
        res = check_model(CountToThree(bug="invariant"))
        assert not res.ok
        assert res.violation.kind == "invariant"
        # The trace drives the initial state to the violating one.
        state = Counter(0)
        for step in res.violation.trace:
            state = replace(state, value=state.value + 1)
        assert state.value == 2

    def test_deadlock_detected(self):
        res = check_model(CountToThree(bug="deadlock"))
        assert not res.ok and res.violation.kind == "deadlock"

    def test_terminal_check_fires(self):
        res = check_model(CountToThree(bug="terminal"))
        assert not res.ok and res.violation.kind == "terminal"
        assert len(res.violation.trace) == 3

    def test_state_bound_truncates(self):
        res = check_model(CountToThree(), max_states=2)
        assert res.truncated
        assert res.ok  # nothing found *within* the bound

    def test_por_prunes_local_actions(self):
        # With every action marked process-local, the ample set
        # explores one interleaving instead of all of them.
        full = check_model(CountToThree())
        reduced = check_model(CountToThree(local_marks=True))
        assert reduced.ok
        assert reduced.transitions < full.transitions

    def test_render_trace_numbers_steps(self):
        trace = [Step("a", "inc"), Step("b", "inc")]
        text = render_trace(trace, title="demo")
        assert "interleaving: demo" in text
        assert "1. a: inc" in text and "2. b: inc" in text
        assert steps_of(trace, "inc") == ["a", "b"]


# -- the real protocol models ---------------------------------------------------


class TestFixedProtocols:
    def test_insert_verifies_at_ci_bound(self):
        res = check_model(build_model("insert", writers=3))
        assert res.ok and not res.truncated, res.summary()

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            build_model("mutex")


class TestSeededCorpus:
    def test_corpus_covers_all_protocols(self):
        assert set(INSERT_VARIANTS) == {v for _, v in CORPUS}
        assert len(CORPUS) == 3

    @pytest.mark.parametrize("protocol,variant", CORPUS)
    def test_every_variant_is_refuted(self, protocol, variant):
        model = build_model(protocol, variant=variant, writers=2)
        res = check_model(model)
        assert res.violation is not None, (
            f"{protocol}/{variant} was not refuted: {res.summary()}")
        assert res.violation.trace, "violation must carry a replayable trace"

    @pytest.mark.parametrize("protocol,variant", CORPUS)
    def test_refutations_are_deterministic(self, protocol, variant):
        def run():
            model = build_model(protocol, variant=variant, writers=2)
            return check_model(model).violation.trace

        assert run() == run(), "DFS order must be stable run to run"


# -- the CLI and shared reporting -----------------------------------------------


class TestModelCli:
    def test_verify_mode_clean(self, capsys):
        from repro.checks.cli import main

        assert main(["model"]) == 0
        out = capsys.readouterr().out
        assert "verified" in out and "checks model: clean" in out

    def test_corpus_mode_refutes_and_replays(self, capsys):
        from repro.checks.cli import main

        assert main(["model", "--corpus"]) == 0
        out = capsys.readouterr().out
        for _, variant in CORPUS:
            assert f"{variant}: refuted" in out
        assert out.count("REPRODUCED") == len(CORPUS)

    def test_single_bug_with_trace(self, capsys):
        from repro.checks.cli import main

        assert main(["model", "--bug", "numpy_publish", "--show-trace",
                     "--no-replay"]) == 0
        out = capsys.readouterr().out
        assert "interleaving: insert/numpy_publish" in out

    def test_unknown_bug_is_usage_error(self, capsys):
        from repro.checks.cli import main

        assert main(["model", "--bug", "nope"]) == 2
        assert "unknown seeded bug" in capsys.readouterr().err

    def test_tiny_state_bound_fails_verification(self, capsys):
        from repro.checks.cli import main

        assert main(["model", "--max-states", "10"]) == 1
        assert "bounds hit" in capsys.readouterr().out


class TestReportHelpers:
    def test_counts_and_verdict(self):
        from repro.checks.report import count_by, format_counts, verdict

        counts = count_by(["R1", "R6", "R1"], key=lambda r: r)
        assert counts == {"R1": 2, "R6": 1}
        assert format_counts(counts) == "R1: 2, R6: 1"
        assert verdict("lint", 0) == "checks lint: clean"
        assert verdict("model", 3, "violation", "a: 3") \
            == "3 violation(s) (a: 3)"

    def test_print_report_exit_codes(self, capsys):
        from repro.checks.report import print_report

        assert print_report([], fmt=str, key=str, tool="model") == 0
        assert "checks model: clean" in capsys.readouterr().out
        assert print_report(["x: boom"], fmt=str,
                            key=lambda f: f.split(":")[0],
                            tool="model", noun="violation") == 1
        out = capsys.readouterr().out
        assert "x: boom" in out and "1 violation(s) (x: 1)" in out
