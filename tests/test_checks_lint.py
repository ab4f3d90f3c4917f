"""R1-R5 static lint rules: one fixture per rule, plus the real tree."""

from pathlib import Path

import pytest

from repro.checks.lint import LintIssue, lint_paths, lint_source

SRC = Path(__file__).resolve().parent.parent / "src"


def rules_of(issues: list[LintIssue]) -> set[str]:
    return {i.rule for i in issues}


class TestR1SharedArrayAccess:
    def test_unguarded_state_write_flagged(self):
        src = (
            "class T:\n"
            "    def insert_one_threadsafe(self, k, s):\n"
            "        self.state[0] = 2\n"
        )
        issues = lint_source(src, "table.py")
        assert rules_of(issues) == {"R1"}
        assert issues[0].line == 3

    def test_lock_guard_suppresses(self):
        src = (
            "class T:\n"
            "    def insert_one_threadsafe(self, k, s):\n"
            "        with self._count_locks[0]:\n"
            "            self.counts[0, s] += 1\n"
        )
        assert lint_source(src, "table.py") == []

    def test_cas_window_guard_suppresses(self):
        # The exclusive window after a won CAS is the protocol's
        # write-once key publication; it must not be flagged.
        src = (
            "class T:\n"
            "    def insert_one_threadsafe(self, k, s):\n"
            "        if self._atomic_state.compare_and_swap(0, 0, 1):\n"
            "            self.keys[0] = k\n"
        )
        assert lint_source(src, "table.py") == []

    def test_unthreaded_function_not_flagged(self):
        src = (
            "class T:\n"
            "    def insert_batch(self, kmers, slots):\n"
            "        self.state[0] = 2\n"
        )
        assert lint_source(src, "table.py") == []

    def test_reachability_through_self_calls(self):
        src = (
            "class T:\n"
            "    def insert_one_threadsafe(self, k, s):\n"
            "        self._inner(k, s)\n"
            "    def _inner(self, k, s):\n"
            "        self.keys[0] = k\n"
        )
        issues = lint_source(src, "table.py")
        assert rules_of(issues) == {"R1"}
        assert issues[0].line == 5

    def test_concurrentsub_module_all_threaded(self):
        src = (
            "class Q:\n"
            "    def anything(self):\n"
            "        self.state[0] = 1\n"
        )
        assert rules_of(lint_source(src, "repro/concurrentsub/q.py")) == {"R1"}
        assert lint_source(src, "repro/other/q.py") == []

    def test_parallel_module_all_threaded(self):
        # Every function under repro/parallel is threaded-reachable to
        # the linter, whatever its name.
        src = (
            "class S:\n"
            "    def route(self):\n"
            "        self.state[0] = 1\n"
        )
        assert rules_of(
            lint_source(src, "repro/parallel/backend.py")) == {"R1"}

    def test_pragma_suppression(self):
        src = (
            "class T:\n"
            "    def insert_one_threadsafe(self, k, s):\n"
            "        x = self.keys[0]"
            "  # checks: allow[R1] immutable after publication\n"
        )
        assert lint_source(src, "table.py") == []

    def test_pragma_is_rule_specific(self):
        # The wrong-rule pragma doesn't suppress R1 — and since it
        # suppresses nothing at all, R9 flags it as stale.
        src = (
            "class T:\n"
            "    def insert_one_threadsafe(self, k, s):\n"
            "        x = self.keys[0]  # checks: allow[R3] wrong rule\n"
        )
        assert rules_of(lint_source(src, "table.py")) == {"R1", "R9"}


class TestR2SharedAugAssign:
    def test_old_shared_stats_bug_is_flagged(self):
        # Verbatim shape of the bug this PR fixed: when no per-thread
        # stats object is passed, `stats` aliases the *shared*
        # self.stats and the += is a lost-update RMW.
        src = (
            "class T:\n"
            "    def insert_one_threadsafe(self, kmer, slot, local=None):\n"
            "        stats = local if local is not None else self.stats\n"
            "        stats.ops += 1\n"
        )
        issues = lint_source(src, "table.py")
        assert rules_of(issues) == {"R2"}
        assert issues[0].line == 4
        assert "aliases self.stats" in issues[0].message

    def test_direct_self_attr_rmw_flagged(self):
        src = (
            "class T:\n"
            "    def insert_one_threadsafe(self, k):\n"
            "        self.stats.ops += 1\n"
        )
        assert rules_of(lint_source(src, "table.py")) == {"R2"}

    def test_locked_rmw_clean(self):
        src = (
            "class T:\n"
            "    def insert_one_threadsafe(self, k):\n"
            "        with self._stats_lock:\n"
            "            self.stats.ops += 1\n"
        )
        assert lint_source(src, "table.py") == []

    def test_private_scratch_clean(self):
        # The fixed pattern: accumulate into a function-local scratch,
        # merge under the lock.
        src = (
            "class T:\n"
            "    def insert_one_threadsafe(self, k, local=None):\n"
            "        scratch = HashStats()\n"
            "        scratch.ops += 1\n"
        )
        assert lint_source(src, "table.py") == []


class TestR3RawEscapeHatch:
    def test_raw_flagged_everywhere(self):
        src = (
            "def setup(table):\n"
            "    table._atomic_state.raw()[:] = 0\n"
        )
        issues = lint_source(src, "anyfile.py")
        assert rules_of(issues) == {"R3"}

    def test_annotated_raw_allowed(self):
        src = (
            "def setup(table):\n"
            "    table._atomic_state.raw()[:] = 0"
            "  # checks: allow[R3] single-threaded init\n"
        )
        assert lint_source(src, "anyfile.py") == []


class TestR4BareLockCalls:
    def test_bare_acquire_release_flagged(self):
        src = (
            "def f(lock):\n"
            "    lock.acquire()\n"
            "    lock.release()\n"
        )
        issues = lint_source(src, "anyfile.py")
        assert [i.rule for i in issues] == ["R4", "R4"]

    def test_with_statement_clean(self):
        src = (
            "def f(lock):\n"
            "    with lock:\n"
            "        pass\n"
        )
        assert lint_source(src, "anyfile.py") == []

    def test_release_with_argument_is_not_a_lock(self):
        # The interleaving scheduler's gate API: release("gate-name").
        src = (
            "def f(sched):\n"
            "    sched.release('storm')\n"
        )
        assert lint_source(src, "anyfile.py") == []


class TestR5DtypePromotion:
    def test_uint64_plus_signed_flagged(self):
        src = (
            "import numpy as np\n"
            "def f():\n"
            "    keys = np.zeros(4, dtype=np.uint64)\n"
            "    offs = np.arange(4, dtype=np.int64)\n"
            "    return keys + offs\n"
        )
        issues = lint_source(src, "anyfile.py")
        assert rules_of(issues) == {"R5"}
        assert "float64" in issues[0].message

    def test_uint64_augassign_signed_flagged(self):
        src = (
            "import numpy as np\n"
            "def f():\n"
            "    keys = np.zeros(4, dtype=np.uint64)\n"
            "    keys += np.int64(3)\n"
            "    return keys\n"
        )
        assert rules_of(lint_source(src, "anyfile.py")) == {"R5"}

    def test_matching_unsigned_clean(self):
        src = (
            "import numpy as np\n"
            "def f():\n"
            "    keys = np.zeros(4, dtype=np.uint64)\n"
            "    offs = np.arange(4).astype(np.uint64)\n"
            "    return keys + offs\n"
        )
        assert lint_source(src, "anyfile.py") == []

    def test_astype_tracks_dtype(self):
        src = (
            "import numpy as np\n"
            "def f(raw):\n"
            "    keys = raw.astype(np.uint64)\n"
            "    step = np.asarray(raw, dtype=np.int32)\n"
            "    return keys * step\n"
        )
        assert rules_of(lint_source(src, "anyfile.py")) == {"R5"}


class TestR6SegmentLifecycle:
    def test_creator_without_unlink_flagged(self):
        src = (
            "def run():\n"
            "    seg = create_segment([('x', (4,), 'int8')])\n"
            "    seg['x'][:] = 1\n"
        )
        issues = lint_source(src, "backend.py")
        assert rules_of(issues) == {"R6"}
        assert issues[0].line == 2

    def test_try_finally_unlink_clean(self):
        src = (
            "def run():\n"
            "    seg = create_segment([('x', (4,), 'int8')])\n"
            "    try:\n"
            "        seg['x'][:] = 1\n"
            "    finally:\n"
            "        seg.unlink()\n"
        )
        assert lint_source(src, "backend.py") == []

    def test_with_statement_clean(self):
        src = (
            "def run():\n"
            "    with create_table_segment(64, 15) as seg:\n"
            "        seg['state'][:] = 0\n"
        )
        assert lint_source(src, "backend.py") == []

    def test_returned_segment_is_ownership_transfer(self):
        src = (
            "def make():\n"
            "    seg = create_segment([('x', (4,), 'int8')])\n"
            "    return seg\n"
        )
        assert lint_source(src, "backend.py") == []

    def test_gap_before_try_flagged(self):
        # The shape of the leak this PR fixed: the first create sits
        # *outside* the try/finally that unlinks, so a failure in the
        # second create orphans it.
        src = (
            "def run():\n"
            "    a = create_segment([('x', (4,), 'int8')])\n"
            "    b = create_segment([('y', (4,), 'int8')])\n"
            "    try:\n"
            "        pass\n"
            "    finally:\n"
            "        a.unlink()\n"
            "        b.unlink()\n"
        )
        issues = lint_source(src, "backend.py")
        assert [(i.rule, i.line) for i in issues] == [("R6", 2)]

    def test_attacher_unlink_flagged(self):
        src = (
            "def worker(spec):\n"
            "    seg = attach_segment(spec)\n"
            "    try:\n"
            "        pass\n"
            "    finally:\n"
            "        seg.unlink()\n"
        )
        issues = lint_source(src, "worker.py")
        assert "R6" in rules_of(issues)
        assert any("attach" in i.message or "unlink" in i.message
                   for i in issues)


class TestR7PickleHazard:
    def test_segment_handle_in_worker_args_flagged(self):
        src = (
            "def run(ctx):\n"
            "    seg = create_segment([('x', (4,), 'int8')])\n"
            "    try:\n"
            "        run_workers(work, 2, ctx=ctx, args=(seg,))\n"
            "    finally:\n"
            "        seg.unlink()\n"
        )
        assert rules_of(lint_source(src, "backend.py")) == {"R7"}

    def test_numpy_view_in_worker_args_flagged(self):
        src = (
            "def run(ctx):\n"
            "    seg = create_segment([('x', (4,), 'int8')])\n"
            "    try:\n"
            "        view = seg['x']\n"
            "        run_workers(work, 2, ctx=ctx, args=(view,))\n"
            "    finally:\n"
            "        seg.unlink()\n"
        )
        assert rules_of(lint_source(src, "backend.py")) == {"R7"}

    def test_spec_in_worker_args_clean(self):
        src = (
            "def run(ctx):\n"
            "    seg = create_segment([('x', (4,), 'int8')])\n"
            "    try:\n"
            "        run_workers(work, 2, ctx=ctx, args=(seg.spec,))\n"
            "    finally:\n"
            "        seg.unlink()\n"
        )
        assert lint_source(src, "backend.py") == []


class TestR8CounterDiscipline:
    def test_raw_counter_store_flagged(self):
        src = (
            "def hand_off(self):\n"
            "    self.srv.value = 5\n"
        )
        assert rules_of(lint_source(src, "queue.py")) == {"R8"}

    def test_fetch_increment_clean(self):
        src = (
            "def hand_off(self):\n"
            "    ticket = self.cns.fetch_increment()\n"
            "    self.srv.increment()\n"
            "    return ticket\n"
        )
        assert lint_source(src, "queue.py") == []

    def test_locked_store_clean(self):
        src = (
            "def reset(self):\n"
            "    with self._lock:\n"
            "        self.srv._value.value = 0\n"
        )
        assert lint_source(src, "queue.py") == []

    def test_unrelated_value_attr_clean(self):
        src = (
            "def set_flag(self):\n"
            "    self.mode.value = 3\n"
        )
        assert lint_source(src, "queue.py") == []


class TestR9StalePragma:
    def test_stale_pragma_flagged(self):
        src = (
            "def f():\n"
            "    x = 1  # checks: allow[R3] nothing here needs this\n"
            "    return x\n"
        )
        issues = lint_source(src, "anyfile.py")
        assert rules_of(issues) == {"R9"}
        assert issues[0].line == 2

    def test_used_pragma_not_flagged(self):
        src = (
            "def setup(table):\n"
            "    table._atomic_state.raw()[:] = 0"
            "  # checks: allow[R3] single-threaded init\n"
        )
        assert lint_source(src, "anyfile.py") == []

    def test_pragma_in_string_literal_ignored(self):
        # Only real comments are pragmas; documentation that *mentions*
        # the syntax must neither suppress nor count as stale.
        src = (
            "def f():\n"
            "    return 'use # checks: allow[R3] to annotate'\n"
        )
        assert lint_source(src, "anyfile.py") == []


class TestRealTree:
    def test_src_tree_lints_clean(self):
        # The acceptance bar for the fixed tree: every surviving
        # lock-free access is pragma-annotated with its safety argument.
        issues = lint_paths([SRC])
        assert issues == [], "\n".join(i.format() for i in issues)

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            lint_source("def broken(:\n", "broken.py")
