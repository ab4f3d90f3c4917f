"""Command-line driver: ``python -m repro.checks [lint|races|model] ...``.

* ``lint`` — run the R1–R9 static rules over source paths; exit 1 when
  any issue survives its pragmas.
* ``races`` — run the dynamic lockset detector over a threaded stress
  load and the adversarial scheduler scenarios; exit 1 when a candidate
  race is reported.  ``--seed-bug`` re-introduces a fixed bug to
  demonstrate detection (the exit code then *expects* the race).
* ``model`` — explore the abstract CAS-insert protocol model
  exhaustively up to a bound; exit 1 on any
  invariant violation, deadlock, or bound truncation.  ``--corpus``
  additionally requires every seeded-bug variant to be *refuted* with a
  counterexample trace that replays against the real implementation.
"""

from __future__ import annotations

import argparse
import sys

from .lint import lint_paths
from .report import print_report

#: Model size used when *refuting* seeded-bug variants.  Small on
#: purpose: two writers is the minimal arena in which every corpus bug
#: manifests, the search finds the counterexample in milliseconds, and
#: the resulting trace maps 1:1 onto the two-thread replay harnesses in
#: :mod:`repro.checks.replay`.
_REFUTE_WRITERS = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.checks",
        description="concurrency static analysis + lockset race detection "
                    "for the state-transfer protocol",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lint", help="run the R1-R5 static concurrency rules")
    p.add_argument("paths", nargs="+", help="files or directories to lint")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("races", help="run the dynamic lockset race detector")
    p.add_argument("--threads", type=int, default=8)
    p.add_argument("--ops", type=int, default=4096)
    p.add_argument("--distinct", type=int, default=64,
                   help="distinct keys (lower = heavier contention)")
    p.add_argument("--capacity", type=int, default=1024)
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument("--seed-bug", choices=["shared_stats", "numpy_publish"],
                   help="re-introduce a fixed race to demonstrate detection")
    p.add_argument("--no-scenarios", action="store_true",
                   help="skip the adversarial scheduler scenarios")
    p.set_defaults(func=cmd_races)

    p = sub.add_parser(
        "model",
        help="explicit-state model checking of the protocol models")
    p.add_argument("--writers", type=int, default=3,
                   help="insert model: concurrent writers (CI bound: 3)")
    p.add_argument("--deep", action="store_true",
                   help="nightly bound: 4 writers")
    p.add_argument("--max-states", type=int, default=500_000)
    p.add_argument("--max-depth", type=int, default=5_000)
    p.add_argument("--corpus", action="store_true",
                   help="refute every seeded-bug variant and replay each "
                        "counterexample against the real code")
    p.add_argument("--bug", metavar="VARIANT",
                   help="refute a single seeded-bug variant")
    p.add_argument("--no-replay", action="store_true",
                   help="skip executing counterexamples against the real "
                        "implementation (model-level refutation only)")
    p.add_argument("--show-trace", action="store_true",
                   help="print every counterexample trace, not just "
                        "unexpected ones")
    p.set_defaults(func=cmd_model)

    return parser


def cmd_lint(args: argparse.Namespace) -> int:
    try:
        issues = lint_paths(args.paths)
    except OSError as exc:
        print(f"repro.checks lint: {exc}", file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"repro.checks lint: cannot parse {exc.filename}:{exc.lineno}: "
              f"{exc.msg}", file=sys.stderr)
        return 2
    return print_report(issues, fmt=lambda i: i.format(),
                        key=lambda i: i.rule, tool="lint")


def cmd_races(args: argparse.Namespace) -> int:
    # Imported lazily: the lint path must not pay for numpy/threading.
    from contextlib import nullcontext

    from ..core.hashtable import ConcurrentHashTable, seed_bugs
    from .instrument import lockset_session
    from .schedule import (
        cas_storm_scenario,
        stale_lookup_scenario,
        stress_shared_path,
        stress_threaded,
        writer_pause_scenario,
    )

    seeding = seed_bugs(args.seed_bug) if args.seed_bug else nullcontext()
    with seeding:
        table = ConcurrentHashTable(args.capacity, k=15)
        with lockset_session() as mon:
            stress_threaded(table, n_distinct=args.distinct, n_ops=args.ops,
                            n_threads=args.threads, seed=args.seed)
            shared_table = ConcurrentHashTable(args.capacity, k=15)
            stress_shared_path(shared_table, n_distinct=args.distinct,
                               n_ops=max(256, args.ops // 2),
                               n_threads=args.threads, seed=args.seed)
        races = mon.races()

        scenario_lines: list[str] = []
        if not args.no_scenarios:
            storm_table = ConcurrentHashTable(args.capacity, k=15)
            storm = cas_storm_scenario(storm_table, n_threads=args.threads)
            scenario_lines.append(
                f"cas-storm: {storm.stats.cas_failures} lost CAS "
                f"({args.threads - 1} expected), "
                f"{storm_table.n_occupied} slot occupied"
            )
            pause_table = ConcurrentHashTable(args.capacity, k=15)
            pause = writer_pause_scenario(pause_table)
            scenario_lines.append(
                f"writer-pause: {pause.stats.blocked_reads} blocked reads "
                f"while the writer slept between LOCKED and OCCUPIED; "
                f"all readers completed (no livelock)"
            )
            stale_table = ConcurrentHashTable(args.capacity, k=15)
            stale = stale_lookup_scenario(stale_table)
            scenario_lines.append(
                "stale-lookup: lookup after a committed update "
                + ("MISSED the key (linearizability violation)"
                   if stale.lookup_missed else "found the key")
            )
            if stale.lookup_missed:
                races = races or [None]  # force failure exit below

    print(f"stress: {args.ops} ops over {args.distinct} distinct keys, "
          f"{args.threads} threads"
          + (f" [seeded bug: {args.seed_bug}]" if args.seed_bug else ""))
    for line in scenario_lines:
        print(line)
    if races:
        print(f"\n{len([r for r in races if r is not None])} candidate "
              f"race(s):\n")
        for r in races:
            if r is not None:
                print(r.describe())
                print()
        return 1
    print("races: no candidate races detected")
    return 0


def cmd_model(args: argparse.Namespace) -> int:
    # Lazy imports, same reason as cmd_races: `lint` stays numpy-free.
    from .model import check_model, render_trace
    from .protocols.corpus import CORPUS, build_model

    writers = max(args.writers, 4) if args.deep else args.writers

    failures: list[str] = []

    # -- refutation mode: seeded-bug corpus --------------------------------
    if args.bug or args.corpus:
        pairs = [(p, v) for p, v in CORPUS
                 if args.corpus or v == args.bug]
        if not pairs:
            known = ", ".join(v for _, v in CORPUS)
            print(f"repro.checks model: unknown seeded bug {args.bug!r} "
                  f"(corpus: {known})", file=sys.stderr)
            return 2
        for protocol, variant in pairs:
            model = build_model(protocol, variant=variant,
                                writers=_REFUTE_WRITERS)
            res = check_model(model, max_states=args.max_states,
                              max_depth=args.max_depth)
            label = f"{protocol}/{variant}"
            if res.violation is None:
                failures.append(f"{label}: NOT refuted — {res.summary()}")
                continue
            v = res.violation
            print(f"{label}: refuted — {v.kind}: {v.message} "
                  f"[{len(v.trace)}-step trace, {res.states_explored} states]")
            if args.show_trace:
                print(render_trace(v.trace, title=label))
            if not args.no_replay:
                from .replay import replay_counterexample

                rep = replay_counterexample(protocol, variant, v.trace)
                print(f"  replay: {rep.summary()}")
                if not rep.reproduced:
                    failures.append(f"{label}: trace did not replay — "
                                    f"{rep.detail}")
        return print_report(
            failures, fmt=str, key=lambda f: f.split(":", 1)[0],
            tool="model (corpus)", noun="refutation failure")

    # -- verification mode: the fixed protocol -----------------------------
    model = build_model("insert", writers=writers)
    res = check_model(model, max_states=args.max_states,
                      max_depth=args.max_depth)
    print(res.summary())
    if res.violation is not None:
        print(render_trace(res.violation.trace, title=model.name))
        failures.append(f"{model.name}: {res.violation.kind}")
    elif res.truncated:
        # A truncated run proves nothing; CI must not go green on it.
        failures.append(f"{model.name}: bounds hit before exhaustion "
                        f"(raise --max-states/--max-depth)")
    return print_report(
        failures, fmt=str, key=lambda f: f.split(":", 1)[0],
        tool="model", noun="violation")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
