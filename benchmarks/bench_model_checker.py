"""State-space growth of the protocol model checker.

Times :func:`repro.checks.model.check_model` over the fixed insert
protocol model at increasing sizes and records states/transitions per
point.  The report answers two operational questions:

* which bound fits the PR-gating CI job (target: well under a minute),
  and which belongs in the nightly deep run;
* whether a model change blew up the state space (partial-order
  reduction regressed, a new action stopped commuting, ...).

The growth is exponential by nature — the benchmark gates nothing on
wall time; it gates on the *models staying verified* at every measured
size and makes the growth curve visible as an artifact::

    python benchmarks/bench_model_checker.py --output BENCH_model.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# Allow running the file directly from a source checkout.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.checks.model import check_model
from repro.checks.protocols.corpus import build_model

#: (writers,) sweep for the insert model.
SMOKE_INSERT = (2, 3)
FULL_INSERT = (2, 3, 4, 5)


def _point(protocol: str, **sizes) -> dict:
    model = build_model(protocol, **sizes)
    t0 = time.perf_counter()
    res = check_model(model, max_states=2_000_000, max_depth=10_000)
    seconds = time.perf_counter() - t0
    return {
        "model": res.model_name,
        "sizes": sizes,
        "verified": res.ok and not res.truncated,
        "states": res.states_explored,
        "transitions": res.transitions,
        "max_depth": res.max_depth_seen,
        "seconds": round(seconds, 4),
    }


def measure(smoke: bool = True) -> dict:
    insert_sweep = SMOKE_INSERT if smoke else FULL_INSERT
    points = [_point("insert", writers=w) for w in insert_sweep]
    return {
        "benchmark": "model_checker",
        "mode": "smoke" if smoke else "full",
        "all_verified": all(p["verified"] for p in points),
        "points": points,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="protocol model checker state-space benchmark")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-bound sizes only")
    parser.add_argument("--output", default="BENCH_model.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    report = measure(smoke=args.smoke)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    for p in report["points"]:
        sizes = ", ".join(f"{k}={v}" for k, v in p["sizes"].items())
        print(f"{p['model']:<28} ({sizes}): "
              f"{p['states']:>8,} states, {p['transitions']:>9,} "
              f"transitions, depth {p['max_depth']:>3}, "
              f"{p['seconds']:.3f}s"
              + ("" if p["verified"] else "  ** NOT VERIFIED **"))
    print(f"wrote {args.output}")
    if not report["all_verified"]:
        print("REGRESSION: a fixed model failed verification at a "
              "measured size", file=sys.stderr)
        return 1
    return 0


# -- pytest mode (nightly benchmark suite) ---------------------------------------


def test_model_checker_state_space(benchmark):
    from conftest import emit_report, run_once

    report = run_once(benchmark, lambda: measure(smoke=False))
    emit_report(
        "model_checker",
        "Protocol model checker: state-space growth (POR on)",
        ["model", "states", "transitions", "seconds"],
        [
            [p["model"], f"{p['states']:,}", f"{p['transitions']:,}",
             f"{p['seconds']:.3f}"]
            for p in report["points"]
        ],
        notes="Every point must stay verified; growth is exponential "
              "in writers, so CI pins 3 writers and the nightly deep "
              "run takes 4.",
    )
    assert report["all_verified"]


if __name__ == "__main__":
    sys.exit(main())
