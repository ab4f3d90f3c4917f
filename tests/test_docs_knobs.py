"""The knob table in docs/parallel.md matches the config and the CLI.

Every ``ParaHashConfig`` field has one row, and every ``repro build``
flag the table names exists, so a deleted or renamed knob cannot leave
the documentation behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
from pathlib import Path

from repro.cli import build_parser
from repro.core.config import ParaHashConfig

DOC = Path(__file__).resolve().parents[1] / "docs" / "parallel.md"


def knob_rows() -> dict[str, str]:
    """``{field: flag}`` from the "Knobs" table (flag "—" when none)."""
    text = DOC.read_text(encoding="utf-8")
    section = text.split("### Knobs", 1)[1]
    rows: dict[str, str] = {}
    for line in section.splitlines():
        match = re.match(r"\|\s*`(\w+)`\s*\|\s*(`[^`]+`|—)\s*\|", line)
        if match:
            rows[match.group(1)] = match.group(2).strip("`")
        elif rows and not line.startswith("|"):
            break  # the table ended
    return rows


def build_flags() -> set[str]:
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {flag for action in sub.choices["build"]._actions
            for flag in action.option_strings}


def test_knob_table_lists_every_config_field():
    fields = {f.name for f in dataclasses.fields(ParaHashConfig)}
    assert set(knob_rows()) == fields


def test_knob_table_flags_are_build_options():
    named = {flag for flag in knob_rows().values() if flag != "—"}
    assert named
    assert named <= build_flags()
