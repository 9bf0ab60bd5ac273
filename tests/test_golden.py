"""Byte-for-byte CLI output on a fixed corpus.

`golden/cases.json` maps a case name to its CLI arguments, with file
arguments relative to `golden/`; `golden/<case>.stdout` is the exact
stdout the CLI printed for it when the corpus was recorded.  Refactors
must leave every one of these outputs unchanged.
"""

import argparse
import json
from pathlib import Path

import pytest

from isf.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_stdout(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert main(CASES[case]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{case}.stdout").read_bytes()


def test_cases_and_stdout_files_correspond_one_to_one():
    # a recorded stdout without a case is never checked; a case without
    # one fails only when replayed
    assert sorted(p.stem for p in GOLDEN.glob("*.stdout")) == sorted(CASES)


def _command_forms(parser, words=()):
    """The word sequences that reach a leaf subcommand of parser."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [words]
    return [form for action in subs for name, sub in action.choices.items()
            for form in _command_forms(sub, (*words, name))]


def test_every_command_form_has_a_case():
    # the byte-identity contract covers a handler only through its cases
    forms = _command_forms(build_parser())
    assert ("check", "peo") in forms and ("enumerate",) in forms
    uncovered = [" ".join(form) for form in forms if not any(
        tuple(args[:len(form)]) == form for args in CASES.values())]
    assert uncovered == []
