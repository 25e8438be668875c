"""The record key format: stated once, in ``interfersim.records``."""

import ast
import re
from pathlib import Path

import pytest

from interfersim import records
from interfersim.records import (
    event_suffix,
    event_token,
    key_tokens,
    parse_event_token,
    record_key,
)

SRC = Path(records.__file__).resolve().parent

# An event token, with each f-string field read as a number: ``L<k>:C...``
# or ``...:N``.
_TOKEN = re.compile(r"L[^\s;:]*:C|:N(?![A-Za-z0-9_])")


def _text(node: ast.AST) -> str | None:
    """A string literal's text, or an f-string's with each field as ``0``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "0"
                       for part in node.values)
    return None


def _docstrings(tree: ast.Module) -> set[int]:
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def _tokens(tree: ast.Module):
    """``(line, text)`` of every string literal or f-string, docstrings
    aside, that spells an event token."""
    skip = _docstrings(tree)
    for node in ast.walk(tree):
        text = None if id(node) in skip else _text(node)
        if text is not None and _TOKEN.search(text):
            yield node.lineno, text


def test_only_records_spells_an_event_token():
    found = [f"{path.name}:{line}: {text!r}"
             for path in sorted(SRC.glob("*.py")) if path.name != "records.py"
             for line, text in _tokens(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


@pytest.mark.parametrize("source, flagged", [
    ('"L2:N"', True),
    ('"L2:N;L4:C1"', True),
    ('f"L{layer + 1}:N"', True),
    ('f"L{layer + 1}:C{clicked + 1}"', True),
    ('":N"', True),
    ('"post-select on L2:N for the branch"', True),
    ('"L<k>:N|C<j>"', True),
    ('def f():\n    "A docstring may show L2:N."\n', False),
    ('"L2"', False),
    ('"-"', False),
    ('"path=J[,mode=..,junk=..]"', False),
    ('"NaN"', False),
    ('f"{x:N}"', False),
    ('"Click / NoClick"', False),
])
def test_token_scan_flags_spelled_tokens(source, flagged):
    if not source.startswith("def"):
        source = "x = " + source  # a lone literal would be a docstring
    assert bool(list(_tokens(ast.parse(source)))) is flagged


@pytest.mark.parametrize("events", [
    (), ((0, None),), ((1, 0), (3, None)), ((9, 10), (10, 9), (11, None)),
])
def test_keys_split_back_into_their_tokens(events):
    suffixes = [event_suffix(*event) for event in events]
    key = record_key("".join(suffixes))
    tokens = key_tokens(key)
    assert tokens == [event_token(*e) for e in events] == list(map(record_key, suffixes))
    assert key == (";".join(tokens) or "-")
    assert [parse_event_token(t) for t in tokens] == list(events)
