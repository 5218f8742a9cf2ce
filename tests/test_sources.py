"""Every Python source of the package, its tests and its benchmark parses
under the grammar of the oldest Python release `requires-python` admits,
which a newer interpreter would otherwise accept unnoticed."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = tuple(map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                                  (ROOT / "pyproject.toml").read_text(), re.M).groups()))
SOURCES = sorted(path for folder in ("src/rclc", "tests", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))


def test_the_oldest_release_is_3_10_and_every_folder_has_sources():
    assert OLDEST == (3, 10)
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == {"src", "tests", "perfbench"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_each_source_parses_under_the_oldest_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST)
