"""Every ```python block of the README runs against the current library, so
an example cannot keep a name the library no longer has, and PAPER.md is the
README behind its four-line header, so the two cannot drift apart."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md[python block {index}]", "exec"), {})


def test_paper_is_the_readme_behind_its_header():
    paper = (ROOT / "PAPER.md").read_text(encoding="utf-8").split("\n", 4)[4]
    assert paper.rstrip("\n") == README.read_text(encoding="utf-8").rstrip("\n")
