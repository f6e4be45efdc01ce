"""Public API surface of the fvkit package, and the README's quick tour."""

import re
from pathlib import Path

import fvkit


def test_all_names_resolve_once():
    names = fvkit.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(fvkit, name)]
    assert missing == []


def test_readme_quick_tour_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
