"""The public surface: exported names resolve and the README's Python
examples run as written."""

import re
from pathlib import Path

import opdense
from opdense import featsel

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    for module in (opdense, featsel):
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(module.__all__) <= set(namespace), module.__name__


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
