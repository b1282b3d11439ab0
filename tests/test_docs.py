"""The README's Python usage runs, and every module exports what it lists."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import reservematch as rm

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_every_name_in_a_module_all_exists():
    modules = [rm] + [
        importlib.import_module(f"reservematch.{info.name}")
        for info in pkgutil.iter_modules(rm.__path__)
    ]
    listed = 0
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
            listed += 1
    assert listed > 50
