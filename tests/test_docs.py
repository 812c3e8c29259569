"""The README's library example runs as printed, and every exported name resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import corrflux

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = [f"corrflux.{m.name}" for m in pkgutil.iter_modules(corrflux.__path__) if not m.name.startswith("_")]


def test_readme_python_block_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {})
    # Its second print is Delta U_chi at the horizon, which the comment gives as -4 g c = -0.016.
    assert float(capsys.readouterr().out.splitlines()[1]) == pytest.approx(-0.016, abs=1e-6)


@pytest.mark.parametrize("module", ["corrflux", *MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
