"""Every name a module exports resolves, as `from defexp.<module> import *`
needs, and README's Python API block runs as written."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import defexp

MODULES = [
    m.name for m in pkgutil.iter_modules(defexp.__path__) if m.name != "__main__"
]

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_export(name):
    module = importlib.import_module(f"defexp.{name}")
    exported = getattr(module, "__all__", [])
    namespace = {}
    exec(f"from defexp.{name} import *", namespace)
    assert [n for n in exported if n not in namespace] == []


def test_readme_python_api_block_runs():
    """The fenced block under "Python API in five lines", through doctest:
    each of its five examples prints exactly what README shows."""
    block = re.search(
        r"^## Python API in five lines\n\n```python\n(.*?)^```", README.read_text(), re.M | re.S
    ).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    result = runner.run(test)
    assert result == (0, 5)
