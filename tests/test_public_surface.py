"""Every exported name has a caller in the program or the benchmark.

A name in a module's ``__all__`` must appear as an identifier (a name,
an attribute or an import) in ``src/sentepi/*.py`` or ``bench/*.py``.
Strings, such as the ``__all__`` entries themselves, do not count, and
neither do the tests: code that only tests call is not part of the
pipeline.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import sentepi

REPO = Path(__file__).resolve().parents[1]

# Exported with no caller outside the tests, on purpose: name -> why.
ALLOWED = {
    "synthetic.synthetic_corpus": "builds test inputs; synthetic is the test-data module",
    "synthetic.synthetic_opinionated_network": "builds test inputs, as synthetic_corpus",
}


def _identifiers() -> set[str]:
    found = set()
    for path in [*(REPO / "src" / "sentepi").glob("*.py"), *(REPO / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.update((node.asname or node.name, node.name.rsplit(".", 1)[-1]))
    return found


def test_every_exported_name_has_a_caller():
    used = _identifiers()
    unused = set()
    for info in pkgutil.iter_modules(sentepi.__path__):
        module = importlib.import_module(f"sentepi.{info.name}")
        unused.update(
            f"{info.name}.{name}" for name in getattr(module, "__all__", ()) if name not in used
        )
    assert unused == set(ALLOWED)
