"""Every exported name has a caller in the program or the benchmark.

A name in a module's ``__all__`` must appear as an identifier (a name,
an attribute or an import) in ``src/sentepi/*.py`` or ``bench/*.py``.
Strings, such as the ``__all__`` entries themselves, do not count, and
neither do the tests: code that only tests call is not part of the
pipeline. Likewise every defaulted parameter of an exported function or
class must be passed, by keyword or by position, by some call there: a
knob that only tests turn is not part of the pipeline either. And every
field of an exported dataclass must be read there, as an attribute: a
result that nothing reads is not part of the pipeline's output.
"""

import ast
import enum
import importlib
import inspect
import pkgutil
from dataclasses import fields, is_dataclass
from pathlib import Path

import sentepi
from sentepi.epi import SEIRParams

REPO = Path(__file__).resolve().parents[1]

# Exported with no caller outside the tests, on purpose: name -> why.
ALLOWED: dict[str, str] = {}


# Defaulted parameters with no caller that passes them, on purpose:
# "module.callable.parameter" -> why.
ALLOWED_DEFAULTS = {
    **{f"epi.SEIRParams.{fld.name}": "the oracles vary the disease model"
       for fld in fields(SEIRParams)},
    "epi.run_seir.params": "the oracles pass run_seir the disease model they vary",
    "epi.run_seir.record_trace": "the oracles check the trace it records",
    **{f"synthetic.write_pipeline_fixture.{name}": "tests shrink and vary the fixture"
       for name in ("n_users", "n_tweets", "labeled_fraction")},
}


# Fields of exported dataclasses that no attribute load reads, on purpose:
# "module.Class.field" -> why.
ALLOWED_FIELDS = {
    **{f"epi.SweepPoint.{name}": "a column of sweep_report.csv, written from fields()"
       for name in ("runs", "p_ge_5pct", "rr_5pct")},
    **{f"homophily.CommunityStats.{name}": "a column of communities.csv, written from fields()"
       for name in ("p_neg", "fisher_p", "direction")},
    "classify.NaiveBayesModel.smoothing": "stored in ensemble_model.json through _schema",
    **{f"classify.MaxEntModel.{name}": "stored in ensemble_model.json through _COEFFICIENTS"
       " and _schema" for name in ("weights", "bias", "l2")},
    **{f"epi.SimResult.{name}": "the oracles pin each run by it"
       for name in ("ever_infected", "index_node")},
}


def _program_nodes():
    for path in [*(REPO / "src" / "sentepi").glob("*.py"), *(REPO / "bench").glob("*.py")]:
        yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def _exports():
    """(module name, exported name, object) for every ``__all__`` entry."""
    for info in pkgutil.iter_modules(sentepi.__path__):
        module = importlib.import_module(f"sentepi.{info.name}")
        for name in getattr(module, "__all__", ()):
            yield info.name, name, getattr(module, name)


def _identifiers() -> set[str]:
    found = set()
    for node in _program_nodes():
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update((node.asname or node.name, node.name.rsplit(".", 1)[-1]))
    return found


def _passed() -> dict[str, tuple[int, set[str]]]:
    """Called name -> (most positional arguments, keywords) over all calls;
    a ``*`` argument counts as every position, ``**`` as every keyword."""
    passed: dict[str, tuple[int, set[str]]] = {}
    for node in _program_nodes():
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        most, keywords = passed.get(name, (0, set()))
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        most = max(most, float("inf") if starred else len(node.args))
        keywords |= {kw.arg or "**" for kw in node.keywords}
        passed[name] = (most, keywords)
    return passed


def test_every_exported_name_has_a_caller():
    used = _identifiers()
    unused = {f"{module}.{name}" for module, name, _ in _exports() if name not in used}
    assert unused == set(ALLOWED)


def test_every_defaulted_parameter_is_passed():
    passed = _passed()
    unpassed = set()
    for module, name, obj in _exports():
        if f"{module}.{name}" in ALLOWED or not (
            inspect.isfunction(obj) or inspect.isclass(obj) and not issubclass(obj, enum.Enum)
        ):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:  # an exception class that keeps BaseException's (*args)
            continue
        most, keywords = passed.get(name, (0, set()))
        for position, param in enumerate(params):
            if param.default is param.empty or param.name in keywords or "**" in keywords:
                continue
            if param.kind is param.KEYWORD_ONLY or position >= most:
                unpassed.add(f"{module}.{name}.{param.name}")
    assert unpassed == set(ALLOWED_DEFAULTS)


def test_every_field_of_an_exported_dataclass_is_read_by_the_program():
    read = {node.attr for node in _program_nodes()
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = {f"{module}.{name}.{fld.name}" for module, name, obj in _exports()
              if isinstance(obj, type) and is_dataclass(obj)
              for fld in fields(obj) if fld.name not in read}
    assert unread == set(ALLOWED_FIELDS)
