"""The package's public surface: what perfbench and the README import."""

import ast
import importlib
import os
import types

import searchphase

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(*parts):
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as fh:
        return fh.read()


def _searchphase_imports(source):
    """(module, name) of each `from searchphase... import name` in source."""
    return [(node.module, alias.name)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "searchphase"
            for alias in node.names]


def test_perfbench_and_readme_imports_resolve_on_the_public_surface():
    library = _read("README.md").split("## Library", 1)[1].split("```python\n", 1)[1]
    readme = _searchphase_imports(library.split("```", 1)[0])
    bench = [pair for name in sorted(os.listdir(os.path.join(ROOT, "perfbench")))
             if name.endswith(".py") for pair in _searchphase_imports(_read("perfbench", name))]
    assert readme and bench
    for module, name in readme + bench:
        mod = importlib.import_module(module)
        value = getattr(mod, name, None) or importlib.import_module(f"{module}.{name}")
        if module == "searchphase" and not isinstance(value, types.ModuleType):
            assert name in searchphase.__all__, name
    names = searchphase.__all__
    assert len(set(names)) == len(names)
    assert not any(isinstance(getattr(searchphase, n), types.ModuleType) for n in names)


def test_every_public_name_keeps_its_docstring():
    # a dataclass or NamedTuple without a docstring gets "Name(field, ...)" as its __doc__
    for name in searchphase.__all__:
        doc = getattr(searchphase, name).__doc__
        assert doc and doc.strip() and not doc.startswith(name + "("), name
