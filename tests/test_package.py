"""The lazy ``lagspec`` namespace: public names resolve on first access."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lagspec


def test_all_names_listed_by_dir():
    assert set(lagspec.__all__) <= set(dir(lagspec))


@pytest.mark.parametrize("name", lagspec.__all__)
def test_name_is_the_defining_modules_object(name):
    value = getattr(lagspec, name)
    assert getattr(sys.modules[value.__module__], name) is value


def test_exports_are_the_names_each_submodule_defines_and_lists():
    # A name a submodule re-exports maps to the module that defines it; a
    # name with no __module__ (a constant) cannot be checked, so no __all__ holds one.
    defined = {}
    for sub in sorted(lagspec._SUBMODULES):
        module = getattr(lagspec, sub)
        defined.update({name: sub for name in module.__all__
                        if getattr(module, name).__module__ == module.__name__})
    assert lagspec._EXPORTS == defined


def test_star_import_binds_all():
    namespace = {}
    exec("from lagspec import *", namespace)
    assert set(lagspec.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(lagspec, name) for name in lagspec.__all__)


def test_submodule_import():
    from lagspec import ensembles

    assert ensembles.make_rng is lagspec.make_rng
    assert lagspec.spectral is sys.modules["lagspec.spectral"]


def test_submodule_resolves_through_the_package_getattr():
    # In a fresh interpreter no submodule is bound on the package yet, so
    # ``lagspec.rates`` is resolved by the package's __getattr__.
    code = ("import sys, lagspec\n"
            "assert 'rates' not in vars(lagspec)\n"
            "rates = lagspec.rates\n"
            "print(rates is sys.modules['lagspec.rates'], rates.ldp_rate is lagspec.ldp_rate)")
    env = {**os.environ, "PYTHONPATH": str(Path(lagspec.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.splitlines() == ["True True"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lagspec.no_such_name
    with pytest.raises(ImportError):
        from lagspec import no_such_name  # noqa: F401


def test_import_loads_no_submodule_until_a_name_is_used():
    code = ("import sys, lagspec\n"
            "def loaded(): return sorted(m for m in sys.modules if m.startswith('lagspec.'))\n"
            "print(loaded())\n"
            "lagspec.d_matrix\n"
            "print(loaded())")
    env = {**os.environ, "PYTHONPATH": str(Path(lagspec.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.splitlines() == ["[]", "['lagspec.errors', 'lagspec.moments']"]


def test_readme_quick_start_runs():
    # The README's Quick start block, as written, against this source tree.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(Path(lagspec.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert len(res.stdout.splitlines()) == 2
