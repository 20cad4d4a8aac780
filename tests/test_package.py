"""Every module's export list names what the module defines, and README's
library example runs."""

import csv
import importlib
import pkgutil
from pathlib import Path

import pytest

import glfm
from glfm.synthetic import generate, to_csv

# __main__ runs the CLI on import, so it has nothing to export
MODULES = sorted(m.name for m in pkgutil.iter_modules(glfm.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_star_import_of_each_module(name):
    module = importlib.import_module(f"glfm.{name}")
    assert hasattr(module, "__all__"), f"glfm.{name} declares no __all__"
    # a star import raises AttributeError on a name that __all__ lists but
    # the module does not define
    exec(f"from glfm.{name} import *", {})


def test_package_exports_resolve():
    assert [n for n in glfm.__all__ if not hasattr(glfm, n)] == []
    exec("from glfm import *", {})


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = text.split("## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    data, _ = generate(12, missing_rate=0.2, seed=3)
    (tmp_path / "data.csv").write_text(to_csv(data))
    (tmp_path / "cols.spec").write_text(
        "r1,real\np1,positivereal\nc1,categorical,3\no1,ordinal,3\nn1,count\nr2,real\n")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    completed = list(csv.reader((tmp_path / "completed.csv").read_text().splitlines()))
    assert len(completed) == 13 and all(all(row) for row in completed)
    patterns = capsys.readouterr().out.splitlines()
    assert 1 <= len(patterns) <= 5
