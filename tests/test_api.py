"""The public surface: ``qchan.__all__`` and the demos that use it."""

import runpy
import types
from pathlib import Path

import pytest

import qchan

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in qchan.__all__ if not hasattr(qchan, name)]
    assert missing == []
    assert len(set(qchan.__all__)) == len(qchan.__all__)


def test_every_public_attribute_is_exported():
    public = {
        name
        for name, value in vars(qchan).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - set(qchan.__all__) == set()


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    # a run_name other than __main__ loads the demo without running it
    namespace = runpy.run_path(str(path), run_name="demo_import")
    assert callable(namespace["main"])


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
