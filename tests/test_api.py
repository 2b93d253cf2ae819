"""The public surface: ``qchan.__all__``, the demos that use it, and the
entry points that the benchmark's tracer patches."""

import ast
import importlib.util
import os
import re
import runpy
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qchan
import qchan.cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(
    r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.DOTALL
)


def test_every_exported_name_resolves():
    missing = [name for name in qchan.__all__ if not hasattr(qchan, name)]
    assert missing == []
    assert len(set(qchan.__all__)) == len(qchan.__all__)


def test_import_does_not_load_numpy_random():
    # numpy.random is about 12 ms of the import; qchan loads it on first draw
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = "import qchan, sys; assert 'numpy.random' not in sys.modules"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, timeout=60
    )
    assert proc.returncode == 0


def test_every_public_attribute_is_exported():
    public = {
        name
        for name, value in vars(qchan).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - set(qchan.__all__) == set()


def _imported_from_qchan(source: str) -> set[str]:
    """Names in the ``from qchan import ...`` statements of ``source``."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "qchan"
        for alias in node.names
    }


def test_names_the_demos_and_readme_import_are_exported():
    # the demos and the README are what users copy, so they fix the surface
    sources = [path.read_text(encoding="utf-8") for path in DEMOS] + README_BLOCKS
    names = set().union(*map(_imported_from_qchan, sources))
    package = Path(qchan.__file__).parent
    functions = {name for name in names if not (package / f"{name}.py").exists()}
    assert len(functions) >= 20
    assert sorted(functions - set(qchan.__all__)) == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    # a run_name other than __main__ loads the demo without running it
    namespace = runpy.run_path(str(path), run_name="demo_import")
    assert callable(namespace["main"])


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("block", range(len(README_BLOCKS)))
def test_readme_python_block_runs(block, capsys):
    # a stale example fails here instead of in a user's session
    assert len(README_BLOCKS) >= 2
    code = compile(README_BLOCKS[block], f"README.md python block {block}", "exec")
    exec(code, {"__name__": "readme_example"})
    capsys.readouterr()


def test_benchmark_tracer_installs_and_restores_every_patch():
    # perfbench/spans.py patches qchan entry points by name; a refactor that
    # drops one makes install() raise here instead of breaking a traced run.
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("qchan_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {name: m for name, m in sys.modules.items() if name.startswith("qchan.") and m}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    init = qchan.Channel.__init__
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert qchan.zoo.random_cptp is not before["qchan.zoo"]["random_cptp"]
        assert qchan.Channel.__init__ is not init
    finally:
        tracer.uninstall()
    for name, module in modules.items():
        changed = [k for k, v in before[name].items() if vars(module).get(k) is not v]
        assert changed == [], name
    assert qchan.Channel.__init__ is init
