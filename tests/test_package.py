"""Packaging promises: hdrsim runs on the standard library alone, the
README's Python API section matches the package, and ``python -m hdrsim``
runs the CLI."""

import os
import pathlib
import re
import subprocess
import sys

import hdrsim

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_import_loads_only_the_standard_library():
    # -S keeps site-packages hooks (setuptools' _distutils_hack on some
    # interpreters) out of sys.modules, -E keeps PYTHONPATH out of sys.path
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hdrsim; "
            "print(*{m.partition('.')[0] for m in sys.modules})")
    out = subprocess.run([sys.executable, "-S", "-E", "-c", code, str(SRC)],
                         capture_output=True, text=True, encoding="utf-8",
                         check=True).stdout
    loaded = set(out.split()) - sys.stdlib_module_names
    assert loaded == {"__main__", "hdrsim"}


def _python_api_section() -> str:
    return README.split("## Python API", 1)[1].split("\n## ", 1)[0]


def test_readme_python_example_runs():
    code = re.search(r"```python\n(.*?)```", _python_api_section(),
                     re.S).group(1)
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; sys.path.insert(0, sys.argv[1])\n"
                           + code, str(SRC)],
                          capture_output=True, text=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.split()) == 2       # throughput, steady rate


def test_readme_entry_points_exist():
    listed = re.search(r"Useful entry points:(.*?)\n(?:\n|\Z)",
                       _python_api_section(), re.S).group(1)
    names = re.findall(r"`(\w+)`", listed)
    assert names
    assert [n for n in names if not hasattr(hdrsim, n)] == []


def test_python_m_hdrsim_runs_the_cli():
    # a subprocess, so the test imports nothing into this interpreter
    proc = subprocess.run([sys.executable, "-m", "hdrsim", "--help"],
                          capture_output=True, text=True, encoding="utf-8",
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")
