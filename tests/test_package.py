"""Packaging promises: hdrsim runs on the standard library alone."""

import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_import_loads_only_the_standard_library():
    # -S keeps site-packages hooks (setuptools' _distutils_hack on some
    # interpreters) out of sys.modules, -E keeps PYTHONPATH out of sys.path
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hdrsim; "
            "print(*{m.partition('.')[0] for m in sys.modules})")
    out = subprocess.run([sys.executable, "-S", "-E", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    loaded = set(out.split()) - sys.stdlib_module_names
    assert loaded == {"__main__", "hdrsim"}
