"""The package surface: every exported name resolves and the demos run."""
import contextlib
import importlib
import io
import os
import pkgutil
import runpy
import subprocess
import sys
from pathlib import Path

import bandflow

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_exports_resolve_and_demos_run():
    for name in bandflow.__all__:
        assert hasattr(bandflow, name), name
    for info in pkgutil.iter_modules(bandflow.__path__):
        module = importlib.import_module(f"bandflow.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.{name}"
    # the witness sweep demo runs the full grid and is left to the
    # acceptance tests; these three are quick
    for demo in ("profile_geometry", "stability_survey", "curvature_cross_check"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(DEMOS / f"{demo}.py"), run_name="__main__")
        assert out.getvalue(), demo


def test_import_leaves_scipy_interpolate_unloaded():
    # the package builds its Hermite pieces itself; scipy.interpolate alone
    # costs tens of milliseconds of every fresh import
    env = dict(os.environ)
    src = str(Path(bandflow.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, bandflow; print('scipy.interpolate' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"
