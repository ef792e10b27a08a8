"""The benchmark's layer timers wrap package bindings by name; a refactor
that removes one of them breaks ``bench/tracing.py`` at install time."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracing_install_finds_every_hook():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")])
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
