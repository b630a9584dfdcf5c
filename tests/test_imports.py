"""What a fresh interpreter loads: `import unravel`, the atom commands, the
Fock oracle and the disk optimizer, for every measure, leave scipy.optimize,
scipy.integrate, scipy.sparse.linalg and scipy.special unloaded."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import unravel

DEFERRED = ("scipy.optimize", "scipy.integrate", "scipy.sparse.linalg", "scipy.special")
SRC = pathlib.Path(unravel.__file__).resolve().parent.parent


def _loaded_after(code, cwd):
    """The DEFERRED modules loaded by a fresh interpreter that runs code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    script = (f"{code}\nimport json, sys\n"
              f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli(argv):
    return f"from unravel.cli import main\nassert main({argv!r}) in (0, 1)"


def test_import_loads_none_of_the_deferred_modules(tmp_path):
    assert _loaded_after("import unravel", tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["tla-rank", "--n-traj", "20", "--out", "r.json"],
    ["tla-rank", "--omega", "5", "--measure", "efficiency_threshold",
     "--schemes", "aid,direct", "--n-traj", "20", "--dt", "0.004", "--out", "t.json"],
    ["validate", "gaussian-oracle", "--n-traj", "4", "--out", "g.json"],
    ["qbm-optimal", "--temps", "0.01", "--measure", "efficiency_threshold", "--out", "q.csv"],
], ids=["tla-rank-survival", "tla-rank-threshold", "gaussian-oracle", "qbm-optimal-threshold"])
def test_light_commands_load_none_of_the_deferred_modules(tmp_path, argv):
    assert _loaded_after(_cli(argv), tmp_path) == []


def test_disk_optimum_loads_none_of_the_deferred_modules(tmp_path):
    # the compass search is stacked numpy: no scipy optimizer behind it
    argv = ["qbm-optimal", "--temps", "1", "--measure", "mixing", "--out", "q.csv"]
    assert _loaded_after(_cli(argv), tmp_path) == []
