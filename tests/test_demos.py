import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, path], capture_output=True, text=True,
                       env=env, cwd=ROOT)
    assert r.returncode == 0, r.stderr
    # numpy 2 reprs scalars as np.int64(1): a demo must print plain numbers
    assert "np.int64(" not in r.stdout and "np.float64(" not in r.stdout


def test_readme_quick_start_runs():
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    start = readme.index("```python\n", readme.index("## Quick start")) + len("```python\n")
    exec(compile(readme[start:readme.index("```", start)], "README Quick start", "exec"), {})
