"""tools/line_census.py on a toy package: it runs pytest under its tracer
and names each function-body line that no test executed."""

import pathlib
import subprocess
import sys
import textwrap

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "line_census.py"

TOY = '''\
def used(x):
    """A docstring is not counted."""
    if x:
        return 1
    else:
        return 2


def unused():
    y = 1
    return y


class Box:
    def get(self):
        try:
            return 1
        except ValueError:
            return 2
'''

TOY_TEST = '''\
import sys

sys.path.insert(0, {src!r})
from skewcodes import Box, used


def test_toy():
    assert used(1) == 1 and Box().get() == 1
'''


def test_census_names_the_lines_no_test_ran(tmp_path):
    package = tmp_path / "src" / "skewcodes"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(TOY)
    (tmp_path / "test_toy.py").write_text(TOY_TEST.format(src=str(tmp_path / "src")))
    proc = subprocess.run(
        [sys.executable, str(TOOL), "test_toy.py", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = proc.stdout[proc.stdout.index("__init__.py:"):]
    assert report == textwrap.dedent("""\
        __init__.py: 4 not executed
              6  used: return 2
             10  unused: y = 1
             11  unused: return y
             19  Box.get: return 2
        total: 4 of 8 function-body lines not executed (pytest exit status 0)
        """)
