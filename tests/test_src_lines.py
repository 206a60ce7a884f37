import importlib.util
import subprocess
import sys
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _SCRIPT)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

_MODULE = '''"""A module docstring

over three lines."""
# a comment line
import math  # a trailing comment is code

    # an indented comment line

class A:
    """Class docstring."""

    def f(self):
        """Function docstring,

        with a blank line inside."""
        s = """not a docstring
# a hash inside a string
"""
        "a string statement after the first is code"
        return s


async def g():
    r"""Raw docstring."""
'''


def test_counts_each_kind_of_line(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(_MODULE, encoding="utf-8")
    got = src_lines.count(path)
    assert got == {"code": 9, "docstring": 8, "comment": 2, "blank": 5}
    assert sum(got.values()) == len(_MODULE.splitlines())


def test_total_row_is_the_line_count_of_src():
    out = subprocess.run([sys.executable, str(_SCRIPT)], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    total = out[-1].split()
    assert total[0] == "total"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in src_lines._SRC.glob("*.py"))
    assert int(total[1]) == lines == sum(map(int, total[2:]))
    assert len(out) == 2 + len(list(src_lines._SRC.glob("*.py")))
