"""`tools/count_code.py` on a small module of known code lines."""

import importlib.util
import os

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
TOOL = os.path.join(REPO, "tools", "count_code.py")
spec = importlib.util.spec_from_file_location("count_code", TOOL)
count_code = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_code)

# 14 code lines: ten end in "# code", four hold the string TEXT
SAMPLE = '''"""Module docstring,
over two lines."""

import os  # code

# a comment alone


class Box:  # code
    """Class docstring."""

    side = 2  # code

    def area(self):  # code
        """Method docstring,

        with a blank line inside."""
        # a comment in the body
        return self.side * self.side  # code


def first(values):  # code
    return values[0]  # code


TEXT = """a string that spans lines is code,

# its blank and hash lines too
"""
TOTAL = first([  # code
    # a comment inside brackets
    len(TEXT),  # code
])  # code
'''


def test_counts_code_lines_only(tmp_path, capsys):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert count_code.main([str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["    14  sample.py", "    14  total"]


def test_defs_prints_each_top_level_definition_before_its_file(tmp_path, capsys):
    # `Box` holds four code lines (its class line, `side`, its method's def
    # and return), `first` two; a decorator line counts with its function
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE + "\n\n@staticmethod  # code\ndef last():  # code\n    pass  # code\n")
    assert count_code.main(["--defs", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     4    Box", "     2    first", "     3    last", "    17  sample.py", "    17  total"]


def test_prints_each_file_and_the_total(tmp_path, capsys):
    paths = []
    for name, source in (("a.py", "x = 1\n\n# note\n"), ("b.py", '"""Doc."""\ny = 2\nz = 3\n')):
        (tmp_path / name).write_text(source)
        paths.append(str(tmp_path / name))
    assert count_code.main(paths) == 0
    assert capsys.readouterr().out.split("\n") == ["     1  a.py", "     2  b.py", "     3  total",
                                                   ""]


def test_counts_every_package_module_by_default(capsys):
    assert count_code.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    modules = sorted(name for name in os.listdir(count_code.PACKAGE) if name.endswith(".py"))
    assert [line.split()[1] for line in lines] == modules + ["total"]
    assert int(lines[-1].split()[0]) == sum(int(line.split()[0]) for line in lines[:-1])
