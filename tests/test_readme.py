"""The README's Python examples run as written, each on its own."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def run_example(index):
    code = compile(EXAMPLES[index], f"README.md example {index}", "exec")
    exec(code, {"__name__": "readme_example"})


def test_readme_has_three_examples():
    assert len(EXAMPLES) == 3


@pytest.mark.parametrize("index", range(len(EXAMPLES)))
def test_example_runs_in_fresh_namespace(index):
    run_example(index)


def test_first_example_prints_its_comment(capsys):
    # The print line ends in a comment with the values it shows, to 6 decimals.
    run_example(0)
    printed = [float(v) for v in capsys.readouterr().out.split()]
    print_line = next(line for line in EXAMPLES[0].splitlines() if line.startswith("print("))
    expected = print_line.split("#", 1)[1].split()
    assert len(printed) == len(expected) == 3
    assert [f"{v:.6f}" for v in printed] == expected
