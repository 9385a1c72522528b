"""The README's Python quick tour runs and prints what its comments state."""

import pathlib
import re
from fractions import Fraction

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_tour():
    printed = []
    exec(_quick_tour(), {"print": printed.append})
    independence, ore, norm = printed
    assert independence.status == "witness"
    assert (ore.status, ore.level) == ("ore_up_to", 4)
    assert norm == (Fraction(0, 1), Fraction(0, 1))
    # printed exactly as the tour's comment states
    assert repr(norm) == "(Fraction(0, 1), Fraction(0, 1))"
