"""The README's library example runs and prints what its comments say."""

import re
from pathlib import Path

from addcyclic.codes import Cardinality
from addcyclic.gray import QUASI_CYCLIC_3

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The first python block under the README's `## Library example`."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example():
    ns = {}
    exec(compile(library_example(), str(README), "exec"), ns)
    code, image = ns["code"], ns["image"]
    assert code.dimension == 6
    assert code.cardinality() == Cardinality(formula=729, actual=729)
    assert (image.length, image.rank) == (9, 6)
    assert image.classification == QUASI_CYCLIC_3
    assert ns["min_distance_exact"](image.base).value == 3
    assert ns["dual"](code.closure).rank == 0
