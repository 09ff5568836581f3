import re
from pathlib import Path

import ringconv

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_table_lists_exactly_the_exports():
    section = README.read_text().split("## Library", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[2] for line in section.splitlines() if line.startswith("| ")][1:]
    names = {name for cell in rows for name in re.findall(r"`([^`]+)`", cell)}
    assert names == set(ringconv.__all__) - {"__version__"}
