"""README.md states the size of the package in lines; this keeps the
number true, so a change that grows or shrinks the package says so."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_states_the_package_line_count():
    stated = re.findall(r"`src/zipcones` is (\d+) lines",
                        (ROOT / "README.md").read_text())
    # as `cat src/zipcones/*.py | wc -l` counts them
    lines = sum(path.read_bytes().count(b"\n")
                for path in (ROOT / "src" / "zipcones").glob("*.py"))
    assert stated == [str(lines)]
