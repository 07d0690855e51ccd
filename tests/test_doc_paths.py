"""The docs cite only modules that exist.

DESIGN.md's module map once named 13 ``repro/...py`` files that were
never in the tree; this pins every cited path to a real file.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
CITED = re.compile(r"repro/[\w/]+\.py")


@pytest.mark.parametrize("doc", ["DESIGN.md", "README.md"])
def test_cited_module_paths_exist(doc):
    cited = sorted(set(CITED.findall((REPO / doc).read_text())))
    missing = [path for path in cited if not (REPO / "src" / path).is_file()]
    assert missing == [], f"{doc} cites modules not under src/: {missing}"
