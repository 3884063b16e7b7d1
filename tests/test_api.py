from __future__ import annotations

import re
from pathlib import Path

import relac

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_imports() -> set[str]:
    """The names in the README example's ``from relac import (...)``."""
    block = re.search(r"^from relac import \((.*?)\)", README.read_text(), re.M | re.S)
    assert block is not None
    return {name.strip() for name in block.group(1).split(",") if name.strip()}


def test_package_exports_exactly_the_readme_names():
    names = readme_imports()
    assert len(names) == 17
    assert set(relac.__all__) == names | {"RelacError", "__version__"}
    assert len(relac.__all__) == len(set(relac.__all__))
    for name in relac.__all__:
        assert getattr(relac, name) is not None
