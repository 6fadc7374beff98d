"""The README's "Library layout" table names every module of the package,
and only those."""
import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def test_library_layout_table_lists_every_module():
    readme = (_ROOT / "README.md").read_text()
    section = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^\| `equicurve\.(\w+)` \|", section, re.M))
    modules = {p.stem for p in (_ROOT / "src" / "equicurve").glob("*.py")
               if p.stem != "__init__"}
    assert listed == modules
