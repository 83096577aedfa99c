import importlib
import pkgutil
import re
from pathlib import Path

import seidelspectra

README = Path(__file__).resolve().parents[1] / "README.md"

ENTRY_POINTS = {
    "make_params",
    "seidel_matrix",
    "charpoly_closed",
    "spectrum_closed",
    "charpoly_oracle",
    "verify_instance",
}


def test_the_package_exports_readme_entry_points_and_each_module_its_own():
    assert set(seidelspectra.__all__) == ENTRY_POINTS | {"__version__"}
    assert len(seidelspectra.__all__) == len(ENTRY_POINTS) + 1
    assert all(hasattr(seidelspectra, name) for name in seidelspectra.__all__)

    block = re.search(r"from seidelspectra import \(([^)]*)\)", README.read_text())
    assert block is not None, "README has no Library import block"
    assert set(re.findall(r"\w+", block.group(1))) == ENTRY_POINTS

    modules = [info.name for info in pkgutil.iter_modules(seidelspectra.__path__)]
    assert {"cli", "closedform", "family", "linalg", "polynomial", "verify"} <= set(modules)
    for name in modules:
        module = importlib.import_module(f"seidelspectra.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], f"seidelspectra.{name}.__all__ names {missing}"
