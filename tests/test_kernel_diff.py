"""``tools/kernel_diff.py`` on a small driver: a tree replays its own
recorded kernel calls with no difference, and a tree whose ``pfaffian``
changes sign is caught."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "kernel_diff.py"
SPEC = importlib.util.spec_from_file_location("kernel_diff", TOOL)
kernel_diff = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(kernel_diff)

#: One sample per verify criterion: every traced kernel but ``nullspace``, ``__sub__`` and ``__rmul__``.
SMALL_DRIVER = "from isolab import verify\nverify.run_all(seed=0, samples=1)\n"


def test_a_tree_against_itself_has_no_differences():
    counts, differing, shown = kernel_diff.run(str(ROOT), str(ROOT), SMALL_DRIVER)
    assert (differing, shown) == (0, [])
    assert {"__mul__", "det", "inverse", "char_poly", "exterior_square", "pfaffian", "kronecker", "block"} <= set(counts)


def test_a_kernel_that_changes_is_reported(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    module = tmp_path / "src" / "isolab" / "exact_algebra.py"
    text = module.read_text(encoding="utf-8")
    assert text.count("return _unpack(expand(") == 1
    module.write_text(text.replace("return _unpack(expand(", "return -_unpack(expand("), encoding="utf-8")
    counts, differing, shown = kernel_diff.run(str(ROOT), str(tmp_path), SMALL_DRIVER)
    assert 0 < differing <= counts["pfaffian"]
    assert {name for _, name, _, _, _ in shown} == {"pfaffian"}
