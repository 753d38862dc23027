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

#: One sample per verify criterion, every traced kernel but ``__sub__`` and ``__rmul__``, and one
#: ``genericity_report``, for ``poly_gcd``.
SMALL_DRIVER = """
import random
from isolab import spectral_base, verify
verify.run_all(seed=0, samples=1)
spectral_base.genericity_report(spectral_base.BaseSL4(*(verify.rand_section(random.Random(k), 3) for k in range(3))))
"""


def test_a_tree_against_itself_has_no_differences():
    counts, differing, shown = kernel_diff.run(str(ROOT), str(ROOT), SMALL_DRIVER)
    assert (differing, shown) == (0, [])
    assert {"__mul__", "det", "inverse", "char_poly", "exterior_square", "pfaffian", "kronecker", "block"} <= set(counts)
    # the constructor, the classmethods, maps given as lambdas, and the maps built on them
    assert {"RingMatrix", "blocks", "linear_image", "scaled_rows", "eigenvectors"} <= set(counts)
    # the polynomial kernels
    assert {"resultant", "poly_gcd", "products", "pairwise_sum_poly"} <= set(counts)
    assert {"lie_isogeny.d_iso2", "lie_isogeny.hodge_split", "lie_isogeny.HiggsBlockField.as_matrix"} <= set(counts)
    # the oracles and the fiber ledgers, whole
    assert {"spectral_base.so4_oracle", "spectral_base.so6_oracle"} <= set(counts)
    assert {"covers_prym.ramification_check", "covers_prym.twist_ledger"} <= set(counts)


def test_a_kernel_that_changes_is_reported(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    module = tmp_path / "src" / "isolab" / "exact_algebra.py"
    text = module.read_text(encoding="utf-8")
    assert text.count("return _unpack(expand(") == 1
    module.write_text(text.replace("return _unpack(expand(", "return -_unpack(expand("), encoding="utf-8")
    counts, differing, shown = kernel_diff.run(str(ROOT), str(tmp_path), SMALL_DRIVER)
    assert 0 < differing <= counts["pfaffian"]
    assert {name for _, name, _, _, _ in shown} == {"pfaffian"}


def test_a_map_that_changes_is_reported_whole(tmp_path):
    """A wrong entry in the image that ``d_iso2`` gives to ``linear_image``:
    the recorded ``linear_image`` calls replay the recorded map and agree, and
    the ``d_iso2`` calls, replayed whole, differ."""
    shutil.copytree(ROOT / "src", tmp_path / "src")
    module = tmp_path / "src" / "isolab" / "lie_isogeny.py"
    text = module.read_text(encoding="utf-8")
    assert text.count("[a[0][0] + a[0][2], a[0][3], a[0][1], 0],") == 1
    module.write_text(text.replace("[a[0][0] + a[0][2], a[0][3], a[0][1], 0],", "[a[0][0] - a[0][2], a[0][3], a[0][1], 0],"))
    counts, differing, shown = kernel_diff.run(str(ROOT), str(tmp_path), SMALL_DRIVER)
    assert 0 < differing <= counts["lie_isogeny.d_iso2"]
    assert {name for _, name, _, _, _ in shown} == {"lie_isogeny.d_iso2"}
