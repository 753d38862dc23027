"""``tools/cli_diff.py`` on a few calls: a tree against itself has no
difference, and a tree whose ``cover sym`` report differs is caught."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cli_diff.py"
SPEC = importlib.util.spec_from_file_location("cli_diff", TOOL)
cli_diff = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(cli_diff)

FIBER = {
    "base_label": "x",
    "kind": "generic_branch",
    "points": [{"label": "y1", "mult": 2}, {"label": "y2", "mult": 1}, {"label": "y3", "mult": 1}],
}
#: Two reports, a refused document, a usage error and a help text.
SMALL_CALLS = [
    (["cover", "sym"], json.dumps({"fiber": FIBER})),
    (["cover", "ramcheck"], json.dumps({"fiber": FIBER})),
    (["invariants", "count"], json.dumps({"isogeny": "rank2", "g": True})),
    (["cover", "no-such-command"], ""),
    (["invariants", "--help"], ""),
]
#: The line of ``cli._cover_sym`` that builds its report.
REPORT = '{"self_product": ser.pair_fiber_to_json(pf), '


def test_a_tree_against_itself_has_no_differences(monkeypatch, capsys):
    monkeypatch.setattr(cli_diff, "calls", lambda: SMALL_CALLS)
    assert cli_diff.main([str(ROOT), str(ROOT)]) == 0
    parent, change, verdict = capsys.readouterr().out.splitlines()
    assert parent.startswith("parent: 5 calls (") and change.startswith("change: 5 calls (")
    assert parent.split(":", 1)[1] == change.split(":", 1)[1]  # the same exit codes and digest
    assert verdict == "0 differences"


def test_a_report_that_changes_is_reported(monkeypatch, capsys, tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    module = tmp_path / "src" / "isolab" / "cli.py"
    text = module.read_text(encoding="utf-8")
    assert text.count(REPORT) == 1
    module.write_text(text.replace(REPORT, REPORT + '"extra": 1, '), encoding="utf-8")
    monkeypatch.setattr(cli_diff, "calls", lambda: SMALL_CALLS)
    assert cli_diff.main([str(ROOT), str(tmp_path)]) == 1
    call, parent, change, _, _, verdict = capsys.readouterr().out.splitlines()
    assert call.startswith("call 0: ['cover', 'sym'] ")
    assert "extra" not in parent and "extra" in change
    assert verdict == "1 differences"
