"""The CLI's frozen output: rerun every row of tests/golden.json.

Exit codes, stdout and stderr must match the file byte for byte; see
tests/make_golden.py for the corpus and the rule for rewriting it.
"""

import json

from make_golden import GOLDEN, ROOT, run, write_inputs


def test_cli_output_matches_the_golden_corpus(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    write_inputs(golden["inputs"], str(tmp_path))
    monkeypatch.chdir(ROOT)
    differ = [" ".join(row["argv"]) for row in golden["rows"]
              if run(row["argv"], str(tmp_path)) != row]
    assert not differ, f"{len(differ)} of {len(golden['rows'])} rows differ: {differ}"
