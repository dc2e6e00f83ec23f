"""CLI contract for ``python -m repro.lint``.

Pins the exit codes (clean / findings / usage error), the JSON
reporter schema, the whole-program rule running in the default pass,
the rule catalogue in ``docs/lint.md``, and the logical-statement
suppression semantics the engine applies before any reporter runs.
"""

import json
import re
import textwrap
from pathlib import Path

from repro.lint import lint_source
from repro.lint.__main__ import build_parser, main

DOCS = Path(__file__).resolve().parents[1] / "docs" / "lint.md"

CLEAN = '"""A clean module."""\n\nX = 1\n'

DIRTY = textwrap.dedent('''\
    """A module with one determinism violation."""
    import numpy as np

    SAMPLE = np.random.rand(3)
    ''')

RACY = textwrap.dedent('''\
    """A module with one worker race (F202)."""
    from threading import Thread

    SEEN = []


    def work(item):
        """Appends to a module global from a worker thread."""
        SEEN.append(item)


    def launch(item):
        """Starts the worker."""
        thread = Thread(target=work, args=(item,))
        thread.start()
        return thread
    ''')


def _project(tmp_path, name, source):
    """Write ``source`` under a ``repro/``-rooted package dir."""
    pkg = tmp_path / "repro"
    pkg.mkdir(exist_ok=True)
    path = pkg / name
    path.write_text(source, encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------


def test_exit_zero_on_clean_tree(tmp_path, capsys):
    """No findings → exit 0 and a 'clean' line."""
    _project(tmp_path, "ok.py", CLEAN)
    assert main([str(tmp_path)]) == 0
    assert "clean: no findings" in capsys.readouterr().out


def test_exit_one_on_findings(tmp_path, capsys):
    """Findings → exit 1, grep-able text locations."""
    _project(tmp_path, "bad.py", DIRTY)
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "repro/bad.py:4" in out
    assert "R001" in out


def test_exit_one_on_parse_error(tmp_path, capsys):
    """A syntax error is an E999 finding, not a crash."""
    _project(tmp_path, "broken.py", "def f(:\n")
    assert main([str(tmp_path)]) == 1
    assert "E999" in capsys.readouterr().out


def test_exit_two_on_missing_path_and_unknown_rule(tmp_path, capsys):
    """Usage errors exit 2 and explain themselves on stderr."""
    assert main([str(tmp_path / "nope")]) == 2
    assert "no such path" in capsys.readouterr().err
    _project(tmp_path, "ok.py", CLEAN)
    assert main(["--select", "R999", str(tmp_path)]) == 2
    assert "unknown rule ids" in capsys.readouterr().err
    assert main(["--select", "F999", str(tmp_path)]) == 2
    assert "unknown rule ids" in capsys.readouterr().err


def _listed_rule_ids(capsys):
    assert main(["--list-rules"]) == 0
    return set(re.findall(r"^([A-Z]\d{3}) ", capsys.readouterr().out,
                          flags=re.M))


def test_list_rules_covers_deep_catalogue(capsys):
    """--list-rules prints the R-rules and the one whole-program rule."""
    listed = _listed_rule_ids(capsys)
    assert {"R001", "F202"} <= listed
    assert not listed & {"F201", "F203", "F204", "R108"}


def test_docs_catalogue_matches_list_rules(capsys):
    """The ``## Rules`` tables in docs/lint.md list exactly the rules
    the CLI knows — the catalogue cannot drift from the registry."""
    text = DOCS.read_text(encoding="utf-8")
    section = text.split("\n## Rules\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `([RF]\d{3})` \|", section,
                                flags=re.M))
    assert documented == _listed_rule_ids(capsys)


def test_help_has_no_deep_baseline_or_sarif():
    """One pass, one gate: the deep/baseline/SARIF options are gone."""
    text = build_parser().format_help()
    for gone in ("--deep", "--baseline", "--write-baseline", "sarif"):
        assert gone not in text


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------


def test_json_reporter_schema_round_trip(tmp_path, capsys):
    """The JSON payload carries every finding field, faithfully."""
    _project(tmp_path, "bad.py", DIRTY)
    assert main(["--format", "json", str(tmp_path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool"] == "repro.lint"
    assert payload["total"] == len(payload["findings"]) == 1
    (entry,) = payload["findings"]
    assert set(entry) == {"rule", "path", "line", "col", "message"}
    assert entry["rule"] == "R001"
    assert entry["path"] == "repro/bad.py"
    assert entry["line"] == 4
    assert payload["counts"] == {"R001": 1}
    # Round-trip: the dict form reconstructs the same finding.
    from repro.lint import Finding

    finding = Finding(rule_id=entry["rule"], path=entry["path"],
                      line=entry["line"], col=entry["col"],
                      message=entry["message"])
    assert finding.to_dict() == entry


# ----------------------------------------------------------------------
# the whole-program rule in the default pass
# ----------------------------------------------------------------------


def test_default_pass_reports_worker_race(tmp_path, capsys):
    """A plain run reports F202 beside the per-file rules."""
    _project(tmp_path, "racy.py", RACY)
    _project(tmp_path, "bad.py", DIRTY)
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "repro/racy.py:9" in out and "F202" in out
    assert "R001" in out


def test_select_deep_id_implies_deep_run(tmp_path, capsys):
    """--select F202 runs only that rule, no per-file rules."""
    _project(tmp_path, "bad.py", DIRTY)
    _project(tmp_path, "racy.py", RACY)
    assert main(["--select", "F202", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "F202" in out
    assert "R001" not in out


# ----------------------------------------------------------------------
# logical-statement suppressions
# ----------------------------------------------------------------------


def test_suppression_covers_multiline_statement():
    """A disable on any physical line silences the whole statement."""
    src = textwrap.dedent('''\
        """Fixture."""
        import numpy as np

        SAMPLE = np.random.rand(
            3)  # lint: disable=R001
        ''')
    assert lint_source(src) == []


def test_suppression_on_decorator_covers_definition():
    """A disable on the decorator line covers the decorated def."""
    src = textwrap.dedent('''\
        """Fixture."""
        import functools


        @functools.lru_cache(maxsize=None)  # lint: disable=R104
        def helper():
            return 1
        ''')
    assert lint_source(src) == []
    undecorated = src.replace(
        "@functools.lru_cache(maxsize=None)  # lint: disable=R104\n", "")
    assert [f.rule_id for f in lint_source(undecorated)] == ["R104"]


def test_suppression_of_unknown_rule_id_keeps_other_findings():
    """Disabling an id that never fires must not silence real ones."""
    src = textwrap.dedent('''\
        """Fixture."""
        import numpy as np

        SAMPLE = np.random.rand(3)  # lint: disable=R999
        ''')
    assert [f.rule_id for f in lint_source(src)] == ["R001"]
    bare = src.replace("disable=R999", "disable")
    assert lint_source(bare) == []


def test_standalone_comment_does_not_suppress_next_statement():
    """Only the statement's own lines suppress — not a comment above."""
    src = textwrap.dedent('''\
        """Fixture."""
        import numpy as np

        # lint: disable=R001
        SAMPLE = np.random.rand(3)
        ''')
    assert [f.rule_id for f in lint_source(src)] == ["R001"]
