"""Analyzer pass: noqa pragmas, the one way to suppress a finding."""

import textwrap

from repro.sanitize.semantic import (
    UNUSED_SUPPRESSION_ID,
    analyze_paths,
    extract_pragmas,
)


def write_tree(tmp_path, files):
    for rel, src in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(src), encoding="utf-8")
    return tmp_path


# ----------------------------------------------------------------------
# suppression pragmas


def test_noqa_suppresses_exactly_its_line_and_rule(tmp_path):
    write_tree(tmp_path, {"pkg/murmur.py": """
        import numpy as np

        def murmur_mix(h):
            h = np.uint32(h)
            return h * np.uint32(3)  # repro: noqa REP012

        def murmur_mix2(h):
            h = np.uint32(h)
            return h + np.uint32(7)
        """})
    result = analyze_paths([tmp_path], select=["REP012"])
    assert result.suppressed == 1
    assert [f.rule for f in result.findings] == ["REP012"]
    assert "murmur_mix2" in result.findings[0].message


def test_blanket_noqa_suppresses_any_rule_on_the_line(tmp_path):
    write_tree(tmp_path, {"pkg/murmur.py": """
        import numpy as np

        def murmur_mix(h):
            h = np.uint32(h)
            return h * np.uint32(3)  # repro: noqa
        """})
    result = analyze_paths([tmp_path], select=["REP012"])
    assert result.findings == []
    assert result.suppressed == 1


def test_unused_suppression_is_itself_a_finding(tmp_path):
    write_tree(tmp_path, {"pkg/clean.py": """
        def fine():
            return 1  # repro: noqa REP012
        """})
    result = analyze_paths([tmp_path])
    assert [f.rule for f in result.findings] == [UNUSED_SUPPRESSION_ID]
    assert "REP012" in result.findings[0].message
    assert result.exit_code == 1


def test_partially_used_pragma_reports_the_idle_ids(tmp_path):
    write_tree(tmp_path, {"pkg/murmur.py": """
        import numpy as np

        def murmur_mix(h):
            h = np.uint32(h)
            return h * np.uint32(3)  # repro: noqa REP012,REP010
        """})
    result = analyze_paths([tmp_path])
    assert result.suppressed == 1
    (f,) = result.findings
    assert f.rule == UNUSED_SUPPRESSION_ID
    assert "REP010" in f.message and "REP012" not in f.message


def test_pragma_text_inside_a_docstring_is_not_a_suppression():
    pragmas = extract_pragmas(textwrap.dedent('''
        def doc():
            """mentions # repro: noqa REP012 in prose"""
            return 1  # repro: noqa REP010
        '''))
    assert pragmas == [{"line": 4, "rules": ["REP010"]}]
