"""Static lint prong: every rule fires on its fixture, stays quiet
on the sanctioned pattern, and the shipped tree is clean."""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.sanitize.lint import (
    RULES,
    UNUSED_SUPPRESSION_ID,
    LintRule,
    analyze_paths,
    extract_pragmas,
    render_json,
    render_text,
    select_rules,
)

SRC = Path(__file__).resolve().parents[2] / "src"


def lint_source(source, path, rules):
    """The per-file ``rules`` over one source string, sorted by location."""
    tree = ast.parse(source, filename=path)
    return sorted((f for rule in rules for f in rule.check(tree, path)),
                  key=lambda f: (f.path, f.line, f.col, f.rule))


def findings_for(rule_id, source, path="<test>"):
    return lint_source(textwrap.dedent(source), path,
                       rules=select_rules([rule_id]))


# ----------------------------------------------------------------------
# REP001 — unseeded randomness


def test_rep001_flags_bare_default_rng():
    fs = findings_for("REP001", """
        import numpy as np
        rng = np.random.default_rng()
        """)
    assert [f.rule for f in fs] == ["REP001"]
    assert "seed" in fs[0].message


def test_rep001_flags_legacy_global_api():
    fs = findings_for("REP001", """
        import numpy as np
        np.random.seed(0)
        x = np.random.rand(4)
        """)
    assert len(fs) == 2
    assert all(f.rule == "REP001" for f in fs)


def test_rep001_allows_seeded_rng():
    fs = findings_for("REP001", """
        import numpy as np
        from numpy.random import default_rng
        a = np.random.default_rng(2024)
        b = default_rng(seed=7)
        c = np.random.Generator(np.random.PCG64(1))
        """)
    assert fs == []


# ----------------------------------------------------------------------
# REP003 — undeclared handled events


def test_rep003_flags_undeclared_event_dispatch():
    fs = findings_for("REP003", """
        class Watcher:
            handled_events = (LaunchDone,)

            def handle(self, event, bus):
                if isinstance(event, LaunchDone):
                    pass
                elif isinstance(event, (SlotWrite, BarrierSync)):
                    pass
        """)
    assert sorted(f.rule for f in fs) == ["REP003", "REP003"]
    messages = " ".join(f.message for f in fs)
    assert "SlotWrite" in messages and "BarrierSync" in messages


def test_rep003_allows_declared_and_nonliteral():
    fs = findings_for("REP003", """
        class Declared:
            handled_events = (LaunchDone, SlotWrite)

            def handle(self, event, bus):
                if isinstance(event, SlotWrite):
                    pass

        class LazyProperty:
            @property
            def handled_events(self):
                return (LaunchDone,)

            def handle(self, event, bus):
                if isinstance(event, WaveExecuted):
                    pass
        """)
    assert fs == []


# ----------------------------------------------------------------------
# REP005 — float arithmetic in INTOP-counted paths


def test_rep005_flags_floats_in_opcount_module():
    fs = findings_for("REP005", """
        def anything(k):
            return k / 2 + 0.5
        """, path="src/repro/hashing/opcount.py")
    assert sorted(f.rule for f in fs) == ["REP005", "REP005"]


def test_rep005_flags_intops_functions_anywhere():
    fs = findings_for("REP005", """
        def iteration_intops(k):
            return (k * 3) / 2
        """)
    assert [f.rule for f in fs] == ["REP005"]
    assert "//" in fs[0].message


def test_rep005_allows_integer_arithmetic_and_rate_conversions():
    fs = findings_for("REP005", """
        def hash_intops(k):
            return (k // 4) * 13 + 7

        def gintops_per_second(intops, seconds):
            return intops / 1e9 / seconds
        """)
    assert fs == []


# ----------------------------------------------------------------------
# REP006 — per-element Python loops in engine phase hot paths

ENGINE = "src/repro/kernels/engine"


def test_rep006_flags_per_lane_for_loop_in_hot_path():
    fs = findings_for("REP006", """
        def _insert_wave(self, batch, tables, idx, bus, lanes=None):
            for lane in idx:
                tables.vote(lane)
        """, path=f"{ENGINE}/construct.py")
    assert [f.rule for f in fs] == ["REP006"]
    assert "_insert_wave" in fs[0].message


def test_rep006_flags_comprehensions_and_zip_loops():
    fs = findings_for("REP006", """
        def run(self, batch, tables, bus):
            fps = [f for f in pending]
            for w, h in zip(warps, homes):
                probe(w, h)
        """, path=f"{ENGINE}/walk.py")
    assert sorted(f.rule for f in fs) == ["REP006", "REP006"]


def test_rep006_allows_range_loops_and_cold_functions():
    fs = findings_for("REP006", """
        def run(self, batch, tables, bus):
            for step in range(max_len):
                advance(step)
            caps = [estimate(j) for j in range(n_bins)]
            return caps

        def summarize(self):
            return [str(w) for w in self.warps]
        """, path=f"{ENGINE}/construct.py")
    assert fs == []


def test_rep006_scoped_to_engine_phase_modules():
    source = """
        def run(self):
            for w in warps:
                visit(w)
        """
    assert findings_for("REP006", source,
                        path=f"{ENGINE}/schedule.py") == []
    assert findings_for("REP006", source,
                        path="src/repro/analysis/walk.py") == []


# ----------------------------------------------------------------------
# REP007 — blocking calls in serve coroutines

SERVE = "src/repro/serve"


def test_rep007_flags_blocking_calls_in_coroutines():
    fs = findings_for("REP007", """
        async def submit(self, body):
            time.sleep(0.1)
            with open("log.json") as fh:
                data = fh.read()
            path.write_text(data)
            os.fsync(fd)
            subprocess.run(["sync"])
        """, path=f"{SERVE}/service.py")
    assert [f.rule for f in fs] == ["REP007"] * 5
    assert "submit" in fs[0].message
    assert "run_in_executor" in fs[0].message


def test_rep007_exempts_sync_helpers_and_executor_lambdas():
    fs = findings_for("REP007", """
        async def start(self):
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None, lambda: open(self.path).read())

            def _save():
                with open(self.path, "w") as fh:
                    fh.write("x")
            await loop.run_in_executor(None, _save)
            await asyncio.sleep(0.01)

        def sync_helper(self):
            time.sleep(0.1)
            return open("f").read()
        """, path=f"{SERVE}/service.py")
    assert fs == []


def test_rep007_checks_nested_coroutines_once():
    fs = findings_for("REP007", """
        async def outer(self):
            async def inner():
                time.sleep(1)
            await inner()
        """, path=f"{SERVE}/batcher.py")
    assert [f.rule for f in fs] == ["REP007"]
    assert "inner" in fs[0].message


def test_rep007_scoped_to_serve_modules():
    source = """
        async def poll(self):
            time.sleep(0.5)
        """
    assert findings_for("REP007", source,
                        path="src/repro/analysis/bench.py") == []
    assert findings_for("REP007", source,
                        path=f"{SERVE}/worker.py") != []


# ----------------------------------------------------------------------
# REP008 — silent failure handling in resilience paths

RESIL = "src/repro/resilience"


def test_rep008_flags_swallowed_broad_except():
    fs = findings_for("REP008", """
        def poll(self):
            try:
                refresh()
            except Exception:
                pass
            try:
                refresh()
            except:
                ...
        """, path=f"{SERVE}/service.py")
    assert [f.rule for f in fs] == ["REP008"] * 2
    assert "swallows" in fs[0].message


def test_rep008_flags_backoff_free_retry_loop():
    fs = findings_for("REP008", """
        def launch(self):
            while True:
                try:
                    return attempt()
                except TransientError:
                    continue
        """, path=f"{RESIL}/retry.py")
    assert [f.rule for f in fs] == ["REP008"]
    assert "backoff" in fs[0].message


def test_rep008_allows_narrow_handled_and_backed_off():
    fs = findings_for("REP008", """
        def launch(self):
            try:
                cleanup()
            except OSError:
                pass  # narrow: best-effort cleanup
            try:
                run()
            except Exception as exc:
                record(exc)  # handled, not swallowed
            for attempt in range(3):
                try:
                    return attempt_once()
                except BackendLaunchError:
                    sleep(backoff_delay(attempt))
        """, path=f"{RESIL}/retry.py")
    assert fs == []


def test_rep008_scoped_to_serve_and_resilience():
    source = """
        def run(self):
            while True:
                try:
                    return go()
                except TransientError:
                    continue
        """
    assert findings_for("REP008", source,
                        path="src/repro/analysis/bench.py") == []
    assert findings_for("REP008", source,
                        path=f"{RESIL}/faults.py") != []


def test_rep008_nested_def_resets_loop_scope():
    fs = findings_for("REP008", """
        def outer(self):
            for job in jobs:
                def attempt_one():
                    try:
                        return go()
                    except TransientError:
                        raise
                retry_transient(attempt_one)
        """, path=f"{SERVE}/supervisor.py")
    assert fs == []


# ----------------------------------------------------------------------
# engine mechanics


def test_rule_catalog_is_the_documented_six():
    # REP002, REP004 and REP009-REP013 are retired; their ids are not
    # reused (the runtime tests that replaced them: DESIGN.md decision 41)
    assert sorted(RULES) == ["REP001", "REP003", "REP005", "REP006",
                             "REP007", "REP008"]
    for rule_id, rule in RULES.items():
        assert rule.rule_id == rule_id
        assert rule.description


def test_every_rule_class_is_in_the_catalog_once():
    # RULES is one literal table: a rule class left out of it would
    # never run, and nothing else would notice
    from repro.sanitize.lint import rules as lint_rules

    classes = [cls for cls in vars(lint_rules).values()
               if isinstance(cls, type) and issubclass(cls, LintRule)
               and cls.__module__ == lint_rules.__name__ and cls.rule_id]
    assert len(classes) == len(RULES)
    for cls in classes:
        assert [r for r in RULES.values() if type(r) is cls] \
            == [RULES[cls.rule_id]]


def test_sanitize_docstring_tracks_the_catalog_span():
    # the lint package docstring asserts its own rule span at import
    # time, so this can only fail if someone weakens the assert itself
    import repro.sanitize.lint as lint
    assert f"{min(RULES)}–{max(RULES)}" in lint.__doc__


def test_select_rules_rejects_unknown_ids():
    with pytest.raises(ValueError, match="REP999"):
        select_rules(["REP999"])


def test_findings_sorted_and_formatted():
    fs = findings_for("REP001", """
        import numpy as np
        b = np.random.rand(2)
        a = np.random.default_rng()
        """, path="fixture.py")
    assert [f.line for f in fs] == sorted(f.line for f in fs)
    line = fs[0].format()
    assert line.startswith("fixture.py:")
    assert "REP001" in line


def test_render_text_and_json():
    fs = findings_for("REP001", "import numpy as np\n"
                                "rng = np.random.default_rng()\n")
    text = render_text(fs)
    assert "1 finding(s)" in text
    import json

    records = json.loads(render_json(fs))
    assert records[0]["rule"] == "REP001"
    assert render_json([]) == "[]"


def test_shipped_source_tree_is_clean():
    # every rule comes back empty on src once pragmas are applied
    result = analyze_paths([SRC])
    found = [f for f in result.findings if f.rule != UNUSED_SUPPRESSION_ID]
    assert found == [], render_text(found)


def test_shipped_source_tree_is_semantically_clean():
    # suppression hygiene on src: a pragma that suppresses nothing is
    # itself a finding (REP000), so dead pragmas cannot pile up
    result = analyze_paths([SRC])
    unused = [f for f in result.findings if f.rule == UNUSED_SUPPRESSION_ID]
    assert unused == [], render_text(unused)


def test_select_rules_rejects_ranges_and_prefixes():
    # exact ids only; order is kept and duplicates drop
    ids = [r.rule_id for r in select_rules(["REP006", "REP001", "REP006"])]
    assert ids == ["REP006", "REP001"]
    for item in ("REP001-REP003", "REP0"):
        with pytest.raises(ValueError, match="unknown lint rule id"):
            select_rules([item])


# ----------------------------------------------------------------------
# suppression pragmas: the one way to suppress a finding


def write_tree(tmp_path, files):
    for rel, src in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(src), encoding="utf-8")
    return tmp_path


def test_noqa_suppresses_exactly_its_line_and_rule(tmp_path):
    write_tree(tmp_path, {"pkg/sample.py": """
        import numpy as np

        def draw():
            return np.random.rand(3)  # repro: noqa REP001

        def draw2():
            return np.random.rand(4)
        """})
    result = analyze_paths([tmp_path], select=["REP001"])
    assert result.suppressed == 1
    assert [f.rule for f in result.findings] == ["REP001"]
    assert result.findings[0].line == 8


def test_blanket_noqa_suppresses_any_rule_on_the_line(tmp_path):
    write_tree(tmp_path, {"pkg/sample.py": """
        import numpy as np

        def draw():
            return np.random.rand(3)  # repro: noqa
        """})
    result = analyze_paths([tmp_path], select=["REP001"])
    assert result.findings == []
    assert result.suppressed == 1


def test_unused_suppression_is_itself_a_finding(tmp_path):
    write_tree(tmp_path, {"pkg/clean.py": """
        def fine():
            return 1  # repro: noqa REP001
        """})
    result = analyze_paths([tmp_path])
    assert [f.rule for f in result.findings] == [UNUSED_SUPPRESSION_ID]
    assert "REP001" in result.findings[0].message
    assert result.exit_code == 1


def test_partially_used_pragma_reports_the_idle_ids(tmp_path):
    write_tree(tmp_path, {"pkg/sample.py": """
        import numpy as np

        def draw():
            return np.random.rand(3)  # repro: noqa REP001,REP005
        """})
    result = analyze_paths([tmp_path])
    assert result.suppressed == 1
    (f,) = result.findings
    assert f.rule == UNUSED_SUPPRESSION_ID
    assert "REP005" in f.message and "REP001" not in f.message


def test_pragma_text_inside_a_docstring_is_not_a_suppression():
    pragmas = extract_pragmas(textwrap.dedent('''
        def doc():
            """mentions # repro: noqa REP001 in prose"""
            return 1  # repro: noqa REP005
        '''))
    assert pragmas == [{"line": 4, "rules": ["REP005"]}]
