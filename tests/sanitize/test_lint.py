"""Static lint prong: every rule fires on its fixture, stays quiet
on the sanctioned pattern, and the shipped tree is clean."""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.sanitize.lint import (
    RULES,
    LintRule,
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
# REP002 — incomplete backend protocol


def test_rep002_flags_half_a_backend():
    fs = findings_for("REP002", """
        class HalfBackend:
            def run(self, contigs, k):
                return None
        """)
    assert [f.rule for f in fs] == ["REP002"]
    assert "run_schedule" in fs[0].message


def test_rep002_allows_full_protocol_and_subclasses():
    fs = findings_for("REP002", """
        class FullBackend:
            def run(self, contigs, k): ...
            def run_schedule(self, contigs, ks): ...

        class DerivedKernel(FullBackend):
            def run(self, contigs, k): ...

        class NotABackendThing:
            def run(self): ...
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


def test_rule_catalog_is_the_documented_twelve():
    # REP004 (SlotAccess kind=) is retired; its id is not reused
    assert sorted(RULES) == [f"REP{n:03d}" for n in range(1, 14) if n != 4]
    for rule_id, rule in RULES.items():
        assert rule.rule_id == rule_id
        assert rule.description


def test_every_rule_class_is_in_the_catalog_once():
    # RULES is one literal table: a rule class left out of it would
    # never run, and nothing else would notice
    from repro.sanitize.lint import rules as lint_rules
    from repro.sanitize.semantic import rules as semantic_rules

    classes = [cls for mod in (lint_rules, semantic_rules)
               for cls in vars(mod).values()
               if isinstance(cls, type) and issubclass(cls, LintRule)
               and cls.__module__ == mod.__name__ and cls.rule_id]
    assert len(classes) == len(RULES)
    for cls in classes:
        assert [r for r in RULES.values() if type(r) is cls] \
            == [RULES[cls.rule_id]]


def test_sanitize_docstring_tracks_the_catalog_span():
    # satellite of PR 10: the package docstring asserts its own rule
    # span at import time, so this can only fail if someone weakens the
    # assert itself
    import repro.sanitize as sanitize
    assert f"{min(RULES)}–{max(RULES)}" in sanitize.__doc__


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
    findings = [f for file in sorted(SRC.rglob("*.py"))
                for f in lint_source(file.read_text(encoding="utf-8"),
                                     str(file), select_rules())]
    assert findings == [], render_text(findings)


def test_shipped_source_tree_is_semantically_clean():
    # the whole-program pass (REP009-REP013 + suppression hygiene) must
    # also come back empty on src — pragma-suppressed false positives
    # are fine, unbaselined findings are not
    from repro.sanitize.semantic import analyze_paths

    result = analyze_paths([SRC])
    assert result.findings == [], render_text(result.findings)


def test_select_rules_accepts_ranges_and_prefixes():
    ids = [r.rule_id for r in select_rules(["REP009-REP013"])]
    assert ids == ["REP009", "REP010", "REP011", "REP012", "REP013"]
    ids = [r.rule_id for r in select_rules(["REP0"])]
    assert ids == sorted(RULES)
    # order preserved, duplicates dropped, exact ids mix in
    ids = [r.rule_id for r in select_rules(["REP006", "REP001-REP002",
                                            "REP006"])]
    assert ids == ["REP006", "REP001", "REP002"]
    with pytest.raises(ValueError, match="REP42-REP99"):
        select_rules(["REP42-REP99"])
