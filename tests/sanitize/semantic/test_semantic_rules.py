"""Detector power and soundness for REP009–REP013.

Mirrors the PR 5 buggy-demo pattern at the static level: each rule gets
a fixture package with exactly one planted bug, written to ``tmp_path``
at test time (never committed as real modules — CI's semantic pass
sweeps ``tests/`` too). Every fixture runs under the *full* semantic
selection, so each test proves its rule fires AND that the other four
stay quiet on the same tree.
"""

import textwrap

import pytest

from repro.sanitize.semantic import analyze_paths

SEMANTIC = ["REP009-REP013"]


def run_fixture(tmp_path, files, select=SEMANTIC):
    for rel, src in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(src), encoding="utf-8")
    return analyze_paths([tmp_path], select=select).findings


def only_rule(findings):
    rules = {f.rule for f in findings}
    assert len(rules) == 1, f"expected one rule, got {sorted(rules)}"
    return rules.pop()


# ----------------------------------------------------------------------
# REP009 — transitive blocking reachability


def test_rep009_catches_blocking_two_modules_down(tmp_path):
    findings = run_fixture(tmp_path, {
        "pkg/a.py": """
            from pkg.b import helper

            async def serve_loop():
                helper()
            """,
        "pkg/b.py": """
            import time

            def helper():
                deeper()

            def deeper():
                time.sleep(0.1)
            """,
    })
    assert only_rule(findings) == "REP009"
    (f,) = findings
    assert "serve_loop" in f.message
    assert "helper -> deeper" in f.message
    assert "time.sleep()" in f.message
    assert f.path.endswith("pkg/a.py")


def test_rep009_quiet_when_leaf_goes_through_executor(tmp_path):
    findings = run_fixture(tmp_path, {
        "pkg/a.py": """
            from pkg.b import helper

            async def serve_loop(loop):
                await loop.run_in_executor(None, helper)
            """,
        "pkg/b.py": """
            import time

            def helper():
                time.sleep(0.1)
            """,
    })
    assert findings == []


# ----------------------------------------------------------------------
# REP010 — determinism taint


def test_rep010_catches_clock_flowing_into_checkpoint(tmp_path):
    findings = run_fixture(tmp_path, {
        "pkg/ck.py": """
            import time

            def persist(store, k, data):
                stamp = time.time()
                payload = {"data": data, "stamp": stamp}
                store.save("stage", k, payload)
            """,
    })
    assert only_rule(findings) == "REP010"
    (f,) = findings
    assert "time.time()" in f.message
    assert "save()" in f.message


def test_rep010_tracks_taint_through_a_called_function(tmp_path):
    findings = run_fixture(tmp_path, {
        "pkg/clock.py": """
            import time

            def wall():
                return time.time()
            """,
        "pkg/ck.py": """
            from pkg.clock import wall

            def persist(store, k, data):
                store.save("stage", k, {"d": data, "t": wall()})
            """,
    })
    assert only_rule(findings) == "REP010"
    assert findings[0].path.endswith("pkg/ck.py")


def test_rep010_sees_through_from_import_aliasing(tmp_path):
    findings = run_fixture(tmp_path, {
        "pkg/ck.py": """
            from time import monotonic

            def persist(store, k, data):
                store.save("stage", k, {"d": data, "t": monotonic()})
            """,
    })
    assert only_rule(findings) == "REP010"
    assert "time.monotonic()" in findings[0].message


def test_rep010_quiet_on_deterministic_payloads(tmp_path):
    findings = run_fixture(tmp_path, {
        "pkg/ck.py": """
            def persist(store, k, data):
                store.save("stage", k, {"data": data, "k": k})
            """,
    })
    assert findings == []


# ----------------------------------------------------------------------
# REP011 — cross-module event contract


def test_rep011_catches_both_contract_directions(tmp_path):
    findings = run_fixture(tmp_path, {
        "pkg/prod.py": """
            def fire(bus):
                bus.emit(Ping())
            """,
        "pkg/sub.py": """
            class Pong:
                pass

            class Listener:
                handled_events = (Pong,)

                def on_event(self, ev):
                    return ev
            """,
    })
    assert only_rule(findings) == "REP011"
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert "Ping" in messages[0] and "no subscriber declares" in messages[0]
    assert "Pong" in messages[1] and "dead subscription" in messages[1]


def test_rep011_quiet_when_contract_holds_across_modules(tmp_path):
    findings = run_fixture(tmp_path, {
        "pkg/prod.py": """
            def fire(bus):
                bus.emit(Ping())
            """,
        "pkg/sub.py": """
            class Listener:
                handled_events = (Ping,)
            """,
    })
    assert findings == []


def test_rep011_sees_a_constructor_bound_at_the_emit_site(tmp_path):
    findings = run_fixture(tmp_path, {
        "pkg/prod.py": """
            def fire(bus):
                bus.emit(ping := Ping())
                return ping
            """,
        "pkg/sub.py": """
            class Ping:
                pass

            class Listener:
                handled_events = (Ping,)
            """,
    })
    assert findings == []


def test_rep011_accepts_append_built_declarations(tmp_path):
    # the coalesce.py pattern: handled = [...] + handled.append(X)
    findings = run_fixture(tmp_path, {
        "pkg/prod.py": """
            def fire(bus, deep):
                bus.emit(Ping())
                if deep:
                    bus.emit(Probe())
            """,
        "pkg/sub.py": """
            class Recorder:
                def __init__(self, deep):
                    handled = [Ping]
                    if deep:
                        handled.append(Probe)
                    self.handled_events = tuple(handled)
            """,
    })
    assert findings == []


def test_rep011_skips_declared_names_that_are_no_class(tmp_path):
    # the tests' EventCollector pattern: the element is a constructor
    # parameter — what it names is unknown, so it cannot be called dead
    findings = run_fixture(tmp_path, {
        "pkg/sub.py": """
            class Collector:
                def __init__(self, event_type):
                    self.handled_events = (event_type,)
            """,
    })
    assert findings == []


# ----------------------------------------------------------------------
# REP012 — dtype-width discipline


def test_rep012_catches_unguarded_narrow_multiply(tmp_path):
    findings = run_fixture(tmp_path, {
        "pkg/murmur.py": """
            import numpy as np

            def murmur_mix(h):
                h = np.uint32(h)
                return h * np.uint32(0x5BD1E995)
            """,
    })
    assert only_rule(findings) == "REP012"
    (f,) = findings
    assert "'*'" in f.message
    assert "errstate" in f.message


def test_rep012_errstate_is_the_sanctioned_wraparound(tmp_path):
    findings = run_fixture(tmp_path, {
        "pkg/murmur.py": """
            import numpy as np

            def murmur_mix(h):
                h = np.uint32(h)
                with np.errstate(over="ignore"):
                    return h * np.uint32(0x5BD1E995)
            """,
    })
    assert findings == []


def test_rep012_ignores_narrow_math_outside_fingerprint_paths(tmp_path):
    # vectortable.vote's guarded int32 narrowing is deliberate and out
    # of scope: the rule only polices murmur/fingerprint code
    findings = run_fixture(tmp_path, {
        "pkg/table.py": """
            import numpy as np

            def vote(slots):
                key = slots.astype(np.int32)
                return key * np.int32(8)
            """,
    })
    assert findings == []


# ----------------------------------------------------------------------
# REP013 — checkpoint codec drift


def test_rep013_catches_drift_in_both_directions(tmp_path):
    findings = run_fixture(tmp_path, {
        "pkg/codec.py": """
            def spectrum_to_payload(sp):
                return {"k": sp.k, "total": sp.total, "junk": 0}

            def spectrum_from_payload(payload):
                return (payload["k"], payload["total"], payload["extra"])
            """,
    })
    assert only_rule(findings) == "REP013"
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert any("'junk'" in m and "no paired reader" in m for m in messages)
    assert any("'extra'" in m and "no paired writer" in m for m in messages)


JOB_RECORD_CODEC = """
    def spec_to_dict(spec):
        return {"job_id": spec.job_id, "dat": spec.dat,
                "options": spec.options.to_dict(),
                "deadline_s": spec.deadline_s}

    def spec_from_dict(record):
        return JobSpec(job_id=record["job_id"], dat=record["dat"],
                       options=JobOptions.from_dict(record["options"]),
                       deadline_s=record["deadline_s"])
    """


@pytest.mark.parametrize("dropped,half", [
    ('"deadline_s": spec.deadline_s', "no paired writer"),
    ('deadline_s=record["deadline_s"]', "no paired reader"),
])
def test_rep013_pairs_the_serve_job_record_halves(tmp_path, dropped, half):
    # the shape of repro.serve.protocol's spec_to_dict / spec_from_dict:
    # a field dropped from either half (the drift that once lost a failed
    # job's error across --recover) fails lint, not a recovery
    assert run_fixture(tmp_path / "ok",
                       {"pkg/protocol.py": JOB_RECORD_CODEC}) == []
    assert dropped in JOB_RECORD_CODEC
    findings = run_fixture(tmp_path / "drift", {
        "pkg/protocol.py": JOB_RECORD_CODEC.replace(dropped, "")})
    assert only_rule(findings) == "REP013"
    (finding,) = findings
    assert "'spec:dict'" in finding.message
    assert "'deadline_s'" in finding.message and half in finding.message


def test_rep013_quiet_when_key_sets_agree(tmp_path):
    findings = run_fixture(tmp_path, {
        "pkg/codec.py": """
            def spectrum_to_payload(sp):
                return {"k": sp.k, "total": sp.total}

            def spectrum_from_payload(payload):
                return (payload["k"], payload.get("total", 0))
            """,
    })
    assert findings == []


def test_rep013_opaque_halves_are_skipped_not_guessed(tmp_path):
    # dataclasses.asdict writers / **payload readers have unknowable key
    # sets; flagging them would be noise
    findings = run_fixture(tmp_path, {
        "pkg/codec.py": """
            import dataclasses

            def profile_to_dict(profile):
                return dataclasses.asdict(profile)

            def profile_from_dict(data):
                return KernelProfile(**data)
            """,
    })
    assert findings == []


def test_rep013_pairs_stage_run_with_restore(tmp_path):
    findings = run_fixture(tmp_path, {
        "pkg/stages.py": """
            class AlignStage:
                def run(self, ctx):
                    return {"pairs": ctx.pairs, "score": ctx.score}

                def restore(self, ctx, payload):
                    return (payload["pairs"], payload["missing"])
            """,
    })
    assert only_rule(findings) == "REP013"
    messages = sorted(f.message for f in findings)
    assert any("'score'" in m and "no paired reader" in m for m in messages)
    assert any("'missing'" in m and "no paired writer" in m for m in messages)


# ----------------------------------------------------------------------
# cross-cutting: one planted bug never lights up a second rule


@pytest.mark.parametrize("selection", [["REP009"], ["REP010"], ["REP011"],
                                       ["REP012"], ["REP013"]])
def test_single_rule_selection_is_honored(tmp_path, selection):
    # a tree with every planted bug at once: selecting one rule must
    # return only that rule's findings
    files = {
        "pkg/a.py": """
            from pkg.b import helper

            async def serve_loop():
                helper()
            """,
        "pkg/b.py": """
            import time

            def helper():
                time.sleep(0.1)

            def persist(store, k):
                store.save("stage", k, {"t": time.time()})
            """,
        "pkg/events.py": """
            def fire(bus):
                bus.emit(Ping())
            """,
        "pkg/murmur.py": """
            import numpy as np

            def murmur_mix(h):
                h = np.uint32(h)
                return h * np.uint32(3)
            """,
        "pkg/codec.py": """
            def ext_to_payload(e):
                return {"end": e.end, "junk": 0}

            def ext_from_payload(p):
                return p["end"]
            """,
    }
    findings = run_fixture(tmp_path, files, select=selection)
    assert findings, f"{selection[0]} found nothing in the all-bugs tree"
    assert {f.rule for f in findings} == set(selection)
