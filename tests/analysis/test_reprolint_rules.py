"""Rule self-tests: each reprolint rule fires on a planted violation and
stays silent on the conforming twin.

These fixtures are synthetic source strings fed straight into the
analysis engine — no files on disk, no dependence on the repository's
own (clean) code.  Every rule gets at least one firing case and one
silent case, so a rule that rots into always-pass or always-fail is
caught here before CI trusts it.
"""

import textwrap
from pathlib import Path

from repro.analysis import MODULE_RULES, PROJECT_RULES, Module, run_rules


def report_for(*files):
    """Analyze ``(rel_path, source)`` pairs as an in-memory project."""
    modules = []
    for rel, text in files:
        role = "tests" if rel.startswith("tests/") else "src"
        modules.append(
            Module(Path("/project") / rel, rel, textwrap.dedent(text), role)
        )
    return run_rules(modules, MODULE_RULES, PROJECT_RULES)


def fired(report):
    return sorted({violation.rule for violation in report.violations})


# ---------------------------------------------------------------------------
# R001 — clock discipline in src/


WALL_CLOCK_SRC = """
    import time


    def stamp():
        return time.time()
"""


def test_r001_fires_on_wall_clock_outside_clock_module():
    report = report_for(("src/repro/serving/thing.py", WALL_CLOCK_SRC))
    assert fired(report) == ["R001"]


def test_r001_catches_aliased_imports():
    report = report_for(
        (
            "src/repro/core/thing.py",
            """
            from time import monotonic as _mono


            def tick():
                return _mono()
            """,
        )
    )
    assert fired(report) == ["R001"]


def test_r001_exempts_the_clock_module_itself():
    report = report_for(("src/repro/serving/clock.py", WALL_CLOCK_SRC))
    assert report.ok and not report.waived


def test_waiver_with_rationale_suppresses_but_is_recorded():
    report = report_for(
        (
            "src/repro/serving/thing.py",
            """
            import time


            def stamp():
                return time.time()  # reprolint: allow[R001] fixture rationale
            """,
        )
    )
    assert report.ok
    assert len(report.waived) == 1
    assert report.waived[0].violation.rule == "R001"


def test_waiver_without_rationale_is_itself_a_violation():
    report = report_for(
        (
            "src/repro/serving/thing.py",
            """
            import time


            def stamp():
                return time.time()  # reprolint: allow[R001]
            """,
        )
    )
    # The bare pragma earns R000 and does NOT silence the R001 it targets.
    assert fired(report) == ["R000", "R001"]


# ---------------------------------------------------------------------------
# R002 — lock discipline


GUARDED_CLASS = """
    import threading


    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0  # guarded-by: _lock

        def bump(self):
            %s
"""


def test_r002_fires_on_unguarded_touch_of_annotated_attr():
    report = report_for(
        ("src/repro/serving/c.py", GUARDED_CLASS % "self._count += 1")
    )
    assert fired(report) == ["R002"]


def test_r002_silent_when_touch_is_inside_with_lock():
    body = "with self._lock:\n                self._count += 1"
    report = report_for(("src/repro/serving/c.py", GUARDED_CLASS % body))
    assert report.ok


def test_r002_honors_caller_holds_annotation():
    report = report_for(
        (
            "src/repro/serving/c.py",
            """
            import threading


            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0  # guarded-by: _lock

                def bump(self):
                    with self._lock:
                        self._bump_locked()

                def _bump_locked(self):  # caller-holds: _lock
                    self._count += 1
            """,
        )
    )
    assert report.ok


def test_r002_reads_class_level_guardedby_descriptor():
    report = report_for(
        (
            "src/repro/serving/c.py",
            """
            import threading

            from ..testing.races import GuardedBy


            class Counter:
                _count = GuardedBy("_lock")

                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def peek(self):
                    return self._count
            """,
        )
    )
    assert fired(report) == ["R002"]


# ---------------------------------------------------------------------------
# R003 — fault-point coverage (project rule, needs core/serialization.py)


FAKE_SERIALIZATION = """
    def _fault(event, path):
        pass


    def _write(path, *, tag):
        _fault(f"{tag}.begin", path)
        _fault(f"{tag}.done", path)


    def save(path):
        _write(path, tag="store")
"""


def test_r003_fires_when_a_seam_has_no_test_literal():
    report = report_for(
        ("src/repro/core/serialization.py", FAKE_SERIALIZATION),
        ("tests/test_sweep.py", 'GOLDEN = {"store.begin"}\n'),
    )
    assert fired(report) == ["R003"]
    assert "store.done" in report.violations[0].message


def test_r003_silent_when_every_seam_is_pinned():
    report = report_for(
        ("src/repro/core/serialization.py", FAKE_SERIALIZATION),
        ("tests/test_sweep.py", 'GOLDEN = {"store.begin", "store.done"}\n'),
    )
    assert report.ok


def test_r003_wildcard_literal_covers_data_dependent_seam():
    source = """
        def _fault(event, path):
            pass


        def commit(members, path):
            for member in members:
                _fault(f"commit.rename.{member}", path)
    """
    report = report_for(
        ("src/repro/core/serialization.py", source),
        ("tests/test_sweep.py", 'GOLDEN = {"commit.rename.*"}\n'),
    )
    assert report.ok


def test_r003_flags_a_serialization_module_with_no_seams_at_all():
    report = report_for(
        ("src/repro/core/serialization.py", "def save(path):\n    pass\n"),
        ("tests/test_sweep.py", "x = 1\n"),
    )
    assert fired(report) == ["R003"]


# ---------------------------------------------------------------------------
# R004 — serving error taxonomy


def test_r004_fires_on_bare_runtimeerror_in_serving():
    report = report_for(
        (
            "src/repro/serving/thing.py",
            """
            def close(server):
                raise RuntimeError("server closed")
            """,
        )
    )
    assert fired(report) == ["R004"]


def test_r004_allows_typed_and_api_misuse_errors():
    report = report_for(
        (
            "src/repro/serving/thing.py",
            """
            from .errors import ServerClosedError


            def close(server):
                if server.closed:
                    raise ServerClosedError("already closed")
                if server.lane < 0:
                    raise ValueError("lane must be >= 0")
            """,
        )
    )
    assert report.ok


def test_r004_ignores_non_serving_src_and_the_errors_module():
    report = report_for(
        ("src/repro/core/thing.py", 'raise RuntimeError("fine here")\n'),
        (
            "src/repro/serving/errors.py",
            'raise RuntimeError("taxonomy home")\n',
        ),
    )
    assert report.ok


# ---------------------------------------------------------------------------
# R005 — deterministic tier-1 tests


def test_r005_fires_on_real_sleep_in_tests():
    report = report_for(
        (
            "tests/serving/test_thing.py",
            """
            import time


            def test_slow():
                time.sleep(0.5)
            """,
        )
    )
    assert fired(report) == ["R005"]


def test_r005_silent_on_fake_clock_tests():
    report = report_for(
        (
            "tests/serving/test_thing.py",
            """
            def test_fast(fake_clock):
                fake_clock.advance(5.0)
                assert fake_clock.now() == 5.0
            """,
        )
    )
    assert report.ok


def test_r005_standalone_waiver_comment_covers_next_code_line():
    report = report_for(
        (
            "tests/serving/test_thing.py",
            """
            import time


            def test_measures_wall_clock():
                # reprolint: allow[R005] the subject under test is timing
                elapsed = time.monotonic()
                assert elapsed >= 0
            """,
        )
    )
    assert report.ok
    assert len(report.waived) == 1
