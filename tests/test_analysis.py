"""Tests for repro.analysis: the lint engine, every rule (positive and
negative), the runtime annotations, and the lock-order watcher."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.analysis import guard_module_globals, guarded_by
from repro.analysis.linter import LintEngine, findings_to_json, lint_tree
from repro.analysis.lockwatch import LockOrderViolation, LockWatcher
from repro.analysis.annotations import GUARDED_ATTR
from repro.clock import ManualClock, monotonic

REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def make_tree(tmp_path: Path, files: dict) -> Path:
    """Write a fake repo tree: rel path -> source text."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return tmp_path


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# engine mechanics
# ---------------------------------------------------------------------------

class TestEngine:
    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/core/bad.py": "def broken(:\n"})
        findings = lint_tree(root)
        assert rules_of(findings) == ["syntax-error"]
        assert findings[0].path == "src/repro/core/bad.py"

    def test_line_suppression(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/core/a.py": (
                "import time\n"
                "t = time.monotonic  # repro-lint: disable=wall-clock\n"
            ),
        })
        assert lint_tree(root) == []

    def test_line_suppression_is_per_rule(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/core/a.py": (
                "import time\n"
                "t = time.monotonic  # repro-lint: disable=ambient-rng\n"
            ),
        })
        assert rules_of(lint_tree(root)) == ["wall-clock"]

    def test_file_suppression(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/core/a.py": (
                "# repro-lint: file-disable=wall-clock\n"
                "import time\n"
                "t1 = time.monotonic\n"
                "t2 = time.sleep\n"
            ),
        })
        assert lint_tree(root) == []

    def test_suppress_all(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/core/a.py": (
                "import time\n"
                "t = time.monotonic  # repro-lint: disable=all\n"
            ),
        })
        assert lint_tree(root) == []

    def test_enabled_disabled_selection(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/core/a.py": "import time\nt = time.monotonic\n",
        })
        assert lint_tree(root, enabled=["api-hygiene"]) == []
        assert lint_tree(root, disabled=["determinism"]) == []
        assert rules_of(lint_tree(root, enabled=["determinism"])) == ["wall-clock"]

    def test_json_report_shape(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/core/a.py": "import random\n",
        })
        findings = lint_tree(root)
        report = json.loads(findings_to_json(findings))
        assert report["count"] == 1
        entry = report["findings"][0]
        assert entry["rule"] == "ambient-rng"
        assert entry["path"] == "src/repro/core/a.py"
        assert entry["line"] == 1
        assert "suggestion" in entry

    def test_findings_sorted_by_location(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/core/b.py": "import random\n",
            "src/repro/core/a.py": "import time\nx = time.time\nimport random\n",
        })
        findings = lint_tree(root)
        assert [(f.path, f.line) for f in findings] == sorted(
            (f.path, f.line) for f in findings
        )


# ---------------------------------------------------------------------------
# determinism rule
# ---------------------------------------------------------------------------

class TestDeterminismRule:
    def test_flags_numpy_random_draw(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/core/a.py": (
                "import numpy as np\n"
                "x = np.random.normal(0, 1, 10)\n"
            ),
        })
        assert rules_of(lint_tree(root)) == ["ambient-rng"]

    def test_allows_numpy_random_type_references(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/core/a.py": (
                "import numpy as np\n"
                "seq = np.random.SeedSequence(7)\n"
                "gen = np.random.Generator\n"
                "bitgen = np.random.BitGenerator\n"
            ),
        })
        assert lint_tree(root) == []

    def test_flags_random_module_import(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/engine/a.py": "import random\n",
            "src/repro/oracle/b.py": "from random import shuffle\n",
        })
        assert rules_of(lint_tree(root)) == ["ambient-rng", "ambient-rng"]

    def test_flags_argless_randomstate(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/core/a.py": (
                "from repro.stats.rng import RandomState\n"
                "rng = RandomState()\n"
            ),
        })
        assert rules_of(lint_tree(root)) == ["ambient-rng"]

    def test_allows_seeded_randomstate(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/core/a.py": (
                "from repro.stats.rng import RandomState\n"
                "rng = RandomState(0)\n"
            ),
        })
        assert lint_tree(root) == []

    def test_flags_bare_time_import_reference(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/serve/a.py": (
                "from time import monotonic\n"
                "start = monotonic()\n"
            ),
        })
        findings = lint_tree(root)
        assert rules_of(findings) == ["wall-clock"]

    def test_clock_seam_is_allowlisted(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/clock.py": (
                "import time\n"
                "def monotonic():\n"
                "    return time.monotonic()\n"
            ),
        })
        assert lint_tree(root) == []

    def test_out_of_scope_packages_ignored(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/synth/a.py": "import time\nt = time.monotonic\n",
            "scripts/bench.py": "import time\nt = time.perf_counter\n",
        })
        assert lint_tree(root, paths=[root / "src", root / "scripts"]) == []

    def test_flags_set_iteration(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/core/a.py": (
                "def f(items):\n"
                "    for x in set(items):\n"
                "        print(x)\n"
                "    return [y for y in {1, 2, 3}]\n"
                "out = list({'b', 'a'})\n"
            ),
        })
        assert rules_of(lint_tree(root)) == ["unordered-iteration"] * 3

    def test_sorted_set_iteration_is_fine(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/core/a.py": (
                "def f(items):\n"
                "    for x in sorted(set(items)):\n"
                "        print(x)\n"
            ),
        })
        assert lint_tree(root) == []


# ---------------------------------------------------------------------------
# lock-discipline rule
# ---------------------------------------------------------------------------

_GUARDED_CLASS_HEADER = (
    "import threading\n"
    "from repro.analysis.annotations import guarded_by\n"
    "\n"
    "@guarded_by('_lock', '_items', '_count')\n"
    "class Box:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._items = []\n"
    "        self._count = 0\n"
)


class TestLockDisciplineRule:
    def test_flags_unlocked_mutation(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/serve/box.py": _GUARDED_CLASS_HEADER + (
                "    def bad(self, item):\n"
                "        self._items.append(item)\n"
                "        self._count += 1\n"
            ),
        })
        findings = lint_tree(root)
        assert rules_of(findings) == ["lock-discipline"] * 2
        assert "_items" in findings[0].message

    def test_allows_mutation_under_lock(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/serve/box.py": _GUARDED_CLASS_HEADER + (
                "    def good(self, item):\n"
                "        with self._lock:\n"
                "            self._items.append(item)\n"
                "            self._count += 1\n"
            ),
        })
        assert lint_tree(root) == []

    def test_locked_suffix_methods_exempt(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/serve/box.py": _GUARDED_CLASS_HEADER + (
                "    def _drain_locked(self):\n"
                "        self._items.clear()\n"
                "        self._count = 0\n"
            ),
        })
        assert lint_tree(root) == []

    def test_init_and_pickling_exempt(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/serve/box.py": _GUARDED_CLASS_HEADER + (
                "    def __setstate__(self, state):\n"
                "        self._items = state['items']\n"
                "        self._count = state['count']\n"
            ),
        })
        assert lint_tree(root) == []

    def test_flags_subscript_and_del_mutations(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/serve/box.py": _GUARDED_CLASS_HEADER + (
                "    def bad(self, k, v):\n"
                "        self._items[k] = v\n"
                "        del self._items[k]\n"
            ),
        })
        assert rules_of(lint_tree(root)) == ["lock-discipline"] * 2

    def test_mutation_after_with_block_is_flagged(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/serve/box.py": _GUARDED_CLASS_HEADER + (
                "    def bad(self):\n"
                "        with self._lock:\n"
                "            self._count += 1\n"
                "        self._count += 1\n"
            ),
        })
        assert rules_of(lint_tree(root)) == ["lock-discipline"]

    def test_module_globals_positive_and_negative(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/core/pools.py": (
                "import threading\n"
                "from repro.analysis.annotations import guard_module_globals\n"
                "_LOCK = threading.Lock()\n"
                "_POOLS = {}\n"
                "guard_module_globals('_LOCK', '_POOLS')\n"
                "def good(key, pool):\n"
                "    with _LOCK:\n"
                "        _POOLS[key] = pool\n"
                "def bad(key):\n"
                "    _POOLS.pop(key, None)\n"
                "class Manager:\n"
                "    def also_bad(self):\n"
                "        _POOLS.clear()\n"
            ),
        })
        findings = lint_tree(root)
        assert rules_of(findings) == ["lock-discipline"] * 2
        assert {f.line for f in findings} == {10, 13}

    def test_reads_are_not_flagged(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/serve/box.py": _GUARDED_CLASS_HEADER + (
                "    def peek(self):\n"
                "        return len(self._items) + self._count\n"
            ),
        })
        assert lint_tree(root) == []


# ---------------------------------------------------------------------------
# api-hygiene rule
# ---------------------------------------------------------------------------

class TestApiHygieneRule:
    def test_dangling_all_entry_flagged(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/core/a.py": (
                "__all__ = ['real', 'ghost']\n"
                "def real():\n"
                "    pass\n"
            ),
        })
        findings = lint_tree(root)
        assert rules_of(findings) == ["api-hygiene"]
        assert "ghost" in findings[0].message

    def test_duplicate_all_entry_flagged(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/core/a.py": (
                "__all__ = ['real', 'real']\n"
                "def real():\n"
                "    pass\n"
            ),
        })
        findings = lint_tree(root)
        assert rules_of(findings) == ["api-hygiene"]
        assert "duplicate" in findings[0].message

    def test_bound_entries_pass(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/core/a.py": (
                "from collections import OrderedDict\n"
                "__all__ = ['OrderedDict', 'CONST', 'Klass', 'fn']\n"
                "CONST = 1\n"
                "class Klass:\n"
                "    pass\n"
                "def fn():\n"
                "    pass\n"
            ),
        })
        assert lint_tree(root) == []

    def test_undocumented_root_export_flagged(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/__init__.py": (
                "__all__ = ['documented', 'hidden']\n"
                "def documented():\n"
                "    pass\n"
                "def hidden():\n"
                "    pass\n"
            ),
            "docs/API.md": "# API\n\n`documented` does things.\n",
        })
        findings = lint_tree(root)
        assert rules_of(findings) == ["api-hygiene"]
        assert "hidden" in findings[0].message


# ---------------------------------------------------------------------------
# annotations runtime behaviour
# ---------------------------------------------------------------------------

class TestAnnotations:
    def test_guarded_by_attaches_metadata(self):
        @guarded_by("_lock", "_a", "_b")
        class C:
            pass

        assert getattr(C, GUARDED_ATTR) == {"_lock": ("_a", "_b")}

    def test_guarded_by_stacks_and_merges(self):
        @guarded_by("_lock", "_c")
        @guarded_by("_lock", "_a", "_b")
        @guarded_by("_other", "_x")
        class C:
            pass

        fields = getattr(C, GUARDED_ATTR)
        assert fields["_lock"] == ("_a", "_b", "_c")
        assert fields["_other"] == ("_x",)

    def test_subclass_does_not_mutate_parent(self):
        @guarded_by("_lock", "_a")
        class Parent:
            pass

        @guarded_by("_lock", "_b")
        class Child(Parent):
            pass

        assert getattr(Parent, GUARDED_ATTR) == {"_lock": ("_a",)}
        assert getattr(Child, GUARDED_ATTR)["_lock"] == ("_a", "_b")

    def test_validation_errors(self):
        with pytest.raises(TypeError):
            guarded_by("", "_a")
        with pytest.raises(TypeError):
            guarded_by("_lock")
        with pytest.raises(TypeError):
            guard_module_globals("_LOCK")
        guard_module_globals("_LOCK", "_STATE")  # no-op, no error


# ---------------------------------------------------------------------------
# lockwatch
# ---------------------------------------------------------------------------

class TestLockWatcher:
    def test_detects_seeded_two_lock_inversion(self):
        watcher = LockWatcher(raise_on_cycle=True)
        a = watcher.wrap(threading.Lock(), "site.a")
        b = watcher.wrap(threading.Lock(), "site.b")
        with a:
            with b:
                pass
        with pytest.raises(LockOrderViolation) as excinfo:
            with b:
                with a:
                    pass
        assert set(excinfo.value.cycle) == {"site.a", "site.b"}
        assert watcher.violations()

    def test_detects_transitive_cycle(self):
        watcher = LockWatcher(raise_on_cycle=True)
        a = watcher.wrap(threading.Lock(), "a")
        b = watcher.wrap(threading.Lock(), "b")
        c = watcher.wrap(threading.Lock(), "c")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with pytest.raises(LockOrderViolation):
            with c:
                with a:
                    pass

    def test_consistent_order_is_clean(self):
        watcher = LockWatcher(raise_on_cycle=True)
        a = watcher.wrap(threading.Lock(), "a")
        b = watcher.wrap(threading.Lock(), "b")
        for _ in range(3):
            with a:
                with b:
                    pass
        watcher.assert_clean()
        assert watcher.edges()["a"] == ("b",)

    def test_rlock_reentry_adds_no_edges(self):
        watcher = LockWatcher(raise_on_cycle=True)
        r = watcher.wrap(threading.RLock(), "r")
        with r:
            with r:
                pass
        watcher.assert_clean()
        assert watcher.edges().get("r", ()) == ()

    def test_same_site_distinct_instances_allowed(self):
        watcher = LockWatcher(raise_on_cycle=True)
        first = watcher.wrap(threading.Lock(), "pool.lock")
        second = watcher.wrap(threading.Lock(), "pool.lock")
        with first:
            with second:
                pass
        watcher.assert_clean()

    def test_record_mode_collects_instead_of_raising(self):
        watcher = LockWatcher(raise_on_cycle=False)
        a = watcher.wrap(threading.Lock(), "a")
        b = watcher.wrap(threading.Lock(), "b")
        with a:
            with b:
                pass
        with b:
            with a:
                pass  # survives: violation recorded, not raised
        assert len(watcher.violations()) == 1
        with pytest.raises(LockOrderViolation):
            watcher.assert_clean()
        watcher.reset()
        watcher.assert_clean()

    def test_patch_threading_instruments_new_locks(self):
        watcher = LockWatcher(raise_on_cycle=True)

        def make_site_a():
            return threading.Lock()

        def make_site_b():
            return threading.RLock()

        with watcher.patch_threading():
            a = make_site_a()
            b = make_site_b()
            with a:
                with b:
                    pass
        # One graph node per creation site, and the nesting left an edge.
        assert watcher.num_sites() == 2
        (edge,) = [vs for vs in watcher.edges().values() if vs]
        assert len(edge) == 1
        # After the block, constructors are restored.
        assert not hasattr(threading.Lock(), "name")

    def test_patch_threading_is_exclusive(self):
        first = LockWatcher()
        second = LockWatcher()
        with first.patch_threading():
            with pytest.raises(RuntimeError, match="already patched"):
                with second.patch_threading():
                    pass

    def test_condition_protocol_works_under_watch(self):
        watcher = LockWatcher(raise_on_cycle=True)
        with watcher.patch_threading():
            cond = threading.Condition()
            results = []

            def consumer():
                with cond:
                    while not results:
                        cond.wait(timeout=5)

            thread = threading.Thread(target=consumer)
            thread.start()
            time.sleep(0.01)
            with cond:
                results.append(1)
                cond.notify_all()
            thread.join(timeout=5)
            assert not thread.is_alive()
        watcher.assert_clean()

    def test_instrument_replaces_attribute(self):
        watcher = LockWatcher()

        class Holder:
            def __init__(self):
                self._lock = threading.Lock()

        holder = Holder()
        watched = watcher.instrument(holder, "_lock")
        assert holder._lock is watched
        with holder._lock:
            pass
        assert watcher.num_sites() == 1

    def test_real_serve_workload_is_cycle_free(self, lockwatch, small_scenario):
        from repro.engine.builders import two_stage_pipeline
        from repro.serve.service import AQPService

        service = AQPService()
        pipeline = two_stage_pipeline(
            small_scenario.proxy,
            small_scenario.make_oracle(),
            small_scenario.statistic_values,
            budget=300,
        )
        handle = service.submit_pipeline(pipeline, rng=3)
        service.run_until_complete()
        assert handle.result() is not None
        lockwatch.assert_clean()
        assert lockwatch.num_sites() > 0


# ---------------------------------------------------------------------------
# the repo itself is clean, and the CLI agrees
# ---------------------------------------------------------------------------

class TestRepoIsClean:
    def test_lint_tree_has_zero_findings(self):
        findings = lint_tree(REPO_ROOT)
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_cli_exit_codes_and_json(self, tmp_path):
        script = REPO_ROOT / "scripts" / "lint_repro.py"
        clean = subprocess.run(
            [sys.executable, str(script), "--json", "src/repro/engine"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert clean.returncode == 0, clean.stderr
        assert json.loads(clean.stdout)["count"] == 0

        dirty_root = make_tree(tmp_path, {
            "src/repro/core/bad.py": "import random\n",
        })
        dirty = subprocess.run(
            [sys.executable, str(script), "--json", "--root", str(dirty_root)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert dirty.returncode == 1, dirty.stderr
        report = json.loads(dirty.stdout)
        assert report["count"] == 1
        assert report["findings"][0]["rule"] == "ambient-rng"

    def test_cli_list_rules(self):
        script = REPO_ROOT / "scripts" / "lint_repro.py"
        out = subprocess.run(
            [sys.executable, str(script), "--list-rules"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert out.returncode == 0
        for name in ("determinism", "lock-discipline", "api-hygiene"):
            assert name in out.stdout
        assert "kernel-contract" not in out.stdout

    def test_cli_rejects_unknown_rule(self):
        script = REPO_ROOT / "scripts" / "lint_repro.py"
        out = subprocess.run(
            [sys.executable, str(script), "--rules", "nonsense"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert out.returncode == 2


# ---------------------------------------------------------------------------
# the clock seam
# ---------------------------------------------------------------------------

class TestClockSeam:
    def test_monotonic_increases(self):
        first = monotonic()
        second = monotonic()
        assert second >= first

    def test_manual_clock_advance_and_sleep(self):
        clock = ManualClock(start=10.0)
        assert clock() == 10.0
        assert clock.now == 10.0
        clock.advance(2.5)
        assert clock() == 12.5
        clock.sleep(1.5)  # advances instead of blocking
        assert clock() == 14.0
        clock.advance()  # frozen time is allowed
        assert clock() == 14.0

    def test_manual_clock_rejects_negative_advance(self):
        clock = ManualClock()
        with pytest.raises(ValueError):
            clock.advance(-1.0)
