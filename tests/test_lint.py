"""The repo lint suite: green on the repo, and each rule catches a seed.

Gates ``tools/lint/`` into tier-1 twice over: the three checkers must find
nothing in the repository as committed (the same result the CI ``lint``
job enforces), and each rule must still *detect* a seeded violation — a
checker that silently stopped matching would otherwise stay green
forever.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from lint import Violation, envknobs, execguard, lockcheck  # noqa: E402


def _write(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


@pytest.fixture
def local_paths(monkeypatch, tmp_path):
    """Point every checker's path rendering at the tmp dir.

    The checkers render repo-relative paths; seeded files live outside the
    repo, so the test swaps ``relative`` for the bare file name.
    """
    for module in (envknobs, execguard, lockcheck):
        monkeypatch.setattr(module, "relative", lambda path: path.name)
    return tmp_path


# ---------------------------------------------------------------------------
# the repository itself is clean (what the CI lint job enforces)
# ---------------------------------------------------------------------------


def test_envknobs_clean_on_repo():
    assert envknobs.check() == []


def test_execguard_clean_on_repo():
    assert execguard.check() == []


def test_lockcheck_clean_on_repo():
    assert lockcheck.check() == []


def test_lint_runner_exits_zero():
    completed = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "lint" / "run.py")],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    for name in ("envknobs", "execguard", "lockcheck"):
        assert f"{name}: OK" in completed.stdout


def test_violation_renders_compiler_style():
    assert Violation("a/b.py", 7, "boom").render() == "a/b.py:7: boom"


# ---------------------------------------------------------------------------
# envknobs: lenient or undocumented REPRO_* reads are caught
# ---------------------------------------------------------------------------


def test_envknobs_flags_module_level_read(local_paths):
    _write(
        local_paths,
        "bad_module_level.py",
        """
        import os

        FLAG = os.environ.get("REPRO_ENGINE_TYPED", "1")
        """,
    )
    findings = envknobs.check(roots=(local_paths,))
    assert any("module level" in v.message for v in findings)


def test_envknobs_flags_lenient_parser(local_paths):
    _write(
        local_paths,
        "bad_lenient.py",
        """
        import os

        def enabled():
            return os.getenv("REPRO_ENGINE_TYPED") == "1"
        """,
    )
    findings = envknobs.check(roots=(local_paths,))
    assert any(
        "never raises ConfigurationError" in v.message for v in findings
    )


def test_envknobs_flags_undocumented_name(local_paths):
    _write(
        local_paths,
        "bad_undocumented.py",
        """
        import os

        def parse():
            value = os.environ.get("REPRO_NO_SUCH_KNOB_XYZ", "")
            if value not in ("", "0", "1"):
                raise ConfigurationError(value)
            return value == "1"
        """,
    )
    findings = envknobs.check(roots=(local_paths,))
    assert any(
        "REPRO_NO_SUCH_KNOB_XYZ" in v.message and "documented" in v.message
        for v in findings
    )


def test_envknobs_accepts_strict_documented_parser(local_paths):
    _write(
        local_paths,
        "good_strict.py",
        """
        import os

        def enabled():
            if "REPRO_COMPILE_COST" in os.environ:  # membership probe: exempt
                pass
            value = os.environ.get("REPRO_COMPILE_COST", "").strip()
            if value not in ("", "0", "1"):
                raise ConfigurationError(value)
            return value != "0"
        """,
    )
    assert envknobs.check(roots=(local_paths,)) == []


def _strict_reader(directory: Path) -> Path:
    directory.mkdir()
    _write(
        directory,
        "strict.py",
        """
        import os

        def batch():
            value = os.environ.get("REPRO_ENGINE_BATCH", "").strip()
            if not value.isdigit():
                raise ConfigurationError(value)
            return int(value)

        def lenient():
            return os.getenv("REPRO_ENGINE_TYPED") == "1"
        """,
    )
    return directory


def test_envknobs_flags_documented_knob_nothing_reads(local_paths):
    code = _strict_reader(local_paths / "code")
    docs = local_paths / "docs"
    docs.mkdir()
    _write(
        docs,
        "ci.yml",
        """
        run: REPRO_GHOST_KNOB=0 REPRO_ENGINE_BATCH=8 pytest
        # the REPRO_SERVER_* family prefix is not a knob name
        """,
    )
    findings = envknobs.check(roots=(code,), naming_roots=(docs,))
    stale = [v for v in findings if "no strict parser" in v.message]
    assert [v.render() for v in stale] == [
        "ci.yml:2: REPRO_GHOST_KNOB is named here but no strict parser in "
        "src/ or benchmarks/ reads it — drop the stale knob or add its parser"
    ]


def test_envknobs_stale_rule_ignores_lenient_reads(local_paths):
    """A knob only a lenient function reads is not *strictly* read."""
    code = _strict_reader(local_paths / "code")
    docs = local_paths / "docs"
    docs.mkdir()
    _write(docs, "page.md", "Set `REPRO_ENGINE_TYPED=0` to ...\n")
    findings = envknobs.check(roots=(code,), naming_roots=(docs,))
    assert any(
        "REPRO_ENGINE_TYPED is named here" in v.message for v in findings
    )


# ---------------------------------------------------------------------------
# execguard: unvetted exec/eval is caught
# ---------------------------------------------------------------------------


def test_execguard_bans_eval_everywhere(local_paths):
    _write(local_paths, "bad_eval.py", "x = eval('1 + 1')\n")
    findings = execguard.check(roots=(local_paths,))
    assert any("eval() is banned" in v.message for v in findings)


def test_execguard_flags_exec_outside_allowlist(local_paths):
    _write(
        local_paths,
        "bad_exec.py",
        """
        source = "x = 1"
        exec(compile(source, "<kernel>", "exec"), {"__builtins__": {}})
        """,
    )
    findings = execguard.check(roots=(local_paths,))
    assert any("outside the vetted kernel modules" in v.message for v in findings)


def test_execguard_enforces_sandbox_inside_allowlist(local_paths, monkeypatch):
    path = _write(
        local_paths,
        "vector.py",
        """
        source = "x = 1"
        exec(compile(source, "<kernel>", "exec"), {"no": "builtins"})
        exec(compile("x = " + str(1), "<kernel>", "exec"), {"__builtins__": {}})
        exec(compile(source, "<kernel>", "exec"))
        """,
    )
    # make the seeded file count as the vetted module
    monkeypatch.setattr(execguard, "relative", lambda p: "src/repro/engine/vector.py")
    messages = [v.message for v in execguard.check(roots=(local_paths,))]
    assert any("'__builtins__': {}" in m for m in messages)  # wrong globals
    assert any("pre-assembled source" in m for m in messages)  # inline literal
    assert any("without an explicit globals" in m for m in messages)
    assert path.exists()


def test_execguard_accepts_the_vetted_shape(local_paths, monkeypatch):
    _write(
        local_paths,
        "vector.py",
        """
        source = "x = 1"
        namespace = {"__builtins__": {}, "helper": len}
        exec(compile(source, "<repro-kernel>", "exec"), namespace)
        exec(compile(header + source, "<repro-kernel>", "exec"), {"__builtins__": {}})
        """,
    )
    monkeypatch.setattr(execguard, "relative", lambda p: "src/repro/engine/vector.py")
    findings = execguard.check(roots=(local_paths,))
    # the first call's namespace is a name, not a dict literal — still flagged;
    # the second (literal sandbox, assembled source) is the accepted shape
    assert len(findings) == 1


# ---------------------------------------------------------------------------
# lockcheck: unlocked mutations of registered classes are caught
# ---------------------------------------------------------------------------

SEEDED_CLASS = """
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0          # construction: no lock needed
        self.index = {}

    def record(self, key):
        self.hits += 1         # BAD: unlocked mutation
        with self._lock:
            self.index[key] = self.hits   # guarded: fine

    def reset(self):
        with self._lock:
            self.hits = 0      # guarded: fine
        self.index = {}        # BAD: after the with-block ends
"""


def test_lockcheck_flags_unlocked_mutations(local_paths, monkeypatch):
    _write(local_paths, "seeded.py", SEEDED_CLASS)
    monkeypatch.setattr(lockcheck, "SRC", local_paths)
    findings = lockcheck.check(registry=(("seeded.py", "Counter"),))
    assert len(findings) == 2
    assert all("outside 'with self._lock'" in v.message for v in findings)
    assert {v.line for v in findings} == {11, 18}


def test_lockcheck_flags_missing_registered_class(local_paths, monkeypatch):
    _write(local_paths, "seeded.py", "class Other:\n    pass\n")
    monkeypatch.setattr(lockcheck, "SRC", local_paths)
    findings = lockcheck.check(registry=(("seeded.py", "Counter"),))
    assert any("registered class missing" in v.message for v in findings)
    findings = lockcheck.check(registry=(("gone.py", "Counter"),))
    assert any("registered module missing" in v.message for v in findings)
