"""Per-rule fixture tests for the invariant linter (``repro.analysis``).

Every rule id gets a bad-snippet -> expected-finding case and a good-snippet
-> clean case.  Fixtures are linted as in-memory sources under *virtual*
paths (``src/repro/simulator/fake.py`` lands in simulation scope) so the bad
code never exists on disk where the CI lint job would flag it.
"""

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, lint_source, lint_sources, rule_catalog
from repro.analysis.manifest import LintManifest, default_manifest

REPO_ROOT = Path(__file__).resolve().parents[1]

SIM = "src/repro/simulator/fixture.py"
NONSIM = "src/repro/bench/fixture.py"


def rules_of(findings):
    return [f.rule for f in findings]


def lint(code, path=SIM, **kwargs):
    return lint_source(textwrap.dedent(code), virtual_path=path, **kwargs)


# ---------------------------------------------------------------------------
# D101: unseeded randomness
# ---------------------------------------------------------------------------


def test_d101_module_level_random_call():
    findings = lint(
        """
        import random

        def jitter():
            return random.random()
        """
    )
    assert rules_of(findings) == ["D101"]
    assert findings[0].line == 5


def test_d101_unseeded_random_constructor():
    findings = lint(
        """
        import random

        rng = random.Random()
        """
    )
    assert rules_of(findings) == ["D101"]


def test_d101_seeded_rng_is_clean():
    findings = lint(
        """
        import random

        rng = random.Random(1234)

        def jitter():
            return rng.random()
        """
    )
    assert findings == []


# ---------------------------------------------------------------------------
# D102: wall-clock reads on the simulation path
# ---------------------------------------------------------------------------

WALLCLOCK_SNIPPET = """
import time

def now():
    return time.time()
"""


def test_d102_wallclock_in_simulation_package():
    findings = lint(WALLCLOCK_SNIPPET)
    assert rules_of(findings) == ["D102"]


def test_d102_wallclock_outside_simulation_path_is_clean():
    assert lint(WALLCLOCK_SNIPPET, path=NONSIM) == []


def test_d102_manifest_allowlist():
    manifest = LintManifest(
        wallclock_allowlist={
            ("repro/simulator/fixture.py", "D102"): frozenset({"time.time"})
        }
    )
    assert lint(WALLCLOCK_SNIPPET, manifest=manifest) == []
    # The allowlist names exact callees: a different clock still fires.
    findings = lint(
        """
        import time

        def now():
            return time.monotonic()
        """,
        manifest=manifest,
    )
    assert rules_of(findings) == ["D102"]


def test_d102_datetime_now():
    findings = lint(
        """
        import datetime

        def stamp():
            return datetime.datetime.now()
        """
    )
    assert rules_of(findings) == ["D102"]


# ---------------------------------------------------------------------------
# D103: environment reads on the simulation path
# ---------------------------------------------------------------------------


def test_d103_environ_and_getenv():
    findings = lint(
        """
        import os

        def knobs():
            a = os.environ["FAST"]
            b = os.getenv("SLOW")
            return a, b
        """
    )
    assert rules_of(findings) == ["D103", "D103"]


def test_d103_outside_simulation_path_is_clean():
    findings = lint(
        """
        import os

        def knobs():
            return os.getenv("SLOW")
        """,
        path=NONSIM,
    )
    assert findings == []


# ---------------------------------------------------------------------------
# D104: set iteration feeding ordering-sensitive sinks
# ---------------------------------------------------------------------------


def test_d104_local_set_iteration():
    findings = lint(
        """
        def emit(ids):
            pending = set(ids)
            out = []
            for job_id in pending:
                out.append(job_id)
            return out
        """
    )
    assert rules_of(findings) == ["D104"]
    assert findings[0].line == 5


def test_d104_sorted_iteration_is_clean():
    findings = lint(
        """
        def emit(ids):
            pending = set(ids)
            return [job_id for job_id in sorted(pending)]
        """
    )
    assert findings == []


def test_d104_comprehension_feeding_sorted_is_clean():
    findings = lint(
        """
        def emit(a, b):
            return sorted(x for x in set(a) | set(b))
        """
    )
    assert findings == []


def test_d104_annotated_dict_of_set_attribute():
    findings = lint(
        """
        from typing import Dict, Set

        class Index:
            def __init__(self):
                self._by_node: Dict[int, Set[int]] = {}

            def release(self, node_id):
                out = []
                for gpu_id in self._by_node[node_id]:
                    out.append(gpu_id)
                return out
        """
    )
    assert rules_of(findings) == ["D104"]


def test_d104_list_call_on_set():
    findings = lint(
        """
        def emit(ids):
            return list(set(ids))
        """
    )
    assert rules_of(findings) == ["D104"]


# ---------------------------------------------------------------------------
# D105: id() in simulation code
# ---------------------------------------------------------------------------


def test_d105_id_call():
    findings = lint(
        """
        def key(job):
            return id(job)
        """
    )
    assert rules_of(findings) == ["D105"]


def test_d105_outside_simulation_path_is_clean():
    assert lint("def key(job):\n    return id(job)\n", path=NONSIM) == []


# ---------------------------------------------------------------------------
# P101 / P102: picklability of pipe-crossing classes
# ---------------------------------------------------------------------------

JOB_PATH = "src/repro/core/job.py"


def test_p101_lambda_stored_without_state_pair():
    findings = lint(
        """
        class Job:
            def __init__(self):
                self.on_done = lambda: None
        """,
        path=JOB_PATH,
    )
    assert rules_of(findings) == ["P101"]


def test_p101_lock_without_state_pair():
    findings = lint(
        """
        import threading

        class Job:
            def __init__(self):
                self._lock = threading.Lock()
        """,
        path=JOB_PATH,
    )
    assert rules_of(findings) == ["P101"]


def test_p101_state_pair_legalises_transients():
    findings = lint(
        """
        import weakref

        class Job:
            def __init__(self, observer):
                self._ref = weakref.ref(observer)

            def __getstate__(self):
                state = dict(self.__dict__)
                state.pop("_ref")
                return state

            def __setstate__(self, state):
                self.__dict__.update(state)
                self._ref = None
        """,
        path=JOB_PATH,
    )
    assert findings == []


def test_p101_transient_sort_lambda_is_clean():
    findings = lint(
        """
        class Job:
            def order(self, gangs):
                gangs.sort(key=lambda g: g.job_id)
                return gangs
        """,
        path=JOB_PATH,
    )
    assert findings == []


def test_p101_ignores_classes_outside_registry():
    findings = lint(
        """
        class Helper:
            def __init__(self):
                self.on_done = lambda: None
        """,
        path=JOB_PATH,
    )
    assert findings == []


def test_p102_half_state_pair():
    findings = lint(
        """
        class Job:
            def __getstate__(self):
                return dict(self.__dict__)
        """,
        path=JOB_PATH,
    )
    assert rules_of(findings) == ["P102"]


# ---------------------------------------------------------------------------
# C101 / C102 / C103: policy contract conformance
# ---------------------------------------------------------------------------

POLICY_PATH = "src/repro/policies/scheduling/fixture.py"


def test_c101_implicit_contract():
    findings = lint(
        """
        from repro.core.abstractions import SchedulingPolicy

        class MysteryScheduling(SchedulingPolicy):
            name = "mystery"

            def schedule(self, job_state, cluster_state):
                return []
        """,
        path=POLICY_PATH,
    )
    assert "C101" in rules_of(findings)


def test_c101_explicit_flag_is_clean():
    findings = lint(
        """
        from repro.core.abstractions import SchedulingPolicy

        class MysteryScheduling(SchedulingPolicy):
            name = "mystery"
            steady_state_safe = False

            def schedule(self, job_state, cluster_state):
                return []
        """,
        path=POLICY_PATH,
    )
    assert "C101" not in rules_of(findings)


def test_c101_next_event_override_is_clean():
    findings = lint(
        """
        from repro.core.abstractions import SchedulingPolicy

        class MysteryScheduling(SchedulingPolicy):
            name = "mystery"

            def schedule(self, job_state, cluster_state):
                return []

            def next_policy_event_time(self, now, job_state, cluster_state):
                return None
        """,
        path=POLICY_PATH,
    )
    assert "C101" not in rules_of(findings)


def test_c102_steady_state_mutation():
    findings = lint(
        """
        from repro.core.abstractions import SchedulingPolicy

        class CachedScheduling(SchedulingPolicy):
            name = "cached"
            steady_state_safe = True

            def schedule(self, job_state, cluster_state):
                self._last = job_state.count_active()
                return []
        """,
        path=POLICY_PATH,
    )
    assert "C102" in rules_of(findings)
    c102 = [f for f in findings if f.rule == "C102"][0]
    assert "self._last" in c102.message


def test_c102_pure_steady_state_is_clean():
    findings = lint(
        """
        from repro.core.abstractions import SchedulingPolicy

        class CachedScheduling(SchedulingPolicy):
            name = "cached"
            steady_state_safe = True

            def schedule(self, job_state, cluster_state):
                return [j.job_id for j in job_state.runnable_jobs()]
        """,
        path=POLICY_PATH,
    )
    assert "C102" not in rules_of(findings)


def test_c103_undocumented_policy(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "policies.md").write_text(
        "| DocumentedScheduling | documented |\n", encoding="utf-8"
    )
    source = textwrap.dedent(
        """
        from repro.core.abstractions import SchedulingPolicy

        class GhostScheduling(SchedulingPolicy):
            name = "ghost"
            steady_state_safe = False

            def schedule(self, job_state, cluster_state):
                return []
        """
    )
    result = lint_sources({POLICY_PATH: source}, root=tmp_path)
    assert "C103" in rules_of(result.findings)

    documented = source.replace("GhostScheduling", "DocumentedScheduling")
    result = lint_sources({POLICY_PATH: documented}, root=tmp_path)
    assert "C103" not in rules_of(result.findings)

    # The synthesizer package is in scope too; its private helpers are not.
    synth_path = "src/repro/synthesizer/fixture.py"
    result = lint_sources({synth_path: source}, root=tmp_path)
    assert "C103" in rules_of(result.findings)
    private = source.replace("GhostScheduling", "_GhostScheduling")
    result = lint_sources({synth_path: private}, root=tmp_path)
    assert "C103" not in rules_of(result.findings)


# ---------------------------------------------------------------------------
# H102: hot-path hygiene
# ---------------------------------------------------------------------------


def test_h102_marked_function_with_print():
    findings = lint(
        """
        class Model:
            def advance(self, job):  # hot-path
                print("advancing", job)
                return job
        """,
        path=NONSIM,
    )
    assert rules_of(findings) == ["H102"]


def test_h102_manifest_listed_function():
    manifest = LintManifest(
        hot_path_functions=frozenset({"repro/bench/fixture.py::Model.advance"})
    )
    findings = lint(
        """
        class Model:
            def advance(self, job):
                self.recorder.emit("round", 0.0, {})
                return job
        """,
        path=NONSIM,
        manifest=manifest,
    )
    assert rules_of(findings) == ["H102"]


def test_h102_unmarked_function_is_clean():
    findings = lint(
        """
        class Model:
            def advance(self, job):
                print("fine here")
                return job
        """,
        path=NONSIM,
    )
    assert findings == []


# ---------------------------------------------------------------------------
# L100 / L101: pipeline pseudo-rules
# ---------------------------------------------------------------------------


def test_l100_syntax_error():
    findings = lint("def broken(:\n    pass\n", path=NONSIM)
    assert rules_of(findings) == ["L100"]


def test_l101_unused_suppression():
    findings = lint(
        """
        x = 1  # repro-lint: disable=D101
        """,
        path=NONSIM,
    )
    assert rules_of(findings) == ["L101"]


def test_suppression_silences_finding_on_its_line():
    findings = lint(
        """
        import random

        def jitter():
            return random.random()  # repro-lint: disable=D101
        """,
        path=NONSIM,
    )
    assert findings == []


def test_suppression_only_covers_named_rule():
    findings = lint(
        """
        import random

        def jitter():
            return random.random()  # repro-lint: disable=D104
        """,
        path=NONSIM,
    )
    # The D101 still fires and the D104 marker is unused.
    assert sorted(rules_of(findings)) == ["D101", "L101"]


# ---------------------------------------------------------------------------
# Registry / catalog
# ---------------------------------------------------------------------------


def test_rule_ids_unique_and_catalogued():
    ids = [cls.rule_id for cls in ALL_RULES]
    assert len(ids) == len(set(ids))
    catalog = rule_catalog()
    for rule_id in ids + ["L100", "L101"]:
        assert rule_id in catalog
        assert catalog[rule_id]


def test_every_rule_family_represented():
    families = {cls.rule_id[0] for cls in ALL_RULES}
    assert {"D", "P", "C", "H"} <= families


# ---------------------------------------------------------------------------
# Self-lint and CLI
# ---------------------------------------------------------------------------


def _run_cli(*args, cwd=REPO_ROOT):
    env_src = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )


def test_self_lint_src_and_tests_clean():
    """The flagship gate: the merged tree lints clean with no stale markers."""
    proc = _run_cli("src", "tests")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout
    # Zero unused suppressions: L101 would be a finding and fail above.


def test_cli_json_output_and_exit_code(tmp_path):
    bad = tmp_path / "src" / "repro" / "simulator"
    bad.mkdir(parents=True)
    (bad / "__init__.py").write_text("", encoding="utf-8")
    (bad / "noisy.py").write_text(
        "import random\nVALUE = random.random()\n", encoding="utf-8"
    )
    proc = _run_cli("src", "--format", "json", "--root", str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert [f["rule"] for f in report["findings"]] == ["D101"]
    assert report["findings"][0]["path"].endswith("noisy.py")


def test_cli_help_smoke():
    proc = _run_cli("--help")
    assert proc.returncode == 0
    assert "repro.lint" in proc.stdout


# ---------------------------------------------------------------------------
# --diff mode (rename/delete edge cases)
# ---------------------------------------------------------------------------


def _git(repo, *args):
    subprocess.run(
        ["git", *args],
        cwd=repo,
        check=True,
        capture_output=True,
        env={
            "PATH": "/usr/bin:/bin:/usr/local/bin",
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@example.com",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@example.com",
            "HOME": str(repo),
        },
    )


@pytest.fixture()
def diff_repo(tmp_path):
    repo = tmp_path / "repo"
    pkg = repo / "src" / "repro" / "simulator"
    pkg.mkdir(parents=True)
    _git(repo, "init", "-q")
    (pkg / "clean.py").write_text("VALUE = 1\n", encoding="utf-8")
    (pkg / "doomed.py").write_text("import random\nX = random.random()\n", encoding="utf-8")
    (pkg / "mover.py").write_text("import random\nY = random.random()\n", encoding="utf-8")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    return repo


def test_diff_mode_lints_only_changed_files(diff_repo):
    (diff_repo / "src" / "repro" / "simulator" / "clean.py").write_text(
        "import random\nZ = random.random()\n", encoding="utf-8"
    )
    proc = _run_cli("src", "--diff", "HEAD", "--root", str(diff_repo), cwd=diff_repo)
    assert proc.returncode == 1
    # Only the changed file is linted: doomed.py/mover.py findings absent.
    assert "clean.py" in proc.stdout
    assert "doomed.py" not in proc.stdout


def test_diff_mode_skips_deletions_and_follows_renames(diff_repo):
    sim = diff_repo / "src" / "repro" / "simulator"
    (sim / "doomed.py").unlink()
    (sim / "mover.py").rename(sim / "arrived.py")
    _git(diff_repo, "add", "-A")
    proc = _run_cli("src", "--diff", "HEAD", "--root", str(diff_repo), cwd=diff_repo)
    # The deleted file must not crash the run; the renamed file is linted
    # under its new path.
    assert proc.returncode == 1
    assert "arrived.py" in proc.stdout
    assert "doomed.py" not in proc.stdout


def test_diff_mode_includes_untracked_files(diff_repo):
    (diff_repo / "src" / "repro" / "simulator" / "fresh.py").write_text(
        "import random\nW = random.random()\n", encoding="utf-8"
    )
    proc = _run_cli("src", "--diff", "HEAD", "--root", str(diff_repo), cwd=diff_repo)
    assert proc.returncode == 1
    assert "fresh.py" in proc.stdout


def test_diff_mode_no_changes_is_clean(diff_repo):
    proc = _run_cli("src", "--diff", "HEAD", "--root", str(diff_repo), cwd=diff_repo)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# Manifest sanity against the real tree
# ---------------------------------------------------------------------------


def test_manifest_paths_exist():
    """Manifest entries must point at real files, or they are dead config."""
    manifest = default_manifest()
    for (suffix, _rule) in manifest.wallclock_allowlist:
        assert (REPO_ROOT / "src" / suffix).exists(), suffix
    for suffix in set(manifest.pickle_registry.values()):
        assert (REPO_ROOT / "src" / suffix).exists(), suffix
    for entry in manifest.hot_path_functions:
        assert (REPO_ROOT / "src" / entry.split("::", 1)[0]).exists(), entry
    assert (REPO_ROOT / manifest.policy_doc_path).exists()


def _defined_names(path):
    """Dotted names of every ``def``/``class`` in a file, nested ones included."""
    names = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                walk(child, prefix + child.name + ".")

    walk(ast.parse(path.read_text()), "")
    return names


def test_manifest_names_resolve():
    """A deleted hot function or pipe-crossing class must not silently drop out."""
    manifest = default_manifest()
    for entry in manifest.hot_path_functions:
        suffix, qualname = entry.split("::", 1)
        assert qualname in _defined_names(REPO_ROOT / "src" / suffix), entry
    for class_name, suffix in manifest.pickle_registry.items():
        assert class_name in _defined_names(REPO_ROOT / "src" / suffix), class_name
