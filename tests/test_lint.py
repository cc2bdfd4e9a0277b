"""Tests for the ``repro lint`` static-analysis framework.

Each rule gets a pair of committed fixture mini-trees under
``tests/data/lint_fixtures/<rule>/{clean,bad}``: the bad tree proves
the rule fires (with the expected rule name and location), the clean
tree proves it stays silent on the sanctioned idiom.  On top of the
per-rule pairs: suppression comments, the baseline round trip through
the CLI, JSON output shape, the ``--pin-frozen`` flow, CLI exit codes
— and the self-check that the repository itself lints clean, which is
the invariant CI enforces.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import LintError, all_rules, run_lint
from repro.lint.baseline import Baseline
from repro.lint.findings import Finding
from repro.lint.rules.frozen import PIN_FILE, pin_frozen

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "data" / "lint_fixtures"

#: fixture directory → the rule its bad tree must trip.
RULE_FIXTURES = {
    "wallclock": "no-wallclock-in-sim",
    "rng": "no-unseeded-rng",
    "durable": "durable-publish",
    "deadline": "no-absolute-deadline",
    "frozen": "frozen-reference",
    "faultsites": "fault-site-registry",
    "obs": "no-obs-in-sim",
}


def lint_rules(root: Path, rule: str):
    return run_lint(root, rule_names=[rule])


# ----------------------------------------------------------------------
# Registry / framework basics
# ----------------------------------------------------------------------
class TestFramework:
    def test_all_seven_rules_registered(self):
        assert set(all_rules()) == set(RULE_FIXTURES.values())

    def test_rules_have_descriptions(self):
        for rule in all_rules().values():
            assert rule.name
            assert rule.description

    def test_unknown_rule_raises_lint_error(self):
        with pytest.raises(LintError, match="no-such-rule"):
            run_lint(FIXTURES / "wallclock" / "clean", ["no-such-rule"])

    def test_non_checkout_root_raises_lint_error(self, tmp_path):
        with pytest.raises(LintError, match="src/repro"):
            run_lint(tmp_path)

    def test_syntax_error_raises_lint_error(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "broken.py").write_text("def broken(:\n")
        with pytest.raises(LintError, match="broken.py"):
            run_lint(tmp_path)

    def test_findings_sorted_and_rendered(self):
        findings = run_lint(FIXTURES / "wallclock" / "bad")
        assert findings == sorted(findings)
        first = findings[0]
        rendered = first.render()
        assert rendered.startswith(f"{first.path}:{first.line}: [{first.rule}]")
        assert first.to_dict() == {
            "path": first.path,
            "line": first.line,
            "rule": first.rule,
            "message": first.message,
        }


# ----------------------------------------------------------------------
# One clean + one violating fixture per rule
# ----------------------------------------------------------------------
class TestRuleFixtures:
    @pytest.mark.parametrize("fixture,rule", sorted(RULE_FIXTURES.items()))
    def test_bad_tree_trips_rule(self, fixture, rule):
        findings = lint_rules(FIXTURES / fixture / "bad", rule)
        assert findings, f"{rule} found nothing in the bad fixture"
        assert {f.rule for f in findings} == {rule}

    @pytest.mark.parametrize("fixture,rule", sorted(RULE_FIXTURES.items()))
    def test_clean_tree_is_silent(self, fixture, rule):
        assert lint_rules(FIXTURES / fixture / "clean", rule) == []

    def test_wallclock_catches_each_spelling(self):
        findings = lint_rules(FIXTURES / "wallclock" / "bad", "no-wallclock-in-sim")
        messages = " ".join(f.message for f in findings)
        # time.time(), datetime.now(), and the from-import monotonic()
        # are three distinct spellings; all must be resolved.
        assert len(findings) == 3
        assert "time.time" in messages
        assert "datetime.datetime.now" in messages
        assert "time.monotonic" in messages

    def test_rng_catches_unseeded_and_global(self):
        findings = lint_rules(FIXTURES / "rng" / "bad", "no-unseeded-rng")
        messages = " ".join(f.message for f in findings)
        assert len(findings) == 2
        assert "default_rng" in messages
        assert "random.uniform" in messages

    def test_durable_catches_each_write_shape(self):
        findings = lint_rules(FIXTURES / "durable" / "bad", "durable-publish")
        messages = " ".join(f.message for f in findings)
        assert len(findings) == 3
        assert "open" in messages
        assert "json.dump" in messages
        assert "write_text" in messages

    def test_durable_covers_market_snapshots(self, tmp_path):
        # Market snapshots live under the cache root too, so a bare
        # write there is a finding like one in sweep/.
        module = tmp_path / "src/repro/market/snapshot.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            "def save(directory, text):\n"
            "    (directory / 'meta.json').write_text(text)\n"
        )
        findings = lint_rules(tmp_path, "durable-publish")
        assert len(findings) == 1
        assert findings[0].path == "src/repro/market/snapshot.py"
        assert "write_text" in findings[0].message

    def test_deadline_points_at_the_sum(self):
        findings = lint_rules(FIXTURES / "deadline" / "bad", "no-absolute-deadline")
        assert len(findings) == 1
        assert "time.time()" in findings[0].message
        source = (
            FIXTURES / "deadline" / "bad" / findings[0].path
        ).read_text().splitlines()[findings[0].line - 1]
        assert "time.time() +" in source

    def test_frozen_mismatch_names_both_hashes(self):
        findings = lint_rules(FIXTURES / "frozen" / "bad", "frozen-reference")
        assert len(findings) == 1
        assert findings[0].path == "src/repro/core/reference.py"
        assert "pin-frozen" in findings[0].message

    def test_frozen_missing_pinned_file(self, tmp_path):
        root = tmp_path / "tree"
        shutil.copytree(FIXTURES / "frozen" / "clean", root)
        (root / "src/repro/core/reference.py").unlink()
        findings = lint_rules(root, "frozen-reference")
        assert len(findings) == 1
        assert "missing from the tree" in findings[0].message

    def test_obs_catches_import_and_usage(self):
        findings = lint_rules(FIXTURES / "obs" / "bad", "no-obs-in-sim")
        messages = " ".join(f.message for f in findings)
        # The import and the obs.inc usage are separate findings; the
        # clean tree's sweep/ driver uses obs identically and stays
        # silent, proving the scope is the sim packages, not the repo.
        assert len(findings) == 2
        assert "from repro import obs" in messages
        assert "repro.obs.inc" in messages

    def test_faultsites_catches_both_directions(self):
        findings = lint_rules(FIXTURES / "faultsites" / "bad", "fault-site-registry")
        messages = " ".join(f.message for f in findings)
        assert len(findings) == 2
        assert "demo.rogue" in messages  # used but never declared
        assert "demo.unused" in messages  # declared but never injected


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
class TestSuppression:
    @pytest.fixture()
    def bad_tree(self, tmp_path):
        root = tmp_path / "tree"
        shutil.copytree(FIXTURES / "deadline" / "bad", root)
        return root

    def target(self, root: Path) -> Path:
        return root / "src/repro/sweep/distrib/backoff.py"

    def test_same_line_suppression(self, bad_tree):
        path = self.target(bad_tree)
        text = path.read_text().replace(
            "time.time() + max(0.0, delay)",
            "time.time() + max(0.0, delay)"
            "  # repro-lint: ignore[no-absolute-deadline] fixture waiver",
        )
        path.write_text(text)
        assert lint_rules(bad_tree, "no-absolute-deadline") == []

    def test_standalone_comment_covers_next_line(self, bad_tree):
        path = self.target(bad_tree)
        lines = path.read_text().splitlines(keepends=True)
        findings = lint_rules(bad_tree, "no-absolute-deadline")
        offending = findings[0].line - 1
        lines.insert(
            offending,
            "    # repro-lint: ignore[no-absolute-deadline] fixture waiver\n",
        )
        path.write_text("".join(lines))
        assert lint_rules(bad_tree, "no-absolute-deadline") == []

    def test_bare_ignore_waives_every_rule(self, bad_tree):
        path = self.target(bad_tree)
        text = path.read_text().replace(
            "time.time() + max(0.0, delay)",
            "time.time() + max(0.0, delay)  # repro-lint: ignore",
        )
        path.write_text(text)
        assert lint_rules(bad_tree, "no-absolute-deadline") == []

    def test_wrong_rule_name_does_not_suppress(self, bad_tree):
        path = self.target(bad_tree)
        text = path.read_text().replace(
            "time.time() + max(0.0, delay)",
            "time.time() + max(0.0, delay)"
            "  # repro-lint: ignore[no-wallclock-in-sim] wrong rule",
        )
        path.write_text(text)
        assert len(lint_rules(bad_tree, "no-absolute-deadline")) == 1


# ----------------------------------------------------------------------
# Baseline grandfathering
# ----------------------------------------------------------------------
class TestBaseline:
    def test_partition_is_a_multiset(self):
        finding = Finding(
            path="src/repro/x.py", line=3, rule="r", message="m"
        )
        twin = Finding(path="src/repro/x.py", line=9, rule="r", message="m")
        baseline = Baseline(
            [{"rule": "r", "path": "src/repro/x.py", "message": "m"}]
        )
        fresh, grandfathered = baseline.partition([finding, twin])
        # One entry absorbs exactly one occurrence; the duplicate
        # violation is still fresh.
        assert grandfathered == [finding]
        assert fresh == [twin]

    def test_entry_count_field(self):
        finding = Finding(path="src/repro/x.py", line=3, rule="r", message="m")
        twin = Finding(path="src/repro/x.py", line=9, rule="r", message="m")
        baseline = Baseline(
            [{"rule": "r", "path": "src/repro/x.py", "message": "m", "count": 2}]
        )
        fresh, grandfathered = baseline.partition([finding, twin])
        assert fresh == []
        assert len(grandfathered) == 2

    def test_load_missing_file_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        fresh, grandfathered = baseline.partition(
            [Finding(path="p", line=1, rule="r", message="m")]
        )
        assert len(fresh) == 1 and grandfathered == []

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema": 99, "findings": []}))
        with pytest.raises(ValueError, match="schema"):
            Baseline.load(path)

    def test_load_rejects_malformed_entries(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema": 1, "findings": [{"rule": "r"}]}))
        with pytest.raises(ValueError, match="rule/path/message"):
            Baseline.load(path)


# ----------------------------------------------------------------------
# CLI: exit codes, formats, baseline round trip, --pin-frozen
# ----------------------------------------------------------------------
class TestCli:
    def lint(self, *argv: str) -> int:
        return main(["lint", *argv])

    def test_clean_tree_exits_zero(self, capsys):
        code = self.lint("--root", str(FIXTURES / "wallclock" / "clean"))
        assert code == 0
        assert "lint clean" in capsys.readouterr().out

    def test_findings_exit_one_with_rule_name(self, capsys):
        code = self.lint("--root", str(FIXTURES / "wallclock" / "bad"))
        assert code == 1
        out = capsys.readouterr().out
        assert "[no-wallclock-in-sim]" in out
        assert "src/repro/sim/timing.py" in out

    def test_unknown_rule_exits_two(self, capsys):
        code = self.lint(
            "--root", str(FIXTURES / "wallclock" / "clean"),
            "--rule", "no-such-rule",
        )
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_bad_root_exits_two(self, tmp_path, capsys):
        assert self.lint("--root", str(tmp_path)) == 2
        assert "lint failed" in capsys.readouterr().err

    def test_rule_filter_restricts_findings(self, capsys):
        code = self.lint(
            "--root", str(FIXTURES / "wallclock" / "bad"),
            "--rule", "no-unseeded-rng",
        )
        assert code == 0  # the wallclock fixture has no RNG findings

    def test_json_format_shape(self, capsys):
        code = self.lint(
            "--root", str(FIXTURES / "rng" / "bad"), "--format", "json"
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["rules"] == sorted(all_rules())
        assert payload["baselined"] == []
        assert {f["rule"] for f in payload["findings"]} == {"no-unseeded-rng"}
        assert all(
            {"path", "line", "rule", "message"} <= set(f)
            for f in payload["findings"]
        )

    def test_list_rules(self, capsys):
        assert self.lint("--list-rules") == 0
        out = capsys.readouterr().out
        for name in all_rules():
            assert name in out

    def test_baseline_round_trip(self, tmp_path, capsys):
        root = tmp_path / "tree"
        shutil.copytree(FIXTURES / "deadline" / "bad", root)
        # 1. Fresh findings fail the run.
        assert self.lint("--root", str(root)) == 1
        capsys.readouterr()
        # 2. Grandfather them.
        assert self.lint("--root", str(root), "--update-baseline") == 0
        assert "baseline updated" in capsys.readouterr().out
        baseline_path = root / "lint-baseline.json"
        payload = json.loads(baseline_path.read_text())
        assert payload["schema"] == 1
        assert len(payload["findings"]) == 1
        assert payload["findings"][0]["justification"] == ""
        # 3. The same violations now pass, and are reported as baselined.
        assert self.lint("--root", str(root)) == 0
        assert "1 baselined" in capsys.readouterr().out
        # 4. JSON mode routes them to "baselined", not "findings".
        assert self.lint("--root", str(root), "--format", "json") == 0
        json_payload = json.loads(capsys.readouterr().out)
        assert json_payload["findings"] == []
        assert len(json_payload["baselined"]) == 1
        # 5. Removing the baseline un-grandfathers them.
        baseline_path.unlink()
        assert self.lint("--root", str(root)) == 1

    def test_update_baseline_shrinks_on_fix(self, tmp_path, capsys):
        root = tmp_path / "tree"
        shutil.copytree(FIXTURES / "deadline" / "bad", root)
        assert self.lint("--root", str(root), "--update-baseline") == 0
        # Fix the violation; regenerating the baseline drops the entry.
        shutil.copy(
            FIXTURES / "deadline" / "clean" / "src/repro/sweep/distrib/backoff.py",
            root / "src/repro/sweep/distrib/backoff.py",
        )
        assert self.lint("--root", str(root), "--update-baseline") == 0
        payload = json.loads((root / "lint-baseline.json").read_text())
        assert payload["findings"] == []

    def test_corrupt_baseline_exits_two(self, tmp_path, capsys):
        root = tmp_path / "tree"
        shutil.copytree(FIXTURES / "wallclock" / "clean", root)
        (root / "lint-baseline.json").write_text("not json{")
        assert self.lint("--root", str(root)) == 2
        assert "baseline" in capsys.readouterr().err

    def test_pin_frozen_round_trip(self, tmp_path, capsys):
        root = tmp_path / "tree"
        shutil.copytree(FIXTURES / "frozen" / "bad", root)
        # The bad tree's reference drifted from its pin.
        assert self.lint("--root", str(root)) == 1
        capsys.readouterr()
        # A deliberate re-pin (post golden regeneration) clears it.
        assert self.lint("--root", str(root), "--pin-frozen") == 0
        assert "pinned" in capsys.readouterr().out
        assert self.lint("--root", str(root)) == 0
        payload = json.loads((root / PIN_FILE).read_text())
        assert payload["schema"] == 1
        assert "src/repro/core/reference.py" in payload["files"]

    def test_pin_frozen_helper_matches_checked_in_pin(self, tmp_path):
        # The committed pin file must be exactly what --pin-frozen
        # regenerates from the current frozen sources.
        committed = json.loads((REPO_ROOT / PIN_FILE).read_text())
        root = tmp_path / "tree"
        for rel in committed["files"]:
            target = root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(REPO_ROOT / rel, target)
        regenerated = json.loads(pin_frozen(root).read_text())
        assert regenerated["files"] == committed["files"]


# ----------------------------------------------------------------------
# The repository itself
# ----------------------------------------------------------------------
class TestSelfCheck:
    def test_repo_lints_clean(self):
        """The invariant the CI lint job enforces: every finding in the
        shipped tree has been fixed or suppressed with a justification,
        and the committed baseline stays empty."""
        assert run_lint(REPO_ROOT) == []

    def test_committed_baseline_is_empty(self):
        payload = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
        assert payload == {"schema": 1, "findings": []}

    def test_canary_violation_is_caught(self, tmp_path):
        """Seed the same synthetic violation the CI canary step uses
        and assert the linter sees it — guarding the guard."""
        root = tmp_path / "canary"
        (root / "src").mkdir(parents=True)
        shutil.copytree(REPO_ROOT / "src" / "repro", root / "src" / "repro")
        clock = root / "src/repro/sim/clock.py"
        clock.write_text(
            clock.read_text() + "\nimport time\n\nWALL_NOW = time.time()\n"
        )
        findings = run_lint(root, ["no-wallclock-in-sim"])
        assert len(findings) == 1
        assert findings[0].path == "src/repro/sim/clock.py"
