"""Whole-program analysis tests: graph, fixpoints and the four rules.

Each program rule is exercised against a committed fixture *package*
(``tests/fixtures/analysis/program/<rule>/``): a multi-module mini
tree under a fake ``src/repro/...`` layout, with ``# M:<tag>`` markers
on the lines findings must anchor to, plus a clean twin tree that must
produce zero findings.  The trees run through the real
:func:`repro.analysis.check_paths` pipeline, so import resolution,
summary extraction, graph fixpoints, scoping and suppressions are all
on the hook.
"""

import os

import pytest

from repro.analysis import check_paths, default_config
from repro.analysis.program.graph import ProgramGraph
from repro.analysis.program.summary import summarize_module
from repro.analysis.reporting import render_text

FIXTURES = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "fixtures",
    "analysis",
    "program",
)


def fixture_tree(rule_dir, variant):
    path = os.path.join(FIXTURES, rule_dir, variant)
    assert os.path.isdir(path), path
    return path


def marked_line(tree, relpath, tag):
    """1-based line carrying ``# M:<tag>`` in a fixture file."""
    with open(os.path.join(tree, relpath), "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if f"# M:{tag}" in line:
                return number
    raise AssertionError(f"marker {tag!r} not found in {relpath}")


def run_rule(rule_dir, variant, rule):
    tree = fixture_tree(rule_dir, variant)
    config = default_config(select=frozenset([rule]))
    report = check_paths([tree], config)
    return tree, report


class TestErrorContract:
    def test_violation_three_calls_deep(self):
        tree, report = run_rule(
            "error_contract", "violation", "error-contract"
        )
        entry = marked_line(
            tree, "src/repro/search/api.py", "entry"
        )
        by_anchor = {
            (os.path.basename(f.path), f.line): f
            for f in report.findings
        }
        finding = by_anchor[("api.py", entry)]
        assert "ValueError" in finding.message
        # The message names the whole propagation chain and the origin.
        assert "repro.search.planning.choose_plan" in finding.message
        assert "costs.py" in finding.message
        # The intermediate and origin helpers are public too, so the
        # contract flags them at their own def lines as well.
        helper = marked_line(tree, "src/repro/search/planning.py", "helper")
        origin = marked_line(tree, "src/repro/search/costs.py", "origin")
        assert ("planning.py", helper) in by_anchor
        assert ("costs.py", origin) in by_anchor

    def test_clean_twin(self):
        _, report = run_rule("error_contract", "clean", "error-contract")
        assert report.findings == (), render_text(report)

    def test_typed_raise_suppressed_by_hierarchy_not_noqa(self):
        # The clean twin raises SearchError (a ReproError subtype) and
        # absorbs OverflowError at the boundary — zero suppressions
        # should be involved in it passing.
        _, report = run_rule("error_contract", "clean", "error-contract")
        assert report.suppressed == ()


class TestMmapEscape:
    def test_public_unfrozen_return_is_flagged(self):
        tree, report = run_rule("mmap_escape", "violation", "mmap-escape")
        leak = marked_line(tree, "src/repro/store/reader.py", "leak")
        assert [
            (os.path.basename(f.path), f.line) for f in report.findings
        ] == [("reader.py", leak)]
        [finding] = report.findings
        assert "open_column" in finding.message
        assert "writeable" in finding.message

    def test_freezing_wrapper_is_clean(self):
        _, report = run_rule("mmap_escape", "clean", "mmap-escape")
        assert report.findings == (), render_text(report)


class TestInvalidationReachability:
    def test_helper_chain_without_bump_is_flagged(self):
        tree, report = run_rule(
            "invalidation_reachability",
            "violation",
            "invalidation-reachability",
        )
        bad = marked_line(tree, "src/repro/live/segments.py", "bad")
        assert [
            (os.path.basename(f.path), f.line) for f in report.findings
        ] == [("segments.py", bad)]
        [finding] = report.findings
        assert "add_segment" in finding.message

    def test_helper_chain_with_bump_is_clean(self):
        _, report = run_rule(
            "invalidation_reachability",
            "clean",
            "invalidation-reachability",
        )
        assert report.findings == (), render_text(report)


class TestBlockingInAsync:
    def test_direct_and_hidden_blocking_calls(self):
        tree, report = run_rule(
            "blocking_in_async", "violation", "blocking-in-async"
        )
        direct = marked_line(tree, "src/repro/live/gateway.py", "direct")
        indirect = marked_line(
            tree, "src/repro/live/gateway.py", "indirect"
        )
        anchors = [
            (os.path.basename(f.path), f.line) for f in report.findings
        ]
        assert anchors == [
            ("gateway.py", direct),
            ("gateway.py", indirect),
        ]
        hidden = next(
            f for f in report.findings if f.line == indirect
        )
        assert "drain_queue" in hidden.message
        assert "time.sleep" in hidden.message
        assert "workers.py" in hidden.message

    def test_async_awaiting_async_is_clean(self):
        _, report = run_rule(
            "blocking_in_async", "clean", "blocking-in-async"
        )
        assert report.findings == (), render_text(report)


class TestProgramSuppressions:
    def test_noqa_on_def_line_suppresses_program_finding(self, tmp_path):
        root = tmp_path / "src" / "repro" / "live"
        root.mkdir(parents=True)
        (root / "gateway.py").write_text(
            "import time\n"
            "\n"
            "\n"
            "async def tick():\n"
            "    time.sleep(1)  # repro: noqa[blocking-in-async] -- demo\n"
        )
        config = default_config(select=frozenset(["blocking-in-async"]))
        report = check_paths([str(tmp_path)], config)
        assert report.findings == ()
        assert [f.rule for f in report.suppressed] == ["blocking-in-async"]


class TestGraphResolution:
    def _graph(self, sources):
        """Build a graph from {path: source} without touching disk."""
        import ast

        from repro.analysis.imports import module_name_for_path

        modules = {}
        for path, source in sources.items():
            name = module_name_for_path(path)
            modules[name] = summarize_module(
                path, name, ast.parse(source)
            )
        return ProgramGraph(modules)

    def test_canonicalize_chases_package_reexports(self):
        graph = self._graph(
            {
                "src/repro/pkg/__init__.py": (
                    "from repro.pkg.impl import thing\n"
                ),
                "src/repro/pkg/impl.py": "def thing():\n    return 1\n",
            }
        )
        assert (
            graph.canonicalize("repro.pkg.thing")
            == "repro.pkg.impl.thing"
        )

    def test_exception_subtype_mixes_project_and_builtin(self):
        graph = self._graph(
            {
                "src/repro/errors.py": (
                    "class ReproError(Exception):\n    pass\n"
                    "class StoreError(ReproError, ValueError):\n"
                    "    pass\n"
                ),
            }
        )
        assert graph.is_exception_subtype(
            "repro.errors.StoreError", "repro.errors.ReproError"
        )
        assert graph.is_exception_subtype(
            "repro.errors.StoreError", "ValueError"
        )
        assert graph.is_exception_subtype("ValueError", "Exception")
        assert not graph.is_exception_subtype(
            "KeyboardInterrupt", "Exception"
        )
        assert not graph.is_exception_subtype(
            "repro.errors.ReproError", "repro.errors.StoreError"
        )

    def test_transparent_handler_does_not_absorb(self):
        graph = self._graph(
            {
                "src/repro/search/api.py": (
                    "def entry():\n"
                    "    try:\n"
                    "        helper()\n"
                    "    except ValueError:\n"
                    "        raise\n"
                    "def helper():\n"
                    "    raise ValueError('boom')\n"
                ),
            }
        )
        escapes = graph.escaping_exceptions()
        assert "ValueError" in escapes["repro.search.api.entry"]

    def test_absorbing_handler_stops_propagation(self):
        graph = self._graph(
            {
                "src/repro/search/api.py": (
                    "def entry():\n"
                    "    try:\n"
                    "        helper()\n"
                    "    except ValueError:\n"
                    "        return None\n"
                    "def helper():\n"
                    "    raise ValueError('boom')\n"
                ),
            }
        )
        escapes = graph.escaping_exceptions()
        assert escapes["repro.search.api.entry"] == {}

    def test_unresolved_super_delegation_counts_as_bump(self):
        graph = self._graph(
            {
                "src/repro/live/segments.py": (
                    "class Index(dict):\n"
                    "    def __init__(self):\n"
                    "        self._version = 0\n"
                    "    def update_entry(self, key):\n"
                    "        super().update(key)\n"
                ),
            }
        )
        bumps = graph.param_bumps()
        assert "self" in bumps["repro.live.segments.Index.update_entry"]


class TestStats:
    def test_report_carries_graph_stats(self, tmp_path):
        root = tmp_path / "src" / "repro" / "live"
        root.mkdir(parents=True)
        (root / "mod.py").write_text(
            "def a():\n    return b()\n\n\ndef b():\n    return 1\n"
        )
        report = check_paths([str(tmp_path)])
        assert report.stats is not None
        assert report.stats.modules == 1
        assert report.stats.functions == 2
        assert report.stats.call_edges == 1
        assert report.stats.cache_enabled is False


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
