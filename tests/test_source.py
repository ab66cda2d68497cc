"""Rules the package states once, checked on the syntax trees of its modules."""

import ast
import json
from pathlib import Path

import pytest

from immunochain.cli import main

SOURCE = Path(__file__).resolve().parents[1] / "src" / "immunochain"
MODULES = sorted(SOURCE.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _owners(node: ast.AST, match, owner: str = "<module>"):
    """The innermost function around each node that ``match`` accepts."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        if match(child):
            yield inner
        yield from _owners(child, match, inner)


def _found(match) -> list[tuple[str, str]]:
    """``(module, function)`` for each node of the package that ``match`` accepts."""
    return sorted((path.stem, owner) for path in MODULES for owner in _owners(_parse(path), match))


def _identifiers(tree: ast.AST) -> set[str]:
    """Every name a tree defines, reads, imports or lists as a string."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found.add(node.name)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_the_work_cap_is_compared_only_in_check_budget():
    # Every work limit goes through one function, which holds the only
    # comparison with the cap and the only shape of its message.
    def reads_the_cap(node):
        return isinstance(node, ast.Compare) and "MAX_EXPECTED_EVENTS" in _identifiers(node)

    assert _found(reads_the_cap) == [("simulate", "check_budget")]


def test_run_experiment_is_the_only_writer():
    # Handlers compute and return; one function writes summary.json, with
    # the config echoed, and every CSV table, each through _write_csv.
    def writes(node):
        if not isinstance(node, ast.Call):
            return False
        name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        return name in ("_write_csv", "write_text", "write_bytes", "open")

    def names_the_summary(node):
        return isinstance(node, ast.Constant) and node.value == "summary.json"

    assert _found(writes) == [("cli", "_write_csv"), ("cli", "run_experiment"), ("cli", "run_experiment")]
    assert _found(names_the_summary) == [("cli", "run_experiment")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_names_config_error(path):
    # A refused configuration is the library's ValueError, which the CLI
    # turns into exit 1; no second exception class stands for it.
    assert "ConfigError" not in _identifiers(_parse(path))


def test_each_reported_formula_id_is_written_once(tmp_path):
    # A prediction's id, method and function are declared in one row, so
    # every command that reports it reads the same declaration.
    ids = set()
    for model in (["--model", "matrix", "--N", "3"], ["--model", "single-column"]):
        out = tmp_path / model[1]
        assert main(["analyze", *model, "--M", "4", "--p", "0.3", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        ids |= {entry["formula_id"] for entry in summary["predictions"]}
    assert {"transition_time_mlogm", "hitting_mean_recursion"} <= ids
    written = [node.value for path in MODULES for node in ast.walk(_parse(path))
               if isinstance(node, ast.Constant) and node.value in ids]
    assert sorted(written) == sorted(ids)


def test_log_gamma_is_called_only_in_analytics_and_stats():
    # A Gamma ratio comes from the analytics kernel; simulate reads reach[M]
    # from it and derives none of its own.
    def calls_lgamma(node):
        return isinstance(node, ast.Call) and "lgamma" in (getattr(node.func, "attr", None),
                                                           getattr(node.func, "id", None))

    assert {module for module, _ in _found(calls_lgamma)} <= {"analytics", "stats"}


def test_simulation_configs_are_built_only_in_simulate():
    # A batch's per-replicate config is built in one place, replicate_runs;
    # the CLI asks it for runs and never keys a stream itself.
    def builds_a_config(node):
        return isinstance(node, ast.Call) and "SimulationConfig" in (getattr(node.func, "attr", None),
                                                                     getattr(node.func, "id", None))

    assert {module for module, _ in _found(builds_a_config)} == {"simulate"}


def test_race_is_drawn_only_by_the_block_window():
    # Every lambda_m = 0 window is a window of a block of runs: simulate_matrix
    # is a block of one, so no second window path draws a race. (reversal
    # has a _race of its own, for the stationary sampler.)
    def calls_race(node):
        return isinstance(node, ast.Call) and "_race" in (getattr(node.func, "attr", None),
                                                          getattr(node.func, "id", None))

    assert [found for found in _found(calls_race) if found[0] == "simulate"] == [("simulate", "_race_window")]
