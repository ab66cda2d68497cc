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


def _owners(node: ast.AST, match, owner: str = "<module>", scope: str = ""):
    """The innermost function around each node that ``match`` accepts, a
    method named after its class too: ``Class.method``."""
    for child in ast.iter_child_nodes(node):
        inner, inner_scope = owner, scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner, inner_scope = scope + child.name, ""
        elif isinstance(child, ast.ClassDef):
            inner_scope = scope + child.name + "."
        if match(child):
            yield inner
        yield from _owners(child, match, inner, inner_scope)


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


def test_matrix_windows_are_walked_only_by_the_block_core():
    # Every matrix run, at every lambda_m, is a run of a block: simulate_matrix
    # is a block of one and every batch goes through the same core, so no
    # second run loop walks the windows or draws an entry-clock window.
    def calls(name):
        return lambda node: isinstance(node, ast.Call) and name in (getattr(node.func, "attr", None),
                                                                    getattr(node.func, "id", None))

    assert _found(calls("_windows")) == [("simulate", "_matrix_runs")]
    assert _found(calls("_epoch_window")) == [("simulate", "_entry_window")]


def test_lambda_zero_state_is_written_only_by_the_block_window():
    # A lambda_m = 0 run keeps one state, each clock's last ring in the
    # books' last_at: the books make it and each window of the block moves
    # it on, once each, so no other function converts it or builds a second
    # one. The epochs from a window's own resets are searched only where a
    # window lays its rings out.
    def writes(target) -> bool:
        """Whether a target is an attribute ``last_at`` or writes into one."""
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(map(writes, target.elts))
        while isinstance(target, (ast.Subscript, ast.Starred)):
            target = target.value
        return isinstance(target, ast.Attribute) and target.attr == "last_at"

    def assigns_last_at(node):
        if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            return False
        return any(map(writes, node.targets if isinstance(node, ast.Assign) else [node.target]))

    def calls_ring_fill(node):
        return isinstance(node, ast.Call) and "_ring_fill" in (getattr(node.func, "attr", None),
                                                               getattr(node.func, "id", None))

    assert _found(assigns_last_at) == [("simulate", "_MatrixBooks.__init__"), ("simulate", "_race_window")]
    assert _found(calls_ring_fill) == [("simulate", "_laid_window")]
