"""The README's code runs as written, and its module table is complete."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from immunochain.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _section(title: str) -> str:
    return (ROOT / "README.md").read_text().split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_quick_start_runs(tmp_path):
    code = re.search(r"```python\n(.*?)```", _section("Library quick start"), re.DOTALL).group(1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_block_runs(tmp_path, monkeypatch):
    # Each command as written, in process; its out/ lands in tmp_path.
    block = re.search(r"```sh\n(.*?)```", _section("CLI"), re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.strip() and not line.lstrip().startswith("#")]
    assert [argv[:2] for argv in commands] == [
        ["immunochain", name] for name in ("analyze", "simulate", "sample-steady", "figure-data", "verify")
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)


def test_layout_table_names_every_module():
    rows = re.findall(r"^\| `immunochain\.(\w+)` \|", _section("Layout"), re.MULTILINE)
    modules = [path.stem for path in (ROOT / "src" / "immunochain").glob("*.py") if path.stem != "__init__"]
    assert sorted(rows) == sorted(modules)
