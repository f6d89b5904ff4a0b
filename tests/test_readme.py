import contextlib
import io
import re
import shlex
from pathlib import Path

from specrank.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    library = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines and all(line.split()[1] == "dB" for line in lines)


def test_readme_cli_walkthrough_runs(tmp_path, monkeypatch):
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, re.S)
    commands = [shlex.split(b.replace("\\\n", " ")) for b in blocks if b.startswith("specrank ")]
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run(argv[1:]) == 0, argv
        outputs = [
            value for flag, value in zip(argv, argv[1:])
            if flag.startswith("--out") or flag in ("--report", "--mse-map")
        ]
        assert outputs and all((tmp_path / name).is_file() for name in outputs), argv
