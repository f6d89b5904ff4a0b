import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    library = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines and all(line.split()[1] == "dB" for line in lines)
