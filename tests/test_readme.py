"""The README's code runs as printed."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_block_runs_as_printed():
    """The README "Library" block runs, and each of its lines
    `expr  # literal` evaluates to its literal."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library\n.*?^```python\n(.*?)^```", text, re.S | re.M).group(1)
    env = {}
    exec(block, env)
    checked = 0
    for line in block.splitlines():
        expr, sep, comment = line.partition("  # ")
        if not sep:
            continue
        try:
            want = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert eval(expr, env) == want, (expr, want)
        checked += 1
    assert checked >= 4, f"only {checked} README lines checked"
