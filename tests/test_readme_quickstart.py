"""README.md's quickstart runs as written, on the public API only.

Every ```` ```python ```` block of the README is executed in order in one
namespace with all warnings escalated to errors, so the front-page
example cannot drift onto a removed or deprecated entry point.  The
value of each block's last expression is the answer the README states
in its trailing comment.
"""

from __future__ import annotations

import ast
import pathlib
import re
import warnings

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def run_blocks(blocks: list[str]) -> list[object]:
    """Execute the blocks; the value of each one's final expression."""
    namespace: dict[str, object] = {"__name__": "readme"}
    results = []
    for block in blocks:
        tree = ast.parse(block)
        last = tree.body.pop()
        assert isinstance(last, ast.Expr), "block must end in an expression"
        exec(compile(tree, str(README), "exec"), namespace)
        expression = ast.Expression(last.value)
        results.append(eval(compile(expression, str(README), "eval"),
                            namespace))
    return results


def test_quickstart_blocks_run_warning_free_with_documented_answers():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        connected, contains_two = run_blocks(blocks)
    assert connected is False       # two separated intervals
    assert contains_two is True     # 2 < y for some y in S
