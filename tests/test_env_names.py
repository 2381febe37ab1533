"""Each ``REPRO_*`` environment variable is named in one module only.

The engine's knobs are read from the environment once, when an
:class:`~repro.config.EngineConfig` is built; a second module spelling
a variable's name is how a second reader starts.  This scan parses
every module under ``src/repro`` and collects the ``REPRO_*`` names in
its string constants — documentation (docstrings and other bare string
statements) excluded — so a name may only be re-used through its
module's constant.
"""

from __future__ import annotations

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

ENV_NAME = re.compile(r"\bREPRO_[A-Z0-9_]+\b")

#: The variables the engine and CLI read.
KNOWN = {
    "REPRO_LP_MODE", "REPRO_EXECUTOR", "REPRO_OPTIMIZER",
    "REPRO_CACHE_DIR", "REPRO_CACHE_BUDGET", "REPRO_SLOW_LOG",
    "REPRO_SLO_LATENCY_MS", "REPRO_JOURNAL",
}


def _documentation(tree: ast.AST) -> set[int]:
    """Ids of the string constants that are bare statements (docs)."""
    return {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }


def env_name_owners() -> dict[str, set[str]]:
    owners: dict[str, set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        docs = _documentation(tree)
        module = path.relative_to(SRC).as_posix()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docs
            ):
                for name in ENV_NAME.findall(node.value):
                    owners.setdefault(name, set()).add(module)
    return owners


def test_each_env_name_is_spelled_in_one_module():
    owners = env_name_owners()
    shared = {
        name: sorted(modules)
        for name, modules in owners.items()
        if len(modules) > 1
    }
    assert not shared, f"REPRO_* names spelled in several modules: {shared}"
    assert KNOWN <= set(owners), sorted(KNOWN - set(owners))


def test_scan_sees_through_code_but_not_docs(tmp_path):
    """The scan counts string constants in code, never documentation."""
    tree = ast.parse(
        '"""REPRO_DOC in a docstring."""\n'
        'NAME = "REPRO_CODE"\n'
        'def f():\n'
        '    """REPRO_DOC again."""\n'
        '    return f"prefix REPRO_FSTRING {NAME}"\n'
    )
    docs = _documentation(tree)
    found = {
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docs
        for name in ENV_NAME.findall(node.value)
    }
    assert found == {"REPRO_CODE", "REPRO_FSTRING"}
