"""No code without a caller: every public top-level function and class
of the package is named outside its own definition, in the package, the
benchmark or the README's code, or is listed below with the reason it
stays.  README prose does not count: only inline code spans and fenced
blocks, without their `#` comments, are searched."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "errorfloor"

# name -> why it stays although only tests call it
ALLOWED = {
    "check_update_exact": "acceptance criteria 1 and 2; oracle for the batched check pass",
    "check_update_pairwise": "acceptance criteria 1 and 2; oracle for the batched check pass",
    "check_update_approx": "oracle for the batched check pass in approx mode",
    "check_update_minsum": "oracle for the batched check pass in min-sum mode",
    "growth_threshold_regular": "acceptance criterion 7",
    "growth_threshold_pointwise": "acceptance criterion 7",
    "pointwise_crossing": "acceptance criterion 7",
    "codeword_failure_probability": "acceptance criterion 8",
}


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node


def _readme_code(text: str) -> str:
    """Inline code spans and fenced-block lines, `#` comments removed."""
    parts, fenced = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif fenced:
            parts.append(line.split("#", 1)[0])
        else:
            parts.extend(re.findall(r"`([^`]+)`", line))
    return "\n".join(parts)


def _named_elsewhere(name: str, home: Path, first: int, last: int, texts: dict) -> bool:
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    for path, text in texts.items():
        for m in pattern.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            if path != home or not first <= line <= last:
                return True
    return False


def test_every_public_name_has_a_caller():
    sources = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "benchmarks").glob("*.py"))]
    texts = {p: p.read_text() for p in sources}
    texts[ROOT / "README.md"] = _readme_code((ROOT / "README.md").read_text())
    uncalled = []
    for path, node in _public_definitions():
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        if not _named_elsewhere(node.name, path, first, node.end_lineno, texts):
            uncalled.append(node.name)
    assert sorted(set(uncalled) - set(ALLOWED)) == []
    # an entry whose name is gone, or has gained a caller, leaves the list
    assert sorted(set(ALLOWED) - set(uncalled)) == []


def test_no_module_imports_another_modules_private_name():
    # a name one module keeps private is not another module's to use;
    # dunder names such as __version__ are public
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                private += [f"{path.name}: {a.name}" for a in node.names
                            if a.name.startswith("_") and not a.name.startswith("__")]
    assert private == []
