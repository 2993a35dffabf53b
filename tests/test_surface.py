"""No dead surface: every public function, class and method that
src/sidonrainbow defines is used by the package itself (its __init__ aside,
which only re-exports), by bench/, or by README.md's code: its fenced blocks
and backticked spans, since a word of its prose is no user. Tests do not
count: a name that only a test reaches is a name to delete, unless it is an
oracle or a documented entry point listed in ALLOWED. Every private
module-level function, class or constant is read by the package itself."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "sidonrainbow").glob("*.py") if p.name != "__init__.py")

ALLOWED = {
    "make_quad": "the definition-level quad constructor that brute-force test recounts rest on",
    "serialize_coloring": "the documented JSON round trip with parse_coloring",
    "f_n_scan": "the oracle of f_n_exact",
    "enumerate_modular_quads": "the oracle of modular_count_formula",
    "error": "argparse calls _Parser.error on a usage problem",
}

FENCED = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)


def readme_code(text: str) -> str:
    """The fenced blocks and backticked spans of a Markdown text, one a line."""
    return "\n".join(FENCED.findall(text) + re.findall(r"`([^`\n]+)`", FENCED.sub("", text)))


def used_names(paths) -> set[str]:
    """Names, attributes and from-imports that appear in the given files."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def public_definitions(path) -> list[str]:
    """Public top-level functions and classes of a module, and public methods of its classes."""
    out = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            ]
    return out


def test_every_public_name_has_a_user():
    used = used_names(MODULES + sorted((ROOT / "bench").glob("*.py")))
    readme = readme_code((ROOT / "README.md").read_text(encoding="utf-8"))
    dead = [
        f"{path.stem}.{name}"
        for path in MODULES
        for name in public_definitions(path)
        if (short := name.rpartition(".")[2]) not in used
        and short not in ALLOWED
        and not re.search(rf"\b{short}\b", readme)
    ]
    assert dead == []


def test_allowed_names_still_exist():
    # ALLOWED holds the short names the dead-surface check matches
    defined = {name.rpartition(".")[2] for path in MODULES for name in public_definitions(path)}
    assert set(ALLOWED) <= defined


def private_definitions(path) -> list[str]:
    """Private top-level functions, classes and assigned names of a module."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_name_has_a_reader_in_src():
    used = used_names(sorted((ROOT / "src" / "sidonrainbow").glob("*.py")))
    unread = [f"{path.stem}.{name}" for path in MODULES for name in private_definitions(path) if name not in used]
    assert unread == []
