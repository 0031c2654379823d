"""The package's public surface: `fqdirections.__all__`, the README's library example, and the citations of
the README and of the package's own comments and docstrings."""

import ast
import importlib
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import fqdirections

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

#: Exported though nothing else names it: the scalar definition of a direction class.
UNREFERENCED_EXPORTS = {"canonical_direction"}

EXPORTS = [
    "BoundCheckRecord",
    "CampaignConfig",
    "CampaignResult",
    "ConfigError",
    "DEFAULT_SIZE_CAP",
    "DifferenceProfile",
    "EXHAUSTIVE_LIMIT",
    "FsetParseError",
    "GENERATOR_NAMES",
    "GridFunction",
    "IncidenceReport",
    "MAX_MODULUS",
    "NumericalInconsistencyError",
    "PointSet",
    "PrimeField",
    "SalemReport",
    "SizeCapError",
    "SlopeOutcome",
    "ThresholdReport",
    "__version__",
    "all_slopes",
    "ambient_direction_count",
    "canonical_direction",
    "check_size_cap",
    "coordinate_subspace_directions",
    "degenerate_pair_count",
    "difference_bound_check",
    "difference_profile",
    "direction_set",
    "emit_report",
    "evaluate_size",
    "format_fset",
    "forward_transform",
    "gen_affine_subspace",
    "gen_coordinate_subspace",
    "gen_embedded",
    "gen_paraboloid",
    "gen_random",
    "gen_subspace_random",
    "is_prime",
    "mix64",
    "nu_brute",
    "nu_spectral",
    "nu_sweep",
    "parse_fset",
    "read_fset",
    "remainder_spectral",
    "run_campaign",
    "salem_report",
    "sample_block",
    "sample_without_replacement",
    "sort_directions",
    "theorem_main_threshold",
    "write_fset",
    "write_report",
]


def test_all_is_unique_and_resolves():
    names = fqdirections.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(fqdirections, name), name


def test_all_is_pinned():
    assert sorted(fqdirections.__all__) == EXPORTS


def test_every_export_is_referenced():
    # an export that only tests use belongs in tests/oracles.py, not the library
    files = [path for path in (ROOT / "src" / "fqdirections").glob("*.py") if path.name != "__init__.py"]
    files += [*(ROOT / "bench").glob("*.py"), README]
    text = "\n".join(path.read_text(encoding="utf-8") for path in files)
    unreferenced = set()
    for name in fqdirections.__all__:
        word = re.escape(name)
        definition = re.compile(rf"^(?:def|class) {word}\b|^{word}\b[^=\n]*=", re.M)
        if not re.search(rf"\b{word}\b", definition.sub("", text)):
            unreferenced.add(name)
    assert unreferenced == UNREFERENCED_EXPORTS


def test_readme_library_example_imports_only_exports():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imported = [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "fqdirections"
        for alias in node.names
    ]
    assert imported
    assert set(imported) <= set(fqdirections.__all__)


def test_readme_cited_names_resolve():
    # every `module.name` of a package module and every `PointSet.name` the README cites exists
    modules = {info.name for info in pkgutil.iter_modules(fqdirections.__path__)}
    cited = re.findall(r"`(\w+)\.(\w+)", README.read_text(encoding="utf-8"))
    checked = [(owner, name) for owner, name in cited if owner in modules or owner == "PointSet"]
    assert checked
    for owner, name in checked:
        target = fqdirections.PointSet if owner == "PointSet" else importlib.import_module(f"fqdirections.{owner}")
        assert hasattr(target, name), f"README cites {owner}.{name}, which does not exist"


def _source_texts(path):
    """The comments of a package module, read by tokenize, and its docstrings, read by ast: no code."""
    source = path.read_text(encoding="utf-8")
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    comments = [token.string for token in tokens if token.type == tokenize.COMMENT]
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return comments + [ast.get_docstring(node) or "" for node in ast.walk(ast.parse(source)) if isinstance(node, documented)]


def test_source_cited_names_resolve_to_their_defining_module():
    # every `module.name` a comment or docstring of src/ cites exists there, and
    # a cited function or class is defined there, not imported from elsewhere
    modules = {info.name for info in pkgutil.iter_modules(fqdirections.__path__)}
    checked = [
        (path.name, owner, name)
        for path in sorted((ROOT / "src" / "fqdirections").glob("*.py"))
        for text in _source_texts(path)
        for owner, name in re.findall(r"\b(\w+)\.(\w+)", text)
        if owner in modules
    ]
    assert checked
    for where, owner, name in checked:
        module = importlib.import_module(f"fqdirections.{owner}")
        assert hasattr(module, name), f"{where} cites {owner}.{name}, which does not exist"
        target = getattr(module, name)
        if callable(target):
            assert target.__module__ == module.__name__, f"{where} cites {owner}.{name}, defined in {target.__module__}"
