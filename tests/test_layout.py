"""Package layout rules that the module structure relies on."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "qisim"


def test_no_relative_imports_inside_functions():
    # Every intra-package import sits at module top; a function-level
    # relative import would only hide an import cycle between modules.
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and node.level > 0:
                    offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not offenders, f"function-level relative imports: {offenders}"


def test_no_unused_top_level_imports():
    # A name a module imports and never uses is a re-export shim or dead
    # code; only the package's __init__.py re-exports.
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert modules
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {name}")
    assert not offenders, f"unused imports: {offenders}"


def test_configs_are_validated_only_where_they_are_built():
    # ExperimentConfig.__post_init__ runs validate_config, so a call anywhere
    # else would re-check a config that cannot be invalid.
    offenders = []
    for path in sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        if path.name == "model.py":
            for node in tree.body:
                if getattr(node, "name", None) in ("ExperimentConfig", "validate_config"):
                    allowed |= {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            named = {getattr(node, a, None) for a in ("id", "attr", "name")}
            if "validate_config" in named and id(node) not in allowed:
                offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not offenders, f"validate_config named outside ExperimentConfig: {offenders}"


def test_every_config_field_is_read_by_the_model():
    # A field that only the checks read is a value a config file can set and
    # nothing uses; validate_config does not count as a reader.
    model = ast.parse((PACKAGE / "model.py").read_text(encoding="utf-8"))
    config_fields = {
        f"{node.name}.{item.target.id}"
        for node in model.body
        if isinstance(node, ast.ClassDef)
        and node.name in ("SourceParams", "ChannelParams", "ExperimentConfig")
        for item in node.body
        if isinstance(item, ast.AnnAssign)
    }
    assert {f.split(".")[0] for f in config_fields} == {
        "SourceParams", "ChannelParams", "ExperimentConfig"
    }
    read = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        checks = set()
        if path.name == "model.py":
            for node in tree.body:
                if getattr(node, "name", None) == "validate_config":
                    checks |= {id(n) for n in ast.walk(node)}
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in checks
        }
    unread = sorted(f for f in config_fields if f.split(".")[1] not in read)
    assert not unread, f"config fields read only by the checks: {unread}"


def test_every_export_is_read_by_program_code():
    # A public name that only tests use is API kept alive for its tests.
    # Program code is the package modules, the scripts, the benchmark and
    # the acceptance suite; a name counts as read when it is loaded, as a
    # name or an attribute, or imported by name.
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = set()
    for node in init.body:
        if isinstance(node, ast.ImportFrom):
            exported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign):
            exported |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    assert "simulate_tags" in exported and "__version__" in exported
    repo = PACKAGE.parents[1]
    program = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    program += [*(repo / "scripts").rglob("*.py"), *(repo / "perfbench").rglob("*.py")]
    program.append(repo / "tests" / "test_acceptance.py")
    read = set()
    for path in program:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    unread = sorted(exported - read)
    assert not unread, f"exports no program code reads: {unread}"


def test_no_private_names_imported_across_modules():
    # An underscore name is private to its module; a second module that
    # needs it needs a public name.
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("qisim"):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {alias.name}")
    assert not offenders, f"private names imported across modules: {offenders}"


def test_no_two_plain_dataclasses_declare_the_same_fields():
    # Two dataclasses with the same field names and annotations and no
    # invariant of their own are one result type under two names. A class
    # with a __post_init__ enforces an invariant, so it may share its fields
    # (Scene and PixelImage check different value ranges).
    seen = {}
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = {
                ast.unparse(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list
            }
            if not decorators & {"dataclass", "dataclasses.dataclass"}:
                continue
            if any(getattr(item, "name", None) == "__post_init__" for item in node.body):
                continue
            shape = tuple(
                (item.target.id, ast.unparse(item.annotation))
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            )
            name = f"{path.relative_to(PACKAGE)}:{node.name}"
            if shape in seen:
                offenders.append(f"{seen[shape]} and {name}")
            seen.setdefault(shape, name)
    assert len(seen) >= 4  # the rule sees the config parts, the sweep types and Estimate
    assert not offenders, f"dataclasses with the same fields: {offenders}"
