"""Rules on the library's source itself."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "sunflowers"


def test_library_checks_are_exceptions_not_asserts():
    # `python -O` strips assert statements; every check must survive it
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_private_module_level_name_is_read():
    # a private helper that no module reads is a leftover of a path since removed
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SOURCE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{name}:{node.lineno} {d}" for d in defined
                      if d.startswith("_") and not d.startswith("__") and d not in read]
    assert found == []


def test_every_module_level_import_is_used():
    # __init__ imports to re-export; every other module reads what it imports
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def _run_at_import(nodes):
    """The nodes that run when their module is imported: all but function
    bodies and `if TYPE_CHECKING:` blocks."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _run_at_import(node.orelse)
            continue
        yield node
        yield from _run_at_import(ast.iter_child_nodes(node))


def test_no_module_imports_numpy_at_module_level():
    # numpy loads on first use: `check`, `find`, `bounds` and `encode-audit`
    # start without it, and the CLI sets OPENBLAS_NUM_THREADS before it loads
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _run_at_import(tree.body):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "numpy"]
    assert found == []


def test_cli_imports_generators_only_inside_functions():
    # only a `gen` command line runs a generator: `check`, `find`, `bounds`,
    # `spread` and `encode-audit` start without the module
    path = SOURCE / "cli.py"
    found = []
    for node in _run_at_import(ast.parse(path.read_text(), filename=str(path)).body):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["sunflowers" if node.level else "", node.module]))
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name.split(".")[:2] == ["sunflowers", "generators"] for name in names):
            found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_imports_dataclasses():
    # the records are NamedTuples: `dataclasses` would cost every CLI process
    # its import and an `exec` per record class
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name == "dataclasses"]
    assert found == []


def test_finders_build_a_sunflower_only_in_certified():
    # `_certified` turns a failed certificate into LemmaViolationError (exit 4);
    # a Sunflower built anywhere else in a finder would fail as FamilyError (exit 3)
    tree = ast.parse((SOURCE / "finders.py").read_text(), filename="finders.py")
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            while isinstance(func, ast.Attribute):  # Sunflower.<classmethod>(...) too
                func = func.value
            if isinstance(func, ast.Name) and func.id == "Sunflower":
                found.append(getattr(top, "name", node.lineno))
    assert found == ["_certified"]


def test_only_families_enumerates_with_combinations():
    # `families._subset_masks` is the one k-subset enumeration; the other
    # modules call it rather than `itertools.combinations`
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "itertools":
                uses = any(alias.name == "combinations" for alias in node.names)
            elif isinstance(node, ast.Attribute):
                uses = (node.attr == "combinations" and isinstance(node.value, ast.Name)
                        and node.value.id == "itertools")
            else:
                continue
            if uses:
                found.append(path.name)
    assert found == ["families.py"]


def test_only_enclosure_adds_the_guard_digits():
    # `bounds._enclosure` evaluates every interval at the requested digits
    # plus 15 guard digits; no other code in bounds.py adds them
    tree = ast.parse((SOURCE / "bounds.py").read_text(), filename="bounds.py")
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                    and any(isinstance(side, ast.Constant) and side.value == 15
                            for side in (node.left, node.right))):
                found.append(getattr(top, "name", node.lineno))
    assert found == ["_enclosure"]


def test_only_families_builds_a_set_value_from_elements():
    # the other modules compute on masks and hand out `ElementSet.from_mask`
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py")) if path.name != "families.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "ElementSet"
    ]
    assert found == []


def test_the_bit_limit_is_stated_once():
    # 2^30 bits caps generated masks, a block of draws and an audit's W pass
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
        and ast.unparse(node.value) == "1 << 30"
    ]
    assert len(found) == 1 and found[0].startswith("families.py:")


def test_bounds_takes_factorials_only_for_n_factorial_and_the_multinomial():
    # n!/(n-d)! is `math.perm` and the multinomial a product of `math.comb`:
    # a quotient of two factorials makes both in full.  Only n! is left.
    tree = ast.parse((SOURCE / "bounds.py").read_text(), filename="bounds.py")
    found = {
        str(getattr(top, "name", top.lineno))
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "factorial" and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "math"
    }
    assert found == {"erdos_rado_bound"}


def test_cli_makes_every_parser_with_the_one_formatter():
    # argparse's stock formatter asks the terminal for its width once per
    # argument added; `_Parser` gives every parser `_HelpFormatter`, which
    # asks once per process.  A parser made another way, or a formatter
    # named anywhere else, would bring the per-argument query back.
    allowed = {
        "get_terminal_size": "_HelpFormatter",
        "HelpFormatter": "_HelpFormatter",  # any of argparse's formatter classes
        "formatter_class": "_Parser",
        "ArgumentParser": "_Parser",
        "parser_class": None,
    }
    tree = ast.parse((SOURCE / "cli.py").read_text(), filename="cli.py")
    found = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.keyword) and node.arg:
                name = node.arg
            else:
                continue
            own = name == "_HelpFormatter"
            kind = "HelpFormatter" if name.endswith("HelpFormatter") and not own else name
            if kind in allowed and owner != allowed[kind]:
                found.append(f"cli.py:{node.lineno} {owner}: {name}")
    assert found == []



def _exception_bases_and_raises():
    """Each class's bases, and each `raise` with its place, across the package."""
    bases, raises = {}, []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [ast.unparse(b) for b in node.bases]
            elif isinstance(node, ast.Raise) and node.exc is not None:
                raises.append((f"{path.name}:{node.lineno}", node.exc))
    return bases, raises


def test_each_exit_band_has_one_exception_family():
    # the CLI maps a ValueError to exit 3 and any other exception to exit 4:
    # input refusals and stated limits are ValueErrors, and every self-check
    # and proof invariant is an InvariantError, a RuntimeError
    import builtins

    bases, _ = _exception_bases_and_raises()

    def root(name):
        while name in bases and len(bases[name]) == 1:
            name = bases[name][0]
        return name

    errors = {name: root(name) for name in bases
              if isinstance(getattr(builtins, root(name), None), type)
              and issubclass(getattr(builtins, root(name)), BaseException)}
    assert errors == {"FamilyError": "ValueError", "ParseError": "ValueError",
                      "FinderError": "ValueError", "MissingParameterError": "ValueError",
                      "GeneratorError": "ValueError", "InvariantError": "RuntimeError",
                      "LemmaViolationError": "RuntimeError"}


def test_every_self_check_raises_invariant_error():
    # a failed self-check is a defect (exit 4), never a refused input (exit 3)
    _, raises = _exception_bases_and_raises()
    found = [f"{where} {ast.unparse(exc)}" for where, exc in raises
             if "self-check" in ast.unparse(exc)
             and not (isinstance(exc, ast.Call) and ast.unparse(exc.func) == "InvariantError")]
    assert found == []


def test_no_raise_names_an_arithmetic_error():
    # a refusal is a ValueError (exit 3); an ArithmeticError reaching the CLI
    # is a defect (exit 4), so the package raises none on purpose
    arithmetic = {"ArithmeticError", "FloatingPointError", "OverflowError", "ZeroDivisionError"}
    _, raises = _exception_bases_and_raises()
    found = [f"{where} {ast.unparse(exc)}" for where, exc in raises
             if arithmetic & {node.id for node in ast.walk(exc) if isinstance(node, ast.Name)}]
    assert found == []


def test_main_sends_exactly_value_and_os_errors_to_exit_three():
    # the band rule in one sentence: ValueError and OSError exit 3, anything else exits 4
    tree = ast.parse((SOURCE / "cli.py").read_text(), filename="cli.py")
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    bands = {}
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler):
            caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            for node in ast.walk(handler):
                if isinstance(node, ast.Return):
                    bands.setdefault(ast.unparse(node.value), []).extend(map(ast.unparse, caught))
    assert bands == {"EXIT_ERROR": ["ValueError", "OSError"], "EXIT_INTERNAL": ["Exception"]}


def test_cli_writes_each_subcommand_and_kind_name_once():
    # the parsers of a `gen` kind line register the other names by name
    # only; one table read by both builds keeps the two from drifting.  A
    # subcommand's body may use the same word as a report key.
    from sunflowers import cli

    names = [*cli._SUBCOMMANDS, *cli._KINDS]
    assert len(cli._SUBCOMMANDS) == 7 and len(cli._KINDS) == 5
    tree = ast.parse((SOURCE / "cli.py").read_text(), filename="cli.py")
    written = [
        node.value
        for top in tree.body if not getattr(top, "name", "").startswith("cmd_")
        for node in ast.walk(top)
        if isinstance(node, ast.Constant) and node.value in names
    ]
    assert sorted(written) == sorted(names)


def test_cli_adds_positionals_formats_and_commands_only_in_build_parser():
    # a subcommand's row in `_SUBCOMMANDS` states its positional arguments,
    # its --format default and its command, and `build_parser` adds them
    tree = ast.parse((SOURCE / "cli.py").read_text(), filename="cli.py")
    found = []
    for top in tree.body:
        if getattr(top, "name", None) == "build_parser":
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = ast.unparse(node.func)
            first = node.args[0] if node.args else None
            positional = (func.endswith(".add_argument") and isinstance(first, ast.Constant)
                          and not first.value.startswith("-"))
            if positional or func == "_add_format" or func.endswith(".set_defaults"):
                found.append(f"cli.py:{node.lineno} {ast.unparse(node)}")
    assert found == []


def test_the_bounds_parser_reads_exactly_the_bound_flags():
    # `_BOUND_FLAGS` is the one list of the bound flags: the parser adds
    # them from it, and `cmd_bounds` checks and echoes them from it
    import argparse

    from sunflowers import cli

    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    options = [flag for action in sub.choices["bounds"]._actions for flag in action.option_strings
               if flag not in ("-h", "--help", "--which", "--format")]
    assert options == [flag for flag, *_ in cli._BOUND_FLAGS.values()]
