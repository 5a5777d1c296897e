"""Modules of the package reach each other only through public names, no
shot block simulates its measurement circuit, no input rule is written in
both the CLI and the library, one function refuses a zero-norm component
and one einsum call serves the fold, the CLI reads every nested config object
through its form table, and importing the package runs no generated
code."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cvswap"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reaches(source: str) -> list[str]:
    """Private names a module takes from another cvswap module, either as
    ``from .x import _name`` or as ``x._name`` on an imported module."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.module in (None, "cvswap") and node.level <= 1
            if node.level == 0 and not (node.module or "").startswith("cvswap"):
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                elif package:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("cvswap."):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = ast.unparse(node.value)
            if owner in modules:
                found.append(f"line {node.lineno}: uses {owner}.{node.attr}")
    return found


def test_no_private_names_cross_modules():
    found = [f"{path.name} {hit}" for path in sorted(SRC.glob("*.py"))
             for hit in private_reaches(path.read_text(encoding="utf-8"))]
    assert found == []


def test_layout_check_sees_both_forms():
    source = "from . import fock as f\nfrom .sampling import _hidden\nx = f._apply(1)\ny = f.public\n"
    assert private_reaches(source) == ["line 2: imports _hidden", "line 3: uses f._apply"]


def generated_code(source: str) -> list[str]:
    """Imports of ``dataclasses``, whose decorators build their methods
    through ``exec`` when a module is imported, and calls to ``exec`` or
    ``eval``, by bare name or as an attribute of any module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("exec", "eval"):
                found.append(f"line {node.lineno}: calls {name}")
            continue
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        found += [f"line {node.lineno}: imports {m}" for m in modules
                  if m.partition(".")[0] == "dataclasses"]
    return found


def test_import_runs_no_generated_code():
    found = [f"{path.name} {hit}" for path in sorted(SRC.glob("*.py"))
             for hit in generated_code(path.read_text(encoding="utf-8"))]
    assert found == []


def test_generated_code_check_sees_imports_and_calls():
    source = ("import dataclasses as dc\nfrom dataclasses import field\nx = eval('1')\n"
              "def f():\n    builtins.exec('y = 2')\nimport numpy\n")
    assert generated_code(source) == ["line 1: imports dataclasses", "line 2: imports dataclasses",
                                      "line 3: calls eval", "line 5: calls exec"]


def passive_callers(source: str, callee: str = "apply_passive") -> list[str]:
    """Functions that call ``callee``, by bare name or as an attribute of
    any module."""
    callers = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == callee:
                    callers.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return callers


def _callers(callee: str) -> list[str]:
    return [f"{path.stem}.{caller}" for path in sorted(SRC.glob("*.py"))
            for caller in passive_callers(path.read_text(encoding="utf-8"), callee)]


def _defined_anywhere() -> set[str]:
    """Every function, class and assigned name defined in the package,
    nested ones included."""
    return {node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else node.id
            for path in SRC.glob("*.py") for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def test_only_the_placement_helper_applies_passive_circuits():
    # no module defines a beamsplitter or applies one, alone or in a mesh:
    # the beamsplitter, its blocks and the meshes live on only as test
    # oracles in conftest
    defined = _defined_anywhere()
    assert {"apply_gate", "PhaseRotation", "GateSpec"} <= defined
    assert not {name for name in defined if "beamsplitter" in name.lower()}
    found = {callee: _callers(callee) for callee in (
        "Beamsplitter", "apply_beamsplitter", "_apply_beamsplitter", "beamsplitter_blocks",
        "_beamsplitter_blocks", "apply_passive", "passive_measurement")}
    assert all(callers == [] for callers in found.values()), found


def test_beamsplitters_run_only_where_shots_are_drawn():
    # every shot law and exact value comes from the protocol's symmetry and
    # fig2 prepares its pair directly, so no module applies a gate to a
    # state: apply_gate is kept for the package's users alone
    assert _callers("apply_gate") == []


def test_compile_cost_functions_build_no_circuit():
    # compile-cost composes and builds its circuits once, in compile_terms,
    # from no gate matrix, and both the cost and its exact value only read
    # the terms; the one Gaussian builder also serves gate_matrix, whose
    # only caller is apply_gate, and the coherent and squeezed preparations
    found = {callee: _callers(callee)
             for callee in ("compile_terms", "gaussian_triple", "gaussian_columns", "gate_matrix")}
    assert found == {"compile_terms": ["cli.cmd_compile_cost"],
                     "gaussian_triple": ["fock.gate_matrix", "fock.prepare",
                                         "protocols.compile_terms"],
                     "gaussian_columns": ["fock.gate_matrix", "fock.prepare",
                                          "protocols.compile_terms"],
                     "gate_matrix": ["fock.apply_gate"]}


BLOCK_BUILDERS = ("_group_block", "_perm_block", "law_block")


def test_block_builders_serve_only_shot_estimators():
    # a law is built only on a shot path, and no shot path calls a public
    # exact entry point: laws and exact values share private helpers, so an
    # exact value's time is never charged to an estimator
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    found = {builder: sorted(f"{stem}.{caller}" for stem, source in sources.items()
                             for caller in passive_callers(source, builder))
             for builder in BLOCK_BUILDERS}
    assert found == {
        "_group_block": ["estimators.parity_overlap_estimate"],
        "_perm_block": ["protocols.perm_test"],
        "law_block": ["estimators._group_block", "protocols._perm_block"],
    }
    shot_paths = {caller.split(".")[1] for callers in found.values() for caller in callers}
    exact = [name for source in sources.values() for name in exported_names(source)
             if name.endswith("_expectation")]
    reached = {caller for source in sources.values() for name in exact
               for caller in passive_callers(source, name)}
    assert exact and not reached & shot_paths


def test_perm_reads_its_shift_traces_from_one_overlap_helper():
    # the PERM law and exact value take <C^t> from one helper over the
    # overlaps of the registers' ensemble components; the dense builder of
    # every register's density matrix is gone
    assert _callers("_shift_expectations") == ["protocols._perm_block", "protocols.perm_expectation"]
    assert not _defined_anywhere() & {"_density_matrices", "_shift_expectation"}


def test_one_function_computes_a_parity_groups_kept_weight_and_masked_swap():
    # the shot law, every exact value and the global cutoff bound take a
    # parity group's (k, s) from one function, which sends two registers
    # paired mode for mode with nothing cut to the inner-product kernel, a
    # pair of single-mode registers under a threshold that cuts to the
    # running-sum kernel and every other group to the contraction; the
    # padded box, its threshold mask and the ensemble combinations live on
    # only as test oracles in conftest
    found = {callee: sorted(set(_callers(callee)))
             for callee in ("_group_expectation", "_paired_expectation", "_pair_expectation",
                            "_contract", "_pair_mask", "einsum")}
    assert found == {"_group_expectation": ["estimators._group_block",
                                            "estimators.error_bound_global",
                                            "estimators.parity_overlap_expectation"],
                     "_paired_expectation": ["estimators._group_expectation"],
                     "_pair_expectation": ["estimators._group_expectation"],
                     "_contract": ["estimators._group_expectation"],
                     "_pair_mask": ["estimators._group_expectation"],
                     "einsum": ["estimators._contract"]}
    defined = {name for path in SRC.glob("*.py")
               for name, _ in definitions_and_roots(path.read_text(encoding="utf-8"))[0]}
    assert not defined & {"_threshold_mask", "ensemble_combinations"}


def test_each_quantity_has_one_computation():
    # Gaussian amplitudes come from gaussian_columns, a threshold's kept
    # weight from the group contraction, the probit from the standard
    # library: none of their second implementations is defined again
    defined = _defined_anywhere()
    assert {"gaussian_columns", "MAX_WORKING_ELEMENTS"} <= defined  # sees defs and assignments
    assert not defined & {"_coherent_amps", "_squeeze_edge", "truncation_weight",
                          "_pattern_probabilities", "normal_quantile", "_poly", "_PPND16_A"}


def reaches_avoiding(sources: dict[str, str], start: str, target: str, avoiding: str) -> bool:
    """Whether the definition ``start`` reads ``target``, directly or through
    the definitions it reads, on a path that does not pass ``avoiding``."""
    reads = {}
    for source in sources.values():
        for name, names in definitions_and_roots(source)[0]:
            reads.setdefault(name, set()).update(names)
    seen, todo = set(), [start]
    while todo:
        for name in reads.get(todo.pop(), ()):
            if name != avoiding and name not in seen:
                seen.add(name)
                todo.append(name)
    return target in seen


def test_two_copy_reaches_the_contraction_only_through_the_parity_estimator():
    # the two-copy and the qudit SWAP tests are parity groups: they reach
    # the contraction only through the public parity entry points
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    for start, via in (("protocols.two_copy_expectation", "parity_overlap_expectation"),
                       ("dv.dv_swap_expectation", "parity_overlap_expectation"),
                       ("dv.dv_swap_estimate", "parity_overlap_estimate")):
        assert start in _callers(via)
        name = start.split(".")[1]
        for target in ("_group_expectation", "_contract"):
            assert reaches_avoiding(sources, name, target, "")
            assert not reaches_avoiding(sources, name, target, via)


def test_reach_check_sees_a_path_around_the_avoided_name():
    rest = "def mid():\n    return goal()\ndef via():\n    return goal()\ndef goal():\n    pass\n"
    around = {"a": "def top():\n    return mid() + via()\n" + rest}
    through = {"a": "def top():\n    return via()\n" + rest}
    assert reaches_avoiding(around, "top", "goal", "via")
    assert not reaches_avoiding(through, "top", "goal", "via")
    assert reaches_avoiding(through, "top", "goal", "")


def test_passive_caller_check_sees_both_forms():
    source = ("def a():\n    return fock.apply_passive(x, p, g)\n"
              "def b():\n    def inner():\n        apply_passive(x, p, g)\n")
    assert passive_callers(source) == ["a", "inner"]


def raised_messages(source: str, exception: str | None = None) -> set[str]:
    """The message expressions (``ast.unparse`` of the first argument) of
    the ``raise`` statements in ``source``; with ``exception``, only those
    of the raises of that class, by bare name or as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            func = node.exc.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if exception is None or name == exception:
                found.add(ast.unparse(node.exc.args[0]))
    return found


def test_cli_repeats_no_library_refusal():
    # the library refuses every input of a shape a protocol cannot take,
    # and cli.main reports its MeasurementSpecError as a config error
    library = set().union(*(raised_messages(path.read_text(encoding="utf-8"))
                            for path in SRC.glob("*.py") if path.stem != "cli"))
    cli = raised_messages((SRC / "cli.py").read_text(encoding="utf-8"), "ConfigError")
    assert sorted(cli & library) == []


def _functions(path: Path):
    return [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_each_parity_layer_rule_has_one_owner():
    # components_of alone refuses a zero-norm component, and the fold
    # renumbers every einsum step's labels through one call
    raisers = [f"{path.stem}.{node.name}" for path in sorted(SRC.glob("*.py")) for node in _functions(path)
               if "'zero-norm component'" in raised_messages(ast.unparse(node))]
    assert raisers == ["fock.components_of"]
    [contract] = [node for node in _functions(SRC / "estimators.py") if node.name == "_contract"]
    einsums = [node for node in ast.walk(contract) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute) and node.func.attr == "einsum"]
    assert len(einsums) == 1


def test_raised_message_check_sees_plain_and_formatted_messages():
    source = ('raise ConfigError("empty")\nraise ConfigError(f"{name} bad")\n'
              'raise ValueError("other")\nraise est.MeasurementSpecError(f"{name} bad")\n'
              'raise\nraise ConfigError\n')
    assert raised_messages(source, "ConfigError") == {"'empty'", "f'{name} bad'"}
    assert raised_messages(source) == {"'empty'", "f'{name} bad'", "'other'"}


def raw_spec_reads(source: str, functions) -> list[str]:
    """In each named function, the subscripts of, and ``.get`` calls on,
    its raw specs: its parameters and the targets of ``for`` loops and
    comprehensions over one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.FunctionDef) and node.name in functions):
            continue
        raw = {arg.arg for arg in node.args.args}
        for loop in ast.walk(node):  # breadth first, so an outer loop comes first
            if isinstance(loop, (ast.For, ast.comprehension)) and getattr(loop.iter, "id", None) in raw:
                raw |= {name.id for name in ast.walk(loop.target) if isinstance(name, ast.Name)}
        for child in ast.walk(node):
            if isinstance(child, ast.Subscript) and getattr(child.value, "id", None) in raw:
                found.append((child.lineno, f"{node.name} line {child.lineno}: "
                                            f"subscripts {child.value.id}"))
            elif (isinstance(child, ast.Attribute) and child.attr == "get"
                  and getattr(child.value, "id", None) in raw):
                found.append((child.lineno, f"{node.name} line {child.lineno}: "
                                            f"calls {child.value.id}.get"))
    return [hit for _, hit in sorted(found)]


def caught(source: str, exception: str) -> list[int]:
    """The lines of the ``except`` clauses that catch ``exception``, alone
    or in a tuple."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            and exception in {getattr(n, "id", None) for n in ast.walk(node.type)}]


SPEC_READERS = ("build_state", "build_circuit", "_build_hybrid")


def test_cli_reads_every_nested_object_through_its_form():
    # each nested object goes through cli._read, which refuses a key its
    # form does not take; a builder that read its spec itself could skip
    # that check, and a caught KeyError would stand in for a missing key
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    defined = {name for name, _ in definitions_and_roots(source)[0]}
    assert set(SPEC_READERS) <= defined
    assert raw_spec_reads(source, SPEC_READERS) == []
    assert caught(source, "KeyError") == []


def test_raw_spec_check_sees_subscripts_gets_and_handlers():
    source = ("def build(spec, other):\n    x = spec['a']\n    for g in spec:\n        y = g.get('b')\n"
              "    z = other[0]\n    values = read(spec)\n    w = values['c']\n"
              "    v = [h['e'] for h in other]\n"
              "def elsewhere(spec):\n    return spec['d']\n"
              "try:\n    pass\nexcept (ValueError, KeyError):\n    pass\n"
              "except KeyError as exc:\n    pass\nexcept Exception:\n    pass\n")
    assert raw_spec_reads(source, ("build",)) == ["build line 2: subscripts spec",
                                                  "build line 4: calls g.get",
                                                  "build line 5: subscripts other",
                                                  "build line 8: subscripts h"]
    assert caught(source, "KeyError") == [13, 15]


README = SRC.parents[1] / "README.md"


def exported_names(source: str) -> list[str]:
    """The names listed in a module's ``__all__``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [ast.literal_eval(item) for item in node.value.elts]
    return []


def _reads(node) -> set[str]:
    """The names a node reads, bare or as an attribute."""
    return {child.id if isinstance(child, ast.Name) else child.attr
            for child in ast.walk(node)
            if (isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load))
            or isinstance(child, ast.Attribute)}


def definitions_and_roots(source: str) -> tuple[list, set[str], dict[str, list[str]]]:
    """The (name, names it reads) of each top-level ``def`` and ``class``
    and of each public method or property of a class, the names the rest of
    the module-level code reads, and the public methods of each class.  A
    name is read bare or as an attribute; imports and string entries such
    as those of ``__all__`` are no reference.  A class reads the names of
    its body outside its public methods, so reaching a class does not reach
    its methods."""
    definitions, roots, methods = [], set(), {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            definitions.append((node.name, _reads(node)))
        elif isinstance(node, ast.ClassDef):
            public = [child for child in node.body
                      if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not child.name.startswith("_")]
            methods[node.name] = [m.name for m in public]
            definitions += [(m.name, _reads(m)) for m in public]
            rest = [child for child in node.body if child not in public]
            definitions.append((node.name, set().union(
                *map(_reads, rest + node.bases + node.decorator_list + node.keywords))))
        else:
            roots |= _reads(node)
    return definitions, roots, methods


def documented_names(markdown: str) -> set[str]:
    """Identifiers inside the code spans and fenced blocks of a README."""
    spans = re.findall(r"```.*?```|`[^`\n]+`", markdown, flags=re.S)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(spans)))


# the console script ``cvswap = "cvswap.cli:main"``
ENTRY_POINT = "main"


def unreached_exports(sources: dict[str, str], readme: str) -> list[str]:
    """``module.name`` for every ``__all__`` entry, and ``module.Class.name``
    for every public method or property of a reached class, outside the
    fixed point of reach.  Reach starts from the module-level code, the
    entry point and the names in the README's code spans, and grows by the
    names each reached definition reads.  The package ``__init__`` only
    re-exports, so it reaches nothing."""
    definitions, classes, reached = [], {}, documented_names(readme) | {ENTRY_POINT}
    for mod, src in sources.items():
        if mod != "__init__":
            defs, roots, methods = definitions_and_roots(src)
            definitions += defs
            classes[mod] = methods
            reached |= roots
    grown = True
    while grown:
        grown = False
        for name, names in definitions:
            if name in reached and not names <= reached:
                reached |= names
                grown = True
    return ([f"{mod}.{name}" for mod, src in sorted(sources.items())
             for name in exported_names(src) if name not in reached]
            + [f"{mod}.{cls}.{name}" for mod, methods in sorted(classes.items())
               for cls, names in methods.items() if cls in reached
               for name in names if name not in reached])


def test_every_export_is_reached():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert unreached_exports(sources, README.read_text(encoding="utf-8")) == []


def test_export_check_sees_definitions_imports_and_docs():
    sources = {
        "a": ('__all__ = ["used", "recursive", "imported", "documented", "LIMIT", "Kind", "served",\n'
              '           "from_docs", "dropped", "chained", "deeper", "Shape"]\n'
              "LIMIT = 3\n"
              "class Kind:\n    def kind_only(self):\n        pass\n"
              "class Shape:\n"
              "    def __init__(self):\n        self.k = 1\n"
              "    @property\n    def area(self):\n        return self.side()\n"
              "    def side(self):\n        return 2\n"
              "    def unused(self):\n        return self.hidden()\n"
              "    def hidden(self):\n        pass\n"
              "    def _private(self):\n        pass\n"
              "def used():\n    return LIMIT\n"
              "def recursive(n):\n    return recursive(n - 1) if n else Kind\n"
              "def imported():\n    pass\n"
              "def documented():\n    return from_docs()\n"
              "def from_docs():\n    pass\n"
              "def served():\n    pass\n"
              "def dropped():\n    return chained()\n"
              "def chained():\n    return deeper()\n"
              "def deeper():\n    pass\n"),
        "b": "from .a import imported, used\nfrom . import a\nx = a.used()\nz = a.Shape().area\n",
        "cli": "from . import a\ndef main():\n    return a.served()\n",
        "__init__": "from .a import recursive  # noqa: F401\ny = recursive(1)\n",
    }
    readme = "Call `a.documented()`; the prose word imported is no name.\n"
    # Kind, chained and deeper are read only from inside definitions that
    # nothing reaches; so is the method hidden, and the methods of the
    # unreached Kind are not listed
    assert unreached_exports(sources, readme) == ["a.recursive", "a.imported", "a.Kind", "a.dropped",
                                                  "a.chained", "a.deeper", "a.Shape.unused",
                                                  "a.Shape.hidden"]
