"""Rule family 1: step-declaration completeness.

For every node of ``repro.core.engine.STEP_GRAPH`` the rule resolves the
node's implementation (``PipelineEngine._compute_<node>``) and walks its
transitive callees *inside* ``repro.core``, tracking which local names hold
the :class:`~repro.config.InferenceConfig`, the
:class:`~repro.core.inputs.InferenceInputs` bundle, the
:class:`~repro.datasources.merge.ObservedDataset` or the shared
:class:`~repro.geo.distindex.GeoDistanceIndex`.  Every ``config.<field>``
read, every versioned inputs-member read and every dataset/geo accessor use
(mapped to domains through :mod:`repro.contracts.accessors`) is collected
and compared against the node's declared ``config_fields`` /
``data_inputs`` / ``data_domains`` — in both directions: an undeclared read
desynchronises the fingerprint cache, an unexercised declaration
over-invalidates it and hides the real contract.

The walk is purely syntactic and deliberately conservative: values whose
type the tracker cannot prove are untracked (reads through them are
invisible to *this* rule — the dynamic cross-check exists precisely to
bound that blind spot), while any member of a *tracked* dataset or geo
index that the accessor tables cannot map is itself reported, keeping the
tables closed-world.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.contracts.accessors import (
    CORPUS_DETECTION_DOMAINS,
    CORPUS_DETECTION_INPUTS,
    DATASET_ACCESSOR_DOMAINS,
    DATASET_FIELD_DOMAINS,
    DATASET_NEUTRAL_MEMBERS,
    GEO_ACCESSOR_DOMAINS,
    GEO_NEUTRAL_MEMBERS,
    NEUTRAL_INPUT_MEMBERS,
    STEP_IMPLEMENTATIONS,
    VERSIONED_INPUT_MEMBERS,
)
from repro.contracts.model import ContractCheckError, Violation
from repro.contracts.tree import ClassInfo, ModuleInfo, SourceTree

#: Annotation substrings that type a name for the tracker.
_ANNOTATION_TAGS: tuple[tuple[str, str], ...] = (
    ("InferenceConfig", "config"),
    ("InferenceInputs", "inputs"),
    ("ObservedDataset", "dataset"),
    ("GeoDistanceIndex", "geo"),
    ("DelayModel", "delay"),
    ("AliasResolver", "alias"),
)

#: Conventional parameter names, used when a parameter has no annotation
#: (the engine's ``_compute_*`` methods pass ``config`` positionally).
_PARAM_NAME_TAGS: dict[str, str] = {
    "config": "config",
    "inputs": "inputs",
    "dataset": "dataset",
    "geo_index": "geo",
}

#: Tags for the versioned inputs-bundle members once read off ``inputs``.
_INPUT_MEMBER_TAGS: dict[str, str] = {
    "dataset": "dataset",
    "geo_index": "geo",
    "ping_result": "ping",
    "corpus": "corpus",
    "prefix2as": "prefix2as",
    "alias_resolver": "alias",
}

_Loc = tuple[Path, int]


@dataclass
class AccessRecord:
    """Everything one function (plus merged callees) was seen to read."""

    config: dict[str, _Loc] = field(default_factory=dict)
    domains: dict[str, _Loc] = field(default_factory=dict)
    inputs: dict[str, _Loc] = field(default_factory=dict)
    #: (path, line, kind, member) — closed-world table gaps.
    problems: list[tuple[Path, int, str, str]] = field(default_factory=list)

    def merge(self, other: "AccessRecord") -> None:
        for name, loc in other.config.items():
            self.config.setdefault(name, loc)
        for name, loc in other.domains.items():
            self.domains.setdefault(name, loc)
        for name, loc in other.inputs.items():
            self.inputs.setdefault(name, loc)
        self.problems.extend(other.problems)


@dataclass(frozen=True)
class StepDecl:
    """One STEP_GRAPH node's declarations, parsed from the engine source."""

    name: str
    config_fields: tuple[str, ...]
    data_domains: tuple[str, ...]
    data_inputs: tuple[str, ...]
    line: int


def _literal_tuple(node: ast.expr, constants: dict[str, str]) -> tuple[str, ...]:
    """A tuple of strings from a ``("a", DOMAIN_B, ...)`` declaration."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        raise ContractCheckError(
            f"STEP_GRAPH declaration at line {node.lineno} is not a literal tuple"
        )
    values: list[str] = []
    for element in node.elts:
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            values.append(element.value)
        elif isinstance(element, ast.Name) and element.id in constants:
            values.append(constants[element.id])
        else:
            raise ContractCheckError(
                f"cannot resolve STEP_GRAPH declaration element at line "
                f"{element.lineno} (expected a string literal or DOMAIN_* name)"
            )
    return tuple(values)


def parse_step_graph(tree: SourceTree) -> dict[str, StepDecl]:
    """The declared step graph, read from the engine module's source."""
    engine = tree.modules.get(f"{tree.package}.core.engine")
    if engine is None:
        raise ContractCheckError("repro.core.engine not found in the source tree")
    merge = tree.modules.get(f"{tree.package}.datasources.merge")
    constants: dict[str, str] = {}
    if merge is not None:
        for statement in merge.node.body:
            if isinstance(statement, ast.Assign) and isinstance(
                statement.value, ast.Constant
            ):
                for target in statement.targets:
                    if isinstance(target, ast.Name) and isinstance(
                        statement.value.value, str
                    ):
                        constants[target.id] = statement.value.value

    graph_value: ast.expr | None = None
    for statement in engine.node.body:
        if (
            isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
            and statement.target.id == "STEP_GRAPH"
        ):
            graph_value = statement.value
        elif isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name) and target.id == "STEP_GRAPH":
                    graph_value = statement.value
    if not isinstance(graph_value, (ast.Tuple, ast.List)):
        raise ContractCheckError("STEP_GRAPH is not a literal tuple of StepSpec(...)")

    declarations: dict[str, StepDecl] = {}
    for call in graph_value.elts:
        if not isinstance(call, ast.Call):
            raise ContractCheckError(
                f"STEP_GRAPH element at line {call.lineno} is not a StepSpec(...) call"
            )
        keywords = {kw.arg: kw.value for kw in call.keywords if kw.arg is not None}
        name_node = keywords.get("name")
        if not (
            isinstance(name_node, ast.Constant) and isinstance(name_node.value, str)
        ):
            raise ContractCheckError(
                f"StepSpec at line {call.lineno} has no literal name"
            )
        declarations[name_node.value] = StepDecl(
            name=name_node.value,
            config_fields=(
                _literal_tuple(keywords["config_fields"], constants)
                if "config_fields" in keywords
                else ()
            ),
            data_domains=(
                _literal_tuple(keywords["data_domains"], constants)
                if "data_domains" in keywords
                else ()
            ),
            data_inputs=(
                _literal_tuple(keywords["data_inputs"], constants)
                if "data_inputs" in keywords
                else ()
            ),
            line=call.lineno,
        )
    return declarations


def _annotation_tag(text: str) -> str | None:
    for needle, tag in _ANNOTATION_TAGS:
        if needle in text:
            return tag
    return None


class StepDeclAnalyzer:
    """Call-graph access summariser over the ``repro.core`` modules."""

    def __init__(self, tree: SourceTree) -> None:
        self.tree = tree
        prefix = f"{tree.package}.core"
        self.core_modules: dict[str, ModuleInfo] = {
            name: info
            for name, info in tree.modules.items()
            if name == prefix or name.startswith(prefix + ".")
        }
        self.core_classes: dict[str, tuple[ClassInfo, ModuleInfo]] = {}
        for info in self.core_modules.values():
            for statement in info.node.body:
                if isinstance(statement, ast.ClassDef):
                    matches = self.tree.classes_by_name[statement.name]
                    for class_info in matches:
                        if class_info.node is statement:
                            self.core_classes[statement.name] = (class_info, info)
        self._field_tags: dict[str, dict[str, str]] = {}
        self._summaries: dict[tuple[str, str], AccessRecord] = {}
        self._in_progress: set[tuple[str, str]] = set()

    # ------------------------------------------------------------------ #
    # Class-level facts
    # ------------------------------------------------------------------ #
    def field_tags(self, class_name: str) -> dict[str, str]:
        """``field -> tag`` for one core class (annotations + constructors)."""
        cached = self._field_tags.get(class_name)
        if cached is not None:
            return cached
        tags: dict[str, str] = {}
        self._field_tags[class_name] = tags
        entry = self.core_classes.get(class_name)
        if entry is None:
            return tags
        class_info, module = entry
        for field_name, annotation in class_info.fields.items():
            tag = _annotation_tag(annotation)
            if tag is not None:
                tags[field_name] = tag
        # Constructor-assigned fields (``self.inputs = inputs`` in the
        # engine's __init__) get the tag of the assigned expression.
        for method_name in ("__init__", "__post_init__"):
            method = class_info.method(method_name)
            if method is None:
                continue
            walker = _FunctionWalker(self, module, class_info, method, AccessRecord())
            for node in ast.walk(method):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        tag = walker.resolve(node.value)
                        if tag in (
                            "config",
                            "inputs",
                            "dataset",
                            "geo",
                            "delay",
                            "alias",
                        ):
                            tags.setdefault(target.attr, tag)
        return tags

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    def summary(
        self, class_name: str | None, func_name: str, module: str
    ) -> AccessRecord:
        """The merged access record of one function and its core callees."""
        key = (f"{module}:{class_name or ''}", func_name)
        cached = self._summaries.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress:  # recursion: already being accumulated
            return AccessRecord()
        self._in_progress.add(key)
        try:
            record = AccessRecord()
            func, owner, module_info = self._lookup(class_name, func_name, module)
            if func is not None and module_info is not None:
                walker = _FunctionWalker(self, module_info, owner, func, record)
                walker.run()
                for callee_class, callee_func, callee_module in walker.callees:
                    record.merge(
                        self.summary(callee_class, callee_func, callee_module)
                    )
            self._summaries[key] = record
            return record
        finally:
            self._in_progress.discard(key)

    def _lookup(
        self, class_name: str | None, func_name: str, module: str
    ) -> tuple[ast.FunctionDef | None, ClassInfo | None, ModuleInfo | None]:
        if class_name is not None:
            entry = self.core_classes.get(class_name)
            if entry is None:
                return None, None, None
            class_info, module_info = entry
            method = class_info.method(func_name)
            if method is not None:
                return method, class_info, module_info
            # Inherited method (e.g. _RecordingReport -> InferenceReport).
            for base in class_info.base_names:
                if base in self.core_classes:
                    found = self._lookup(base, func_name, module)
                    if found[0] is not None:
                        return found
            return None, None, None
        module_info = self.core_modules.get(module)
        if module_info is None:
            return None, None, None
        for statement in module_info.node.body:
            if isinstance(statement, ast.FunctionDef) and statement.name == func_name:
                return statement, None, module_info
        return None, None, None


class _FunctionWalker:
    """Flow-insensitive walk of one function body, recording tracked reads."""

    def __init__(
        self,
        analyzer: StepDeclAnalyzer,
        module: ModuleInfo,
        owner: ClassInfo | None,
        func: ast.FunctionDef,
        record: AccessRecord,
    ) -> None:
        self.analyzer = analyzer
        self.module = module
        self.owner = owner
        self.func = func
        self.record = record
        self.callees: set[tuple[str | None, str, str]] = set()
        self.env: dict[str, str | None] = {}
        if owner is not None:
            self.env["self"] = f"self:{owner.name}"
        args = func.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            tag = None
            if arg.annotation is not None:
                tag = _annotation_tag(ast.unparse(arg.annotation))
            if tag is None:
                tag = _PARAM_NAME_TAGS.get(arg.arg)
            if arg.arg != "self":
                self.env[arg.arg] = tag

    def run(self) -> None:
        for statement in self.func.body:
            self._stmt(statement)

    # ------------------------------------------------------------------ #
    def _loc(self, node: ast.AST) -> _Loc:
        return (self.module.path, getattr(node, "lineno", 0))

    def _problem(self, node: ast.AST, kind: str, member: str) -> None:
        path, line = self._loc(node)
        self.record.problems.append((path, line, kind, member))

    def _add_callee(self, class_name: str | None, func_name: str) -> None:
        self.callees.add((class_name, func_name, self.module.module))

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #
    def resolve(self, node: ast.expr | None) -> str | None:
        if node is None:
            return None
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            if node.id in self.analyzer.core_classes:
                return f"cls:{node.id}"
            return None
        if isinstance(node, ast.Attribute):
            return self._attr(self.resolve(node.value), node)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.IfExp):
            self.resolve(node.test)
            body = self.resolve(node.body)
            orelse = self.resolve(node.orelse)
            return body if body is not None else orelse
        if isinstance(node, ast.BoolOp):
            tags = [self.resolve(value) for value in node.values]
            return next((tag for tag in tags if tag is not None), None)
        if isinstance(node, ast.NamedExpr):
            tag = self.resolve(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = tag
            return tag
        if isinstance(node, ast.Lambda):
            self.resolve(node.body)
            return None
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            for comp in node.generators:
                self.resolve(comp.iter)
                self._clear_target(comp.target)
                for condition in comp.ifs:
                    self.resolve(condition)
            self.resolve(node.elt)
            return None
        if isinstance(node, ast.DictComp):
            for comp in node.generators:
                self.resolve(comp.iter)
                self._clear_target(comp.target)
                for condition in comp.ifs:
                    self.resolve(condition)
            self.resolve(node.key)
            self.resolve(node.value)
            return None
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.resolve(child)
        return None

    def _attr(self, base: str | None, node: ast.Attribute) -> str | None:
        attr = node.attr
        if base is None:
            return None
        if base == "config":
            self.record.config.setdefault(attr, self._loc(node))
            return None
        if base == "inputs":
            if attr in VERSIONED_INPUT_MEMBERS:
                self.record.inputs.setdefault(attr, self._loc(node))
            if attr in _INPUT_MEMBER_TAGS:
                return _INPUT_MEMBER_TAGS[attr]
            if attr in NEUTRAL_INPUT_MEMBERS:
                return None
            if "InferenceInputs" in self.analyzer.core_classes:
                entry = self.analyzer.core_classes["InferenceInputs"][0]
                if entry.method(attr) is not None:
                    return f"mth:InferenceInputs.{attr}"
            self._problem(node, "unknown-inputs-member", attr)
            return None
        if base == "dataset":
            if attr in DATASET_ACCESSOR_DOMAINS:
                for domain in DATASET_ACCESSOR_DOMAINS[attr]:
                    self.record.domains.setdefault(domain, self._loc(node))
                return None
            if attr in DATASET_FIELD_DOMAINS:
                for domain in DATASET_FIELD_DOMAINS[attr]:
                    self.record.domains.setdefault(domain, self._loc(node))
                return None
            if attr in DATASET_NEUTRAL_MEMBERS:
                return None
            self._problem(node, "unmapped-dataset-member", attr)
            return None
        if base == "geo":
            if attr in GEO_ACCESSOR_DOMAINS:
                for domain in GEO_ACCESSOR_DOMAINS[attr]:
                    self.record.domains.setdefault(domain, self._loc(node))
                return None
            if attr == "dataset":
                return "dataset"
            if attr in GEO_NEUTRAL_MEMBERS:
                return None
            self._problem(node, "unmapped-geo-member", attr)
            return None
        if base.startswith(("self:", "obj:")):
            class_name = base.split(":", 1)[1]
            tags = self.analyzer.field_tags(class_name)
            if attr in tags:
                return tags[attr]
            entry = self.analyzer.core_classes.get(class_name)
            if entry is not None:
                method, _owner, _module = self.analyzer._lookup(
                    class_name, attr, self.module.module
                )
                if method is not None:
                    return f"mth:{class_name}.{attr}"
            return None
        return None

    def _call(self, node: ast.Call) -> str | None:
        for argument in node.args:
            unstarred = (
                argument.value if isinstance(argument, ast.Starred) else argument
            )
            self.resolve(unstarred)
        for keyword in node.keywords:
            self.resolve(keyword.value)
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            qualified = self.module.imports.get(name, "")
            if name == "CorpusDetectionIndex" or qualified.endswith(
                ".CorpusDetectionIndex"
            ):
                for domain in CORPUS_DETECTION_DOMAINS:
                    self.record.domains.setdefault(domain, self._loc(node))
                for member in CORPUS_DETECTION_INPUTS:
                    self.record.inputs.setdefault(member, self._loc(node))
                return None
            if name in self.analyzer.core_classes:
                for hook in ("__init__", "__post_init__"):
                    self._add_callee(name, hook)
                return f"obj:{name}"
            if name in self.env:
                return None
            for statement in self.module.node.body:
                if (
                    isinstance(statement, ast.FunctionDef)
                    and statement.name == name
                ):
                    self._add_callee(None, name)
                    return None
            return None
        if isinstance(func, ast.Attribute):
            tag = self.resolve(func)
            if tag is not None and tag.startswith("mth:"):
                class_name, method_name = tag[4:].split(".", 1)
                self._add_callee(class_name, method_name)
            return None
        self.resolve(func)
        return None

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #
    def _clear_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = None
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._clear_target(element)
        elif isinstance(target, ast.Starred):
            self._clear_target(target.value)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self.resolve(target.value)

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            tag = self.resolve(node.value)
            if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                self.env[node.targets[0].id] = tag
            else:
                for target in node.targets:
                    self._clear_target(target)
        elif isinstance(node, ast.AnnAssign):
            tag = self.resolve(node.value)
            if isinstance(node.target, ast.Name):
                if tag is None and node.annotation is not None:
                    tag = _annotation_tag(ast.unparse(node.annotation))
                self.env[node.target.id] = tag
            else:
                self._clear_target(node.target)
        elif isinstance(node, ast.AugAssign):
            self.resolve(node.value)
            if isinstance(node.target, (ast.Attribute, ast.Subscript)):
                self.resolve(node.target.value)
        elif isinstance(node, ast.Expr):
            self.resolve(node.value)
        elif isinstance(node, ast.Return):
            self.resolve(node.value)
        elif isinstance(node, (ast.If, ast.While)):
            self.resolve(node.test)
            for statement in (*node.body, *node.orelse):
                self._stmt(statement)
        elif isinstance(node, ast.For):
            self.resolve(node.iter)
            self._clear_target(node.target)
            for statement in (*node.body, *node.orelse):
                self._stmt(statement)
        elif isinstance(node, ast.With):
            for item in node.items:
                self.resolve(item.context_expr)
                if item.optional_vars is not None:
                    self._clear_target(item.optional_vars)
            for statement in node.body:
                self._stmt(statement)
        elif isinstance(node, ast.Try):
            for statement in (
                *node.body,
                *node.orelse,
                *node.finalbody,
            ):
                self._stmt(statement)
            for handler in node.handlers:
                for statement in handler.body:
                    self._stmt(statement)
        elif isinstance(node, ast.Raise):
            self.resolve(node.exc)
            self.resolve(node.cause)
        elif isinstance(node, ast.Assert):
            self.resolve(node.test)
            self.resolve(node.msg)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._clear_target(target)
        # Nested defs, imports, pass/break/continue: nothing tracked inside.


def check_step_declarations(tree: SourceTree) -> list[Violation]:
    """Run rule family 1 over a source tree."""
    declarations = parse_step_graph(tree)
    analyzer = StepDeclAnalyzer(tree)
    engine = tree.modules[f"{tree.package}.core.engine"]
    engine_path = tree.display_path(engine.path)
    violations: list[Violation] = []
    seen_problems: set[str] = set()

    for node_name, decl in sorted(declarations.items()):
        method_name = STEP_IMPLEMENTATIONS.get(node_name)
        if method_name is None:
            violations.append(
                Violation(
                    rule="step-decl",
                    kind="missing-implementation",
                    path=engine_path,
                    line=decl.line,
                    context=node_name,
                    detail=node_name,
                    message=(
                        f"STEP_GRAPH node {node_name!r} has no implementation "
                        "mapping in repro.contracts.accessors.STEP_IMPLEMENTATIONS"
                    ),
                )
            )
            continue
        record = analyzer.summary(
            "PipelineEngine", method_name, f"{tree.package}.core.engine"
        )

        def _report(
            kind: str, name: str, loc: _Loc | None, message: str
        ) -> None:
            path = tree.display_path(loc[0]) if loc else engine_path
            line = loc[1] if loc else decl.line
            violations.append(
                Violation(
                    rule="step-decl",
                    kind=kind,
                    path=path,
                    line=line,
                    context=node_name,
                    detail=name,
                    message=message,
                )
            )

        for name in sorted(set(record.config) - set(decl.config_fields)):
            _report(
                "undeclared-config-read",
                name,
                record.config[name],
                f"step {node_name!r} reads InferenceConfig.{name} but does not "
                "declare it in config_fields (the fingerprint cache would miss "
                "changes to it)",
            )
        for name in sorted(set(decl.config_fields) - set(record.config)):
            _report(
                "unused-config-field",
                name,
                None,
                f"step {node_name!r} declares config field {name!r} but never "
                "reads it (over-declaring invalidates its cache needlessly)",
            )
        for name in sorted(set(record.domains) - set(decl.data_domains)):
            _report(
                "undeclared-domain-read",
                name,
                record.domains[name],
                f"step {node_name!r} reads dataset domain {name!r} but does not "
                "declare it in data_domains (journalled changes to it would not "
                "re-key the step's cache)",
            )
        for name in sorted(set(decl.data_domains) - set(record.domains)):
            _report(
                "unused-domain",
                name,
                None,
                f"step {node_name!r} declares dataset domain {name!r} but never "
                "reads it",
            )
        for name in sorted(set(record.inputs) - set(decl.data_inputs)):
            _report(
                "undeclared-input-read",
                name,
                record.inputs[name],
                f"step {node_name!r} reads inputs.{name} but does not declare it "
                "in data_inputs (its version token would not enter the cache key)",
            )
        for name in sorted(set(decl.data_inputs) - set(record.inputs)):
            _report(
                "unused-input",
                name,
                None,
                f"step {node_name!r} declares data input {name!r} but never "
                "reads it",
            )
        for path, line, kind, member in record.problems:
            display = tree.display_path(path)
            dedupe = f"{kind}:{display}:{line}:{member}"
            if dedupe in seen_problems:
                continue
            seen_problems.add(dedupe)
            violations.append(
                Violation(
                    rule="step-decl",
                    kind=kind,
                    path=display,
                    line=line,
                    context=node_name,
                    detail=member,
                    message=(
                        f"{kind.replace('-', ' ')}: {member!r} is not in the "
                        "contract checker's accessor tables "
                        "(repro.contracts.accessors); map it so reads through "
                        "it stay declared"
                    ),
                )
            )
    return violations
