"""The activation (and reactivation) phase.

The :class:`ActivationBuilder` constructs activation trees: starting from a
root AUnit instance it evaluates each activator's activation query, applies
any activation filters (added by inheritance, Figure 12), creates one child
instance per activation tuple, computes the child's input tables with the
activator's input query, and recurses.

The *reactivation* phase (Section 3.2.5) is the same construction with one
difference: an instance whose label already existed before the return phase
and which did not return keeps its local-table contents and its instance ID.
That prior state is supplied to the builder as a *preservation map*.

Reactivation is **proportional to the change** (``docs/caching.md`` § 4):
every activation query consults the engine's activation cache, each instance
records per activator one ``(table, version)`` vector per *query*
(:class:`~repro.runtime.instance.ActivatorRecord`), new children are matched
to the old tree's by label, and four rules decide what work is done:

1. **keep what came out equal** — a recomputed input table equal to the old
   child's is replaced by the *old* ``Table`` object, stamp and all, so
   everything below stays valid and clean old subtrees are re-parented;
2. **do not run what cannot have changed** — a *flat* input assignment
   whose vector is unmoved, for a child with the same full activation
   tuple, adopts the old table without executing;
3. **do not visit who cannot be affected** — the engine skips bystander
   sessions whose root is ``fully_tracked`` while no persistent table moved;
4. **run once what is asked twice** — within one pass (:meth:`sharing`) a
   flat assignment over the same tuple and vector runs once, shared.

With dependency tracking off every vector is absent:
everything executes and nothing is adopted, on the same path.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.errors import ActivationError, HandlerError, UnknownTableError
from repro.hilda.ast import ActivatorDecl, AUnitDecl
from repro.relational.table import Table
from repro.runtime.context import (
    DictCatalog,
    build_read_catalog,
    make_activation_tuple_table,
    run_assignments,
)
from repro.runtime.instance import (
    ActivatorRecord,
    AUnitInstance,
    DepVector,
    InstanceLabel,
    activation_key,
)
from repro.sql.ast import FunctionCall


if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import HildaEngine

__all__ = ["ActivationBuilder", "PreservedInstance", "dep_vector", "deps_current"]


def dep_vector(names, catalog) -> Optional[DepVector]:
    """Resolve table names to a ``(name, version)`` vector (None if any fail)."""
    deps = []
    for name in sorted(names):
        try:
            deps.append((name, catalog.resolve_table(name).version))
        except UnknownTableError:
            return None
    return tuple(deps)


def deps_current(deps: DepVector, catalog) -> bool:
    """True when every table in the vector still resolves to the same version."""
    for name, version in deps:
        try:
            table = catalog.resolve_table(name)
        except UnknownTableError:
            return False
        if table.version != version:
            return False
    return True


def _function_called(node: Any) -> Optional[str]:
    """The first scalar (non-aggregate) function a query AST calls, if any."""
    if isinstance(node, FunctionCall) and not node.is_aggregate:
        return node.name
    if isinstance(node, tuple):
        children: Sequence[Any] = node
    elif dataclasses.is_dataclass(node):
        children = [getattr(node, field.name) for field in dataclasses.fields(node)]
    else:
        return None
    for child in children:
        found = _function_called(child)
        if found is not None:
            return found
    return None


def _keep_equal(old: Optional[Table], new: Table) -> Table:
    """Rule 1: the old table object if it holds exactly what ``new`` does."""
    if old is not None and old.schema == new.schema and old.rows == new.rows:
        return old
    return new


class PreservedInstance:
    """Local state carried over from a surviving instance (same label)."""

    __slots__ = ("instance_id", "local_tables")

    def __init__(self, instance_id: int, local_tables: Dict[str, Table]) -> None:
        self.instance_id = instance_id
        self.local_tables = local_tables


class ActivationBuilder:
    """Builds activation trees for the engine."""

    def __init__(self, engine: "HildaEngine") -> None:
        self.engine = engine
        self.program = engine.program
        #: Cumulative counters (delta-reactivation observability): instances
        #: constructed from scratch vs adopted wholesale from the old tree.
        #: The engine snapshots them around reactivations to report per
        #: operation (:attr:`~repro.runtime.operations.ApplyResult`).
        self.instances_built = 0
        self.instances_reused = 0
        #: (adopted old child, new parent) pairs collected during one build;
        #: the parent pointers are flipped only once the whole tree built
        #: successfully, so a failed rebuild leaves the still-installed old
        #: tree completely untouched.
        self._pending_reparent: List[Tuple[AUnitInstance, AUnitInstance]] = []
        #: Vectors are recorded at all (else every one is absent).
        self._tracked = engine.dependency_tracking
        #: (AUnit, activator) -> per input assignment (tables read, refusal);
        #: see :meth:`_input_plan`.
        self._input_plans: Dict[Tuple[str, str], List[Tuple[FrozenSet[str], Optional[str]]]] = {}
        #: Rule 4's memo; a dict only inside :meth:`sharing`.
        self._memo: Optional[Dict[Tuple, Table]] = None
        #: The tree being built holds a query that cannot be tracked.
        self._untracked = False

    # -- public API ---------------------------------------------------------------

    def build_session_tree(
        self,
        session_id: str,
        input_rows: Dict[str, List[Sequence[Any]]],
        preserved: Optional[Dict[InstanceLabel, PreservedInstance]] = None,
        old_root: Optional[AUnitInstance] = None,
    ) -> AUnitInstance:
        """Build (or rebuild) the activation tree of one session.

        ``old_root`` is the session's previous tree during reactivation;
        under dependency tracking its dependency records drive
        subtree reuse (see module doc).
        """
        with self.engine.id_scope(session_id):
            return self._build_tree(session_id, input_rows, preserved, old_root)

    @contextmanager
    def sharing(self) -> Iterator[None]:
        """One reactivation pass: tree builds inside share flat input results (rule 4)."""
        self._memo = {}
        try:
            yield
        finally:
            self._memo = None

    def _build_tree(
        self,
        session_id: str,
        input_rows: Dict[str, List[Sequence[Any]]],
        preserved: Optional[Dict[InstanceLabel, PreservedInstance]],
        old_root: Optional[AUnitInstance],
    ) -> AUnitInstance:
        preserved = preserved or {}
        delta = old_root is not None and self._tracked
        root_decl = self.program.root
        self.engine.ensure_persistent(root_decl)
        label: InstanceLabel = ("session", session_id)
        root = self._new_instance(
            decl=root_decl,
            label=label,
            parent=None,
            activator=None,
            activation_tuple=None,
            session_id=session_id,
            preserved=preserved,
        )
        root.create_input_tables()
        for table_name, rows in (input_rows or {}).items():
            table = root.input_tables.get(table_name)
            if table is None:
                raise ActivationError(
                    f"root AUnit {root_decl.name!r} has no input table {table_name!r}"
                )
            table.replace(rows)
        if delta:
            # Rule 1 at the root: session inputs are fixed at session start,
            # so the prior root's tables (and stamps) are kept.
            root.input_tables = {
                name: _keep_equal(old_root.input_tables.get(name), table)
                for name, table in root.input_tables.items()
            }
        self._untracked = False
        self._initialise_local(root, preserved)
        self._pending_reparent = []
        self._activate_children(root, preserved, old_root if delta else None)
        root.fully_tracked = not self._untracked
        # Commit point: only now that the whole tree built without raising is
        # the old tree mutated (adopted subtrees re-parented into the new
        # one).  An exception above leaves the installed tree untouched.
        for adopted, new_parent in self._pending_reparent:
            adopted.parent = new_parent
        self._pending_reparent = []
        return root

    # -- instance construction --------------------------------------------------------

    def _new_instance(
        self,
        decl: AUnitDecl,
        label: InstanceLabel,
        parent: Optional[AUnitInstance],
        activator: Optional[ActivatorDecl],
        activation_tuple: Optional[Tuple[Any, ...]],
        session_id: Optional[str],
        preserved: Dict[InstanceLabel, PreservedInstance],
    ) -> AUnitInstance:
        prior = preserved.get(label)
        instance_id = prior.instance_id if prior is not None else self.engine.next_instance_id()
        self.instances_built += 1
        return AUnitInstance(
            instance_id=instance_id,
            label=label,
            decl=decl,
            parent=parent,
            activator_name=activator.name if activator is not None else None,
            child_ref_name=activator.child.name if activator is not None else None,
            activation_tuple=activation_tuple,
            activation_schema=activator.activation_schema if activator is not None else None,
            session_id=session_id,
        )

    def _initialise_local(
        self,
        instance: AUnitInstance,
        preserved: Dict[InstanceLabel, PreservedInstance],
    ) -> None:
        """Initialise (or carry over) the instance's local tables."""
        prior = preserved.get(instance.label)
        if prior is not None and not instance.decl.synchronized:
            instance.adopt_local_tables(prior.local_tables)
            # Tables added to the schema after the snapshot (only possible for
            # programmatically constructed programs) are created empty.
            for schema in instance.decl.local_schema:
                if schema.name not in instance.local_tables:
                    instance.local_tables[schema.name] = Table(schema)
            return

        instance.create_local_tables()
        if not instance.decl.local_query:
            instance.local_deps = ()
            return
        persist = self.engine.persist_tables(instance.decl.name)
        catalog = build_read_catalog(instance, persist, include_output=False)
        tracker: Optional[Set[str]] = set() if self.engine.dependency_tracking else None
        run_assignments(
            instance.decl.local_query,
            catalog,
            self.engine.functions,
            lambda assignment: instance.local_tables.get(assignment.simple_target),
            location=f"{instance.decl.name}.local_query",
            executor_factory=self.engine.make_executor,
            read_tracker=tracker,
        )
        if tracker is not None:
            if any(
                self.engine.query_is_global(assignment.query.query)
                for assignment in instance.decl.local_query
            ):
                instance.local_deps = None  # cross-shard read: untrackable
            else:
                instance.local_deps = dep_vector(tracker, catalog)
        if instance.decl.synchronized and instance.local_deps is None:
            self._untracked = True

    # -- children ------------------------------------------------------------------------

    def _activate_children(
        self,
        instance: AUnitInstance,
        preserved: Dict[InstanceLabel, PreservedInstance],
        old_node: Optional[AUnitInstance] = None,
    ) -> None:
        if not instance.decl.activators:
            return
        persist = self.engine.persist_tables(instance.decl.name)
        catalog = build_read_catalog(instance, persist, include_output=False)
        for activator in instance.decl.activators:
            child_decl = self.program.resolve_child(activator.child)
            self.engine.ensure_persistent(child_decl)
            self._activate(instance, activator, child_decl, catalog, preserved, old_node)

    def _activate(
        self,
        instance: AUnitInstance,
        activator: ActivatorDecl,
        child_decl: AUnitDecl,
        catalog: DictCatalog,
        preserved: Dict[InstanceLabel, PreservedInstance],
        old_node: Optional[AUnitInstance],
    ) -> None:
        """Build one activator's children, matched by label to the old tree's.

        The single (re)activation path; the four rules of the module doc
        decide per query whether it runs and per child whether it is built.
        ``catalog`` is the instance's read catalog.
        """
        old = old_node.activator_records.get(activator.name) if old_node is not None else None
        old_list = [
            child
            for child in (old_node.children if old_node is not None else ())
            if child.activator_name == activator.name
        ]
        old_children = {child.label: child for child in old_list}
        old_tuples = [child.activation_tuple for child in old_list]

        was_tracked = old is not None and old.act is not None
        current = was_tracked and deps_current(old.act, catalog)
        tuples, read_names = self._activation_tuples(
            instance, activator, catalog, old_tuples if current else None
        )
        act = dep_vector(read_names, catalog) if self._tracked and read_names is not None else None

        # The tables an assignment reads are static; resolve them once per
        # activator and pass, and call a vector unmoved only when the
        # resolved vector equals the recorded one.
        vectors: List[Optional[DepVector]] = []
        if tuples and activator.input_query:
            plan = self._input_plan(instance, activator, child_decl, tuples[0])
            vectors = [
                dep_vector(names, catalog) if refusal is None else None
                for names, refusal in plan
            ]
        old_inputs = old.inputs if old is not None else None

        all_kept = True
        for activation_tuple in tuples:
            key = activation_key(activator.activation_schema, activation_tuple)
            label: InstanceLabel = (instance.label, activator.name, key)
            old_child = old_children.get(label)
            # Same key but different non-key columns: the child's inputs may
            # depend on them, so nothing recorded for it can be trusted.
            same = old_child is not None and old_child.activation_tuple == activation_tuple
            tables = self._child_inputs(
                instance, activator, child_decl, activation_tuple,
                vectors, old_child, old_inputs if same else None,
            )
            kept = same and all(
                table is old_child.input_tables.get(name) for name, table in tables.items()
            )
            all_kept = all_kept and kept
            if kept and self._subtree_clean(old_child):
                self._pending_reparent.append((old_child, instance))
                instance.children.append(old_child)
                self.instances_reused += sum(1 for _ in old_child.walk())
                continue
            child = self._new_instance(
                decl=child_decl,
                label=label,
                parent=instance,
                activator=activator,
                activation_tuple=activation_tuple,
                session_id=instance.session_id,
                preserved=preserved,
            )
            child.input_tables = tables
            instance.children.append(child)
            self._initialise_local(child, preserved)
            self._activate_children(child, preserved, old_child)

        inputs = tuple(vectors) if tuples else None
        instance.activator_records[activator.name] = ActivatorRecord(act, inputs)
        if act is None or (inputs is not None and None in inputs):
            self._untracked = True
        if was_tracked and not current and all_kept and tuples == old_tuples:
            # The write moved a table the activation query reads but not
            # this query's answer, nor any child's inputs.
            self.engine.maintenance_stats.results_unchanged += 1

    # -- child inputs ---------------------------------------------------------------------

    def _input_plan(
        self,
        instance: AUnitInstance,
        activator: ActivatorDecl,
        child_decl: AUnitDecl,
        activation_tuple: Optional[Tuple[Any, ...]],
    ) -> List[Tuple[FrozenSet[str], Optional[str]]]:
        """Per input assignment: the tables it reads and why it is not *flat*.

        Static per activator, so decided once (at the first child any
        session builds) and declared up front rather than discovered by
        runtime bailouts.  A flat assignment is a function of its activation
        tuple and the tables named here, which is what lets rules 2 and 4
        skip or share it; a refusal (None = flat) names the reason it must
        run for every child on every rebuild instead.
        """
        key = (instance.decl.name, activator.name)
        plan = self._input_plans.get(key)
        if plan is not None:
            return plan
        catalog = self._child_catalog(instance, activator, child_decl, activation_tuple, {})
        executor = self.engine.make_executor(catalog)
        prefix = activator.child.name
        synthetic = {"activationTuple"}
        synthetic.update(f"{prefix}.{schema.name}" for schema in child_decl.input_schema)
        blanket = None
        if not self._tracked:
            blanket = "untracked"
        elif activator.activation_filters:
            blanket = "activation filters"
        plan = []
        assigned: Set[str] = set()
        for assignment in activator.input_query:
            query = assignment.query.query
            reads = executor.read_set(query)
            refusal = blanket
            if refusal is None:
                function = _function_called(query)
                if function is not None:
                    refusal = f"calls {function}()"
                elif reads & assigned:
                    refusal = f"reads {min(reads & assigned)} assigned earlier in the block"
                elif self.engine.query_is_global(query):
                    refusal = "cross-shard"
            plan.append((frozenset(reads - synthetic), refusal))
            assigned.add(f"{prefix}.{assignment.simple_target}")
        self._input_plans[key] = plan
        return plan

    def _child_catalog(
        self,
        instance: AUnitInstance,
        activator: ActivatorDecl,
        child_decl: AUnitDecl,
        activation_tuple: Optional[Tuple[Any, ...]],
        tables: Dict[str, Table],
    ) -> DictCatalog:
        """The namespace of an input query: the parent's tables, the tuple, the child's."""
        tuple_table = None
        if activator.activation_schema is not None and activation_tuple is not None:
            tuple_table = make_activation_tuple_table(
                activator.activation_schema, activation_tuple
            )
        # The child's input tables are readable under their qualified names so
        # later assignments of the same input query may refer to earlier ones.
        child_qualified = {
            f"{activator.child.name}.{schema.name}": (
                tables[schema.name] if schema.name in tables else Table(schema)
            )
            for schema in child_decl.input_schema
        }
        return build_read_catalog(
            instance,
            self.engine.persist_tables(instance.decl.name),
            activation_tuple=tuple_table,
            child_tables=child_qualified,
            include_output=False,
        )

    def _child_inputs(
        self,
        instance: AUnitInstance,
        activator: ActivatorDecl,
        child_decl: AUnitDecl,
        activation_tuple: Optional[Tuple[Any, ...]],
        vectors: List[Optional[DepVector]],
        old_child: Optional[AUnitInstance],
        old_inputs: Optional[Tuple[Optional[DepVector], ...]],
    ) -> Dict[str, Table]:
        """The input tables of one child: adopted, shared, or computed.

        ``old_child`` is the old tree's child with the same label (rule 1
        keeps any of its tables that come out equal); ``old_inputs`` the
        vectors recorded for it, given only when its *full* activation
        tuple is unchanged (rule 2 adopts a table unexecuted).  Tables of
        the still-installed tree are never mutated — only referenced.
        """
        location = f"{instance.decl.name}.{activator.name}.input_query"
        schemas = {schema.name: schema for schema in child_decl.input_schema}
        old_tables = old_child.input_tables if old_child is not None else {}
        tables: Dict[str, Table] = {}
        catalog: Optional[DictCatalog] = None
        executor = None
        for index, assignment in enumerate(activator.input_query):
            name = assignment.simple_target
            schema = schemas.get(name)
            if schema is None:
                raise HandlerError(
                    f"{location}: assignment target {assignment.target!r} is not writable here"
                )
            vector = vectors[index]
            if vector is not None and old_inputs is not None and old_inputs[index] == vector:
                table = old_tables[name]  # rule 2: unmoved, adopted unexecuted
            else:
                memo = self._memo if vector is not None else None  # rule 4: flat only
                memo_key = (instance.decl.name, activator.name, index, activation_tuple, vector)
                table = memo.get(memo_key) if memo is not None else None
                if table is None:
                    if executor is None:
                        catalog = self._child_catalog(
                            instance, activator, child_decl, activation_tuple, tables
                        )
                        executor = self.engine.make_executor(catalog)
                    relation = executor.execute_query(assignment.query.query)
                    table = Table(schema)
                    try:
                        table.replace(relation.rows)
                    except Exception as exc:
                        raise HandlerError(
                            f"{location}: assignment to {assignment.target!r} failed: {exc}"
                        ) from exc
                    if memo is not None:
                        memo[memo_key] = table
                table = _keep_equal(old_tables.get(name), table)  # rule 1
            tables[name] = table
            if catalog is not None:
                catalog.add(f"{activator.child.name}.{name}", table, overwrite=True)
        for name, schema in schemas.items():
            if name not in tables:
                tables[name] = _keep_equal(old_tables.get(name), Table(schema))
        return tables

    def _subtree_clean(self, node: AUnitInstance) -> bool:
        """True when a whole old subtree can be adopted as-is.

        Requires that no instance in the subtree returned, and that every
        recorded vector (each activator's queries, plus the local query for
        synchronized AUnits) still matches the current table versions.
        The vectors resolve against the node's *own* catalog, whose tables
        are the very objects being adopted, so a reused subtree is exactly
        the tree a full rebuild would have produced.
        """
        if node.returned:
            return False
        if node.decl.synchronized or node.decl.activators:
            persist = self.engine.persist_tables(node.decl.name)
            catalog = build_read_catalog(node, persist, include_output=False)
            if node.decl.synchronized:
                if node.local_deps is None or not deps_current(node.local_deps, catalog):
                    return False
            for activator in node.decl.activators:
                record = node.activator_records.get(activator.name)
                if record is None:
                    return False
                for vector in (record.act, *(record.inputs or ())):
                    if vector is None or not deps_current(vector, catalog):
                        return False
        return all(self._subtree_clean(child) for child in node.children)

    # -- activation queries -------------------------------------------------------------

    def _activation_tuples(
        self,
        instance: AUnitInstance,
        activator: ActivatorDecl,
        catalog: DictCatalog,
        unmoved: Optional[List[Optional[Tuple[Any, ...]]]] = None,
    ) -> Tuple[List[Optional[Tuple[Any, ...]]], Optional[Set[str]]]:
        """The activation tuples of one activator (None = single unconditional child).

        Also returns the names of the tables read while computing them — the
        activation query's footprint — or None when the footprint cannot be
        tracked (activation filters run per-row queries whose reads are not
        recorded).  ``unmoved`` is the old tree's tuples when the recorded
        vector is still current: what the query would return, used when the
        activation cache has no entry to serve instead.
        """
        track = self.engine.dependency_tracking
        if activator.activation_query is None:
            if activator.activation_filters:
                # A filtered activator without an activation query activates
                # its single child only when every filter returns rows.
                executor = self.engine.make_executor(catalog)
                for filter_block in activator.activation_filters:
                    if not executor.execute_query(filter_block.query).rows:
                        return [], None
                return [None], None
            return [None], (set() if track else None)

        executor = self.engine.make_executor(catalog)
        query = activator.activation_query.query
        query_reads: Optional[Set[str]] = set(executor.read_set(query)) if track else None
        if query_reads is not None and self.engine.query_is_global(query):
            query_reads = None  # cross-shard read: local versions can't witness it
        cached = self.engine.activation_cache_lookup(
            instance, activator, catalog, executor=executor
        )
        if cached is not None:
            rows = cached
        elif unmoved is not None:
            rows = unmoved
        else:
            try:
                rows = executor.execute_query(query).as_tuples()
            except Exception as exc:
                raise ActivationError(
                    f"activation query of {instance.decl.name}.{activator.name} failed: {exc}"
                ) from exc
            self.engine.activation_cache_store(
                instance, activator, rows, query_reads, catalog,
                query=query, executor=executor,
            )

        if not activator.activation_filters:
            return list(rows), query_reads

        persist = self.engine.persist_tables(instance.decl.name)
        schema = activator.activation_schema
        kept: List[Optional[Tuple[Any, ...]]] = []
        for row in rows:
            tuple_table = make_activation_tuple_table(schema, row)
            filter_catalog = build_read_catalog(
                instance, persist, activation_tuple=tuple_table, include_output=False
            )
            filter_executor = self.engine.make_executor(filter_catalog)
            if all(
                filter_executor.execute_query(filter_block.query).rows
                for filter_block in activator.activation_filters
            ):
                kept.append(row)
        return kept, None
