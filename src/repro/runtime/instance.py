"""AUnit instances and their labels.

An :class:`AUnitInstance` is one live activation of an AUnit (Section 3.2.3
of the paper).  It owns its *input* tables (computed by the parent's input
query), its *local* tables (initialised by the local query, preserved across
reactivation while the instance survives) and — once it returns — its
*output* tables.  Persistent tables are *not* stored here: they are shared
by all instances of an AUnit type and live in the engine's persistent store.

Every instance has

* an **ID**: unique for the lifetime of the engine; a new ID is assigned
  every time an instance is (re)activated from scratch, and the same ID is
  retained across reactivations while the instance survives.  User actions
  are addressed to IDs, which is what makes conflict detection work
  (Section 3.2.6).
* a **label**: the path that identifies the instance structurally — the
  parent's label plus the activator name plus the key of its activation
  tuple (Definition 6).  Labels are what the reactivation phase matches old
  and new instances on.

Instances additionally carry the **dependency records** reactivation
consults (``docs/caching.md``): one :class:`ActivatorRecord` per activator —
a ``(table name, version)`` vector per *query*, i.e. one for the activation
query and one for each input assignment — and a vector for the instance's
own local query.  A query whose vector is unmoved is not re-run, and a
subtree whose vectors are all still current is reused wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.hilda.ast import AUnitDecl
from repro.relational.schema import TableSchema
from repro.relational.table import Table

__all__ = ["InstanceLabel", "DepVector", "ActivatorRecord", "AUnitInstance", "activation_key"]

#: A label is a nested tuple: ("session", session_id) for roots and
#: (parent_label, activator_name, activation_key) for children.
InstanceLabel = Tuple[Any, ...]

#: A dependency version vector: ``((table name, version), ...)`` sorted by name.
DepVector = Tuple[Tuple[str, int], ...]


class ActivatorRecord(NamedTuple):
    """What one activator's queries read when its children were built.

    A vector of None means the query cannot be tracked (activation filters,
    a cross-shard read, a non-flat input assignment, tracking off): it is
    re-run on every rebuild and its subtree is never adopted wholesale.
    """

    #: The activation query's vector.
    act: Optional[DepVector]
    #: One vector per input assignment, in block order.  None while the
    #: activator has no children: nothing ran, so nothing is known — never
    #: the empty vector, which would read as "depends on nothing".
    inputs: Optional[Tuple[Optional[DepVector], ...]]


def activation_key(schema: Optional[TableSchema], values: Optional[Sequence[Any]]) -> Tuple[Any, ...]:
    """The key of an activation tuple used for labels and reactivation matching.

    Definition 8 of the paper compares activation tuples "by their primary
    key".  When the activation schema declares an explicit key we use it;
    otherwise the first column acts as the key, which matches the paper's
    examples (the id column always comes first).  Activators without an
    activation schema activate a single child, whose key is the empty tuple.
    """
    if schema is None or values is None:
        return ()
    if schema.primary_key:
        return tuple(values[position] for position in schema.key_positions())
    return (values[0],)


class AUnitInstance:
    """One activation of an AUnit in the activation forest."""

    __slots__ = (
        "instance_id",
        "label",
        "decl",
        "parent",
        "activator_name",
        "child_ref_name",
        "activation_tuple",
        "activation_schema",
        "input_tables",
        "local_tables",
        "output_tables",
        "children",
        "session_id",
        "returned",
        "activator_records",
        "local_deps",
        "fully_tracked",
    )

    def __init__(
        self,
        instance_id: int,
        label: InstanceLabel,
        decl: AUnitDecl,
        parent: Optional["AUnitInstance"] = None,
        activator_name: Optional[str] = None,
        child_ref_name: Optional[str] = None,
        activation_tuple: Optional[Tuple[Any, ...]] = None,
        activation_schema: Optional[TableSchema] = None,
        session_id: Optional[str] = None,
    ) -> None:
        self.instance_id = instance_id
        self.label = label
        self.decl = decl
        self.parent = parent
        self.activator_name = activator_name
        self.child_ref_name = child_ref_name
        self.activation_tuple = activation_tuple
        self.activation_schema = activation_schema
        self.input_tables: Dict[str, Table] = {}
        self.local_tables: Dict[str, Table] = {}
        self.output_tables: Dict[str, Table] = {}
        self.children: List["AUnitInstance"] = []
        self.session_id = session_id if session_id is not None else (
            parent.session_id if parent is not None else None
        )
        #: Set during the return phase when this instance returns.
        self.returned = False
        #: activator name -> the per-query vectors recorded while the
        #: activator's children were built (see module doc).
        self.activator_records: Dict[str, ActivatorRecord] = {}
        #: Dependency version vector of the local query (None = not recorded).
        self.local_deps: Optional[DepVector] = None
        #: Roots only: every query of the session's tree is tracked, so while
        #: no persistent table moves the tree is what a rebuild would produce.
        self.fully_tracked = False

    # -- structure ---------------------------------------------------------------

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def is_basic(self) -> bool:
        return self.decl.is_basic

    @property
    def aunit_name(self) -> str:
        return self.decl.name

    @property
    def depth(self) -> int:
        depth = 0
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def walk(self) -> Iterator["AUnitInstance"]:
        """This instance and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find_children(
        self, aunit_name: Optional[str] = None, activator: Optional[str] = None
    ) -> List["AUnitInstance"]:
        """Direct children filtered by AUnit name and/or activator name."""
        result = []
        for child in self.children:
            if aunit_name is not None and child.aunit_name != aunit_name:
                if child.decl.basic_kind != aunit_name:
                    continue
            if activator is not None and child.activator_name != activator:
                continue
            result.append(child)
        return result

    def find_descendants(self, aunit_name: str) -> List["AUnitInstance"]:
        """All descendants whose AUnit (or Basic AUnit kind) matches ``aunit_name``."""
        return [
            node
            for node in self.walk()
            if node is not self
            and (node.aunit_name == aunit_name or node.decl.basic_kind == aunit_name)
        ]

    # -- schema bootstrap -----------------------------------------------------------

    def create_input_tables(self) -> None:
        """Create empty input tables for every table of the input schema."""
        self.input_tables = {
            schema.name: Table(schema) for schema in self.decl.input_schema
        }

    def create_local_tables(self) -> None:
        self.local_tables = {
            schema.name: Table(schema) for schema in self.decl.local_schema
        }

    def create_output_tables(self) -> None:
        """Create empty output tables (called when the instance is about to return)."""
        self.output_tables = {
            schema.name: Table(schema) for schema in self.decl.output_schema
        }

    def adopt_local_tables(self, tables: Dict[str, Table]) -> None:
        """Take over the local-table contents of a surviving prior incarnation."""
        self.local_tables = {name: table.copy() for name, table in tables.items()}

    # -- presentation helpers ------------------------------------------------------------

    def describe(self) -> str:
        """A compact one-line description used in tree dumps and examples."""
        extra = ""
        if self.activation_tuple is not None:
            extra = f" {tuple(self.activation_tuple)}"
        via = f" via {self.activator_name}" if self.activator_name else ""
        return f"{self.aunit_name}[id={self.instance_id}]{extra}{via}"

    def tree_lines(self, indent: int = 0) -> List[str]:
        lines = ["  " * indent + self.describe()]
        for child in self.children:
            lines.extend(child.tree_lines(indent + 1))
        return lines

    def render_tree(self) -> str:
        """An ASCII rendering of the activation (sub)tree rooted here."""
        return "\n".join(self.tree_lines())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AUnitInstance({self.describe()})"
