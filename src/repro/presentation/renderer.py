"""Recursive HTML rendering of activation trees.

This is the runtime analogue of the generated ``toHTML`` methods described
in Section 6.1 of the paper: the page for a session is produced by rendering
the root AUnit instance, which recursively renders its child instances.

For a User-Defined AUnit the renderer uses the program's PUnit when one is
declared (substituting each ``<punit activator=...>`` placeholder with the
concatenated renderings of the child instances created by that activator) or
falls back to a generic layout.  Basic AUnit instances are rendered by their
default Basic PUnits (:mod:`repro.presentation.default_punits`).

The renderer optionally caches rendered fragments — the "entire HTML pages
or fragments ... can be cached" optimization of Section 6.2.  Under
dependency tracking (the default) a fragment is keyed on the instance's
**transitive dependency fingerprint**: a structural hash over the subtree's
instance IDs and the version stamps of every table the subtree renders
from.  A write bumps only the versions of the tables it touches and delta
reactivation keeps unaffected subtrees' table objects alive, so a write to
``grades`` no longer evicts cached pages that only read ``courses`` — the
fingerprints of untouched subtrees are simply unchanged.  The coarse mode
(``dependency_tracking=False``) reproduces the old behaviour of keying on
the engine-global state version.  The cache holds **one entry per
(instance, PUnit)** — a new version of a fragment overwrites the old one —
is LRU-bounded, and sweeps out entries of instances the forest no longer
knows whenever it has doubled since the last sweep; see ``docs/caching.md``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.config import DEFAULT_FRAGMENT_CACHE_SIZE
from repro.hilda.ast import PUnitDecl, PUnitInclude
from repro.hilda.punit_parser import split_template
from repro.presentation.default_punits import DEFAULT_ACTION_URL, render_basic_instance
from repro.presentation.html import escape, tag
from repro.sql.stats import CacheStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import HildaEngine
    from repro.runtime.instance import AUnitInstance

__all__ = ["PageRenderer", "RenderStats"]


class RenderStats(CacheStats):
    """Fragment-cache counters plus the number of fragments actually rendered.

    ``cache_hits`` / ``cache_misses`` / ``cache_evictions`` alias the
    :class:`~repro.sql.stats.CacheStats` counters under the names the
    benchmarks historically used.
    """

    def __init__(self) -> None:
        super().__init__()
        self.fragments_rendered = 0

    @property
    def cache_hits(self) -> int:
        return self.hits

    @property
    def cache_misses(self) -> int:
        return self.misses

    @property
    def cache_evictions(self) -> int:
        return self.evictions

    def reset(self) -> None:
        super().reset()
        self.fragments_rendered = 0

    def as_dict(self) -> dict:
        data = super().as_dict()
        data["fragments_rendered"] = self.fragments_rendered
        return data


class PageRenderer:
    """Renders activation (sub)trees to HTML.

    Parameters
    ----------
    cache_fragments:
        Cache rendered fragments between requests (Section 6.2).
    fragment_cache_size:
        Bound on the fragment cache in entries (LRU eviction past the
        bound; None = unbounded).
    """

    def __init__(
        self,
        engine: "HildaEngine",
        action_url: str = DEFAULT_ACTION_URL,
        cache_fragments: bool = False,
        fragment_cache_size: Optional[int] = DEFAULT_FRAGMENT_CACHE_SIZE,
    ) -> None:
        self.engine = engine
        self.program = engine.program
        self.action_url = action_url
        self.cache_fragments = cache_fragments
        #: Key cached fragments on the subtree's dependency fingerprint
        #: (else on the engine-global state version), as the engine does.
        self.dependency_tracking = engine.dependency_tracking
        self.fragment_cache_size = fragment_cache_size
        self.stats = RenderStats()
        #: (instance id, PUnit name) -> (stamp, html): the fragment as last
        #: rendered, valid while the stamp is the instance's current one.
        self._fragment_cache: "OrderedDict[Tuple, Tuple[int, str]]" = OrderedDict()
        #: Size right after the last sweep of dead instances' entries.
        self._swept_size = 0
        #: Guards the fragment cache and its hit/miss counters when several
        #: request threads render concurrently (see docs/concurrency.md).
        self._cache_lock = threading.Lock()

    # -- public API -------------------------------------------------------------

    def render_session(self, session_id: str) -> str:
        """Render the full page for one session.

        The whole render happens under the engine's read lock so a
        concurrent operation cannot reactivate the forest (or rewrite the
        tables the page is reading) midway through the page.
        """
        self.engine.session_tree(session_id)  # rebuild first if stale (lazy mode)
        with self.engine.read_locked():
            root = self.engine.forest.root_for_session(session_id)
            body = self.render_instance(root)
        return (
            "<!DOCTYPE html>\n"
            + tag(
                "html",
                tag("head", tag("title", escape(f"Hilda - {self.program.root_name}")))
                + tag("body", body),
            )
        )

    def render_instance(
        self,
        instance: "AUnitInstance",
        punit_name: Optional[str] = None,
        _memo: Optional[Dict[int, int]] = None,
    ) -> str:
        """Render one AUnit instance (and its subtree) to an HTML fragment."""
        if self.cache_fragments:
            if _memo is None:
                _memo = {}
            if self.dependency_tracking:
                stamp = self._fingerprint(instance, _memo)
            else:
                stamp = self.engine.state_version
            cache_key = (instance.instance_id, punit_name)
            with self._cache_lock:
                cached = self._fragment_cache.get(cache_key)
                if cached is not None and cached[0] == stamp:
                    self._fragment_cache.move_to_end(cache_key)
                    self.stats.hits += 1
                    return cached[1]
                self.stats.misses += 1

        fragment = self._render_fragment(instance, punit_name, _memo)

        if self.cache_fragments:
            with self._cache_lock:
                cache = self._fragment_cache
                cache[cache_key] = (stamp, fragment)
                cache.move_to_end(cache_key)
                if self.fragment_cache_size is not None:
                    while len(cache) > self.fragment_cache_size:
                        cache.popitem(last=False)
                        self.stats.evictions += 1
                if len(cache) > 2 * self._swept_size + 64:
                    self._sweep_dead()
        return fragment

    def _sweep_dead(self) -> None:
        """Drop the fragments of instances that left the forest.

        Runs when the cache has doubled since the last sweep, so its cost
        is amortised O(1) per stored fragment and the cache stays within
        twice the live forest (plus slack) whatever the LRU bound.
        """
        forest = self.engine.forest
        for key in [key for key in self._fragment_cache if not forest.has_instance(key[0])]:
            del self._fragment_cache[key]
        self._swept_size = len(self._fragment_cache)

    def clear_cache(self) -> None:
        with self._cache_lock:
            self._fragment_cache.clear()
            self._swept_size = 0

    # -- internals -----------------------------------------------------------------

    def _render_fragment(
        self,
        instance: "AUnitInstance",
        punit_name: Optional[str],
        memo: Optional[Dict[int, int]],
    ) -> str:
        self.stats.fragments_rendered += 1
        if instance.is_basic:
            return render_basic_instance(instance, self.action_url)
        punit = self._punit_for(instance, punit_name)
        if punit is not None:
            return self._render_with_punit(instance, punit, memo)
        return self._render_default(instance, memo)

    def _fingerprint(self, instance: "AUnitInstance", memo: Dict[int, int]) -> int:
        """A structural hash over everything this instance's fragment reads.

        Covers, transitively: instance identity (ID, declaration, activator,
        activation tuple, returned flag) and the version stamps of the
        instance's input/local/output tables, plus the fingerprints of its
        children.  A write anywhere below changes some table version (or the
        child set), so fragments can only be reused while their whole
        subtree is untouched — which delta reactivation makes the common
        case for sessions a write did not affect.  ``memo`` deduplicates the
        recursion within one render pass.
        """
        key = id(instance)
        cached = memo.get(key)
        if cached is not None:
            return cached
        versions = tuple(
            table.version
            for tables in (instance.input_tables, instance.local_tables, instance.output_tables)
            for table in tables.values()
        )
        fingerprint = hash(
            (
                instance.instance_id,
                instance.decl.name,
                instance.activator_name,
                instance.activation_tuple,
                instance.returned,
                versions,
                tuple(self._fingerprint(child, memo) for child in instance.children),
            )
        )
        memo[key] = fingerprint
        return fingerprint

    def _punit_for(
        self, instance: "AUnitInstance", punit_name: Optional[str]
    ) -> Optional[PUnitDecl]:
        if punit_name:
            named = self.program.punit(punit_name)
            if named is not None:
                return named
        return self.program.default_punit_for(instance.decl.name)

    def _render_with_punit(
        self,
        instance: "AUnitInstance",
        punit: PUnitDecl,
        memo: Optional[Dict[int, int]],
    ) -> str:
        parts = []
        for piece in split_template(punit.template):
            if isinstance(piece, PUnitInclude):
                parts.append(self._render_activator_children(instance, piece, memo))
            else:
                parts.append(piece)
        return "".join(parts)

    def _render_activator_children(
        self,
        instance: "AUnitInstance",
        include: PUnitInclude,
        memo: Optional[Dict[int, int]],
    ) -> str:
        children = [
            child for child in instance.children if child.activator_name == include.activator
        ]
        rendered = [
            self.render_instance(child, include.punit_name, _memo=memo)
            for child in children
        ]
        return "\n".join(rendered)

    def _render_default(
        self, instance: "AUnitInstance", memo: Optional[Dict[int, int]]
    ) -> str:
        """Generic layout for AUnits without a PUnit: children grouped by activator."""
        sections = [tag("h2", escape(instance.decl.name))]
        for activator in instance.decl.activators:
            children = [
                child
                for child in instance.children
                if child.activator_name == activator.name
            ]
            if not children:
                continue
            rendered_children = "\n".join(
                self.render_instance(child, _memo=memo) for child in children
            )
            sections.append(
                tag(
                    "section",
                    tag("h3", escape(activator.name)) + rendered_children,
                    **{"class": "hilda-activator", "data-activator": activator.name},
                )
            )
        return tag(
            "div",
            "".join(sections),
            **{"class": "hilda-aunit", "data-aunit": instance.decl.name,
               "data-instance": instance.instance_id},
        )
