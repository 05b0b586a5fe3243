"""Generation-stamped dataset versioning with typed change journals.

The reproduction's hot paths are all served from derived indexes — the LPM
tables over prefixes (:mod:`repro.netindex`), the geodesic-distance memos
(:mod:`repro.geo.distindex`), the per-container accessor views and the
step-result cache of the execution engine (:mod:`repro.core.engine`).  Before
this module each layer policed staleness with its own hand-rolled contract: a
``(size-when-built, payload)`` guard here, a manual cache reset there, a
"build a fresh engine" rule elsewhere.  The three contracts drifted, and the
size guard had a documented trap: replacing a value in place at unchanged
size was invisible until someone remembered the manual call.

This module is the single versioning layer the other subsystems share:

* :class:`Versioned` — a mixin giving a mutable container one monotonically
  increasing **generation stamp** plus per-**domain** stamps (a domain is a
  named slice of the container, e.g. ``"ixp_prefixes"`` or
  ``"facility_locations"``).  Mutators either *record* a typed change (the
  journalled path) or *bump* opaquely (something changed, nothing precise is
  known).
* :class:`Change` / :class:`ChangeKind` — one typed add / remove / replace
  record, naming its domain, key and both values.
* :class:`ChangeJournal` — the ordered, bounded record of changes between two
  generations.  Consumers that remember the generation they last synced to
  ask :meth:`ChangeJournal.since` for the changes they missed and patch their
  derived state *incrementally*; a ``None`` answer (an opaque bump happened,
  or the journal was truncated past its bound) means replay is impossible and
  the consumer must rebuild from scratch.  An answer is complete by
  construction: every mutation either appended a record or raised the floor.
* :class:`GenerationGuardedIndex` — the successor of the retired
  ``SizeGuardedIndex``: a lazily built payload guarded by an explicit
  **version token** instead of a bare size.  The conventional token is the
  owner's (domain) generation, so every mutation through a container's
  mutators re-keys the payload, in-place replacement at unchanged size
  included.  (The unversioned result containers, which never drop a key,
  use their key count.)

Invariants consumers rely on:

1. **Monotonicity** — generation stamps only ever increase; equal stamps
   mean "nothing changed".
2. **Journal completeness** — ``journal.since(g)`` either returns *every*
   change after generation ``g`` (filtered to the requested domains) or
   ``None``; it never silently drops a record.
3. **One write path** — a versioned container's public collections are
   read-only views (``types.MappingProxyType``, tuples, frozensets), so its
   mutators are the only way to change it and every change moves its
   generation.  ``bump_generation()`` (the opaque path, for appends nothing
   replays precisely) raises the journal floor, so consumers fall back to a
   full rebuild instead of patching against an unknown mutation.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from threading import Lock
from typing import Callable, Generic, Hashable, Iterable, TypeVar

P = TypeVar("P")

#: Journal records kept before the oldest are dropped (raising the floor).
#: Bulk loads (a full dataset merge) blow through the bound by design:
#: consumers created afterwards sync from the current generation anyway.
DEFAULT_JOURNAL_BOUND = 4096

#: Serialises lazy journal creation by concurrent caller threads.
#: :class:`Versioned` deliberately has no per-instance ``__init__`` (see its
#: docstring), so a module-level lock is the only home for the guard;
#: creation happens at most once per container, so the sharing is harmless.
_JOURNAL_CREATION_LOCK = Lock()


class ChangeKind(enum.Enum):
    """What a journalled mutation did to its key."""

    ADD = "add"
    REMOVE = "remove"
    REPLACE = "replace"


@dataclass(frozen=True)
class Change:
    """One typed mutation of a versioned container.

    Attributes
    ----------
    kind:
        Add, remove or replace.
    domain:
        The named slice of the container the key lives in (e.g.
        ``"facility_locations"``).  Consumers filter replays by domain.
    key:
        The mutated key — a prefix string, an interface IP, a facility id, or
        a composite such as ``(ixp_id, facility_id)`` for colocation edges.
    old / new:
        The value before and after (``None`` for the absent side of an add or
        remove).
    """

    kind: ChangeKind
    domain: str
    key: object
    old: object = None
    new: object = None


class ChangeJournal:
    """Bounded, ordered record of the changes between two generations.

    Every entry is tagged with the generation the change *produced*.  The
    journal also tracks a **floor**: the generation at or below which replay
    is unavailable, either because an opaque bump happened or because old
    records were dropped to honour the bound.
    """

    __slots__ = ("_records", "_bound", "_floor")

    def __init__(self, bound: int = DEFAULT_JOURNAL_BOUND) -> None:
        self._records: deque[tuple[int, Change]] = deque()
        self._bound = bound
        self._floor = 0

    def append(self, generation: int, change: Change) -> None:
        """Record one change as the mutation that produced ``generation``."""
        self._records.append((generation, change))
        while len(self._records) > self._bound:
            dropped_generation, _ = self._records.popleft()
            self._floor = max(self._floor, dropped_generation)

    def mark_opaque(self, generation: int) -> None:
        """Poison replay up to ``generation`` (an unrecorded mutation)."""
        self._floor = max(self._floor, generation)
        self._records.clear()

    def since(
        self, generation: int, domains: Iterable[str] | None = None
    ) -> list[Change] | None:
        """Every change after ``generation``, or ``None`` if replay is impossible.

        ``domains`` filters the answer to the named domains; the
        completeness guarantee still covers *all* domains — a ``None`` floor
        violation is reported even when the missed changes would have been
        filtered out, because the caller cannot know that.
        """
        if generation < self._floor:
            return None
        wanted = None if domains is None else frozenset(domains)
        changes: list[Change] = []
        for recorded_generation, change in self._records:
            if recorded_generation <= generation:
                continue
            if wanted is not None and change.domain not in wanted:
                continue
            changes.append(change)
        return changes

    @property
    def floor(self) -> int:
        """The generation at or below which replay is unavailable."""
        return self._floor

    def __len__(self) -> int:
        return len(self._records)


class Versioned:
    """Mixin adding generation stamps and a change journal to a container.

    The mixin deliberately stores nothing until the first mutation, so it can
    be layered onto dataclasses without becoming a field (it never takes part
    in ``__init__``, ``repr`` or equality).
    """

    _generation = 0
    _opaque_generation = 0
    _journal: ChangeJournal | None = None
    _domain_generations: dict[str, int] | None = None

    @property
    def generation(self) -> int:
        """The container's current generation stamp (0 when never mutated)."""
        return self._generation

    @property
    def journal(self) -> ChangeJournal:
        """The container's change journal (created lazily).

        A journal created *after* opaque bumps inherits their floor, so a
        consumer can never mistake an unrecorded past for an empty one.

        Creation is double-checked behind a module-level lock: concurrent
        caller threads (say, two engine runs syncing against
        ``dataset.journal``) must agree on one journal object, not race two
        into place.
        """
        journal = self._journal
        if journal is None:
            with _JOURNAL_CREATION_LOCK:
                journal = self._journal
                if journal is None:
                    journal = ChangeJournal()
                    if self._opaque_generation:
                        journal.mark_opaque(self._opaque_generation)
                    self._journal = journal
        return journal

    def record_change(self, change: Change) -> int:
        """Apply-side bookkeeping for one journalled mutation.

        Bumps the global and per-domain generation and appends the record, so
        journal replays stay complete.  Returns the new generation.
        """
        generation = self._generation + 1
        self._generation = generation
        domains = self._domain_generations
        if domains is None:
            domains = self._domain_generations = {}
        domains[change.domain] = generation
        self.journal.append(generation, change)
        return generation

    def bump_generation(self) -> int:
        """Opaque bump: every domain is considered changed, replay impossible.

        Derived state is re-keyed everywhere, and journal consumers rebuild
        instead of patching.
        """
        generation = self._generation + 1
        self._generation = generation
        self._opaque_generation = generation
        if self._journal is not None:
            self._journal.mark_opaque(generation)
        return generation

    def domain_generation(self, domain: str) -> int:
        """The generation of the last change touching ``domain``.

        Opaque bumps count against every domain (their scope is unknown).
        """
        domains = self._domain_generations
        recorded = 0 if domains is None else domains.get(domain, 0)
        return max(recorded, self._opaque_generation)

    def version_token(self) -> tuple[Hashable, ...]:
        """A hashable stamp of this container's state: its generation."""
        return (self._generation,)


class GenerationGuardedIndex(Generic[P]):
    """A lazily built payload guarded by an explicit version token.

    The successor of the retired ``(size-when-built, payload)`` pattern
    (``SizeGuardedIndex``): the guard is any hashable token the owner derives
    from its versioned state — conventionally its (domain) generation, which
    also moves on in-place replacement at unchanged size, where the size
    guard could never see a change.

    The ``(token, payload)`` pair is stored and swapped as one atomic
    reference, so a reader never observes a fresh token with a stale payload.
    Builds are additionally serialised behind a lock with a double-checked
    token validation (relevant when concurrent caller threads read one
    study): two threads racing a lazy build cannot construct the payload
    twice or publish a stale one, and the current-token fast path stays
    lock-free.
    """

    __slots__ = ("_state", "_lock")

    def __init__(self) -> None:
        self._state: tuple[Hashable, P] | None = None
        self._lock = Lock()

    def get(self, token: Hashable, build: Callable[[], P]) -> P:
        """The payload, rebuilt via ``build()`` if the version token changed."""
        state = self._state
        if state is not None and state[0] == token:
            return state[1]
        with self._lock:
            state = self._state
            if state is None or state[0] != token:
                state = (token, build())
                self._state = state
        return state[1]

    @property
    def is_built(self) -> bool:
        """Whether a payload is currently held (mainly for tests)."""
        return self._state is not None
