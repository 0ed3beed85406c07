"""The slot ledger's test mirror: the same book, kept the obvious way.

:class:`LedgerMirror` answers every question
:class:`repro.alloc.slot_alloc.LinkSlotLedger` answers, with the same
results and the same error messages, from an ``edge -> {slot: label}``
dict probed slot by slot.  A snapshot is a copy of that dict and a
rollback puts the copy back; there is no journal to get wrong.  The
equivalence suite (``tests/properties/test_alloc_engine_equiv.py``)
drives the ledger and the mirror through the same workloads and
compares everything they report; :func:`use_ledger` makes every
``SlotAllocator`` built inside it (by a ``UseCaseManager``, the
dimensioning search or a test) keep its book on the mirror.

The module is not collected (its name does not match ``test_*.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.alloc import LinkSlotLedger, slot_alloc
from repro.alloc.slot_alloc import iter_mask_slots
from repro.errors import AllocationError, SlotConflictError

Edge = Tuple[str, str]


class LedgerMirror:
    """``LinkSlotLedger``'s public surface over per-slot dict probes.

    A claim context is the claim diagonal itself; ``version`` is bumped
    by every write, as the ledger's is.
    """

    def __init__(self, slot_table_size: int) -> None:
        self.slot_table_size = slot_table_size
        self._claims: Dict[Edge, Dict[int, str]] = {}
        self._copies: List[Dict[Edge, Dict[int, str]]] = []
        self.version = 0

    def owner(self, edge: Edge, slot: int) -> Optional[str]:
        return self._claims.get(edge, {}).get(slot % self.slot_table_size)

    def is_free(self, edge: Edge, slot: int) -> bool:
        return self.owner(edge, slot) is None

    def _slots(self, offset: int, base_mask: int) -> List[int]:
        """What ``base_mask`` claims on a link ``offset`` slots down the
        diagonal, lowest slot first."""
        return sorted(
            (base + offset) % self.slot_table_size
            for base in iter_mask_slots(base_mask)
        )

    def _copy(self) -> Dict[Edge, Dict[int, str]]:
        return {edge: dict(slots) for edge, slots in self._claims.items()}

    # -- writes ------------------------------------------------------------------

    def claim(self, edge: Edge, slot: int, label: str) -> None:
        self.claim_prepared([(edge, 0)], 1 << (slot % self.slot_table_size), label)

    def probe_rotations(self, diagonal: Sequence[Tuple[Edge, int]]):
        mask = 0
        for base in range(self.slot_table_size):
            if all(self.is_free(edge, base + offset) for edge, offset in diagonal):
                mask |= 1 << base
        return mask, diagonal

    def claim_prepared(self, context, base_mask: int, label: str) -> None:
        self.version += 1
        before = self._copy()
        for edge, offset in context:
            slots = self._slots(offset, base_mask)
            for slot in slots:
                owner = self.owner(edge, slot)
                if owner is not None and owner != label:
                    self._claims = before
                    raise SlotConflictError(
                        f"link {edge} slot {slot} owned by {owner!r}; "
                        f"cannot claim for {label!r}"
                    )
            for slot in slots:
                self._claims.setdefault(edge, {})[slot] = label

    def release_rotations(
        self, diagonal: Sequence[Tuple[Edge, int]], base_mask: int, label: str
    ) -> None:
        self.version += 1
        for edge, offset in diagonal:
            slots = self._slots(offset, base_mask)
            for slot in slots:
                owner = self.owner(edge, slot)
                if owner != label:
                    raise SlotConflictError(
                        f"link {edge} slot {slot} owned by {owner!r}, not "
                        f"{label!r}; cannot release"
                    )
            held = self._claims.get(edge, {})
            for slot in slots:
                del held[slot]
            if not held:
                self._claims.pop(edge, None)

    # -- speculative allocation ----------------------------------------------------

    def snapshot(self) -> int:
        self._copies.append(self._copy())
        return len(self._copies) - 1

    def rollback(self, token: int) -> None:
        self.version += 1
        self._claims = self._close_scope(token)

    def commit(self, token: int) -> None:
        self._close_scope(token)

    def _close_scope(self, token: int) -> Dict[Edge, Dict[int, str]]:
        if not self._copies:
            raise AllocationError(
                "ledger snapshot underflow: rollback/commit without "
                "a matching snapshot"
            )
        assert token == len(self._copies) - 1, "scopes close innermost first"
        return self._copies.pop()

    # -- queries -------------------------------------------------------------------

    def link_utilization(self, edge: Edge) -> float:
        return len(self._claims.get(edge, {})) / self.slot_table_size

    def free_slot_count(self, edge: Edge) -> int:
        return self.slot_table_size - len(self._claims.get(edge, {}))

    def total_claims(self) -> int:
        return sum(len(slots) for slots in self._claims.values())

    def claimed_edges(self) -> List[Edge]:
        return sorted(self._claims)


#: The two books, with the test ids they run under: the dict reference
#: model and the bitmask ledger ``src/`` ships.
LEDGERS = (LedgerMirror, LinkSlotLedger)
LEDGER_IDS = ("reference", "bitmask")


@contextmanager
def use_ledger(ledger_class):
    """Build every ``SlotAllocator`` made inside on a ``ledger_class``
    ledger: ``__post_init__`` calls the one constructor this patches."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slot_alloc, "LinkSlotLedger", ledger_class)
        yield
