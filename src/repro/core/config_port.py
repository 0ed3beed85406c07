"""The configuration submodule shared by routers and NIs.

Every network element is also a node of the configuration broadcast tree:
it receives configuration words from its tree parent, forwards them to a
parameterizable number of children (buffered once, so together with the
link register a tree hop costs 2 cycles, "for reasons of symmetry"), and
feeds its own :class:`~repro.core.config_protocol.ConfigDecoder`.

Responses (for CHANNEL_READ) travel the reverse tree.  "There is no
arbitration on the response path and as a result a policy of only one
active request at a time is enforced" — if two children (or a child and
the local element) drive a response in the same cycle, the model raises
:class:`~repro.errors.SimulationError`, which is exactly the corruption
real hardware would suffer.

In the ``vector`` kernel mode the configuration module may *elide* the
forward tree for a packet (see :mod:`repro.core.config_network`): rather
than streaming the words hop by hop it deposits the whole word tuple in
each addressed port, with the element's position among the packet's
addressees, stamped with the cycle at which that element would have seen
the end-of-packet gap.  At that cycle the port decodes only its own part
of the packet (``ConfigDecoder.decode_addressed``: the mask rotated by
that position, plus its own pair or fields) once the whole packet is
checked to decode cleanly; any other packet runs through the word-level
decoder, word by word, as on the tree — the one place errors, monitor
cycles and recovery live.  One apply path either way, and the compiled
engine runs a due deposit through it too (:meth:`ConfigPort._decode_deposit`,
:meth:`ConfigPort.apply_guarded`), so an installed :attr:`fault_monitor`
sees the same errors at the same cycles whoever steps the element, and
does not keep the engine off.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from ..errors import ReproError, SimulationError
from ..sim.kernel import Component, Register
from ..sim.link import NarrowLink
from ..topology import ElementKind
from .config_protocol import Action, ConfigDecoder

#: A fault monitor: called with (cycle, error) when a corrupted word
#: stream breaks the decoder (or a decoded action cannot be applied).
FaultMonitor = Callable[[int, ReproError], None]


class ConfigPort:
    """Configuration-tree endpoint embedded in a network element.

    Wiring (done by the network builder):

    * :attr:`in_link` — narrow link from the tree parent (or the
      configuration module, for the root element).
    * :attr:`child_links` — narrow links to tree children, driven here.
    * :attr:`resp_child_links` — children's response links, read here.
    * :attr:`resp_out_link` — response link towards the parent.
    """

    def __init__(
        self,
        owner: Component,
        element_id: int,
        kind: ElementKind,
        slot_table_size: int,
        word_bits: int = 7,
        changes: Any = None,
    ) -> None:
        self.owner = owner
        self.in_link: Optional[NarrowLink] = None
        self.child_links: List[NarrowLink] = []
        self.resp_child_links: List[NarrowLink] = []
        self.resp_out_link: Optional[NarrowLink] = None
        self._fwd_reg: Register = owner.make_register("cfg_fwd")
        self._resp_reg: Register = owner.make_register("cfg_resp")
        self.decoder = ConfigDecoder(
            element_id=element_id,
            kind=kind,
            slot_table_size=slot_table_size,
            word_bits=word_bits,
        )
        # A packet the decoder starts notes the owner in the owner's
        # network change record (``repro.core.changes``), if it has one.
        self.decoder.owner = owner
        self.decoder.changes = changes
        #: Response words queued by the owning element (read results).
        self.response_queue: Deque[int] = deque()
        #: Optional fault monitor.  When ``None`` (the default) protocol
        #: errors propagate and crash the simulation — the right call
        #: for a healthy network, where they indicate a model bug.  With
        #: a monitor installed (by :class:`repro.faults.FaultInjector`),
        #: a corrupted packet is *survivable*: the error is reported,
        #: the decoder resets, and the element resynchronizes on the
        #: next packet header.
        self.fault_monitor: Optional[FaultMonitor] = None
        #: Tree depth of the owning element (root = 0; wired by the
        #: network builder).  Scales the due cycle of a deposit.
        self.depth = 0
        #: An elided packet in flight to this element: ``(words, due,
        #: position)``.  At most one, because the module serializes
        #: packets and a packet names an element at most once.
        self._deposit: Optional[Tuple[tuple, int, Optional[int]]] = None
        #: The waiting deposit's packet layout, checked once for all
        #: its addressees (``ConfigDecoder.addressed_layout``; ``None``:
        #: the decoder derives it).
        self._layout: Optional[tuple] = None

    @property
    def pending(self) -> bool:
        """Work not visible in any register: queued responses, or a
        decoder mid-packet (whose actions fire on the gap cycle, when the
        input link is *idle*)."""
        return bool(self.response_queue) or self.decoder.busy

    @property
    def deposit_pending(self) -> bool:
        """Whether an elided packet is still waiting for its due cycle."""
        return self._deposit is not None

    def deposit(
        self,
        words: tuple,
        due: int,
        position: Optional[int] = None,
        layout: Optional[tuple] = None,
    ) -> None:
        """Accept an elided packet to decode at cycle ``due``.

        ``position`` is this element's index in the packet's addressee
        record; ``None`` (no record) decodes every word at ``due``.
        ``layout`` is the packet's ``addressed_layout``, when the module
        has it.

        Raises:
            SimulationError: if an earlier deposit is still waiting —
                two packets in the tree at once, which the module's
                cool-down makes impossible.
        """
        if self._deposit is not None:
            raise SimulationError(
                f"{self.owner.name}: config deposit due at cycle {due} "
                f"collides with one due at {self._deposit[1]}"
            )
        self._deposit = (words, due, position)
        self._layout = layout

    def discard_deposit(self) -> None:
        """Drop a waiting deposit (reset: the elided counterpart of
        clearing words in flight out of the tree's registers)."""
        self._deposit = self._layout = None

    def next_evaluation(self, cycle: int) -> Optional[int]:
        """Earliest cycle ``>= cycle`` the submodule has work that no
        register announces: now while :attr:`pending`, else the due cycle
        of a waiting deposit, else never."""
        if self.pending:
            return cycle
        if self._deposit is None:
            return None
        return max(cycle, self._deposit[1])

    def evaluate(self, cycle: int) -> List[Action]:
        """One cycle of the config submodule; returns decoded actions.

        Actions are non-empty only on the gap cycle ending a packet that
        addressed the owning element.
        """
        word = self.in_link.incoming if self.in_link is not None else None

        # Forward direction: buffer once, then broadcast to all children.
        if word is not None:
            self._fwd_reg.drive(word)
        forwarded = self._fwd_reg.q
        if forwarded is not None:
            for link in self.child_links:
                link.send(forwarded)

        # Response direction: merge children and the local element.
        candidates = [
            link.incoming
            for link in self.resp_child_links
            if link.incoming is not None
        ]
        if self.response_queue:
            candidates.append(self.response_queue.popleft())
        if len(candidates) > 1:
            raise SimulationError(
                f"{self.owner.name}: {len(candidates)} simultaneous "
                f"config responses — the one-request-at-a-time policy "
                f"was violated"
            )
        if candidates:
            self._resp_reg.drive(candidates[0])
        response = self._resp_reg.q
        if response is not None and self.resp_out_link is not None:
            self.resp_out_link.send(response)

        if self._deposit is not None and cycle >= self._deposit[1]:
            return self._decode_deposit(cycle, word)
        try:
            return self.decoder.feed(word)
        except ReproError as error:
            return self._recover(cycle, error)

    def _decode_deposit(
        self, cycle: int, word: Optional[int]
    ) -> List[Action]:
        """Decode a due deposit: this element's own part when the packet
        decodes cleanly (:meth:`ConfigDecoder.decode_addressed`), else
        every word and then the gap, through :meth:`ConfigDecoder.feed`.

        Raises:
            SimulationError: if the deposit is reached late, or while
                the word-level tree is also feeding this decoder — either
                would silently diverge from the stepped tree.
        """
        assert self._deposit is not None
        words, due, position = self._deposit
        layout = self._layout
        self._deposit = self._layout = None
        if cycle != due or word is not None or self.decoder.busy:
            raise SimulationError(
                f"{self.owner.name}: config deposit due at cycle {due} "
                f"reached at cycle {cycle} with "
                f"{'a' if word is not None else 'no'} word on the tree "
                f"and the decoder "
                f"{'mid-packet' if self.decoder.busy else 'idle'}"
            )
        if position is not None:
            own = self.decoder.decode_addressed(words, position, layout)
            if own is not None:
                return own
        # Word ``index`` reached this element at ``due - len + index``:
        # an error is reported with that cycle and the decoder resumes
        # on the next word, as it would on the stepped tree.
        actions: List[Action] = []
        feed = self.decoder.feed
        for index, item in enumerate((*words, None)):
            try:
                actions = feed(item)
            except ReproError as error:
                actions = self._recover(cycle - len(words) + index, error)
        return actions

    def _recover(self, cycle: int, error: ReproError) -> List[Action]:
        """Report a decoder error to the monitor and resynchronize; with
        no monitor installed the error propagates."""
        if self.fault_monitor is None:
            raise error
        self.fault_monitor(cycle, error)
        self.decoder.reset()
        return []

    def apply_guarded(
        self,
        cycle: int,
        actions: List[Action],
        apply: Callable[[Action], None],
    ) -> None:
        """Apply decoded actions, reporting failures to the monitor.

        A corrupted packet can decode into actions the element cannot
        honour (e.g. a slot-table write that conflicts with an existing
        entry).  Without a monitor the error propagates as usual; with
        one, the failing action is skipped and recorded — subsequent
        actions still apply, mirroring hardware, where each action is an
        independent register write.
        """
        for action in actions:
            try:
                apply(action)
            except ReproError as error:
                if self.fault_monitor is None:
                    raise
                self.fault_monitor(cycle, error)
