"""Point-to-point link models.

A :class:`Link` is the one-cycle pipeline register between two network
elements ("one cycle for link traversal").  The driving element calls
:meth:`Link.send`; the receiving element reads :attr:`Link.incoming` in the
*next* cycle.  Links transport :class:`~repro.sim.flit.Phit` bundles — a
data word plus the credit wires that run alongside it.

:class:`NarrowLink` is the same thing for the 7-bit configuration network;
it transports small integers (configuration words) plus a valid flag.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..errors import SimulationError
from .flit import IDLE_PHIT, Phit, Word
from .kernel import Register

#: A data-link fault hook: called with (link, phit) at send time; returns
#: the (possibly corrupted) phit, or ``None`` to drop it entirely.
FaultHook = Callable[["Link", Phit], Optional[Phit]]

#: A config-link fault hook: called with (link, word); returns the
#: (possibly corrupted) word, or ``None`` to drop it.
NarrowFaultHook = Callable[["NarrowLink", int], Optional[int]]


def _keep(hooked: Dict[Any, None], link: Any, hook: Any) -> None:
    """Keep ``hooked`` — a network's record of its links with a fault
    hook, insertion-ordered — in step with ``link`` getting ``hook``
    (``None``: removed), so asking whether any link of a network is
    hooked costs nothing per link."""
    if hook is None:
        hooked.pop(link, None)
    else:
        hooked[link] = None


class Link:
    """A unidirectional data link with its 1-cycle register.

    Attributes:
        name: Diagnostic name, usually ``"<src>-><dst>"``.
        register: The pipeline register; owned by the link, latched by the
            kernel via :meth:`registers`.
        fault_hook: Optional fault-injection point (see
            :mod:`repro.faults`), consulted before the phit is driven.
            The hook may pass the phit through, substitute a corrupted
            one, or return ``None`` to model the wires going dead.
            :attr:`words_carried` sees the *post-fault* traffic — what
            the wires actually carried.  ``None`` (the default) keeps
            the hot path to a single attribute check.
        changes: The change record of the network this link belongs to
            (``repro.core.changes.ChangeRecord``; ``None`` for a
            free-standing link), whose ``hooked_links``
            :attr:`fault_hook`'s setter keeps.
    """

    __slots__ = (
        "name",
        "register",
        "words_carried",
        "_fault_hook",
        "changes",
    )

    def __init__(self, name: str, changes: Any = None) -> None:
        self.name = name
        self.register = Register(f"link.{name}", idle=IDLE_PHIT)
        #: Cumulative count of data words, for bandwidth statistics.
        self.words_carried = 0
        self._fault_hook: Optional[FaultHook] = None
        self.changes = changes

    @property
    def fault_hook(self) -> Optional[FaultHook]:
        return self._fault_hook

    @fault_hook.setter
    def fault_hook(self, hook: Optional[FaultHook]) -> None:
        self._fault_hook = hook
        if self.changes is not None:
            _keep(self.changes.hooked_links, self, hook)

    def send(self, phit: Phit) -> None:
        """Drive a phit onto the link for this cycle."""
        if self._fault_hook is not None:
            faulted = self._fault_hook(self, phit)
            if faulted is None:
                return
            phit = faulted
        if phit.word is not None:
            self.words_carried += 1
        self.register.drive(phit)

    def send_word(
        self, word: Word, credit_bits: Optional[int] = None
    ) -> None:
        """Convenience wrapper around :meth:`send` for a data word."""
        self.send(Phit(word=word, credit_bits=credit_bits))

    @property
    def incoming(self) -> Phit:
        """The phit that finished traversing the link this cycle."""
        # The register idles at IDLE_PHIT and is only ever driven with
        # phits, so ``q`` is always a Phit — keep the hot path a plain
        # attribute read.
        return self.register.q

    def __repr__(self) -> str:
        return f"Link({self.name!r})"


class NarrowLink:
    """A configuration-network link carrying one config word per cycle.

    The configuration links "have small bit-width, that is equal to the
    size of the configuration words".  A value of ``None`` models the
    valid line being deasserted.
    """

    __slots__ = (
        "name",
        "width_bits",
        "register",
        "words_carried",
        "_fault_hook",
        "changes",
    )

    def __init__(
        self, name: str, width_bits: int = 7, changes: Any = None
    ) -> None:
        if width_bits < 1:
            raise SimulationError("config link width must be >= 1 bit")
        self.name = name
        self.width_bits = width_bits
        self.register = Register(f"cfglink.{name}", idle=None)
        self.words_carried = 0
        #: Optional fault-injection point, as on :class:`Link`.  A
        #: substituted word is masked to the link width by the injector;
        #: ``None`` from the hook models the valid line staying low.
        self._fault_hook: Optional[NarrowFaultHook] = None
        #: As on :class:`Link`; the setter keeps ``hooked_config_links``.
        self.changes = changes

    @property
    def fault_hook(self) -> Optional[NarrowFaultHook]:
        return self._fault_hook

    @fault_hook.setter
    def fault_hook(self, hook: Optional[NarrowFaultHook]) -> None:
        self._fault_hook = hook
        if self.changes is not None:
            _keep(self.changes.hooked_config_links, self, hook)

    def send(self, word: int) -> None:
        """Drive one configuration word for this cycle.

        Raises:
            SimulationError: if the word does not fit the link width.
        """
        if not 0 <= word < (1 << self.width_bits):
            raise SimulationError(
                f"config word {word:#x} exceeds {self.width_bits}-bit link "
                f"{self.name!r}"
            )
        if self._fault_hook is not None:
            faulted = self._fault_hook(self, word)
            if faulted is None:
                return
            word = faulted
        self.words_carried += 1
        self.register.drive(word)

    @property
    def incoming(self) -> Optional[int]:
        """Config word arriving this cycle, or ``None`` if idle."""
        return self.register.q

    def __repr__(self) -> str:
        return f"NarrowLink({self.name!r}, {self.width_bits}b)"
