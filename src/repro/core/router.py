"""The daelite network router (paper Fig. 4).

"Because we are using a distributed routing mechanism each router contains
a slot table to store the TDM schedule.  Incoming packets are blindly
routed based on this schedule.  In the absence of contention, no
link-level flow control is required."

Pipeline: a word spends one cycle on the incoming link (the link register)
and one cycle in the crossbar stage — "the latency per hop is fixed to two
cycles".  The crossbar therefore acts on a word one cycle after it was
driven, so the slot table is indexed with a one-cycle-lagged slot counter;
combined with the uniform 2-cycle hops this makes every element along a
path use a table index exactly one slot higher than its predecessor
(DESIGN.md, timing model).

Multicast: "Two (or more) output ports are allowed to use the same input
port as a source" — nothing in the data path forbids it, and the model
forwards the same phit to every selecting output.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ProtocolError, SimulationError
from ..params import NetworkParameters
from ..sim.flit import Phit
from ..sim.kernel import Component, Register
from ..sim.link import Link
from ..sim.stats import FAULT_DETECTED
from ..sim.trace import NULL_TRACER
from ..topology import Element, ElementKind
from .changes import ChangeRecord, ReportingElement
from .config_port import ConfigPort
from .config_protocol import Action, RouterPathAction
from .slot_table import RouterSlotTable


class Router(Component, ReportingElement):
    """A daelite router with per-output slot tables and a config port.

    Attributes:
        element: The topology element this router implements.
        slot_table: The distributed TDM schedule (one column per output).
        config: The configuration-tree submodule.
        dropped_words: Words that arrived in a slot no output consumed —
            zero under a correct schedule outside reconfiguration windows.
    """

    def __init__(
        self,
        element: Element,
        params: NetworkParameters,
        strict: bool = False,
        changes: Optional[ChangeRecord] = None,
    ) -> None:
        super().__init__(element.name)
        if element.kind is not ElementKind.ROUTER:
            raise SimulationError(f"{element.name!r} is not a router")
        #: The network's change record (one of its own when built
        #: alone): its slot table counts writes there, and a set tracer
        #: or collector or a decoded packet notes the router there.
        self.changes = changes if changes is not None else ChangeRecord()
        self.element = element
        self.params = params
        self.strict = strict
        ports = element.arity
        self.slot_table = RouterSlotTable(
            ports, params.slot_table_size, self.changes
        )
        #: Incoming links, indexed by port (wired by the network builder).
        self.in_links: List[Optional[Link]] = [None] * ports
        #: Outgoing links, indexed by port.
        self.out_links: List[Optional[Link]] = [None] * ports
        self._xbar_regs: List[Register] = [
            self.make_register(f"xbar{port}") for port in range(ports)
        ]
        self.config = ConfigPort(
            owner=self,
            element_id=element.element_id,
            kind=ElementKind.ROUTER,
            slot_table_size=params.slot_table_size,
            word_bits=params.config_word_bits,
            changes=self.changes,
        )
        self.dropped_words = 0
        #: Optional event tracer (set by the network builder).
        self.tracer = NULL_TRACER
        #: Optional stats collector (set by the network builder); drops
        #: are recorded there as detected faults.
        self.stats = None

    @property
    def ports(self) -> int:
        return self.element.arity

    def evaluate(self, cycle: int) -> None:
        slot = self.params.lagged_slot_of_cycle(cycle)
        # Output stage first: read the crossbar registers (previous
        # cycle's words) before this cycle's forwarding drives them —
        # the two-phase read-before-drive discipline (KC003).
        for output in range(self.ports):
            staged: Phit = self._xbar_regs[output].q
            out_link = self.out_links[output]
            if staged is not None and not staged.is_idle and (
                out_link is not None
            ):
                out_link.send(staged)
        consumed = set()
        for output, input_port in self.slot_table.forwards(slot):
            in_link = self.in_links[input_port]
            if in_link is None:
                continue
            phit = in_link.incoming
            if not phit.is_idle:
                consumed.add(input_port)
                self._xbar_regs[output].drive(phit)
                if phit.word is not None and self.tracer.enabled:
                    self.tracer.emit(
                        cycle,
                        self.name,
                        "route",
                        f"slot {slot}: in{input_port} -> "
                        f"out{output} {phit.word!r}",
                    )
        for input_port in range(self.ports):
            in_link = self.in_links[input_port]
            if in_link is None or input_port in consumed:
                continue
            phit = in_link.incoming
            if phit.word is not None:
                self.dropped_words += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        cycle,
                        self.name,
                        "drop",
                        f"slot {slot}: in{input_port} {phit.word!r}",
                    )
                if self.stats is not None:
                    self.stats.record_fault(
                        cycle,
                        FAULT_DETECTED,
                        "route_drop",
                        self.name,
                        f"slot {slot}: in{input_port} {phit.word!r}",
                    )
                if self.strict:
                    raise SimulationError(
                        f"{self.name}: word {phit.word!r} arrived on "
                        f"input {input_port} in slot {slot} but no "
                        f"output forwards it — schedule misconfigured"
                    )
        actions = self.config.evaluate(cycle)
        if actions:
            self.config.apply_guarded(cycle, actions, self._apply)

    def reset(self) -> None:
        super().reset()
        self.config.discard_deposit()

    def _apply(self, action: Action) -> None:
        self.changes.writes += 1
        if not isinstance(action, RouterPathAction):
            raise SimulationError(
                f"{self.name}: router received non-router config action "
                f"{action!r}"
            )
        if action.teardown:
            outputs = (
                range(self.ports)
                if action.output is None
                else [action.output]
            )
            for output in outputs:
                self.slot_table.apply_mask(output, action.mask, None)
        else:
            if action.output is None or action.input_port is None:
                raise ProtocolError(
                    f"{self.name}: set-up path action must name both "
                    f"an output and an input port, got {action!r}"
                )
            self.slot_table.apply_mask(
                action.output, action.mask, action.input_port
            )
