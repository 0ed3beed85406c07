"""The aelite router: source routed, 3-cycle hops, no slot table.

aelite routers hold no connection state: the first word of every packet is
a header carrying the remaining path; the router pops its output port from
it and forwards the following payload words to the same output until the
packet ends.  "In daelite, the router (and link) traversal delay is 2
cycles.  This is lower than the 3 cycles used by aelite ... because
daelite does not need to look at packet contents before making a routing
decision" — the extra pipeline stage models exactly that header
inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import SimulationError
from ..params import NetworkParameters
from ..sim.flit import Phit
from ..sim.kernel import Component, Register
from ..sim.link import Link
from ..topology import Element, ElementKind
from .packets import AeliteHeader


@dataclass
class _InputState:
    """Per-input tracking of the packet currently passing through."""

    output: Optional[int] = None
    remaining_words: int = 0


class AeliteRouter(Component):
    """A source-routed aelite router with a 3-cycle hop pipeline.

    The pipeline is: link register (owned by the link), then two internal
    stage registers per output — one for the header-inspection stage and
    one for the crossbar stage.
    """

    def __init__(
        self,
        element: Element,
        params: NetworkParameters,
        strict: bool = False,
    ) -> None:
        super().__init__(element.name)
        if element.kind is not ElementKind.ROUTER:
            raise SimulationError(f"{element.name!r} is not a router")
        self.element = element
        self.params = params
        self.strict = strict
        ports = element.arity
        self.in_links: List[Optional[Link]] = [None] * ports
        self.out_links: List[Optional[Link]] = [None] * ports
        self._stage1: List[Register] = [
            self.make_register(f"stage1_{port}") for port in range(ports)
        ]
        self._stage2: List[Register] = [
            self.make_register(f"stage2_{port}") for port in range(ports)
        ]
        self._input_state: List[_InputState] = [
            _InputState() for _ in range(ports)
        ]
        self.dropped_words = 0

    @property
    def ports(self) -> int:
        return self.element.arity

    def evaluate(self, cycle: int) -> None:
        # Pipeline stages advance back to front, reading each register
        # before anything drives it this cycle (the two-phase
        # read-before-drive discipline, KC003).
        for output in range(self.ports):
            ready = self._stage2[output].q
            out_link = self.out_links[output]
            if ready is not None and out_link is not None:
                out_link.send(ready)
            staged = self._stage1[output].q
            if staged is not None:
                self._stage2[output].drive(staged)
        for input_port in range(self.ports):
            in_link = self.in_links[input_port]
            if in_link is None:
                continue
            phit = in_link.incoming
            if phit.is_idle or phit.word is None:
                continue
            self._route_word(input_port, phit)

    def _route_word(self, input_port: int, phit: Phit) -> None:
        state = self._input_state[input_port]
        word = phit.word
        if state.remaining_words == 0:
            if not isinstance(word, AeliteHeader):
                self.dropped_words += 1
                if self.strict:
                    raise SimulationError(
                        f"{self.name}: payload word {word!r} on input "
                        f"{input_port} outside any packet"
                    )
                return
            output, remaining_header = word.consume_hop()
            if not 0 <= output < self.ports:
                raise SimulationError(
                    f"{self.name}: header names output {output} on a "
                    f"{self.ports}-port router"
                )
            state.output = output
            state.remaining_words = word.length_words - 1
            self._stage1[output].drive(Phit(word=remaining_header))
            return
        assert state.output is not None
        state.remaining_words -= 1
        self._stage1[state.output].drive(phit)
