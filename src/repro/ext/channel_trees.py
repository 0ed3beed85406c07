"""Channel trees — slot sharing, and why daelite excludes it.

"Channel trees [13] enhance the performance of this basic scheme, by
allowing sharing of timeslots between channels, i.e., connections.  This
sharing may render invalid the service guarantees per connection, thus
[they] are not discussed further."

This extension implements the mechanism so the trade-off can be
measured: a :class:`SharedChannel` multiplexes several *flows* onto one
physical daelite channel with round-robin arbitration at the source NI
and flow tags for demultiplexing at the destination.  The slot-sharing
economics are real (one slot set serves n flows), and so is the damage:
a flow's worst-case latency now depends on the other flows' behaviour,
so the per-connection guarantee of contention-free routing is gone —
exactly the paper's reason to leave channel trees out.

Flow tags ride in the upper bits of the payload word (the library
equivalent of [13]'s shared-queue bookkeeping), costing
``flow_tag_bits`` of payload width.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Tuple

from ..core.network import DaeliteNetwork
from ..core.host import ConnectionHandle
from ..errors import TrafficError
from ..sim.kernel import Component
from ..sim.stats import LatencyHistogram

#: Bits reserved in each payload word for the flow tag.
FLOW_TAG_BITS = 4
_FLOW_LIMIT = 1 << FLOW_TAG_BITS
_PAYLOAD_MASK = (1 << (32 - FLOW_TAG_BITS)) - 1


def tag_payload(flow: int, payload: int) -> int:
    """Pack a flow tag and payload into one word.

    Raises:
        TrafficError: if either field overflows.
    """
    if not 0 <= flow < _FLOW_LIMIT:
        raise TrafficError(f"flow {flow} outside 0..{_FLOW_LIMIT - 1}")
    if not 0 <= payload <= _PAYLOAD_MASK:
        raise TrafficError("payload overflows the tagged word")
    return (flow << (32 - FLOW_TAG_BITS)) | payload


def untag_payload(word: int) -> Tuple[int, int]:
    """Inverse of :func:`tag_payload`: (flow, payload)."""
    return word >> (32 - FLOW_TAG_BITS), word & _PAYLOAD_MASK


@dataclass
class FlowStats(LatencyHistogram):
    """Per-flow accounting of a shared channel: counts and a
    ``{latency: count}`` histogram, as the statistics ledger keeps."""

    submitted: int = 0
    delivered: int = 0
    latency_histogram: Dict[int, int] = field(default_factory=dict)


class SharedChannel(Component):
    """n flows multiplexed over one daelite connection (a channel tree).

    The component performs the source-side round-robin arbitration and
    the destination-side demultiplexing; per-flow latency is measured
    from flow submission (entering the shared queue) to delivery, which
    is where the guarantee erosion shows.
    """

    def __init__(
        self,
        name: str,
        network: DaeliteNetwork,
        handle: ConnectionHandle,
        flows: int,
    ) -> None:
        super().__init__(name)
        if not 1 <= flows <= _FLOW_LIMIT:
            raise TrafficError(
                f"flows must be in 1..{_FLOW_LIMIT}, got {flows}"
            )
        self.network = network
        self.handle = handle
        self.flows = flows
        self._queues: List[Deque[Tuple[int, int]]] = [
            deque() for _ in range(flows)
        ]
        self._next_flow = 0
        self.stats: Dict[int, FlowStats] = {
            flow: FlowStats() for flow in range(flows)
        }
        self.delivered: Dict[int, List[int]] = {
            flow: [] for flow in range(flows)
        }
        #: sequence -> (flow, payload, submitted_at) for words handed
        #: to the NI but not yet delivered.
        self._in_flight: Dict[int, Tuple[int, int, int]] = {}

    # -- flow-facing API ---------------------------------------------------------

    def submit(self, flow: int, payload: int) -> None:
        """Queue one word on a flow (cycle-stamped for latency)."""
        if not 0 <= flow < self.flows:
            raise TrafficError(f"unknown flow {flow}")
        self._queues[flow].append((payload, self.network.kernel.cycle))
        self.stats[flow].submitted += 1

    def pending(self, flow: int) -> int:
        return len(self._queues[flow])

    # -- cycle behaviour -----------------------------------------------------------

    def evaluate(self, cycle: int) -> None:
        self._arbitrate(cycle)
        self._demux(cycle)

    def _arbitrate(self, cycle: int) -> None:
        """Round-robin: offer one word per cycle to the shared source
        queue (the NI's TDM slots then drain it at the channel rate)."""
        source_ni = self.network.ni(self.handle.forward.channel.src_ni)
        source = source_ni.source_channel(
            self.handle.forward.src_channel
        )
        # Keep the NI-side queue shallow so arbitration, not queueing,
        # decides interleaving.
        if len(source.queue) >= 2:
            return
        for offset in range(self.flows):
            flow = (self._next_flow + offset) % self.flows
            if self._queues[flow]:
                payload, submitted_at = self._queues[flow].popleft()
                word = source_ni.submit(
                    self.handle.forward.src_channel,
                    tag_payload(flow, payload),
                    connection=f"{self.name}.shared",
                )
                # Remember the submission stamp for latency accounting.
                self._in_flight[word.sequence] = (
                    flow,
                    payload,
                    submitted_at,
                )
                self._next_flow = (flow + 1) % self.flows
                return

    def _demux(self, cycle: int) -> None:
        dst_ni = self.network.ni(self.handle.forward.channel.dst_ni)
        for word in dst_ni.receive(self.handle.forward.dst_channel):
            flow, payload, submitted_at = self._in_flight.pop(
                word.sequence
            )
            self.stats[flow].delivered += 1
            self.stats[flow].count_latency(cycle - submitted_at)
            self.delivered[flow].append(payload)
