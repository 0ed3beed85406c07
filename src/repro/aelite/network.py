"""Assembly of an aelite network instance.

Mirrors :class:`~repro.core.network.DaeliteNetwork` for the source-routed
baseline.  The data path is fully cycle-accurate (3-cycle hops, header
flits, credits in headers); configuration *state* is installed directly
into the NI registers while configuration *timing* comes from
:class:`~repro.aelite.config.AeliteConfigModel` — see that module's
docstring for the substitution rationale.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..alloc.spec import AllocatedChannel, AllocatedConnection
from ..errors import TopologyError
from ..params import NetworkParameters, aelite_parameters
from ..sim.compiled import install_refusing_provider
from ..sim.kernel import Kernel
from ..sim.link import Link
from ..sim.stats import StatsCollector
from ..topology import ElementKind, Topology
from ..core.config_protocol import FLAG_ENABLED, FLAG_FLOW_CONTROLLED
from .config import AeliteConfigModel
from .ni import AeliteNetworkInterface
from .router import AeliteRouter


class AeliteChannelHandle:
    """Endpoint indices of one installed aelite channel."""

    def __init__(
        self,
        channel: AllocatedChannel,
        src_connection: int,
        dst_queue: int,
    ) -> None:
        self.channel = channel
        self.src_connection = src_connection
        self.dst_queue = dst_queue


class AeliteConnectionHandle:
    """Endpoint indices of one installed bidirectional connection."""

    def __init__(
        self,
        label: str,
        forward: AeliteChannelHandle,
        reverse: AeliteChannelHandle,
    ) -> None:
        self.label = label
        self.forward = forward
        self.reverse = reverse


class AeliteNetwork:
    """A fully wired aelite instance on a simulation kernel."""

    def __init__(
        self,
        topology: Topology,
        params: Optional[NetworkParameters] = None,
        host_ni: Optional[str] = None,
        processor_overhead: int = 0,
        strict: bool = False,
        kernel_mode: Optional[str] = None,
    ) -> None:
        self.topology = topology
        self.params = params or aelite_parameters()
        topology.validate(max_elements=10_000, max_arity=7)
        if not topology.nis:
            raise TopologyError("an aelite network needs at least one NI")
        self.host_element = host_ni or topology.nis[0].name
        self.kernel = Kernel(mode=kernel_mode)
        self.stats = StatsCollector()
        self.routers: Dict[str, AeliteRouter] = {}
        self.nis: Dict[str, AeliteNetworkInterface] = {}
        self.links: Dict[tuple, Link] = {}
        self._next_source: Dict[str, int] = {}
        self._next_queue: Dict[str, int] = {}
        self.config_model = AeliteConfigModel(
            topology,
            self.params,
            self.host_element,
            processor_overhead=processor_overhead,
        )
        self._build(strict)
        install_refusing_provider(
            self,
            "aelite's source-routed data plane has no compiled model; "
            "vector mode steps it naively",
        )

    def _build(self, strict: bool) -> None:
        for element in self.topology.elements.values():
            if element.kind is ElementKind.ROUTER:
                router = AeliteRouter(element, self.params, strict=strict)
                self.routers[element.name] = router
                self.kernel.add(router)
            else:
                ni = AeliteNetworkInterface(
                    element, self.params, stats=self.stats, strict=strict
                )
                self.nis[element.name] = ni
                self.kernel.add(ni)
        for src, dst in self.topology.links():
            link = Link(f"{src}->{dst}")
            self.links[(src, dst)] = link
            self.kernel.add_register(link.register)
            src_element = self.topology.element(src)
            dst_element = self.topology.element(dst)
            if src_element.kind is ElementKind.ROUTER:
                self.routers[src].out_links[
                    src_element.port_to(dst)
                ] = link
            else:
                self.nis[src].out_link = link
            if dst_element.kind is ElementKind.ROUTER:
                self.routers[dst].in_links[
                    dst_element.port_to(src)
                ] = link
            else:
                self.nis[dst].in_link = link

    # -- element access -------------------------------------------------------------

    def ni(self, name: str) -> AeliteNetworkInterface:
        try:
            return self.nis[name]
        except KeyError:
            raise TopologyError(f"{name!r} is not an NI") from None

    def router(self, name: str) -> AeliteRouter:
        try:
            return self.routers[name]
        except KeyError:
            raise TopologyError(f"{name!r} is not a router") from None

    def link(self, src: str, dst: str) -> Link:
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise TopologyError(f"no link {src!r} -> {dst!r}") from None

    # -- configuration (state installed directly; timing via config_model) ----------

    def _path_ports(self, channel: AllocatedChannel) -> tuple:
        """Output port per router along the channel path."""
        ports = []
        for position in range(1, len(channel.path) - 1):
            element = self.topology.element(channel.path[position])
            ports.append(element.port_to(channel.path[position + 1]))
        return tuple(ports)

    def _install_channel(
        self, channel: AllocatedChannel
    ) -> AeliteChannelHandle:
        src_ni = self.ni(channel.src_ni)
        dst_ni = self.ni(channel.dst_ni)
        src_index = self._next_source.get(channel.src_ni, 0)
        self._next_source[channel.src_ni] = src_index + 1
        queue_index = self._next_queue.get(channel.dst_ni, 0)
        self._next_queue[channel.dst_ni] = queue_index + 1
        source = src_ni.source(src_index)
        source.path_ports = self._path_ports(channel)
        source.dest_queue = queue_index
        source.credit_counter = self.params.channel_buffer_words
        source.label = channel.label
        for slot in channel.slots:
            src_ni.injection_table.set_slot(slot, src_index)
        dst_ni.queue_endpoint(queue_index).flags = (
            FLAG_ENABLED | FLAG_FLOW_CONTROLLED
        )
        return AeliteChannelHandle(channel, src_index, queue_index)

    def install_connection(
        self, connection: AllocatedConnection
    ) -> AeliteConnectionHandle:
        """Install a bidirectional connection into the NI registers.

        Pairing mirrors daelite: credits of each direction return in the
        headers of the opposite direction.
        """
        forward = self._install_channel(connection.forward)
        reverse = self._install_channel(connection.reverse)
        fwd_source = self.ni(connection.forward.src_ni).source(
            forward.src_connection
        )
        rev_source = self.ni(connection.reverse.src_ni).source(
            reverse.src_connection
        )
        fwd_source.paired_arrival = reverse.dst_queue
        rev_source.paired_arrival = forward.dst_queue
        self.ni(connection.forward.dst_ni).queue_endpoint(
            forward.dst_queue
        ).paired_source = reverse.src_connection
        self.ni(connection.reverse.dst_ni).queue_endpoint(
            reverse.dst_queue
        ).paired_source = forward.src_connection
        fwd_source.enabled = True
        rev_source.enabled = True
        return AeliteConnectionHandle(
            connection.label, forward, reverse
        )

    def setup_time(self, connection: AllocatedConnection) -> int:
        """Modelled set-up time of a connection in cycles."""
        return self.config_model.setup_connection_time(connection)

    # -- drivers ----------------------------------------------------------------------

    def run(self, cycles: int) -> None:
        self.kernel.step(cycles)

    def drain(self, max_cycles: int = 100_000) -> None:
        """Run until all queued words are injected and delivered."""

        def idle() -> bool:
            if not self.stats.all_delivered:
                return False
            return all(
                not source.queue
                for ni in self.nis.values()
                for source in ni.sources.values()
            )

        self.kernel.run_until(idle, max_cycles=max_cycles)

    @property
    def total_dropped_words(self) -> int:
        return sum(
            router.dropped_words for router in self.routers.values()
        ) + sum(ni.dropped_words for ni in self.nis.values())
