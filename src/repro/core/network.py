"""Assembly of a complete daelite network instance.

:class:`DaeliteNetwork` builds, from a :class:`~repro.topology.Topology`
and a parameter set, the full system of Fig. 3: routers, NIs, data links,
the configuration broadcast tree with its narrow links, the configuration
module at the host, and a :class:`~repro.core.host.Host` driver — all
attached to one simulation kernel.

The class also offers blocking convenience wrappers (``configure`` /
``run_until_configured``) used by the examples and benchmarks; everything
they do can equally be driven cycle by cycle through the public parts.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..alloc.spec import AllocatedConnection, AllocatedMulticast
from ..errors import TopologyError
from ..params import NetworkParameters, daelite_parameters
from ..sim.compiled import install_compile_provider
from ..sim.flit import Phit
from ..sim.kernel import Kernel
from ..sim.link import Link, NarrowLink
from ..sim.stats import StatsCollector
from ..sim.trace import NULL_TRACER, Tracer
from ..topology import (
    ConfigTree,
    ElementKind,
    Topology,
    build_config_tree,
)
from .changes import ChangeRecord
from .config_network import ConfigModule, ConfigRequest
from .host import ConnectionHandle, Host, MulticastHandle, SetupHandle
from .ni import NetworkInterface
from .router import Router


class DaeliteNetwork:
    """A fully wired daelite instance on a simulation kernel.

    Attributes:
        topology: The element graph.
        params: Network parameters.
        kernel: The cycle simulator driving every component.
        routers: Router components by element name.
        nis: NI components by element name.
        links: Data links by (src, dst) element names.
        config_tree: The broadcast tree rooted at the host element.
        config_module: The host's configuration module.
        host: High-level configuration driver.
        stats: End-to-end word statistics.
    """

    def __init__(
        self,
        topology: Topology,
        params: Optional[NetworkParameters] = None,
        host_ni: Optional[str] = None,
        strict: bool = False,
        tracer: Optional[Tracer] = None,
        kernel_mode: Optional[str] = None,
    ) -> None:
        self.topology = topology
        self.tracer = tracer or NULL_TRACER
        self.params = params or daelite_parameters()
        topology.validate(
            max_elements=self.params.max_network_elements, max_arity=7
        )
        if not topology.nis:
            raise TopologyError("a daelite network needs at least one NI")
        self.host_element = host_ni or topology.nis[0].name
        topology.element(self.host_element)
        self.kernel = Kernel(mode=kernel_mode)
        self.stats = StatsCollector()
        self.routers: Dict[str, Router] = {}
        self.nis: Dict[str, NetworkInterface] = {}
        self.links: Dict[tuple, Link] = {}
        #: What can make the compiled engine stale, noted by every
        #: element, table and link built here as it happens.
        self.changes = ChangeRecord()
        #: Narrow links of the config tree by name (``cfg.*`` forward,
        #: ``rsp.*`` response) — the fault injector's config targets.
        self.config_links: Dict[str, NarrowLink] = {}
        self._build_elements(strict)
        self._wire_data_links()
        self.config_tree: ConfigTree = build_config_tree(
            topology, self.host_element
        )
        self.config_module = ConfigModule(
            "config_module", self.params, self.config_tree, self.changes
        )
        self.kernel.add(self.config_module)
        self._wire_config_tree()
        self.host = Host(
            topology=topology,
            module=self.config_module,
            params=self.params,
            cycle_supplier=lambda: self.kernel.cycle,
            ni_resolver=self.nis.get,
        )
        install_compile_provider(self)

    # -- construction ------------------------------------------------------------

    def _build_elements(self, strict: bool) -> None:
        for element in self.topology.elements.values():
            if element.kind is ElementKind.ROUTER:
                router = Router(
                    element, self.params, strict=strict, changes=self.changes
                )
                router.tracer = self.tracer
                router.stats = self.stats
                self.routers[element.name] = router
                self.kernel.add(router)
            else:
                ni = NetworkInterface(
                    element,
                    self.params,
                    stats=self.stats,
                    strict=strict,
                    changes=self.changes,
                )
                ni.tracer = self.tracer
                self.nis[element.name] = ni
                self.kernel.add(ni)

    def _attach_link(self, src: str, dst: str) -> None:
        link = Link(f"{src}->{dst}", self.changes)
        self.links[(src, dst)] = link
        self.kernel.add_register(link.register)
        src_element = self.topology.element(src)
        dst_element = self.topology.element(dst)
        if src_element.kind is ElementKind.ROUTER:
            self.routers[src].out_links[src_element.port_to(dst)] = link
        else:
            self.nis[src].out_link = link
        if dst_element.kind is ElementKind.ROUTER:
            self.routers[dst].in_links[dst_element.port_to(src)] = link
        else:
            self.nis[dst].in_link = link

    def _wire_data_links(self) -> None:
        for src, dst in self.topology.links():
            self._attach_link(src, dst)

    def _config_port_of(self, name: str):
        element = self.topology.element(name)
        if element.kind is ElementKind.ROUTER:
            return self.routers[name].config
        return self.nis[name].config

    def _wire_config_tree(self) -> None:
        width = self.params.config_word_bits
        self.config_module.stats = self.stats
        self.config_module.tracer = self.tracer
        self.config_module.config_links = self.config_links
        for name, depth in self.config_tree.depth.items():
            port = self._config_port_of(name)
            port.depth = depth
            self.config_module.ports[port.decoder.element_id] = port
        root = self.config_tree.root
        root_port = self._config_port_of(root)
        root_fwd = NarrowLink(f"cfg.module->{root}", width, self.changes)
        self.kernel.add_register(root_fwd.register)
        self.config_links[root_fwd.name] = root_fwd
        self.config_module.root_link = root_fwd
        root_port.in_link = root_fwd
        root_rsp = NarrowLink(f"rsp.{root}->module", width, self.changes)
        self.kernel.add_register(root_rsp.register)
        self.config_links[root_rsp.name] = root_rsp
        root_port.resp_out_link = root_rsp
        self.config_module.response_link = root_rsp
        for parent in self.config_tree.nodes:
            parent_port = self._config_port_of(parent)
            for child in self.config_tree.children[parent]:
                child_port = self._config_port_of(child)
                fwd = NarrowLink(f"cfg.{parent}->{child}", width, self.changes)
                self.kernel.add_register(fwd.register)
                self.config_links[fwd.name] = fwd
                parent_port.child_links.append(fwd)
                child_port.in_link = fwd
                rsp = NarrowLink(f"rsp.{child}->{parent}", width, self.changes)
                self.kernel.add_register(rsp.register)
                self.config_links[rsp.name] = rsp
                child_port.resp_out_link = rsp
                parent_port.resp_child_links.append(rsp)

    # -- element access ------------------------------------------------------------

    def ni(self, name: str) -> NetworkInterface:
        """Look up an NI component.

        Raises:
            TopologyError: if the name is not an NI.
        """
        try:
            return self.nis[name]
        except KeyError:
            raise TopologyError(f"{name!r} is not an NI") from None

    def router(self, name: str) -> Router:
        """Look up a router component.

        Raises:
            TopologyError: if the name is not a router.
        """
        try:
            return self.routers[name]
        except KeyError:
            raise TopologyError(f"{name!r} is not a router") from None

    def link(self, src: str, dst: str) -> Link:
        """Look up the directed data link from ``src`` to ``dst``."""
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise TopologyError(f"no link {src!r} -> {dst!r}") from None

    # -- convenience drivers ----------------------------------------------------------

    def run(self, cycles: int) -> None:
        """Advance the whole system by ``cycles`` clock cycles."""
        self.kernel.step(cycles)

    def run_until_configured(
        self, handle: SetupHandle, max_cycles: int = 200_000
    ) -> int:
        """Run until every request of ``handle`` has completed (see
        :meth:`wait_configured`).

        Returns the measured set-up time in cycles.
        """
        self.wait_configured(handle.requests, max_cycles)
        return handle.setup_cycles

    def wait_configured(
        self, requests: Sequence[ConfigRequest], max_cycles: int = 200_000
    ) -> int:
        """Run until every one of ``requests`` has completed; return the
        current cycle.

        The wait is closed-form where it can be: unless a request that
        expects response words is queued ahead of (or among) them,
        :meth:`ConfigModule.earliest_finish` is exact, so the kernel
        steps straight past it — in ``vector`` mode the whole wait runs
        on the engine beside traffic, and on the config plane alone
        when the data plane is empty — and ``done`` holds by the time
        it is polled.
        Otherwise ``done`` is polled from the start.  Cycles, exceptions
        and the state left on a ``max_cycles`` expiry are those of
        polling from the start.

        Raises:
            SimulationError: if the requests are not done within
                ``max_cycles`` cycles.
        """
        kernel = self.kernel
        module = self.config_module
        start = kernel.cycle
        ahead = module.earliest_finish(requests) + 1 - start
        if 0 < ahead <= max_cycles and not module.awaits_responses(requests):
            kernel.step(ahead)
        return kernel.run_until(
            lambda: all(request.done for request in requests),
            max_cycles=start + max_cycles - kernel.cycle,
        )

    def configure(
        self, connection: AllocatedConnection
    ) -> ConnectionHandle:
        """Set up a connection and block until it is live."""
        handle = self.host.setup_connection(connection)
        self.run_until_configured(handle)
        return handle

    def configure_multicast(
        self, tree: AllocatedMulticast
    ) -> MulticastHandle:
        """Set up a multicast tree and block until it is live."""
        handle = self.host.setup_multicast(tree)
        self.run_until_configured(handle)
        return handle

    def teardown(
        self,
        handle: ConnectionHandle,
        connection: AllocatedConnection,
    ) -> SetupHandle:
        """Tear down a connection and block until the entries are clear."""
        teardown = self.host.teardown_connection(handle, connection)
        self.run_until_configured(teardown)
        return teardown

    def drain(self, max_cycles: int = 100_000) -> None:
        """Run until every queued word has been injected and delivered
        to every destination: no source queue and no register holds a
        word, and the ledger has nothing in flight.

        Raises:
            SimulationError: if words fail to drain in ``max_cycles`` —
                e.g. a source channel was left disabled or starved of
                credits.
        """
        registers = self.kernel.all_registers()

        def idle() -> bool:
            if not self.stats.all_delivered:
                return False
            if any(
                source.queue
                for ni in self.nis.values()
                for source in ni.source_channels.values()
            ):
                return False
            return not any(
                isinstance(register.q, Phit) and register.q.word is not None
                for register in registers
            )

        self.kernel.run_until(idle, max_cycles=max_cycles)

    @property
    def total_dropped_words(self) -> int:
        """Words dropped anywhere (must be 0 outside reconfiguration)."""
        return sum(
            router.dropped_words for router in self.routers.values()
        ) + sum(ni.dropped_words for ni in self.nis.values())
