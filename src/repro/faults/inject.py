"""Arming fault plans against a live network.

:class:`FaultInjector` translates the declarative specs of a
:class:`~repro.faults.spec.FaultPlan` into the network's fault hooks:

* data-link faults become a :attr:`~repro.sim.link.Link.fault_hook`
  closure per targeted link,
* config-tree faults become a
  :attr:`~repro.sim.link.NarrowLink.fault_hook` per narrow link; the
  hook declares, as a ``cycles`` frozenset on the callable, every cycle
  it can drop or corrupt a word at — part of its contract: it is a no-op
  at any other cycle, so in ``vector`` mode a config packet whose flight
  window holds none of them is still delivered to its addressees only
  (see :mod:`repro.core.config_network`),
* slot-table upsets become :meth:`~repro.sim.kernel.Kernel.at`
  callbacks (start-of-cycle stimuli, which both kernel modes run before
  any component evaluates; the compiled engine stops at each as a
  barrier, so a fault in a compiled stretch is never skipped).

Every hook decides purely from ``(link name, kernel.cycle, plan)``, and
the surrounding simulator guarantees identical ``send`` call sequences
on every stepped cycle; injected faults and the events they record
are therefore byte-identical across kernels — the differential test in
``tests/faults`` holds the subsystem to that.

Injected faults are recorded in :class:`~repro.sim.stats.StatsCollector`
with category ``inject``; what the network notices (parity errors,
sequence gaps, protocol errors, drops) lands with category ``detect``.
Comparing the two populations is the core of the chaos suite.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional

from ..errors import FaultInjectionError, ReproError
from ..sim.flit import Phit
from ..sim.link import Link, NarrowLink
from ..sim.stats import FAULT_DETECTED, FAULT_INJECTED
from .spec import (
    ConfigWordCorrupt,
    ConfigWordDrop,
    FaultPlan,
    LinkDownFault,
    SlotTableUpset,
    StuckAtFault,
    TransientBitFlip,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.network import DaeliteNetwork


class FaultInjector:
    """Arms a :class:`FaultPlan` against one :class:`DaeliteNetwork`.

    Usage::

        injector = FaultInjector(network, plan)
        injector.arm()
        ...  # run the workload
        injector.disarm()

    Attributes:
        network: The target network.
        plan: The declarative fault schedule.
        armed: Whether hooks are currently installed.
    """

    def __init__(
        self, network: "DaeliteNetwork", plan: FaultPlan
    ) -> None:
        self.network = network
        self.plan = plan
        self.armed = False
        self._data_faults: Dict[tuple, List[object]] = {}
        self._cfg_faults: Dict[str, List[object]] = {}
        self._hooked_links: List[Link] = []
        self._hooked_cfg_links: List[NarrowLink] = []
        self._monitored_ports: List[object] = []
        self._index_plan()

    # -- plan validation / indexing ----------------------------------------------

    def _index_plan(self) -> None:
        """Group specs by target link, validating every target exists."""
        for spec in self.plan.specs:
            if isinstance(
                spec, (TransientBitFlip, StuckAtFault, LinkDownFault)
            ):
                if spec.edge not in self.network.links:
                    raise FaultInjectionError(
                        f"plan targets unknown data link {spec.edge!r}"
                    )
                self._data_faults.setdefault(spec.edge, []).append(spec)
            elif isinstance(spec, (ConfigWordDrop, ConfigWordCorrupt)):
                if spec.link not in self.network.config_links:
                    raise FaultInjectionError(
                        f"plan targets unknown config link {spec.link!r}"
                    )
                self._cfg_faults.setdefault(spec.link, []).append(spec)
            elif isinstance(spec, SlotTableUpset):
                if spec.router not in self.network.routers:
                    raise FaultInjectionError(
                        f"plan targets unknown router {spec.router!r}"
                    )
                router = self.network.routers[spec.router]
                if spec.output >= router.ports:
                    raise FaultInjectionError(
                        f"router {spec.router!r} has no output "
                        f"{spec.output}"
                    )
                if spec.slot >= self.network.params.slot_table_size:
                    raise FaultInjectionError(
                        f"slot {spec.slot} outside the "
                        f"{self.network.params.slot_table_size}-slot table"
                    )
            else:  # pragma: no cover - FaultSpec union is closed
                raise FaultInjectionError(
                    f"unknown fault spec {spec!r}"
                )

    # -- arming ------------------------------------------------------------

    def arm(self) -> None:
        """Install all hooks and schedule all timed faults.

        Raises:
            FaultInjectionError: if already armed, if a targeted link
                already carries another hook, if a scheduled fault lies
                in the simulator's past, or if the plan targets config
                links while an elided packet is in flight.
        """
        if self.armed:
            raise FaultInjectionError("injector is already armed")
        kernel = self.network.kernel
        self._check_future(kernel.cycle)
        if self._cfg_faults and self.network.config_module.elision_in_flight:
            raise FaultInjectionError(
                "a configuration packet is in flight past the config "
                "links (delivered to its addressees only), so hooks armed "
                "now would miss words the stepped tree would still carry "
                "— arm between packets"
            )
        for edge, specs in sorted(self._data_faults.items()):
            link = self.network.links[edge]
            if link.fault_hook is not None:
                raise FaultInjectionError(
                    f"data link {edge!r} already has a fault hook"
                )
            link.fault_hook = self._make_data_hook(tuple(specs))
            self._hooked_links.append(link)
        for name, specs in sorted(self._cfg_faults.items()):
            cfg_link = self.network.config_links[name]
            if cfg_link.fault_hook is not None:
                raise FaultInjectionError(
                    f"config link {name!r} already has a fault hook"
                )
            cfg_link.fault_hook = self._make_cfg_hook(tuple(specs))
            self._hooked_cfg_links.append(cfg_link)
        for spec in self.plan.table_specs():
            kernel.at(spec.cycle, self._make_table_callback(spec))
        for spec in self.plan.data_specs():
            if isinstance(spec, (StuckAtFault, LinkDownFault)):
                kernel.at(
                    spec.from_cycle, self._make_window_callback(spec)
                )
        self._install_monitors()
        self.armed = True

    def disarm(self) -> None:
        """Remove every installed hook and monitor.

        Callbacks already scheduled on the kernel cannot be unscheduled;
        they check :attr:`armed` and do nothing once disarmed.
        """
        for link in self._hooked_links:
            link.fault_hook = None
        self._hooked_links.clear()
        for cfg_link in self._hooked_cfg_links:
            cfg_link.fault_hook = None
        self._hooked_cfg_links.clear()
        for port in self._monitored_ports:
            port.fault_monitor = None
        self._monitored_ports.clear()
        self.armed = False

    def _check_future(self, now: int) -> None:
        for spec in self.plan.specs:
            first = getattr(spec, "cycle", None)
            if first is None:
                first = getattr(spec, "from_cycle", None)
            if first is not None and first < now:
                raise FaultInjectionError(
                    f"{spec!r} is scheduled at cycle {first}, but the "
                    f"simulator is already at cycle {now} — arm the "
                    f"injector before the plan's horizon"
                )

    def _install_monitors(self) -> None:
        """Route decoder errors on every element into the fault log.

        Without a monitor a corrupted configuration word crashes the
        simulation (the right behaviour for a healthy network); with
        faults armed the element instead logs the :class:`ProtocolError`
        and resynchronises at the next packet gap."""
        ports = [
            (name, self.network.routers[name].config)
            for name in sorted(self.network.routers)
        ] + [
            (name, self.network.nis[name].config)
            for name in sorted(self.network.nis)
        ]
        for name, port in ports:
            if port.fault_monitor is not None:
                continue
            port.fault_monitor = self._make_monitor(name)
            self._monitored_ports.append(port)

    # -- hook factories ------------------------------------------------------------

    def _make_monitor(self, element: str):
        stats = self.network.stats

        def monitor(cycle: int, error: ReproError) -> None:
            stats.record_fault(
                cycle,
                FAULT_DETECTED,
                "protocol_error",
                element,
                f"{type(error).__name__}: {error}",
            )

        return monitor

    def _make_data_hook(self, specs: tuple):
        """Build the per-link hook composing every data fault on it.

        Order models the physical layering: a dead link carries nothing
        (drop wins), then stuck-at wires override the driven value, then
        a transient strikes whatever is left."""
        network = self.network
        stats = network.stats
        downs = tuple(
            s for s in specs if isinstance(s, LinkDownFault)
        )
        stucks = tuple(s for s in specs if isinstance(s, StuckAtFault))
        flips = tuple(
            s for s in specs if isinstance(s, TransientBitFlip)
        )

        def hook(link: Link, phit: Phit) -> Optional[Phit]:
            cycle = network.kernel.cycle
            for down in downs:
                if down.from_cycle <= cycle and (
                    down.until_cycle is None or cycle < down.until_cycle
                ):
                    if not phit.is_idle:
                        stats.record_fault(
                            cycle,
                            FAULT_INJECTED,
                            "phit_lost",
                            link.name,
                            f"link down dropped {phit!r}",
                        )
                    return None
            word = phit.word
            if word is None:
                return phit
            payload = word.payload
            for stuck in stucks:
                if stuck.from_cycle <= cycle and (
                    stuck.until_cycle is None
                    or cycle < stuck.until_cycle
                ):
                    forced = (payload & ~(1 << stuck.bit)) | (
                        stuck.value << stuck.bit
                    )
                    if forced != payload:
                        stats.record_fault(
                            cycle,
                            FAULT_INJECTED,
                            "stuck_at",
                            link.name,
                            f"bit {stuck.bit} forced to {stuck.value} "
                            f"on {word!r}",
                        )
                        payload = forced
            for flip in flips:
                if flip.cycle == cycle:
                    payload ^= 1 << flip.bit
                    stats.record_fault(
                        cycle,
                        FAULT_INJECTED,
                        "bit_flip",
                        link.name,
                        f"bit {flip.bit} flipped on {word!r}",
                    )
            if payload == word.payload:
                return phit
            # Keep the original parity wire: the corruption is exactly
            # what the destination NI's parity check exists to catch.
            return replace(phit, word=replace(word, payload=payload))

        return hook

    def _make_cfg_hook(self, specs: tuple):
        """Build the per-link hook composing every config fault on it,
        declaring the cycles it can act on as ``hook.cycles``."""
        network = self.network
        stats = network.stats
        drops = tuple(
            s for s in specs if isinstance(s, ConfigWordDrop)
        )
        corrupts = tuple(
            s for s in specs if isinstance(s, ConfigWordCorrupt)
        )

        def hook(link: NarrowLink, word: int) -> Optional[int]:
            cycle = network.kernel.cycle
            for drop in drops:
                if drop.cycle == cycle:
                    stats.record_fault(
                        cycle,
                        FAULT_INJECTED,
                        "config_drop",
                        link.name,
                        f"word {word:#04x} swallowed",
                    )
                    return None
            for corrupt in corrupts:
                if corrupt.cycle == cycle:
                    flipped = (word ^ (1 << corrupt.bit)) & (
                        (1 << link.width_bits) - 1
                    )
                    stats.record_fault(
                        cycle,
                        FAULT_INJECTED,
                        "config_corrupt",
                        link.name,
                        f"word {word:#04x} -> {flipped:#04x} "
                        f"(bit {corrupt.bit})",
                    )
                    word = flipped
            return word

        # The hook's contract with ``ConfigModule._elision_refusal``: at
        # every cycle not declared here it returns the word untouched.
        hook.cycles = frozenset(  # type: ignore[attr-defined]
            spec.cycle for spec in drops + corrupts
        )
        return hook

    def _make_table_callback(self, spec: SlotTableUpset):
        network = self.network
        stats = network.stats
        injector = self

        def upset(cycle: int) -> None:
            if not injector.armed:
                return
            router = network.routers[spec.router]
            previous = router.slot_table.entry(spec.output, spec.slot)
            router.slot_table.clear_entry(spec.output, spec.slot)
            stats.record_fault(
                cycle,
                FAULT_INJECTED,
                "table_upset",
                spec.router,
                f"out{spec.output} slot {spec.slot} cleared "
                f"(was in{previous})"
                if previous is not None
                else f"out{spec.output} slot {spec.slot} cleared "
                f"(was empty)",
            )

        return upset

    def _make_window_callback(self, spec):
        """Log the onset of a windowed fault as an injection event."""
        network = self.network
        stats = network.stats
        injector = self
        kind = (
            "link_down"
            if isinstance(spec, LinkDownFault)
            else "stuck_at_start"
        )
        src, dst = spec.edge

        def onset(cycle: int) -> None:
            if not injector.armed:
                return
            until = (
                "permanently"
                if spec.until_cycle is None
                else f"until cycle {spec.until_cycle}"
            )
            stats.record_fault(
                cycle,
                FAULT_INJECTED,
                kind,
                f"{src}->{dst}",
                until,
            )

        return onset


def inject_and_run(
    network: "DaeliteNetwork", plan: FaultPlan, cycles: int
) -> FaultInjector:
    """Convenience: arm ``plan``, run ``cycles``, disarm; returns the
    (disarmed) injector so callers can inspect what was installed."""
    injector = FaultInjector(network, plan)
    injector.arm()
    try:
        network.run(cycles)
    finally:
        injector.disarm()
    return injector
