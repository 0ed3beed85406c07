"""The schedule model-checker: materialized network state vs. allocation.

:mod:`repro.alloc.validate` proves contention freedom on *allocation
specs*; this module extends the same invariant to the *materialized*
state of a configured network: every ``RouterSlotTable`` /
``NiInjectionTable`` / ``NiArrivalTable`` entry is re-derived hop by hop
from the allocated channels and multicast trees and cross-checked
against what the configuration protocol actually programmed.

Hop-offset math (DESIGN.md, timing model): a channel injecting in slot
*s* uses table index ``(s + k + delay_before(k)) mod T`` at the element
in path position *k* and claims the link from *k* to *k+1* at slot
``(s + k + 1 + delay_before(k)) mod T``.  The "+1 table index per
element" holds for both fabrics because a hop takes exactly one slot:
2-cycle hops with 2-cycle slots in daelite, 3-cycle hops with 3-cycle
slots in aelite (aelite materializes no router tables — its source
routing is checked against the installed ``path_ports`` instead).

Schedule rules (runtime — they need a live network, so they are invoked
from tests and examples through :func:`verify_network_state`, not from
the CLI):

``SC001`` missing entry — the allocation requires a table entry the
network does not hold (a word will be dropped at that element).
``SC002`` wrong entry — the table cell holds a different value than the
allocation derives (a word will be misrouted).
``SC003`` orphan entry — a programmed entry no live allocation explains
(a leaked set-up or incomplete tear-down).
``SC004`` double-booking — two allocations claim the same (link, slot)
or the same table cell with different values.
``SC005`` endpoint state — an NI endpoint (aelite source connection or
queue) disagrees with the allocation (path, queue index, enable flag).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

from ..alloc.spec import AllocatedChannel
from ..core.host import (
    ChannelEndpoints,
    ConnectionHandle,
    MulticastHandle,
)
from ..errors import ScheduleError, StaticCheckError
from .findings import Finding, Severity, sort_findings
from .registry import Rule, register

#: Pseudo-path used for runtime findings (there is no source file).
NETWORK_FILE = "<network>"

SC_RULES: Tuple[Rule, ...] = (
    Rule(
        rule_id="SC001",
        title="missing-table-entry",
        description=(
            "a configured network lacks a slot-table entry the "
            "allocation requires — words will be dropped"
        ),
        severity=Severity.ERROR,
        kind="schedule",
    ),
    Rule(
        rule_id="SC002",
        title="wrong-table-entry",
        description=(
            "a slot-table cell holds a different value than the "
            "hop-by-hop derivation from the allocation — words will "
            "be misrouted"
        ),
        severity=Severity.ERROR,
        kind="schedule",
    ),
    Rule(
        rule_id="SC003",
        title="orphan-table-entry",
        description=(
            "a programmed table entry is explained by no live "
            "allocation — leaked set-up or incomplete tear-down"
        ),
        severity=Severity.ERROR,
        kind="schedule",
    ),
    Rule(
        rule_id="SC004",
        title="slot-double-booking",
        description=(
            "two allocations claim the same (link, slot) pair or "
            "derive conflicting values for one table cell"
        ),
        severity=Severity.ERROR,
        kind="schedule",
    ),
    Rule(
        rule_id="SC005",
        title="endpoint-state-mismatch",
        description=(
            "an NI endpoint (source connection or queue) disagrees "
            "with the allocation: wrong path, queue or enable flag"
        ),
        severity=Severity.ERROR,
        kind="schedule",
    ),
)

for _sc in SC_RULES:
    register(_sc)


def _finding(rule_id: str, message: str, hint: str = "") -> Finding:
    return Finding(
        rule=rule_id,
        severity=Severity.ERROR,
        file=NETWORK_FILE,
        line=0,
        message=message,
        hint=hint,
    )


class _ExpectedTables:
    """Accumulates the table state a set of allocations implies."""

    def __init__(self, topology: Any) -> None:
        self.topology = topology
        #: ni -> slot -> (channel index, owning label)
        self.injection: Dict[str, Dict[int, Tuple[int, str]]] = {}
        self.arrival: Dict[str, Dict[int, Tuple[int, str]]] = {}
        #: router -> (output, slot) -> (input, owning label)
        self.router: Dict[str, Dict[Tuple[int, int], Tuple[int, str]]] = {}
        #: (edge, slot) -> owning label
        self.claims: Dict[Tuple[Tuple[str, str], int], str] = {}
        self.findings: List[Finding] = []

    def _put(
        self,
        store: Dict[str, Dict[Any, Tuple[int, str]]],
        element: str,
        key: Any,
        value: int,
        label: str,
        describe: str,
    ) -> None:
        cells = store.setdefault(element, {})
        current = cells.get(key)
        if current is not None and current[0] != value:
            self.findings.append(
                _finding(
                    "SC004",
                    f"{describe} at {element!r} is derived as "
                    f"{current[0]} by {current[1]!r} but as {value} "
                    f"by {label!r}",
                    "re-run the allocator; these allocations were "
                    "never contention-free together",
                )
            )
            return
        cells[key] = (value, label)

    def claim_links(self, label: str, channel_or_tree: Any) -> None:
        for edge, slot in channel_or_tree.link_claims():
            owner = self.claims.get((edge, slot))
            if owner is not None and owner != label:
                self.findings.append(
                    _finding(
                        "SC004",
                        f"link {edge[0]}->{edge[1]} slot {slot} is "
                        f"claimed by both {owner!r} and {label!r}",
                        "re-run the allocator; the claim sets must be "
                        "disjoint",
                    )
                )
            else:
                self.claims[(edge, slot)] = label

    def expect_channel(
        self,
        channel: AllocatedChannel,
        src_index: int,
        dst_index: int,
    ) -> None:
        """Derive, hop by hop, every table entry ``channel`` needs."""
        path = channel.path
        for slot in channel.table_slots(0):
            self._put(
                self.injection,
                path[0],
                slot,
                src_index,
                channel.label,
                f"injection slot {slot}",
            )
        for position in range(1, len(path) - 1):
            element = self.topology.element(path[position])
            output = element.port_to(path[position + 1])
            input_port = element.port_to(path[position - 1])
            for slot in channel.table_slots(position):
                self._put(
                    self.router,
                    path[position],
                    (output, slot),
                    input_port,
                    channel.label,
                    f"router entry (out {output}, slot {slot})",
                )
        for slot in channel.table_slots(len(path) - 1):
            self._put(
                self.arrival,
                path[-1],
                slot,
                dst_index,
                channel.label,
                f"arrival slot {slot}",
            )


def _compare_ni_table(
    findings: List[Finding],
    element: str,
    table_name: str,
    table: Any,
    expected: Dict[int, Tuple[int, str]],
    size: int,
) -> None:
    for slot, actual in enumerate(table.image()[:size]):
        want = expected.get(slot)
        if want is None:
            if actual is not None:
                findings.append(
                    _finding(
                        "SC003",
                        f"{element!r} {table_name} slot {slot} is "
                        f"granted to channel {actual} but no live "
                        f"allocation uses it",
                        "tear-down left a stale entry, or the handle "
                        "list passed to the checker is incomplete",
                    )
                )
        elif actual is None:
            findings.append(
                _finding(
                    "SC001",
                    f"{element!r} {table_name} slot {slot} should be "
                    f"granted to channel {want[0]} "
                    f"(for {want[1]!r}) but is empty",
                    "the set-up packet for this element never "
                    "applied — check the configuration log",
                )
            )
        elif actual != want[0]:
            findings.append(
                _finding(
                    "SC002",
                    f"{element!r} {table_name} slot {slot} is granted "
                    f"to channel {actual}, but {want[1]!r} derives "
                    f"channel {want[0]}",
                    "a configuration packet programmed the wrong "
                    "channel index",
                )
            )


def _daelite_endpoints(
    handles: Iterable[Any],
) -> List[ChannelEndpoints]:
    """Flatten handles into per-channel endpoint records."""
    endpoints: List[ChannelEndpoints] = []
    for handle in handles:
        if isinstance(handle, ChannelEndpoints):
            endpoints.append(handle)
        elif isinstance(handle, ConnectionHandle):
            for side in (handle.forward, handle.reverse):
                if side is not None:
                    endpoints.append(side)
        elif isinstance(handle, MulticastHandle):
            tree = handle.tree
            if tree is None:
                raise StaticCheckError(
                    f"multicast handle {handle.label!r} holds no tree"
                )
            for branch in tree.paths:
                endpoints.append(
                    ChannelEndpoints(
                        channel=branch,
                        src_channel=handle.src_channel,
                        dst_channel=handle.dst_channels[branch.dst_ni],
                    )
                )
        else:
            raise StaticCheckError(
                f"cannot interpret {type(handle).__name__} as a "
                f"daelite connection/multicast handle"
            )
    return endpoints


def check_daelite_state(
    network: Any, handles: Iterable[Any]
) -> List[Finding]:
    """Cross-check a daelite network's tables against ``handles``.

    ``handles`` must list *every* live set-up (``ConnectionHandle``,
    ``MulticastHandle`` or raw ``ChannelEndpoints``): completeness is
    what makes orphan detection (``SC003``) sound.
    """
    size = network.params.slot_table_size
    handles = list(handles)
    expected = _ExpectedTables(network.topology)
    # Multicast branches share injection slots and tree-prefix links, so
    # their link claims are registered once per tree, not per branch.
    tree_branches: set = set()
    for handle in handles:
        if isinstance(handle, MulticastHandle) and handle.tree is not None:
            expected.claim_links(handle.label, handle.tree)
            tree_branches.update(
                id(branch) for branch in handle.tree.paths
            )
    for endpoint in _daelite_endpoints(handles):
        expected.expect_channel(
            endpoint.channel,
            endpoint.src_channel,
            endpoint.dst_channel,
        )
        if id(endpoint.channel) not in tree_branches:
            expected.claim_links(
                endpoint.channel.label, endpoint.channel
            )
    findings = list(expected.findings)
    for name, ni in network.nis.items():
        _compare_ni_table(
            findings,
            name,
            "injection table",
            ni.injection_table,
            expected.injection.get(name, {}),
            size,
        )
        _compare_ni_table(
            findings,
            name,
            "arrival table",
            ni.arrival_table,
            expected.arrival.get(name, {}),
            size,
        )
    for name, router in network.routers.items():
        cells = expected.router.get(name, {})
        for output, column in enumerate(router.slot_table.image()):
            if not cells and column.count(None) == len(column):
                continue  # an idle output no allocation names
            for slot, actual in enumerate(column[:size]):
                want = cells.get((output, slot))
                if want is None:
                    if actual is not None:
                        findings.append(
                            _finding(
                                "SC003",
                                f"router {name!r} output {output} "
                                f"slot {slot} forwards from input "
                                f"{actual} but no live allocation "
                                f"routes through it",
                                "tear-down left a stale entry, or "
                                "the handle list is incomplete",
                            )
                        )
                elif actual is None:
                    findings.append(
                        _finding(
                            "SC001",
                            f"router {name!r} output {output} slot "
                            f"{slot} should forward from input "
                            f"{want[0]} (for {want[1]!r}) but is "
                            f"empty",
                            "the path set-up packet for this router "
                            "never applied",
                        )
                    )
                elif actual != want[0]:
                    findings.append(
                        _finding(
                            "SC002",
                            f"router {name!r} output {output} slot "
                            f"{slot} forwards from input {actual}, "
                            f"but {want[1]!r} derives input "
                            f"{want[0]}",
                            "a path packet programmed the wrong "
                            "input port",
                        )
                    )
    return sort_findings(findings)


def _aelite_channel_handles(handles: Iterable[Any]) -> List[Any]:
    flat: List[Any] = []
    for handle in handles:
        if hasattr(handle, "forward") and hasattr(handle, "reverse"):
            flat.extend([handle.forward, handle.reverse])
        elif hasattr(handle, "channel") and hasattr(
            handle, "src_connection"
        ):
            flat.append(handle)
        else:
            raise StaticCheckError(
                f"cannot interpret {type(handle).__name__} as an "
                f"aelite connection/channel handle"
            )
    return flat


def check_aelite_state(
    network: Any, handles: Iterable[Any]
) -> List[Finding]:
    """Cross-check an aelite network's NI state against ``handles``.

    aelite routers hold no tables (source routing), so the materialized
    state is the source NIs' injection tables and per-connection path
    registers, plus the destination queue enables.
    """
    size = network.params.slot_table_size
    topology = network.topology
    findings: List[Finding] = []
    expected_inj: Dict[str, Dict[int, Tuple[int, str]]] = {}
    expected_sources: Dict[Tuple[str, int], Any] = {}
    expected_queues: Dict[Tuple[str, int], str] = {}
    claims: Dict[Tuple[Tuple[str, str], int], str] = {}
    for handle in _aelite_channel_handles(handles):
        channel: AllocatedChannel = handle.channel
        cells = expected_inj.setdefault(channel.src_ni, {})
        for slot in channel.slots:
            current = cells.get(slot)
            if current is not None and current[0] != handle.src_connection:
                findings.append(
                    _finding(
                        "SC004",
                        f"injection slot {slot} at "
                        f"{channel.src_ni!r} is derived for both "
                        f"connection {current[0]} ({current[1]!r}) "
                        f"and {handle.src_connection} "
                        f"({channel.label!r})",
                        "re-run the allocator",
                    )
                )
            else:
                cells[slot] = (handle.src_connection, channel.label)
        expected_sources[
            (channel.src_ni, handle.src_connection)
        ] = handle
        expected_queues[
            (channel.dst_ni, handle.dst_queue)
        ] = channel.label
        for edge, slot in channel.link_claims():
            owner = claims.get((edge, slot))
            if owner is not None and owner != channel.label:
                findings.append(
                    _finding(
                        "SC004",
                        f"link {edge[0]}->{edge[1]} slot {slot} is "
                        f"claimed by both {owner!r} and "
                        f"{channel.label!r}",
                        "re-run the allocator",
                    )
                )
            else:
                claims[(edge, slot)] = channel.label
    for name, ni in network.nis.items():
        _compare_ni_table(
            findings,
            name,
            "injection table",
            ni.injection_table,
            expected_inj.get(name, {}),
            size,
        )
        for index, source in ni.sources.items():
            if (name, index) not in expected_sources and source.enabled:
                findings.append(
                    _finding(
                        "SC003",
                        f"{name!r} source connection {index} is "
                        f"enabled but no live allocation uses it",
                        "disable torn-down connections, or pass the "
                        "complete handle list",
                    )
                )
    for (ni_name, index), handle in expected_sources.items():
        channel = handle.channel
        ni = network.nis[ni_name]
        source = ni.sources.get(index)
        if source is None:
            findings.append(
                _finding(
                    "SC001",
                    f"{ni_name!r} has no source connection {index} "
                    f"for {channel.label!r}",
                    "the channel was never installed",
                )
            )
            continue
        derived_ports = tuple(
            topology.element(channel.path[position]).port_to(
                channel.path[position + 1]
            )
            for position in range(1, len(channel.path) - 1)
        )
        if not source.enabled:
            findings.append(
                _finding(
                    "SC005",
                    f"{ni_name!r} source connection {index} "
                    f"({channel.label!r}) is not enabled",
                    "set the enable flag after installing the path",
                )
            )
        if tuple(source.path_ports) != derived_ports:
            findings.append(
                _finding(
                    "SC005",
                    f"{ni_name!r} source connection {index} "
                    f"({channel.label!r}) holds path ports "
                    f"{tuple(source.path_ports)} but the allocated "
                    f"path derives {derived_ports}",
                    "the installed source route does not match the "
                    "allocation",
                )
            )
        if source.dest_queue != handle.dst_queue:
            findings.append(
                _finding(
                    "SC005",
                    f"{ni_name!r} source connection {index} "
                    f"({channel.label!r}) targets queue "
                    f"{source.dest_queue} but the handle assigned "
                    f"queue {handle.dst_queue}",
                    "source and destination endpoints disagree",
                )
            )
    return sort_findings(findings)


def verify_network_state(
    network: Any,
    handles: Sequence[Any],
    raise_on_error: bool = True,
) -> List[Finding]:
    """Model-check a configured network against its live handles.

    Dispatches on the network flavour (daelite networks own a ``host``
    driver, aelite networks a ``config_model``), derives the complete
    expected table state hop by hop, and compares it cell by cell.

    Raises:
        ScheduleError: if ``raise_on_error`` and any finding emerged.
        StaticCheckError: if the network or a handle is of an unknown
            shape.
    """
    if hasattr(network, "config_model"):
        findings = check_aelite_state(network, handles)
    elif hasattr(network, "host"):
        findings = check_daelite_state(network, handles)
    else:
        raise StaticCheckError(
            f"cannot model-check {type(network).__name__}: neither a "
            f"daelite nor an aelite network"
        )
    if findings and raise_on_error:
        rendered = "\n".join(
            finding.render() for finding in findings
        )
        raise ScheduleError(
            f"materialized network state contradicts the allocation "
            f"({len(findings)} finding(s)):\n{rendered}"
        )
    return findings
