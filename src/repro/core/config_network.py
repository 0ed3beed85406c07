"""The host's configuration module — root of the broadcast tree.

"One IP, by convention called host, has exclusive control over the
configuration infrastructure through a configuration module."  The host
writes wide words to the module "using normal write operations"; the
module serializes them into 7-bit configuration words, one per cycle, onto
the root configuration link.  After every complete packet the module
enforces a cool-down period "during which no new configuration packets are
accepted", giving all elements time to commit their slot-table updates.

The module is also the termination of the response path, collecting the
words produced by CHANNEL_READ packets.  Only one request may be active at
a time; further requests queue inside the module.

Addressed-only delivery
-----------------------

The forward tree is a pure delay line: an element at depth ``d`` sees
word ``i`` of a packet started at cycle ``s`` at cycle
``s + i + 1 + CONFIG_HOP_CYCLES * d`` and the end-of-packet gap — the only
cycle at which a decoder emits actions — at
``s + len(words) + 1 + CONFIG_HOP_CYCLES * d``.  Elements the packet does
not address decode it to no actions.  In the ``vector`` kernel mode
the module therefore *elides* the tree for a response-free packet: at activation it deposits the word tuple in the
:class:`~repro.core.config_port.ConfigPort` of each element the packet's
builder recorded as addressed, stamped with that gap cycle, and keeps its
own ``_busy_until`` / ``finished_at`` timeline in closed form.  The
element runs its own decoder over the words at the stamped cycle and
applies the actions as always.  Whatever this cannot represent steps the
word-level tree exactly as in ``naive``, with the reason
counted in ``kernel_stats()["config_elision_refusals"]``.

:meth:`ConfigModule._elision_refusal` is the one predicate for that
decision: the module asks it at activation, and the compiled engine asks
it ahead of time for every queued packet, to stop at the activation of
the first one that will stream through the tree.  A fault hook on a
config link therefore keeps off the engine only the packets whose flight
window holds one of the cycles it declares.

Who runs an elided packet's deposits and the module's turns in vector
mode is :class:`ConfigEvents`: the one routine that orders them, called
by the compiled engine beside running traffic and by the kernel's
advance of the config plane alone when the data plane is empty (see
:mod:`repro.sim.compiled`).  :meth:`ConfigModule.next_stepped_cycle`
names the cycles neither may run: each cycle of a packet the
word-level tree carries, activation to finish, and the finish of a
request with an ``on_complete`` hook.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from ..errors import (
    ConfigTimeoutError,
    ConfigurationError,
    SimulationError,
)
from ..params import NetworkParameters
from ..sim.kernel import VECTOR_MODE, CompileRefusal, Component
from ..sim.link import NarrowFaultHook, NarrowLink
from ..sim.stats import FAULT_DETECTED, StatsCollector
from ..sim.trace import NULL_TRACER, Tracer
from ..topology import CONFIG_HOP_CYCLES, ConfigTree
from .changes import ChangeRecord
from .config_port import ConfigPort
from .config_protocol import Action, ConfigPacket, Opcode

# Why vector mode stepped a packet through the word-level tree anyway
# (keys of ``kernel_stats()["config_elision_refusals"]``).  The first
# two are the data plane's reasons too, so they share its vocabulary.
#: An event tracer is attached.
REFUSED_TRACER_ACTIVE = CompileRefusal.TRACER_ACTIVE
#: A fault hook on a config link can act inside this packet's flight
#: window: words may be dropped or corrupted in flight, per element,
#: which no single deposit can express.  A hook that declares the cycles
#: it can act on (``hook.cycles``, as :class:`~repro.faults.FaultInjector`
#: hooks do) refuses only the packets whose window
#: ``[started_at, _flight_end]`` holds one of them; a hook that declares
#: nothing refuses every packet while it is installed.
REFUSED_FAULT_HOOKS_ARMED = CompileRefusal.FAULT_HOOKS_ARMED
#: The packet expects response words, which travel the reverse tree.
REFUSED_EXPECTS_RESPONSE = "expects_response"
#: A hand-built packet: no builder recorded whom it addresses.
REFUSED_NO_ADDRESSEE_RECORD = "no_addressee_record"
#: The record names an element this network does not have.
REFUSED_UNKNOWN_ADDRESSEE = "unknown_addressee"

#: A cycle no config event falls in (:attr:`ConfigEvents.next`).
NEVER = 1 << 62

#: A port's place in the kernel's component order: a network adds its
#: elements to the kernel in element-ID order.
_ELEMENT_ORDER = attrgetter("decoder.element_id")


@dataclass
class ConfigRequest:
    """A packet submitted to the configuration module, with its timeline.

    Attributes:
        packet: The serialized configuration packet.
        expected_responses: Response words to wait for (CHANNEL_READ).
        submitted_at: Cycle the host handed the packet to the module.
        started_at: Cycle the first word left the module.
        finished_at: Cycle the request fully completed (cool-down elapsed
            and, for reads, all responses received) — or was abandoned
            after exhausting its retries (see :attr:`failed`).
        responses: Response words received, in order.
        timeout_cycles: Cycles to wait, after the last word leaves the
            module, for the expected responses before re-sending.
            ``None`` (the default) waits forever — the correct setting
            for a fault-free network, where a missing response is a
            model bug, not an operational condition.
        max_retries: Re-sends allowed after the first transmission.
            Re-sending is idempotent: configuration writes set absolute
            register/table values, so applying a packet twice equals
            applying it once.
        attempts: Transmissions so far (1 = the original send).
        failed: True once every retry timed out; the request is then
            finished (so waiters unblock) but unsuccessful.
    """

    packet: ConfigPacket
    expected_responses: int = 0
    submitted_at: int = -1
    started_at: int = -1
    finished_at: int = -1
    responses: List[int] = field(default_factory=list)
    on_complete: Optional[Callable[["ConfigRequest"], None]] = None
    timeout_cycles: Optional[int] = None
    max_retries: int = 0
    attempts: int = 1
    failed: bool = False

    @property
    def done(self) -> bool:
        return self.finished_at >= 0

    def raise_if_failed(self) -> None:
        """Raise :class:`~repro.errors.ConfigTimeoutError` if abandoned."""
        if self.failed:
            raise ConfigTimeoutError(
                f"request {self.packet.description!r} abandoned after "
                f"{self.attempts} attempts "
                f"(timeout {self.timeout_cycles} cycles)"
            )

    @property
    def setup_cycles(self) -> int:
        """Cycles from submission to completion.

        Raises:
            ConfigurationError: if the request has not completed.
        """
        if not self.done:
            raise ConfigurationError("request not complete yet")
        return self.finished_at - self.submitted_at


class ConfigModule(Component):
    """Serializer / response collector at the root of the config tree.

    Attributes:
        root_link: Narrow link feeding the root element of the tree.
        response_link: Narrow link on which responses arrive.
        word_queue: Words of the packet currently being transmitted.
    """

    def __init__(
        self,
        name: str,
        params: NetworkParameters,
        tree: ConfigTree,
        changes: Optional[ChangeRecord] = None,
    ) -> None:
        super().__init__(name)
        self.params = params
        self.tree = tree
        self.root_link: Optional[NarrowLink] = None
        self.response_link: Optional[NarrowLink] = None
        self._pending: Deque[ConfigRequest] = deque()
        self._active: Optional[ConfigRequest] = None
        self._word_queue: Deque[int] = deque()
        self._busy_until = 0
        self._deadline: Optional[int] = None
        self.completed: List[ConfigRequest] = []
        #: Optional stats collector (set by the network builder);
        #: timeouts and retries are recorded there as detected faults.
        self.stats: Optional[StatsCollector] = None
        #: Config port of every element by element ID (wired by the
        #: network builder) — where elided packets are deposited.
        self.ports: Dict[int, ConfigPort] = {}
        #: Every narrow link of the tree (the network's ``config_links``);
        #: a fault hook on any of them keeps the packets it can touch on
        #: the stepped tree.
        self.config_links: Dict[str, NarrowLink] = {}
        #: The network's change record (``repro.core.changes``; one of
        #: the module's own when built alone): its
        #: ``hooked_config_links`` lists the tree's hooked links.
        self.changes = changes if changes is not None else ChangeRecord()
        #: Optional event tracer (set by the network builder).
        self.tracer: Tracer = NULL_TRACER
        #: Ports holding a deposit of the active request.
        self._deposited: List[ConfigPort] = []
        #: Whether the active request streams its words through the
        #: word-level tree (it was not elided).
        self._active_on_tree = False

    # -- host-facing API -------------------------------------------------------

    def submit(
        self,
        packet: ConfigPacket,
        cycle: int,
        expected_responses: Optional[int] = None,
        on_complete: Optional[Callable[[ConfigRequest], None]] = None,
        timeout_cycles: Optional[int] = None,
        max_retries: int = 0,
    ) -> ConfigRequest:
        """Queue a configuration packet for transmission.

        ``expected_responses`` defaults to 1 for CHANNEL_READ packets and
        0 otherwise.  ``timeout_cycles`` (``None``: wait forever) and
        ``max_retries`` set the request's response budget (see
        :class:`ConfigRequest`).
        """
        if expected_responses is None:
            expected_responses = (
                1 if packet.opcode is Opcode.CHANNEL_READ else 0
            )
        request = ConfigRequest(
            packet=packet,
            expected_responses=expected_responses,
            submitted_at=cycle,
            on_complete=on_complete,
            timeout_cycles=timeout_cycles,
            max_retries=max_retries,
        )
        self._pending.append(request)
        return request

    @property
    def commit_latency(self) -> int:
        """Cycles after the last word until the farthest element has seen
        the end-of-packet gap and committed its updates."""
        return CONFIG_HOP_CYCLES * self.tree.max_depth + 1

    @property
    def elision_in_flight(self) -> bool:
        """True while an elided packet's deposits may still be waiting
        in element ports (nothing is visible on the tree's links)."""
        return bool(self._deposited)

    def awaits_responses(self, requests: Iterable[ConfigRequest]) -> bool:
        """Whether a request that expects response words is active or
        queued no later than the last unfinished one of ``requests`` —
        the one case in which :meth:`earliest_finish` bounds their
        finish instead of stating it."""
        waiting = {id(request) for request in requests if not request.done}
        for request in (self._active, *self._pending):
            if not waiting:
                break
            if request is None:
                continue
            if request.expected_responses:
                return True
            waiting.discard(id(request))
        return False

    @property
    def on_tree(self) -> bool:
        """True from the activation of a packet streamed through the
        word-level tree until its request finishes."""
        return self._active is not None and self._active_on_tree

    def timeline(self, cycle: int) -> List[Tuple[ConfigRequest, int, int]]:
        """``(request, start, finish)`` of the active request and of each
        queued one, in order, for a module that has not evaluated
        ``cycle`` yet (an active request's ``start`` is its
        ``started_at``).

        ``finish`` is exact for a response-free request and a lower
        bound otherwise (responses and retries only delay it): a
        request finishes ``len + commit_latency + cooldown_cycles``
        cycles after it starts — the same on the word-level tree and
        elided — and the next starts one cycle after that.
        """
        plan: List[Tuple[ConfigRequest, int, int]] = []
        free = max(cycle, self._busy_until)
        active = self._active
        if active is not None:
            if self._word_queue:
                free = self._flight_end(cycle, len(self._word_queue))
            plan.append((active, active.started_at, free))
            free += 1
        for request in self._pending:
            start = max(cycle, free)
            free = self._flight_end(start, len(request.packet.words))
            plan.append((request, start, free))
            free += 1
        return plan

    def earliest_finish(self, requests: Iterable[ConfigRequest]) -> int:
        """A lower bound on the cycle by which every one of ``requests``
        has finished (see :meth:`timeline`): exact when none of them
        expects responses.  Finished requests count with their
        ``finished_at``, one this module does not hold with the current
        cycle, and no request at all as ``-1``."""
        kernel = self._kernel
        assert kernel is not None  # only an attached module is waited on
        cycle = kernel.cycle
        finish = {
            id(request): end for request, _start, end in self.timeline(cycle)
        }
        bound = -1
        for request in requests:
            if request.done:
                end = request.finished_at
            else:
                end = finish.get(id(request), cycle)
            bound = max(bound, end)
        return bound

    def next_stepped_cycle(self, cycle: int) -> Optional[int]:
        """The first cycle from ``cycle`` that only a stepped kernel may
        run (``None``: none is scheduled): ``cycle`` itself while a
        packet rides the word-level tree (:attr:`on_tree`), else the
        activation of a queued packet this module will stream through
        it, or the finish of a request whose ``on_complete`` hook may
        do anything a ``kernel.at`` callback may.  Both are read off
        the closed-form :meth:`timeline`, exact for the response-free
        requests :class:`ConfigEvents` can be running.  Each queued
        packet is asked :meth:`_elision_refusal` at its start, so a
        config-link fault hook stops the compiled kernel only at the
        packets whose flight window holds one of its cycles."""
        if self.on_tree:
            return cycle
        hooks = self.config_fault_hooks()
        for request, start, finish in self.timeline(cycle):
            if request is not self._active and (
                self._elision_refusal(request, start, hooks) is not None
            ):
                return start
            if request.on_complete is not None:
                return finish
        return None

    # -- cycle behaviour ---------------------------------------------------------

    def next_evaluation(self, cycle: int) -> Optional[int]:
        """Earliest cycle ``>= cycle`` the module has work (the compiled
        engine schedules its turns by it): every cycle while it streams
        words or awaits responses, else the cool-down deadline of the
        active or the next pending request, else never."""
        if self._active is not None:
            if self._word_queue:
                return cycle
            if len(self._active.responses) < self._active.expected_responses:
                return cycle
            return max(cycle, self._busy_until)
        if self._pending:
            return max(cycle, self._busy_until)
        return None

    def evaluate(self, cycle: int) -> None:
        self._collect_response(cycle)
        if self._active is None and self._pending and (
            cycle >= self._busy_until
        ):
            self._active = self._pending.popleft()
            self._active.started_at = cycle
            self._start_transmission(self._active, cycle)
        if self._active is None:
            return
        if self._word_queue:
            word = self._word_queue.popleft()
            if self.root_link is not None:
                self.root_link.send(word)
            if not self._word_queue:
                # Last word sent: the gap follows next cycle.  Cool-down
                # starts after the whole tree has seen the gap.
                self._busy_until = (
                    cycle
                    + 1
                    + self.commit_latency
                    + self.params.cooldown_cycles
                )
                self._deadline = (
                    cycle + 1 + self._active.timeout_cycles
                    if self._active.timeout_cycles is not None
                    else None
                )
            return
        # Transmission finished; wait for cool-down and responses.
        responses_done = (
            len(self._active.responses) >= self._active.expected_responses
        )
        if not responses_done and self._timed_out(cycle):
            return
        if cycle >= self._busy_until and responses_done:
            self._finish(cycle)

    def _start_transmission(
        self, request: ConfigRequest, cycle: int
    ) -> None:
        """Queue the packet's words for the tree, or elide the tree."""
        kernel = self._kernel
        assert kernel is not None  # only an attached module is evaluated
        self._active_on_tree = False
        if kernel.mode == VECTOR_MODE:
            refusal = self._elision_refusal(request, cycle)
            if refusal is None:
                self._deposit_packet(request, cycle)
                kernel.config_packets_elided += 1
                return
            kernel.config_elision_refusals[refusal] = (
                kernel.config_elision_refusals.get(refusal, 0) + 1
            )
        self._active_on_tree = True
        kernel.config_packets_stepped += 1
        self._word_queue.extend(request.packet.words)

    def config_fault_hooks(self) -> List[NarrowFaultHook]:
        """The fault hooks installed on the tree's links, in the order
        they were installed: read off the change record, so no tree
        link without one is visited."""
        return [
            link.fault_hook for link in self.changes.hooked_config_links
        ]

    def _elision_refusal(
        self,
        request: ConfigRequest,
        cycle: int,
        hooks: Optional[List[NarrowFaultHook]] = None,
    ) -> Optional[str]:
        """Why this request, activated at ``cycle``, must step the
        word-level tree (``None``: addressed-only delivery represents it
        exactly).  The one elision predicate: the module asks it at
        activation, the compiled engine ahead of time for every queued
        packet (passing :meth:`config_fault_hooks` once for all of
        them)."""
        if self.tracer.enabled:
            return REFUSED_TRACER_ACTIVE
        if request.expected_responses:
            return REFUSED_EXPECTS_RESPONSE
        addressees = request.packet.addressees
        if addressees is None:
            return REFUSED_NO_ADDRESSEE_RECORD
        if not all(map(self.ports.__contains__, addressees)):
            return REFUSED_UNKNOWN_ADDRESSEE
        if hooks is None:
            hooks = self.config_fault_hooks()
        if not hooks:
            return None
        window_end = self._flight_end(cycle, len(request.packet.words))
        for hook in hooks:
            cycles = getattr(hook, "cycles", None)
            if cycles is None or any(
                cycle <= fault <= window_end for fault in cycles
            ):
                return REFUSED_FAULT_HOOKS_ARMED
        return None

    def _flight_end(self, started_at: int, length: int) -> int:
        """Cycle the module is free again after a ``length``-word packet
        started at ``started_at`` — no word of it rides any link, at any
        depth, after this."""
        return (
            started_at
            + length
            + self.commit_latency
            + self.params.cooldown_cycles
        )

    def _due_cycle(self, started_at: int, length: int, depth: int) -> int:
        """Cycle at which an element ``depth`` hops below the root sees
        the gap ending a ``length``-word packet started at ``started_at``:
        one cycle on the root link, one per word, one for the gap, and
        ``CONFIG_HOP_CYCLES`` per tree hop."""
        return started_at + length + 1 + CONFIG_HOP_CYCLES * depth

    def _deposit_packet(self, request: ConfigRequest, cycle: int) -> None:
        """Hand the packet to its addressees and keep the module's own
        timeline as if the last word had left at ``cycle + len - 1``."""
        words = request.packet.words
        addressees = request.packet.addressees
        assert addressees is not None  # _elision_refusal checked
        # The whole packet is checked once, by any addressee's decoder;
        # each then decodes only its own part.
        layout = (
            self.ports[addressees[0]].decoder.addressed_layout(words)
            if addressees
            else None
        )
        for position, element_id in enumerate(addressees):
            port = self.ports[element_id]
            port.deposit(
                words,
                self._due_cycle(cycle, len(words), port.depth),
                position,
                layout,
            )
            self._deposited.append(port)
        self._busy_until = self._flight_end(cycle, len(words))
        self._deadline = None

    def _timed_out(self, cycle: int) -> bool:
        """Handle a response deadline; True if a retry was scheduled or
        the request was abandoned this cycle."""
        request = self._active
        assert request is not None
        if self._deadline is None or cycle < self._deadline:
            return False
        if self.stats is not None:
            self.stats.record_fault(
                cycle,
                FAULT_DETECTED,
                "config_timeout",
                self.name,
                f"attempt {request.attempts}: "
                f"{request.packet.description}",
            )
        if request.attempts <= request.max_retries:
            request.attempts += 1
            # Idempotent re-send: replay the identical word stream.  Any
            # partial responses of the failed attempt are discarded so
            # the retry's own response is the one collected.
            request.responses.clear()
            self._word_queue.extend(request.packet.words)
            self._deadline = None
            if self.stats is not None:
                self.stats.record_fault(
                    cycle,
                    FAULT_DETECTED,
                    "config_retry",
                    self.name,
                    f"attempt {request.attempts}: "
                    f"{request.packet.description}",
                )
            return True
        request.failed = True
        if self.stats is not None:
            self.stats.record_fault(
                cycle,
                FAULT_DETECTED,
                "config_failed",
                self.name,
                f"after {request.attempts} attempts: "
                f"{request.packet.description}",
            )
        self._finish(cycle)
        return True

    def _collect_response(self, cycle: int) -> None:
        if self.response_link is None or self._active is None:
            return
        word = self.response_link.incoming
        if word is None:
            return
        if len(self._active.responses) >= self._active.expected_responses:
            if self._active.attempts > 1:
                # A late response from a timed-out attempt arriving on
                # top of the retry's own: drop it (the values are equal
                # — reads are idempotent too).
                if self.stats is not None:
                    self.stats.record_fault(
                        cycle,
                        FAULT_DETECTED,
                        "stale_response",
                        self.name,
                        f"word {word:#x} discarded",
                    )
                return
            raise ConfigurationError(
                f"{self.name}: unexpected response word {word:#x}"
            )
        self._active.responses.append(word)

    def _finish(self, cycle: int) -> None:
        assert self._active is not None
        for port in self._deposited:
            if port.deposit_pending:
                raise SimulationError(
                    f"{self.name}: {self._active.packet.description!r} "
                    f"finished at cycle {cycle} with its deposit at "
                    f"{port.owner.name} never decoded — lost configuration"
                )
        self._deposited.clear()
        self._active.finished_at = cycle
        self._deadline = None
        self.completed.append(self._active)
        if self._active.on_complete is not None:
            self._active.on_complete(self._active)
        self._active = None


class ConfigEvents:
    """The config plane's events from a cycle on, in naive stepping's
    order: what vector mode runs of elided packets, whoever runs it.

    Two kinds of event, each through the model's own methods.  A
    *deposit due* is scheduled where its port says
    (:meth:`ConfigPort.next_evaluation`) and runs the port's
    ``_decode_deposit`` and ``apply_guarded`` with its element's
    ``_apply``; a *module turn* runs :meth:`ConfigModule.evaluate` at
    the module's ``next_evaluation``, and an activation schedules the
    new deposits.  In a cycle every due deposit applies, in the
    kernel's component order, and then the module takes its turn: in
    naive stepping an element applies after its own data-plane stages
    and the module evaluates after every element.

    The compiled engine runs these events beside its traffic, checking
    each apply against what its live flows read, and the kernel's
    advance of the config plane alone runs them while the data plane
    is empty (:mod:`repro.sim.compiled`); both call :meth:`run`.
    Neither may reach a cycle of :meth:`ConfigModule.next_stepped_cycle`.
    """

    __slots__ = ("module", "_due", "_turn", "next")

    def __init__(self, module: ConfigModule, cycle: int) -> None:
        self.module = module
        #: Ports whose deposit falls due, by cycle.
        self._due: Dict[int, List[ConfigPort]] = {}
        self._expect(cycle)
        turn = module.next_evaluation(cycle)
        #: The module's next turn (:data:`NEVER`: none).
        self._turn = NEVER if turn is None else turn
        #: The next cycle holding an event (:data:`NEVER`: none).
        self.next = min(self._turn, min(self._due, default=NEVER))

    def _expect(self, start: int) -> None:
        """Schedule each waiting deposit where its port says it is due
        (one already late is decoded at once, which raises)."""
        for port in self.module._deposited:
            due = port.next_evaluation(start)
            if due is not None:
                self._due.setdefault(due, []).append(port)

    def run(
        self,
        cycle: int,
        applied: Callable[[Component, List[Action], int], None],
    ) -> int:
        """Run the events of ``cycle``, the :attr:`next` one, with the
        kernel's clock at ``cycle`` (the model code reads it); return
        how many ran.  After each apply, ``applied(element, actions,
        writes)`` gets the element, what it applied and the network's
        schedule-write count before the apply.

        Raises:
            SimulationError: if the module's turn put a packet on the
                word-level tree (a :meth:`ConfigModule.next_stepped_cycle`
                barrier was missed).
        """
        module = self.module
        module._kernel.cycle = cycle  # type: ignore[union-attr]
        due = self._due
        events = 0
        ports = due.pop(cycle, None)
        if ports is not None:
            events = len(ports)
            if events > 1:
                ports.sort(key=_ELEMENT_ORDER)
            changes = module.changes
            for port in ports:
                writes = changes.writes
                actions = port._decode_deposit(cycle, None)
                if actions:
                    element = port.owner
                    port.apply_guarded(cycle, actions, element._apply)  # type: ignore[attr-defined]
                    applied(element, actions, writes)
        turn = self._turn
        if cycle == turn:
            events += 1
            module.evaluate(cycle)
            active = module._active
            if active is not None:
                if module._active_on_tree:
                    raise SimulationError(
                        f"{module.name} activated a packet the word-level "
                        f"tree must carry at cycle {cycle} with no stepped "
                        f"kernel running it (next_stepped_cycle missed it)"
                    )
                if active.started_at == cycle:
                    self._expect(cycle + 1)
            turn = module.next_evaluation(cycle + 1)
            if turn is None:
                turn = NEVER
            self._turn = turn
        self.next = min(turn, min(due)) if due else turn
        return events
