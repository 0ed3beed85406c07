"""Trajectory-lowered execution of a configured daelite data plane.

The contention-free TDM schedule makes a *configured* data plane fully
deterministic: which register feeds which register in a given cycle is a
pure function of the cycle's wheel phase (``cycle mod T*words_per_slot``),
and no word ever waits inside the network.  :mod:`repro.sim.lowering`
flattens that function, once per (re)configuration, into a per-phase op
table and walks the table from every injection seed — an NI stage
register in a wheel phase its channel owns — into the seed's
*trajectory* (the registers a phit launched there holds at each step,
the step it enters the link, the steps it arrives, the links it
crosses).  This module executes trajectories, not
hops: the engine touches a word when it is injected and when it
arrives.  The op table stays as the proof artifact the trajectories are
checked against (``repro.staticcheck``, OP001–OP005).

It is the one engine behind ``vector`` mode, in three layers:

* **Stepping** — :meth:`CompiledEngine.run_to` puts the phits it finds
  in the data registers back on their trajectories and then runs an
  event loop over per-cycle buckets.  In a cycle: arrivals (parity
  check, delivery, ejection recorded, credit return) and the link
  entries whose injection was not recorded at launch, in naive
  stepping's order; the slot owners — NI channels — that are *armed*,
  i.e. may have a word or credits to send in the phase they own, each
  launching at most one phit as one bucket entry per leaf of its
  trajectory (one arrival, or one per leaf of a multicast tree) and
  recording its word's injection at the link entry the trajectory
  fixes; the generators due; the sinks whose queue holds words, each
  drain also making the visit of a reverse channel that has nothing
  but those credits to send.  Both are taken back at a barrier that
  comes before them.  At each of these per-word sites the loop tests
  the success precondition of the model method it stands in for —
  ``take_word``, ``StatsCollector.record_injection`` /
  ``record_ejection``, ``deliver``,
  ``_credit_paired_source``, ``drain`` / ``consume``, a periodic
  generator's ``evaluate`` → ``submit`` — on plain attributes and
  applies the method's effect inline, on the attributes the method
  mutates; in every other case it calls the method itself with state
  untouched, so every exception, fault event and ledger pad is written
  once, in the model, and the engine shares the model's state instead
  of shadowing it (``model_calls`` counts those calls; DESIGN.md §10.2
  has the table).  An owner is armed by a generator firing into its
  channel, by credits arriving for it and by a sink drain leaving
  credits for it to return that it cannot send alone, and stays armed
  while it can send; an idle network handles no events.  A link's
  ``words_carried`` is paid at every *barrier* — each exit, normal or
  exceptional, and each replay boundary: whole trajectories for the
  words launched since the last one and, for each word in flight, the
  links it crossed since it was launched or put back, once.  There the
  phits in flight are written to the registers they occupy, so
  registers, counters and statistics are bit-exactly those of stepped
  execution.  A run's entry and exit cost what changed since the
  engine's last exit (DESIGN.md §14.7).
* **The config plane of elided packets** (DESIGN.md §14.6) — a set-up
  wait beside traffic is engine time.  Two more event kinds run in the
  loop, after the cycle's slot owners, each through the model's own
  methods and in the order :class:`~repro.core.config_network.ConfigEvents`
  keeps: a deposit falling due (the element's
  ``ConfigPort._decode_deposit`` and ``apply_guarded`` with its
  ``_apply``, in element order) and a turn of the ``ConfigModule``
  (its ``evaluate``, after every element).
  The contention-free schedule is what lets the engine keep its
  lowering across them: a set-up claims only free slots, so an apply
  that writes no schedule cell a *live* trajectory reads (the live set:
  the channels that can act in the run, fixed at entry), no live
  channel's registers, and leaves its element no work outside the live
  set cannot change what the run executes — the engine adopts the new
  validity token and rides on.  Any other apply ends the run at the
  cycle boundary and the kernel recompiles.  A packet the module will
  stream through the word-level tree — by its own elision predicate,
  asked ahead of time (``ConfigModule.next_stepped_cycle``) — is
  stepped from its activation to its request's finish; so a
  config-link fault hook keeps off the engine only the packets it can
  touch, and the decoder fault monitors keep off nothing (deposits are
  decoded through the port code that consults them).  A wait with *no*
  data plane — no generator left that is not done, no phit in a
  register, no word or credit in any channel — needs no engine at all:
  :class:`NetworkProvider` runs the same ``ConfigEvents`` alone up to
  the same barriers, builds and lowers nothing, and hands over to the
  engine at the end of any cycle that leaves the data plane work.
* **Epoch replay** — once every generator is in its steady rhythm the
  whole network state repeats with period ``P = lcm(wheel, generator and
  sink periods)``.  The engine probes state *signatures* at absolute
  multiples of ``P``; when two consecutive signatures of one run are
  equal (in a form made shift-invariant by expressing sequence numbers
  and payloads relative to the per-connection counters), the epoch
  between them is proved steady and stored as a template in the
  engine's own store, keyed by the signature (:mod:`repro.sim.replay`).
  Every probed boundary first loads the template of its signature — so
  after a landing, a config event or a new run the engine replays at
  the first boundary — and from a template the next ``K`` epochs are
  applied arithmetically: the statistics ledger is credited ``K`` times
  the epoch's counter deltas (counts, latency histogram, last injected
  sequence, per-flow cursors), each sink counts its epoch's words ``K``
  times (:mod:`repro.sim.replay`), cumulative counters are scaled by
  ``K``, and the in-flight words — their sequence numbers, payloads and
  injection stamps — and the ledger's undelivered entries for them are
  rewritten.  Re-entry into stepping is bit-exact.

Soundness of the replay (DESIGN.md §10 gives the full argument): the
cycle transition function commutes with the per-connection shift —
parity is stamped at submit time and recomputed for shifted payloads, no
data-path control flow branches on payload or sequence values, and the
credit dynamics are payload-independent.  Signature equality therefore
implies the next epoch repeats the recorded one shifted, by induction
for all ``K``; ``K`` is clamped so no finite generator runs past its
word budget, and any event the signature cannot extrapolate (an armed
fault hook, a config event, a not-yet-exhausted trace generator, a
fault or drop during the probe epoch) disables or defers replay: no
replayed span and no template epoch holds a config event (the boundary
before one is no probe).  A template is proved only between two
boundaries of one run, so no count written by outside code between two
runs is taken into an epoch's deltas.  Replay arithmetic is in Python
integers, so no sequence number, payload or cycle count is too large to
replay.

Whenever the network is *not* compilable — a tracer, data-link fault
hooks, an unknown component, a phit parked off the compiled schedule —
the provider or the engine returns a typed
:class:`~repro.sim.kernel.CompileRefusal` and the kernel transparently
falls back to naive stepping for the rest of the call.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from heapq import heapify, heappop, heapreplace
from itertools import compress, count
from math import lcm
from operator import attrgetter, is_not, itemgetter, sub
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from ..errors import SimulationError
from .flit import Phit, Word, new_word, parity_of, stamp_injected
from .kernel import CompileProvider, CompileRefusal, Kernel
from .lowering import (
    LoweredArtifacts,
    _Leaf,
    _Lowered,
    _lower_schedule,
    _OwnerPlan,
    _Trajectory,
    render_artifacts,
)
from .replay import EpochReplay
from .stats import FAULT_DETECTED, counter_deltas

# How a generator's firing is applied (``_resolve_ni``): through its
# own ``evaluate``, or inline for the two periodic kinds.
_FIRE_MODEL = 0
_FIRE_CBR = 1
_FIRE_BURST = 2

#: Rank of a pending ``(order, leaf, word, credit bits)`` event within
#: its cycle.
_EVENT_ORDER = itemgetter(0)

#: A register's output, read in bulk at import; the cumulative link
#: counter replay scales, read in bulk at a snapshot.
_Q = attrgetter("q")
_IDLE = attrgetter("idle")
_WORDS_CARRIED = attrgetter("words_carried")

_PAYLOAD_MASK = 0xFFFF_FFFF
_NEVER = 1 << 62

#: Steady-state periods above this are not worth probing: the two probe
#: epochs would dominate any realistic run length.
MAX_REPLAY_PERIOD = 1 << 16

#: Capacity (entries) of the per-network lowering cache that memoizes
#: the schedule-dependent compile products on the structural schedule
#: image, so the recompile forced by every use-case switch is a dict
#: lookup when a regime returns (covers realistic use-case rosters; one
#: entry per distinct programmed schedule).
LOWER_CACHE_CAPACITY = 16


@lru_cache(maxsize=None)
def _model() -> Any:
    """The model classes the engine recognises, resolved once: they are
    not imported at the top only because ``repro.core`` imports this
    module."""
    from ..core.config_network import ConfigEvents, ConfigModule
    from ..core.config_protocol import (
        FLAG_ENABLED,
        FLAG_FLOW_CONTROLLED,
        BusConfigAction,
        ChannelField,
        ChannelWriteAction,
        Direction,
        NiPathAction,
        RouterPathAction,
    )
    from ..core.ni import ChannelInjector, ChannelReceiver
    from ..traffic.generators import (
        BurstGenerator,
        CbrGenerator,
        TraceGenerator,
    )
    from ..traffic.sinks import CheckingSink, ThrottledSink

    return SimpleNamespace(
        ConfigEvents=ConfigEvents,
        ConfigModule=ConfigModule,
        FLAG_ENABLED=FLAG_ENABLED,
        FLAG_FLOW_CONTROLLED=FLAG_FLOW_CONTROLLED,
        INJECT=Direction.INJECT,
        PAIRED=ChannelField.PAIRED,
        CREDIT=ChannelField.CREDIT,
        BusConfigAction=BusConfigAction,
        ChannelWriteAction=ChannelWriteAction,
        NiPathAction=NiPathAction,
        RouterPathAction=RouterPathAction,
        ChannelInjector=ChannelInjector,
        ChannelReceiver=ChannelReceiver,
        BurstGenerator=BurstGenerator,
        CbrGenerator=CbrGenerator,
        TraceGenerator=TraceGenerator,
        generators=(CbrGenerator, BurstGenerator, TraceGenerator),
        sinks=(CheckingSink, ThrottledSink),
        ThrottledSink=ThrottledSink,
        idle_actions=(RouterPathAction, NiPathAction, BusConfigAction),
    )


def install_compile_provider(network: Any) -> None:
    """Install a :class:`NetworkProvider` on a :class:`DaeliteNetwork`'s
    kernel."""
    network.kernel.compile_provider = NetworkProvider(network)


def install_refusing_provider(network: Any, detail: str) -> None:
    """Install a provider that always refuses with a typed reason.

    Used by network families whose data plane has no compiled engine yet
    (aelite's source-routed plane): ``vector`` mode then runs as a
    transparent, telemetry-visible fallback to naive stepping.
    """
    network.kernel.compile_provider = _RefusingProvider(
        CompileRefusal(CompileRefusal.UNSUPPORTED_COMPONENT, detail)
    )


class _RefusingProvider(CompileProvider):
    def __init__(self, refusal: CompileRefusal) -> None:
        self.refusal = refusal

    def __call__(self, kernel: Kernel, previous: Any) -> CompileRefusal:
        return self.refusal

    def lower(self) -> CompileRefusal:
        return self.refusal


class NetworkProvider(CompileProvider):
    """A daelite network's way into ``vector`` mode: its engine, and
    its config plane run alone while its data plane is empty.

    An acquisition re-checks eligibility and reuses the previous engine
    as long as the schedule token (the network's count of schedule
    writes) is unchanged or moved only by applies the engine rode
    through (an engine that finds, on entry, something live those
    applies were not checked against declines the run and drops its
    token, so the kernel's next acquisition recompiles).

    The data plane is *empty* (DESIGN.md §14.6) when every component
    has a compiled model, no generator is left that is not done, no
    register holds a phit and no channel holds a word or credits to
    return.  The test reads what changed since it last held — the
    registers :meth:`Kernel.write_register` noted, the NIs a word was
    submitted to (``network.changes.queued``) — or, after a stepped or
    an engine cycle, every register and channel once.
    """

    def __init__(self, network: Any) -> None:
        self.network = network
        #: ``(kernel.active_cycles, kernel.compiled_cycles)`` when the
        #: data plane was last found empty and only the config plane
        #: ran since (``None``: it was not, or something else ran).
        self._empty_at: Optional[Tuple[int, int]] = None
        #: Kernel components classified so far; whether one of them has
        #: no compiled model; the generators not yet seen done (a done
        #: generator stays done: its budget is fixed).
        self._classified = 0
        self._foreign = False
        self._gens: List[Any] = []
        self._native: Optional[Set[int]] = None

    def __call__(
        self, kernel: Kernel, previous: Optional["CompiledEngine"]
    ) -> Any:
        network = self.network
        refusal = _check_eligibility(network)
        if refusal is not None:
            return refusal
        token = network.changes.writes
        if previous is not None and previous.token == token:
            return previous
        lowering = _lower(network)
        if isinstance(lowering, CompileRefusal):
            return lowering
        return CompiledEngine(lowering, token)

    def lower(self) -> Any:
        """The acquisition's verdict and the lowering behind it, with no
        engine built (:func:`lower_network`)."""
        return _check_eligibility(self.network) or _lower(self.network)

    def next_stepped_cycle(self) -> Optional[int]:
        network = self.network
        return network.config_module.next_stepped_cycle(network.kernel.cycle)

    def data_plane_empty(self) -> bool:
        network = self.network
        kernel = network.kernel
        empty_at = self._empty_at
        self._empty_at = None
        components = kernel.components
        if len(components) > self._classified:
            if self._native is None:
                self._native = _native_ids(network)
            for component in components[self._classified :]:
                classified = classify_component(
                    network, component, self._native
                )
                if isinstance(classified, CompileRefusal):
                    self._foreign = True
                elif classified[0] == "generator":
                    self._gens.append(component)
            self._classified = len(components)
        gens = self._gens
        while gens and gens[-1].done:
            gens.pop()
        if gens or self._foreign or kernel._dirty:
            return False
        if _check_eligibility(network) is not None:
            return False
        queued = network.changes.queued
        now = (kernel.active_cycles, kernel.compiled_cycles)
        if empty_at == now:
            registers: Any = kernel.written
            nis: Any = queued
        else:
            registers = kernel.all_registers()
            nis = network.nis.values()
        if list(map(_Q, registers)) != list(map(_IDLE, registers)) or any(
            map(_holds_work, nis)
        ):
            return False
        queued.clear()
        self._empty_at = now
        return True

    def run_config_plane(self, end: int) -> None:
        """Run :class:`ConfigEvents` alone towards ``end``, stopping
        after the cycle of an apply that leaves the data plane work."""
        network = self.network
        kernel = network.kernel
        cycle = entered = kernel.cycle
        self._empty_at = None
        config = _model().ConfigEvents(network.config_module, cycle)
        halt = False

        def applied(_element: Any, actions: List[Any], _writes: int) -> None:
            nonlocal halt
            halt = halt or _leaves_work(actions)

        try:
            while not halt:
                cycle = min(config.next, end)
                if cycle == end:
                    break
                config.run(cycle, applied)
                cycle += 1
        finally:
            kernel.cycle = cycle
            kernel.compiled_cycles += cycle - entered
            kernel.config_plane_cycles += cycle - entered
        if not halt:
            self._empty_at = (kernel.active_cycles, kernel.compiled_cycles)


def _holds_work(ni: Any) -> bool:
    """Whether one of ``ni``'s channels holds a word, or credits a
    destination has yet to return."""
    return any(source.queue for source in ni.source_channels.values()) or any(
        dest.queue or dest.pending_credits for dest in ni.dest_channels.values()
    )


def _leaves_work(actions: List[Any]) -> bool:
    """Whether applying ``actions`` to an empty data plane left it work.

    No action puts a word anywhere, so what can is credits written into
    a destination (a returning owner then has them to send) — and any
    action kind but a path, a channel write or a bus write, such as a
    read, which queues a response word on the config tree."""
    model = _model()
    for action in actions:
        kind = type(action)
        if kind is model.ChannelWriteAction:
            if (
                action.value
                and action.register is model.CREDIT
                and action.direction is not model.INJECT
            ):
                return True
        elif kind not in model.idle_actions:
            return True
    return False


def lower_network(network: Any) -> Any:
    """Lower exactly what the kernel's provider would run, offline.

    This is the entry point ``python -m repro.staticcheck --prove``
    uses: the network's installed provider gives its verdict (so every
    eligibility gate applies) and the result — a :class:`Lowering`
    exposing :meth:`Lowering.lowered_artifacts`, or a typed
    :class:`~repro.sim.kernel.CompileRefusal` — is returned without
    building or installing an engine.  The lowering comes through the
    network's lowering cache, so the kernel's next compile of the same
    schedule finds it there.
    """
    provider = network.kernel.compile_provider
    if provider is None:
        return CompileRefusal(
            CompileRefusal.NO_PROVIDER,
            "the network installed no compile provider",
        )
    return provider.lower()


def _schedule_image(network: Any) -> tuple:
    """Structural image of the programmed schedule (content, not version).

    Unlike the schedule token — which moves on every applied config
    action even when the resulting tables are identical — this captures
    the schedule *content* every schedule-dependent compile product is a
    pure function of: the slot wheel geometry and, per router/NI, the
    programmed forward/injection/arrival tables plus the static link
    attachment.  Two configurations with equal images lower to the same
    op tables, trajectories and refusals, which is what makes the
    lowering cache sound across use-case switches that revisit a
    schedule.  Each table gives its image whole (``image()``), not slot
    by slot.
    """
    params = network.params
    routers = tuple(
        (name, router.slot_table.image())
        for name, router in sorted(network.routers.items())
    )
    nis = tuple(
        (
            name,
            ni.out_link is not None,
            ni.in_link is not None,
            ni.injection_table.image(),
            ni.arrival_table.image(),
        )
        for name, ni in sorted(network.nis.items())
    )
    return (params.slot_table_size, params.words_per_slot, routers, nis)


def _check_eligibility(network: Any) -> Optional[CompileRefusal]:
    """Per-acquisition checks that need no recompilation.

    Each costs what may have changed, not the mesh: they read the
    network's change record (:mod:`repro.core.changes`).  A data-link
    fault hook is found in its hooked links, and a tracer, a foreign
    collector or a config decoder with pending work among its
    *suspects* — the routers and NIs built, given a tracer or collector,
    or whose decoder started a packet (the only way a response gets
    queued) since they were last found clean.

    The component roster is classified when a lowering is made
    (:func:`_lower`); a reused engine's roster is the kernel's, since
    adding a component retires the engine.  Config-link fault hooks and
    decoder fault monitors refuse nothing here: the configuration module
    keeps a packet a hook can touch on the word-level tree
    (:meth:`ConfigModule.next_stepped_cycle` names each cycle of its
    span), and the engine decodes and applies deposits through the
    port code that consults the monitor.
    """
    if network.tracer.enabled:
        return CompileRefusal(
            CompileRefusal.TRACER_ACTIVE,
            "per-hop trace events are only emitted by stepped execution",
        )
    if network.config_module.on_tree:
        return CompileRefusal(
            CompileRefusal.CONFIG_ACTIVE,
            "a configuration packet is in flight on the word-level tree",
        )
    changes = network.changes
    for link in changes.hooked_links:
        return CompileRefusal(
            CompileRefusal.FAULT_HOOKS_ARMED,
            f"fault hook armed on data link {link.name!r}",
        )
    suspects = changes.suspects
    for element in list(suspects):
        if element.tracer.enabled:
            return CompileRefusal(
                CompileRefusal.TRACER_ACTIVE,
                f"tracer attached to {_kind(element)} {element.name!r}",
            )
        if element.config.pending:
            return CompileRefusal(
                CompileRefusal.CONFIG_ACTIVE,
                f"config decoder of {element.name!r} has pending work",
            )
        if element.stats is not network.stats:
            return CompileRefusal(
                CompileRefusal.UNSUPPORTED_COMPONENT,
                f"{_kind(element)} {element.name!r} reports to a foreign "
                f"collector",
            )
        suspects.pop(element, None)
    return None


def _kind(element: Any) -> str:
    """``"NI"`` or ``"router"``, as refusal details name an element."""
    return "NI" if hasattr(element, "injection_table") else "router"


def _native_ids(network: Any) -> Set[int]:
    """Identity set of the network's own fabric components."""
    native: Set[int] = set()
    for router in network.routers.values():
        native.add(id(router))
    for ni in network.nis.values():
        native.add(id(ni))
    native.add(id(network.config_module))
    return native


def classify_component(
    network: Any, component: Any, _native: Optional[Set[int]] = None
) -> Any:
    """Classify one kernel component for the compiled lowering.

    Returns ``(kind, payload)`` with ``kind`` in ``{"native",
    "generator", "sink"}`` — payload is ``None``, the generator itself,
    or the sink metadata tuple — or a typed :class:`CompileRefusal`
    naming why the component has no compiled model.  This total map is
    the refusal-completeness contract staticcheck's OP004 rule audits:
    every component on a kernel must land in exactly one bucket, and
    anything unloweable must refuse with a declared kind rather than
    raise or silently degrade.
    """
    model = _model()
    native = _native if _native is not None else _native_ids(network)
    if id(component) in native:
        return "native", None
    kind = type(component)
    if kind in model.generators:
        inject = component.inject
        if not isinstance(inject, model.ChannelInjector):
            return CompileRefusal(
                CompileRefusal.UNSUPPORTED_COMPONENT,
                f"generator {component.name!r} does not inject "
                f"through a ChannelInjector",
            )
        return "generator", component
    if kind in model.sinks:
        receive = component.receive
        if not isinstance(receive, model.ChannelReceiver):
            return CompileRefusal(
                CompileRefusal.UNSUPPORTED_COMPONENT,
                f"sink {component.name!r} does not drain through "
                f"a ChannelReceiver",
            )
        period = component.period if kind is model.ThrottledSink else 0
        return "sink", (component, receive.ni, receive.channel, period)
    if isinstance(component, model.ConfigModule):
        # A second config module would belong to another network.
        return CompileRefusal(
            CompileRefusal.UNSUPPORTED_COMPONENT,
            f"foreign config module {component.name!r}",
        )
    return CompileRefusal(
        CompileRefusal.UNSUPPORTED_COMPONENT,
        f"component {component.name!r} "
        f"({type(component).__name__}) has no compiled model",
    )


def _classify_components(network: Any) -> Any:
    """Classify the kernel roster: ``(component, (kind, payload))`` per
    component, in kernel order (:func:`classify_component`).

    Returns the list or a :class:`CompileRefusal` naming the first
    component the compiler cannot flatten.  Generators must inject
    through :class:`~repro.core.ni.ChannelInjector` and sinks must drain
    through :class:`~repro.core.ni.ChannelReceiver` so the engine knows
    which channel endpoint they touch; anything else (a shell, a random
    generator, a plain lambda) keeps the network on the stepped kernels.
    """
    native = _native_ids(network)
    roster: List[Tuple[Any, Any]] = []
    for component in network.kernel.components:
        classified = classify_component(network, component, native)
        if isinstance(classified, CompileRefusal):
            return classified
        roster.append((component, classified))
    return roster


class _Owner:
    """The live view of an :class:`_OwnerPlan` (``index`` in the
    lowering), kept by the engine until its NI's endpoints change: the
    source channel it injects from (its flags are read at each visit),
    the paired destination whose credits it returns, and per run
    whether a visit is scheduled (``armed``), the connection only it
    launches words of (``label``: its words' injections are recorded
    at launch), and the cycle of its next visit when a sink drain made
    that visit in its place (``fold_at``, -1 without one: see
    :meth:`CompiledEngine._unfold`)."""

    __slots__ = (
        "index",
        "source",
        "dest",
        "slots",
        "first",
        "armed",
        "label",
        "fold_at",
    )

    index: int
    source: Any
    dest: Any
    slots: List[Any]
    first: List[int]
    armed: bool
    label: Optional[str]
    fold_at: int

    def __init__(
        self, index: int, plan: _OwnerPlan, source: Any, dest: Any
    ) -> None:
        self.index = index
        self.source = source
        self.dest = dest
        self.slots = plan.slots
        self.first = plan.first
        self.armed = False
        self.label = None
        self.fold_at = -1


def _lower(network: Any) -> Any:
    """The compile products of ``network`` before any engine: a
    :class:`Lowering`, or a :class:`CompileRefusal` when a component
    has no compiled model or the programmed schedule cannot be proven
    drop- and collision-free (the stepped kernels handle such schedules
    with their runtime checks instead).

    The schedule-dependent products (:func:`_lower_schedule`) are
    memoized per network on the structural schedule image, so a
    use-case switch back to a previously programmed schedule — and an
    engine compiled after the prover lowered the same schedule — finds
    them as a dict lookup; the roster is classified fresh every time.
    """
    roster = _classify_components(network)
    if isinstance(roster, CompileRefusal):
        return roster
    image = _schedule_image(network)
    kernel = network.kernel
    cache = getattr(network, "_lowering_cache", None)
    if cache is None:
        cache = OrderedDict()
        network._lowering_cache = cache
    lowered = cache.get(image)
    if lowered is not None:
        cache.move_to_end(image)
        kernel.lowering_cache_hits += 1
    else:
        # A typed INCONSISTENT_SCHEDULE is as cacheable as a successful
        # lowering: it is the same pure function of the schedule image.
        lowered = _lower_schedule(network)
        cache[image] = lowered
        while len(cache) > LOWER_CACHE_CAPACITY:
            cache.popitem(last=False)
        kernel.lowering_cache_misses += 1
    if isinstance(lowered, CompileRefusal):
        return lowered
    return Lowering(network, lowered, roster)


class Lowering:
    """What the provider compiles for one network, before an engine is
    built on it: the schedule's lowering (shared through the lowering
    cache) and the classified kernel roster (``(component, (kind,
    payload))`` in kernel order, all of them native, generator or
    sink).  The prover renders it (:meth:`lowered_artifacts`) without
    an engine; :class:`CompiledEngine` runs it."""

    def __init__(
        self,
        network: Any,
        lowered: _Lowered,
        roster: List[Tuple[Any, Any]],
    ) -> None:
        self.network = network
        self._lowered = lowered
        self.roster = roster
        params = network.params
        self.wheel = params.slot_table_size * params.words_per_slot

    def lowered_artifacts(self) -> LoweredArtifacts:
        """Export the compile products in the stable introspection form.

        External verifiers (``repro.staticcheck --prove``) consume this
        instead of the private op-table (``static_ops`` /
        ``phase_ops``) and trajectory encoding; the shape is documented
        on :class:`LoweredArtifacts`.
        """
        return render_artifacts(self._lowered, self.wheel)


def _replay_plan(gens: List[Any], sinks: List[tuple], wheel: int) -> tuple:
    """Steady-state period and replay eligibility of a traffic roster:
    ``(period, trace generators, {connection: (ni, channel, generator)},
    replay refusal or None)``."""
    period = wheel
    replay_refusal: Optional[CompileRefusal] = None
    trace_gens = []
    conn_meta: Dict[str, tuple] = {}
    fed_channels: Set[Tuple[int, int]] = set()
    for gen in gens:
        if isinstance(gen, _model().TraceGenerator):
            trace_gens.append(gen)
            continue
        period = lcm(period, gen.period)
        inject = gen.inject
        conn = (
            inject.connection
            or f"{inject.ni.name}.ch{inject.channel}"
        )
        chan_key = (id(inject.ni), inject.channel)
        if conn in conn_meta or chan_key in fed_channels:
            # Two generators share a label or a channel: per-connection
            # shifts are ambiguous, so replay stays off (compiled
            # stepping still applies).
            if replay_refusal is None:
                replay_refusal = CompileRefusal(
                    CompileRefusal.APERIODIC,
                    f"generators share connection label or channel "
                    f"({conn!r}): per-connection shifts are ambiguous",
                )
        conn_meta[conn] = (inject.ni, inject.channel, gen)
        fed_channels.add(chan_key)
    for _sink, _ni, _channel, sink_period in sinks:
        if sink_period:
            period = lcm(period, sink_period)
    if period > MAX_REPLAY_PERIOD:
        replay_refusal = CompileRefusal(
            CompileRefusal.APERIODIC,
            f"steady-state period {period} exceeds the probe budget "
            f"{MAX_REPLAY_PERIOD}",
        )
    return period, trace_gens, conn_meta, replay_refusal


class CompiledEngine:
    """A flattened, directly executable image of one configured network.

    Everything the hot loop touches is resolved to integers, tuples and
    direct object references at compile time.  The engine holds **no**
    authoritative state between :meth:`run_to` calls: registers,
    counters and statistics are fully materialized at every exit, so
    the kernel retires an engine by dropping it and external code
    always observes bit-exact stepped-equivalent state.
    """

    def __init__(self, lowering: Lowering, token: int) -> None:
        network = lowering.network
        self.network = network
        self.kernel: Kernel = network.kernel
        self.stats = network.stats
        #: The schedule token the lowering is valid for (``None``: it is
        #: valid for none any more and the next acquisition recompiles).
        self.token: Optional[int] = token
        self.wheel = wheel = lowering.wheel
        self._lowered = lowered = lowering._lowered
        regs = lowered.regs
        self.regs = regs
        self.idles = [reg.idle for reg in regs]
        #: ``id(register) -> rid`` of the lowered registers.
        self._rid_of = {id(reg): rid for rid, reg in enumerate(regs)}
        #: The kernel's registers outside the lowering (config tree,
        #: free-standing) and their idle values: each must be idle when
        #: a run begins.
        self.other_regs = [
            reg
            for reg in self.kernel.all_registers()
            if id(reg) not in self._rid_of
        ]
        self.other_idles = [reg.idle for reg in self.other_regs]
        self.occupancy = lowered.occupancy
        #: What runs: one trajectory per injection seed, and the
        #: inverse ``index[phase][register] -> (trajectory id, step)``
        #: that puts a register-resident phit back on its trajectory.
        self.trajectories = lowered.trajectories
        self.index = lowered.index
        self.owner_plans = lowered.owners
        self.dest_keys = lowered.dest_keys
        gens = [
            payload
            for _component, (kind, payload) in lowering.roster
            if kind == "generator"
        ]
        sinks = [
            payload
            for _component, (kind, payload) in lowering.roster
            if kind == "sink"
        ]
        self.gens = gens
        self.sinks = sinks
        (
            self.period,
            self.trace_gens,
            self.conn_meta,
            #: Typed diagnosis when the current timeline segment is
            #: genuinely aperiodic (see :attr:`CompileRefusal.APERIODIC`).
            #: Telemetry only — the engine still executes, it just never
            #: fast-forwards.
            self.replay_refusal,
        ) = _replay_plan(gens, sinks, wheel)
        self.nis_list = list(network.nis.values())
        #: The channel list the signature and the queue rewrite walk:
        #: per NI its source, then its destination endpoints, each in
        #: channel order (``_refresh_chans``); the NIs whose entries a
        #: probed boundary re-reads first (at first, all of them); and
        #: the NIs whose sequence counters a generator can create or
        #: move.
        self._ni_chans: Dict[int, List[tuple]] = {}
        self._chans: List[tuple] = []
        self._stale_chans: Dict[Any, None] = dict.fromkeys(self.nis_list)
        self._gen_nis = list(
            {id(gen.inject.ni): gen.inject.ni for gen in gens}.values()
        )
        params = network.params
        self.credit_cap = min(
            (1 << params.credit_bits_per_slot) - 1,
            params.max_credit_value,
        )
        self._cur: Dict[int, Phit] = {}
        #: The registers that held a phit when the current run began.
        self._imported: List[int] = []
        #: ``kernel.active_cycles`` when a run last exited (-1: none
        #: did, or an entry refused since): while it holds, the
        #: registers are ``_cur`` but for those the kernel's door wrote.
        self._exited_at = -1
        #: Pending link entries and arrivals, by ``cycle & _mask``:
        #: ``(order, leaf or None, word, credit bits)``, plus the step
        #: for a word a barrier put back (``_loaded``) — a phit in
        #: flight is not an object.  Empty between runs.
        self._mask = lowered.ring_size - 1
        self._ring: List[List[tuple]] = [
            [] for _ in range(lowered.ring_size)
        ]
        #: Armed owners by the cycle of their next owned phase, in the
        #: same geometry (re-derived at the start of every run).
        self._owner_ring: List[List[_Owner]] = [
            [] for _ in range(lowered.ring_size)
        ]
        #: The owners given a folded visit since the last barrier (at
        #: least those whose ``fold_at`` is set).
        self._folded: List[_Owner] = []
        #: Words launched per trajectory since the last barrier, and
        #: the trajectories that have any.
        self._launched_words = [0] * len(lowered.trajectories)
        self._launched: List[_Trajectory] = []
        #: The pending arrivals of the words the last barrier put back
        #: on their trajectories, each ``(order, leaf, word, credit
        #: bits, step at the barrier)`` (:meth:`_load`).
        self._loaded: List[tuple] = []
        #: The live endpoints, kept across runs (:meth:`_resolve_ni`
        #: describes them).
        self._owners: List[Optional[_Owner]] = [None] * len(lowered.owners)
        self._gen_runs: List[tuple] = [()] * len(gens)
        self._sink_runs: List[tuple] = [()] * len(sinks)
        self._sinks_on: List[List[int]] = [[] for _ in lowered.dest_keys]
        self._crediting: Dict[Tuple[int, int], List[int]] = {}
        #: The owners the current run gave a ``label``.
        self._labelled: List[_Owner] = []
        #: Events handled by :meth:`run_to` over the engine's life:
        #: arrivals, link entries not recorded at launch, slot-owner
        #: visits, generator firings and sink visits — the ones applied:
        #: those an exception leaves behind are counted by the run that
        #: applies them.  A deterministic cost figure — it does not
        #: depend on how many hops a word crosses.
        self.events_handled = 0
        #: Times :meth:`run_to` left a per-word fast path for the model
        #: method it mirrors (DESIGN.md §10.2): the first word of a
        #: connection, the first delivery of a stream, and every
        #: failing or unusual case.  Does not grow with the word count
        #: of a healthy flow.
        self.model_calls = 0
        #: Config events :meth:`run_to` executed: deposits decoded and
        #: applied, and turns of the configuration module.  Not part of
        #: ``events_handled``, which stays a per-word figure.
        self.config_events = 0
        #: This engine's regime templates, the connection-id table the
        #: epoch's sink events are recorded against, and the bulk
        #: materializer — ``None`` when the engine never replays: no
        #: generator, or a replay refusal.
        self.replay: Any = (
            EpochReplay(self.kernel, self.period, sinks)
            if gens and self.replay_refusal is None
            else None
        )
        #: Source channel keys ``(id(ni), channel)`` live at every apply
        #: this engine rode through (``None``: it rode through none, so
        #: its lowering is the schedule's own).  A run that finds
        #: another one live declines (:meth:`run_to`).
        self._valid_for: Optional[frozenset] = None
        #: The lowering's owner plan behind each trajectory.
        self._plan_of = [0] * len(lowered.trajectories)
        for plan_index, plan in enumerate(lowered.owners):
            for slot in plan.slots:
                if slot is not None:
                    self._plan_of[slot.trajectory.tid] = plan_index
        #: Per owner plan its source key and the destinations its
        #: trajectories deliver into (``_plan_out`` adds its owner's
        #: paired one); the plan of each source key.
        self._plan_keys = [(id(plan.ni), plan.channel) for plan in lowered.owners]
        self._plan_dests: List[tuple] = [
            tuple(
                {
                    (id(leaf.ni), leaf.channel)
                    for slot in plan.slots
                    if slot is not None
                    for leaf in slot.trajectory.leaves
                }
            )
            for plan in lowered.owners
        ]
        self._plan_out = list(self._plan_dests)
        self._plan_at = {key: i for i, key in enumerate(self._plan_keys)}
        #: Cell -> owner plans reading it (:meth:`_cell_readers`).
        self._readers: Optional[Dict[tuple, List[int]]] = None
        self._refusals_noted: Set[str] = set()
        #: The template the open replay segment replays (``None``: no
        #: segment is open).  ``Kernel.regimes_detected`` says what
        #: opens and closes one.
        self._segment: Optional[tuple] = None
        #: ``id(ni) -> (ni, owner plans, generators, sinks)`` of every
        #: NI the lowering or the roster touches, all resolved now.
        self._on_ni: Dict[int, tuple] = {}
        for part, nis in (
            (1, [plan.ni for plan in lowered.owners]),
            (2, [gen.inject.ni for gen in gens]),
            (3, [ni for _sink, ni, _channel, _period in sinks]),
        ):
            for position, ni in enumerate(nis):
                self._on_ni.setdefault(id(ni), (ni, [], [], []))[
                    part
                ].append(position)
        for entry in self._on_ni.values():
            self._resolve_ni(*entry)
        network.changes.endpoints.clear()

    def _note_replay_refusal(self, refusal: CompileRefusal) -> None:
        """Record why replay is withheld, once per kind per engine."""
        if refusal.kind not in self._refusals_noted:
            self._refusals_noted.add(refusal.kind)
            self.kernel._note_replay_refusal(refusal)

    # -- the config plane: the live set, visibility ------------------------------

    def _live(
        self, working: List[_Owner]
    ) -> Tuple[Set[int], Set[Tuple[int, int]], Set[Tuple[int, int]]]:
        """What can act during a run: ``(owner plan indices, source
        keys, destination keys)``, keys being ``(id(ni), channel)``.

        Live are the ``working`` owners (:func:`_with_work`), the channels
        with queued words or a generator not done, the owners of the
        register-resident phits (``_cur``, in the entry cycle's phase),
        and the destinations holding words for a sink — closed under
        credit pairing: every destination a live owner's trajectories
        deliver into, and every owner returning a live destination's
        credits.  Nothing else can be armed in the run (DESIGN.md §14.6).
        """
        index = self.index[self.kernel.cycle % self.wheel]
        plan_of = self._plan_of
        live = {owner.index for owner in working}
        live.update(plan_of[index[rid][0]] for rid in self._cur)
        live_src: Set[Tuple[int, int]] = set()
        for gen, owner, _firing, _label in self._gen_runs:
            if not gen.done:
                live_src.add((id(gen.inject.ni), gen.inject.channel))
                if owner is not None:
                    live.add(owner.index)
        for ni in self.network.changes.sourcing:
            for channel, source in ni.source_channels.items():
                if source.queue:
                    live_src.add((id(ni), channel))
        live_dst = {
            (id(ni), channel)
            for (_sink, ni, channel, _p), run in zip(self.sinks, self._sink_runs)
            if run[1] is not None and run[1].queue
        }
        # The closure: a live destination's crediting owners, a live
        # owner's source and the destinations it delivers into.
        crediting = self._crediting
        work = list(live)
        for key in live_dst:
            for plan_index in crediting.get(key, ()):
                if plan_index not in live:
                    live.add(plan_index)
                    work.append(plan_index)
        plan_keys = self._plan_keys
        plan_out = self._plan_out
        while work:
            plan_index = work.pop()
            live_src.add(plan_keys[plan_index])
            for key in plan_out[plan_index]:
                if key not in live_dst:
                    live_dst.add(key)
                    for other in crediting.get(key, ()):
                        if other not in live:
                            live.add(other)
                            work.append(other)
        return live, live_src, live_dst

    def _cell_readers(self) -> Dict[tuple, List[int]]:
        """Which owner plans' trajectories read each schedule cell: per
        router ``(id, lagged slot, input port, 0)`` and ``(id, lagged
        slot, output port, 1)`` of every crossing, per NI ``(id, slot,
        2)`` of every injection slot and ``(id, lagged slot, 3)`` of
        every arrival.  A function of the lowering, built at the
        engine's first apply."""
        wheel = self.wheel
        wps = self.network.params.words_per_slot
        rid_of = self._rid_of
        xbar_of: Dict[int, Tuple[Any, int]] = {}
        input_of: Dict[int, int] = {}
        for router in self.network.routers.values():
            for port, reg in enumerate(router._xbar_regs):
                xbar_of[rid_of[id(reg)]] = (router, port)
            for port, link in enumerate(router.in_links):
                if link is not None:
                    input_of[rid_of[id(link.register)]] = port
        readers: Dict[tuple, List[int]] = {}

        def read(cell: tuple, plan_index: int) -> None:
            planned = readers.setdefault(cell, [])
            if plan_index not in planned:
                planned.append(plan_index)

        for plan_index, plan in enumerate(self.owner_plans):
            ni_id = id(plan.ni)
            for phase, slot in enumerate(plan.slots):
                if slot is None:
                    continue
                read((ni_id, phase // wps, 2), plan_index)
                seed_phase = slot.trajectory.seed[1]
                for leaf in slot.trajectory.leaves:
                    path = leaf.path
                    for step in range(1, len(path)):
                        crossing = xbar_of.get(path[step])
                        if crossing is None:
                            continue
                        router, output = crossing
                        # The FORWARD op ran one step earlier, in the
                        # slot the router's lagged counter names.
                        lagged = ((seed_phase + step - 2) % wheel) // wps
                        read((id(router), lagged, output, 1), plan_index)
                        read(
                            (id(router), lagged, input_of[path[step - 1]], 0),
                            plan_index,
                        )
                    arrival = seed_phase + leaf.step
                    read(
                        (id(leaf.ni), ((arrival - 1) % wheel) // wps, 3),
                        plan_index,
                    )
        return readers

    def _visible(
        self,
        element: Any,
        actions: List[Any],
        live: Set[int],
        live_src: Set[Tuple[int, int]],
        live_dst: Set[Tuple[int, int]],
    ) -> bool:
        """Whether ``actions``, just applied by ``element``, can change
        what this run executes.

        Invisible is an apply that writes no cell a live owner's
        trajectories read (a set-up's router entry also reads its input
        cell, and an injection slot granted to a live channel adds to
        what it sends), writes no live channel's registers nor pairs a
        source with a live destination, and leaves the element no
        channel with work outside the live set.  This is the per-action
        form of the contention-free argument: a set-up claims only free
        slots.  Action kinds with no rule (a read) are visible.
        """
        model = _model()
        if live and self._readers is None:
            self._readers = self._cell_readers()
        readers = self._readers
        key = id(element)

        def read(cell: tuple) -> bool:
            return any(plan in live for plan in readers.get(cell, ()))

        for action in actions:
            kind = type(action)
            if kind is model.RouterPathAction:
                if not live:
                    continue  # no live trajectory reads any cell
                outputs = (
                    range(element.ports)
                    if action.output is None
                    else (action.output,)
                )
                for slot in action.mask.slots:
                    for output in outputs:
                        if read((key, slot, output, 1)):
                            return True
                    if not action.teardown and read(
                        (key, slot, action.input_port, 0)
                    ):
                        return True
            elif kind is model.NiPathAction:
                inject = action.direction is model.INJECT
                tag = 2 if inject else 3
                for slot in action.mask.slots if live else ():
                    if read((key, slot, tag)):
                        return True
                if inject and not action.teardown and (
                    (key, action.channel) in live_src
                ):
                    return True
            elif kind is model.ChannelWriteAction:
                if action.direction is model.INJECT:
                    if (key, action.channel) in live_src or (
                        action.register is model.PAIRED
                        and (key, action.value) in live_dst
                    ):
                        return True
                elif (key, action.channel) in live_dst:
                    return True
            elif kind is not model.BusConfigAction:
                return True
        # Work outside the live set: a source that now has credits of
        # its paired destination to return.  (Queued words make their
        # channel live at entry, and only live channels gain any.)
        sources = getattr(element, "source_channels", None)
        if sources is None:
            return False  # a router holds no channel
        dests = element.dest_channels
        for channel, source in sources.items():
            if (key, channel) not in live_src:
                paired = dests.get(source.paired_arrival)
                if paired is not None and paired.pending_credits:
                    return True
        return False

    # -- register import / export ----------------------------------------------

    def _import_registers(self, cycle: int) -> Optional[CompileRefusal]:
        """Bring ``_cur`` to the phits the run starts from, or refuse.

        After this engine's own exit, with no cycle stepped since, the
        registers hold ``_cur`` but for those written through the
        kernel's door (:meth:`Kernel.write_register`), and only those
        are read.  Otherwise — a first run, or the stepped kernels ran
        — every register is: the lowered ones hold the data plane the
        engine takes over, and the kernel's other registers (config
        tree, free-standing) must be idle.  A value equal to a
        register's idle one counts as idle."""
        kernel = self.kernel
        if kernel._dirty:
            refusal: Optional[CompileRefusal] = CompileRefusal(
                CompileRefusal.DATAPATH_BUSY,
                "registers were driven outside a completed cycle",
            )
        elif self._exited_at == kernel.active_cycles:
            refusal = self._read(cycle, kernel.written)
        else:
            refusal = self._read(cycle, None)
        kernel.written.clear()
        if refusal is None:
            self._imported = list(self._cur)
        else:
            self._exited_at = -1
        return refusal

    def _read(
        self, cycle: int, written: Optional[Dict[Any, None]]
    ) -> Optional[CompileRefusal]:
        """Update ``_cur`` from the ``written`` registers, or rebuild it
        from every register (``None``); each read is one ``_Q``."""
        regs = self.regs
        idles = self.idles
        lowered: Any = []
        other: Any = []
        if written is None:
            cur: Dict[int, Phit] = {}
            # Every value in one C-level pass per list; only a register
            # not holding its very idle object is looked at.
            values = list(map(_Q, regs))
            lowered = [
                (rid, values[rid])
                for rid in compress(count(), map(is_not, values, idles))
            ]
            values = list(map(_Q, self.other_regs))
            if values != self.other_idles:
                other = zip(self.other_regs, values)
        else:
            cur = self._cur
            for reg in written:
                rid = self._rid_of.get(id(reg))
                if rid is None:
                    other.append((reg, _Q(reg)))
                else:
                    lowered.append((rid, _Q(reg)))
        phase = cycle % self.wheel
        occupancy = self.occupancy
        index = self.index[phase]
        for rid, q in lowered:
            if q is idles[rid] or q == idles[rid]:
                cur.pop(rid, None)
                continue
            reg = regs[rid]
            if not isinstance(q, Phit):
                return CompileRefusal(
                    CompileRefusal.DATAPATH_BUSY,
                    f"register {reg.name!r} holds a non-phit value",
                )
            if not (occupancy[rid] >> phase) & 1:
                return CompileRefusal(
                    CompileRefusal.DATAPATH_BUSY,
                    f"in-flight phit in {reg.name!r} is off the "
                    f"compiled schedule",
                )
            cur[rid] = q
        for reg, q in other:
            if q is not reg.idle and q != reg.idle:
                return CompileRefusal(
                    CompileRefusal.CONFIG_ACTIVE,
                    f"untracked register {reg.name!r} is not idle",
                )
        for rid in cur:
            if rid not in index:
                raise SimulationError(
                    f"compiled engine lost track of a phit in "
                    f"{regs[rid].name!r} at cycle {cycle}"
                )
        self._cur = cur
        return None

    def _export_registers(self) -> None:
        """Write ``_cur`` back; a register that held a phit at import
        and holds none now goes idle (nothing else wrote any)."""
        cur = self._cur
        regs = self.regs
        for rid in self._imported:
            if rid not in cur:
                regs[rid].q = self.idles[rid]
        for rid, value in cur.items():
            regs[rid].q = value

    # -- trajectories <-> registers: the barrier ---------------------------------

    @staticmethod
    def _carry(leaf: _Leaf, start: int, stop: int, sign: int) -> None:
        """Add ``sign`` to ``words_carried`` of each link ``leaf`` drives
        at a trajectory step in ``[start, stop)``."""
        for at, link in zip(leaf.link_steps, leaf.links):
            if start <= at < stop:
                link.words_carried += sign

    def _load(self, cycle: int) -> None:
        """Put the register-resident phits of ``_cur`` (the state
        entering ``cycle``) on their trajectories: one pending arrival
        per leaf below each, and the link entry if still ahead.  A
        word's arrivals carry the step it is put back at, and are kept
        in ``_loaded``: the next barrier pays the links it crossed."""
        ring = self._ring
        mask = self._mask
        loaded = self._loaded
        index = self.index[cycle % self.wheel]
        for rid, phit in self._cur.items():
            tid, step = index[rid]
            trajectory = self.trajectories[tid]
            word = phit.word
            for leaf in trajectory.leaves:
                # The leaves below this register: on a multicast tree
                # the branches that do not pass through it hold (or
                # held) their own copy.
                if leaf.step < step or leaf.path[step] != rid:
                    continue
                if word is None:
                    pending: tuple = (
                        leaf.order, leaf, None, phit.credit_bits
                    )
                else:
                    pending = (
                        leaf.order, leaf, word, phit.credit_bits, step
                    )
                    loaded.append(pending)
                ring[(cycle + leaf.step - step) & mask].append(pending)
            entry = trajectory.entry_delay
            if step < entry and word is not None:
                ring[(cycle + entry - 1 - step) & mask].append(
                    (trajectory.entry_order, None, word, None)
                )

    def _unfold(self, owner: _Owner) -> None:
        """Take back ``owner``'s folded credit-only visit: its phit
        leaves the ring, its credits are pending again."""
        at = owner.fold_at
        trajectory = owner.slots[at % self.wheel].trajectory
        ring = self._ring
        mask = self._mask
        for delay, _order, leaf in trajectory.launch:
            bucket = ring[(at + delay) & mask]
            phit = next(entry for entry in bucket if entry[1] is leaf)
            bucket.remove(phit)
        owner.dest.pending_credits += phit[3]
        owner.fold_at = -1

    def _unload(self, cycle: int, reached: int = -1) -> List[_Owner]:
        """The barrier: leave ``_cur`` holding the state entering
        ``cycle`` and every link's ``words_carried`` exact.

        What the run applied ahead of its cycle is taken back first: a
        credit-only launch folded into a sink drain whose collecting
        cycle is not reached (returned: those owners have credits to
        send again), and an injection recorded at launch whose link
        entry is not.  In ``cycle`` itself ``reached`` says how far the
        run got: -1 nowhere, ``_NEVER`` past every event and slot
        owner, else to the event of that rank an exception interrupted.
        The words launched since the last barrier are paid as whole
        trajectories, and each phit still in flight is written to the
        registers its pending arrivals say it holds.  A word in flight
        pays its links once: one launched since takes back the links
        it has not crossed, one the last barrier put back (``_loaded``)
        pays the links it crossed since — all of its remaining ones if
        it arrived.  The cost is the launched trajectories plus the
        words in flight, not the size of the schedule."""
        undone: List[_Owner] = []
        for owner in self._folded:
            if owner.fold_at > cycle or (
                owner.fold_at == cycle and reached < _NEVER
            ):
                self._unfold(owner)
                undone.append(owner)
            owner.fold_at = -1
        self._folded.clear()
        words = self._launched_words
        for trajectory in self._launched:
            launched = words[trajectory.tid]
            words[trajectory.tid] = 0
            for leaf in trajectory.leaves:
                for link in leaf.links:
                    link.words_carried += launched
        self._launched.clear()
        carry = self._carry
        connections = self.stats.connections
        # Per connection, the first sequence number taken back: the
        # ledger's last injected one is the sequence before it.
        rolled: Dict[str, int] = {}
        ring = self._ring
        mask = self._mask
        cur: Dict[int, Phit] = {}
        still: Set[int] = set()
        # Only the buckets holding phits (the ring is as long as the
        # longest trajectory, most of it empty between barriers).
        for at in compress(range(mask + 1), ring):
            ahead = (at - cycle) & mask
            bucket = ring[at]
            for pending in bucket:
                leaf = pending[1]
                if leaf is None:
                    continue
                word = pending[2]
                if (
                    word is not None
                    and (stamp := word.injected_at) >= cycle
                    and (stamp > cycle or leaf.entry_order > reached)
                ):
                    # Once per word: a multicast word, taken back at
                    # its first leaf, is unstamped at the others.
                    label = word.connection
                    sequence = word.sequence
                    ledger = connections[label]
                    stamp_injected(word, -1)
                    ledger.injected -= 1
                    ledger.undelivered.discard(sequence)
                    if sequence < rolled.get(label, _NEVER):
                        rolled[label] = sequence
                # A launch of this very cycle (an exit between
                # injection and the end of the cycle) sits one step
                # before its seed register: write it there.
                step = max(leaf.step - ahead, 0)
                cur[leaf.path[step]] = Phit(word=word, credit_bits=pending[3])
                if word is not None:
                    if len(pending) > 4:
                        still.add(id(pending))
                        carry(leaf, pending[4], step, 1)
                    else:
                        carry(leaf, step, _NEVER, -1)
            bucket.clear()
        for pending in self._loaded:
            if id(pending) not in still:
                carry(pending[1], pending[4], _NEVER, 1)
        self._loaded.clear()
        for label, sequence in rolled.items():
            connections[label].last_sequence = sequence - 1
        self._cur = cur
        return undone

    # -- execution ---------------------------------------------------------------

    def _resolve(self) -> None:
        """Re-resolve the live endpoints (``_owners``, ``_gen_runs``,
        ``_sink_runs``, ``_sinks_on``, ``_crediting``) of the NIs the
        change record names in ``endpoints`` (a channel endpoint created
        or dropped, a source re-paired) since the last run.  Channel
        membership cannot change mid-run for anything that can act in
        it: a channel a run's config events create or rewrite either
        has no work in the run or ends it."""
        noted = self.network.changes.endpoints
        for ni in noted:
            entry = self._on_ni.get(id(ni))
            if entry is not None:
                self._resolve_ni(*entry)
        self._stale_chans.update(noted)
        noted.clear()

    def _refresh_chans(self, nis: Any) -> None:
        """Re-read the channel list's entries of ``nis`` (``(kind,
        NI name, channel, endpoint)``, kind 0 a source and 1 a
        destination), keeping the list in ``nis_list`` order."""
        for ni in nis:
            self._ni_chans[id(ni)] = [
                (0, ni.name, channel, source)
                for channel, source in sorted(ni.source_channels.items())
            ] + [
                (1, ni.name, channel, dest)
                for channel, dest in sorted(ni.dest_channels.items())
            ]
        chans_of = self._ni_chans
        self._chans = [
            chan for ni in self.nis_list for chan in chans_of.get(id(ni), ())
        ]

    def _resolve_ni(
        self, ni: Any, plans: List[int], gens: List[int], sinks: List[int]
    ) -> None:
        """Resolve ``ni``'s endpoints: per owner plan its :class:`_Owner`
        (``None`` without a source channel) and the owner plans
        returning each destination's credits (``_crediting``, by
        ``(id(ni), channel)``); per generator ``(generator, owner it
        feeds, how it fires, connection label of its words)``; per sink
        ``(sink, destination, period, owners returning its credits)``
        and the sinks on each arrival channel (``_sinks_on``)."""
        model = _model()
        key = id(ni)
        owners = self._owners
        crediting = self._crediting
        for plan_index in plans:
            old = owners[plan_index]
            if old is not None and old.dest is not None:
                crediting.pop((key, old.dest.channel), None)
        for plan_index in plans:
            plan = self.owner_plans[plan_index]
            source = ni.source_channels.get(plan.channel)
            owner = None
            out = self._plan_dests[plan_index]
            if source is not None:
                dest = ni.dest_channels.get(source.paired_arrival)
                owner = _Owner(plan_index, plan, source, dest)
                if dest is not None:
                    crediting.setdefault((key, dest.channel), []).append(
                        plan_index
                    )
                    out += ((key, dest.channel),)
            owners[plan_index] = owner
            self._plan_out[plan_index] = out
        for gen_index in gens:
            gen = self.gens[gen_index]
            inject = gen.inject
            plan_index = self._plan_at.get((key, inject.channel))
            owner = None if plan_index is None else owners[plan_index]
            # A periodic generator's heap entry is its firing, applied
            # straight onto the owner's source queue; a trace generator
            # (or a channel without an owner) fires through the model.
            firing = _FIRE_MODEL
            if owner is not None and type(gen) is model.CbrGenerator:
                firing = _FIRE_CBR
            elif owner is not None and type(gen) is model.BurstGenerator:
                firing = _FIRE_BURST
            self._gen_runs[gen_index] = (
                gen,
                owner,
                firing,
                inject.connection or f"{ni.name}.ch{inject.channel}",
            )
        for sink_index in sinks:
            sink, _ni, channel, period = self.sinks[sink_index]
            dest = ni.dest_channels.get(channel)
            credited = crediting.get((key, channel), ())
            self._sink_runs[sink_index] = (
                sink,
                dest,
                period,
                [owners[i] for i in credited],
            )
            dest_id = self.dest_keys.get((ni.name, channel))
            if dest_id is not None:
                on_dest = self._sinks_on[dest_id]
                if sink_index in on_dest:
                    on_dest.remove(sink_index)
                if dest is not None:
                    on_dest.append(sink_index)

    def _claim_labels(self, working: List[_Owner]) -> None:
        """Give each owner the ``label`` of a connection whose words only
        it can launch in the run — fired by a generator into it, queued
        on its source, or in flight from it in a register.  Its
        launches are then its only link entries for that connection and
        follow them in order, so each injection can be recorded at its
        launch (:meth:`_Run.visit`)."""
        labelled = self._labelled
        for owner in labelled:
            owner.label = None
        labelled.clear()
        index = self.index[self.kernel.cycle % self.wheel]
        plan_of = self._plan_of
        owners = self._owners
        claimed: List[Tuple[str, Optional[_Owner]]] = [
            (label, owner)
            for _gen, owner, _firing, label in self._gen_runs
            if owner is not None
        ]
        claimed += [
            (word.connection, owner)
            for owner in working
            for word in owner.source.queue
        ]
        claimed += [
            (phit.word.connection, owners[plan_of[index[rid][0]]])
            for rid, phit in self._cur.items()
            if phit.word is not None
        ]
        claims: Dict[str, Optional[_Owner]] = {}
        for label, owner in claimed:
            claims[label] = (
                owner if claims.get(label, owner) is owner else None
            )
        for label, owner in claims.items():
            if owner is not None and owner.label is None:
                owner.label = label
                labelled.append(owner)

    def run_to(self, end: int) -> Optional[CompileRefusal]:
        """Advance the network towards ``end``; ``None`` on success.

        A returned refusal means *nothing was executed* (the refusal is
        detected at import time) and the caller should fall back to
        naive stepping.  A run that returns before ``end`` stopped at
        the boundary of a cycle that changed what it executes — a
        visible config apply (DESIGN.md §14.6) — or declined to start
        because such a change happened earlier; either way it has given
        up its token and the caller re-acquires.  Exceptions raised
        mid-flight (flow-control or statistics integrity violations —
        the same ones stepped execution raises) propagate after state
        is materialized: an arrival is then either applied and gone
        from the registers or not applied and still in them.  They come
        from the model methods the per-word fast paths and the config
        events fall through to (module docstring), called with state
        untouched.

        The loop applies a cycle's arrivals and link entries itself (the
        event kind most cycles hold) and hands every other kind to a
        handler of the :class:`_Run` that :meth:`_enter` returns.
        """
        run = self._enter(end)
        if not isinstance(run, _Run):
            return run
        stats = self.stats
        connections = stats.connections
        last_ejected = stats._last_ejected
        sinks_on = self._sinks_on
        dests: List[Any] = [None] * len(sinks_on)
        sink_waiting = run.sink_waiting
        flow_controlled = run.flow_controlled
        owners = self._owners
        ring = run.ring
        owner_ring = run.owner_ring
        mask = run.mask
        sink_due = run.sink_due
        cycle = run.entered_at
        # The link entry or arrival being applied, until its first side
        # effect; then what is left of it to apply, if anything.
        current: Optional[tuple] = None
        # How far into ``cycle`` the run got, for ``_unload``: -1 before
        # its events, ``None`` inside them (the one interrupted, if an
        # exception comes, is ``current`` or ``leaf``), ``_NEVER`` past.
        reached: Optional[int] = -1
        leaf: Any = None
        try:
            while cycle < end:
                if cycle == run.next_boundary:
                    cycle = run.boundary(cycle)
                    continue  # a landing may have reached ``end``
                at = cycle & mask
                bucket = ring[at]
                if bucket:
                    # Arrivals and link entries, in naive stepping's order;
                    # popped before they are applied, so whatever an
                    # exception leaves in the bucket has not happened (and
                    # is not counted).
                    reached = None
                    run.handled += len(bucket)
                    if len(bucket) > 1:
                        bucket.sort(key=_EVENT_ORDER, reverse=True)
                    while bucket:
                        current = bucket.pop()
                        leaf = current[1]
                        word = current[2]
                        if leaf is None:
                            # A link entry whose injection was not recorded
                            # at launch: the connection's first word, one a
                            # barrier put back in a register, and every
                            # unusual case.
                            run.model_calls += 1
                            stats.record_injection(word, cycle)
                            current = None
                            continue
                        ni = leaf.ni
                        dest_id = leaf.dest_id
                        dest = dests[dest_id]
                        if dest is None:
                            dest = dests[dest_id] = ni.dest_channel(leaf.channel)
                        credit_bits = current[3]
                        if word is not None:
                            # Once the word is dealt with only the credits,
                            # if any, are left to apply.
                            rest = (
                                (current[0], leaf, None, credit_bits)
                                if credit_bits
                                else None
                            )
                            parity = word.parity
                            if parity is None or parity == word.payload.bit_count() & 1:
                                # ``DestChannel.deliver``: room in the
                                # queue, or nobody counting.
                                queue = dest.queue
                                if (
                                    dest.flags & flow_controlled
                                    and len(queue) >= dest.capacity
                                ):
                                    run.model_calls += 1
                                    dest.deliver(word)
                                else:
                                    queue.append(word)
                                current = rest
                                # ``StatsCollector.record_ejection``: a
                                # stamped word, the next this destination
                                # expects of its connection.
                                sequence = word.sequence
                                flow = (word.connection, ni.name)
                                ledger = connections.get(word.connection)
                                if (
                                    ledger is not None
                                    and last_ejected.get(flow) == sequence - 1
                                    and (injected := word.injected_at) >= 0
                                ):
                                    last_ejected[flow] = sequence
                                    ledger.undelivered.discard(sequence)
                                    ledger.ejected += 1
                                    histogram = ledger.latency_histogram
                                    latency = cycle - injected
                                    histogram[latency] = histogram.get(latency, 0) + 1
                                else:
                                    run.model_calls += 1
                                    stats.record_ejection(word, cycle, ni.name)
                                for sink_index in sinks_on[dest_id]:
                                    if not sink_waiting[sink_index]:
                                        run.wake(sink_index, cycle)
                            else:
                                ni.dropped_words += 1
                                current = rest
                                stats.record_fault(
                                    cycle, FAULT_DETECTED, "parity_error", ni.name,
                                    f"ch{leaf.channel}: {word!r}",
                                )
                        if credit_bits:
                            # ``_credit_paired_source``: a paired source
                            # whose counter has the room.
                            paired = dest.paired_source
                            source = ni.source_channels.get(paired)
                            if (
                                source is not None
                                and 0 < credit_bits
                                <= source.max_credit - source.credit_counter
                            ):
                                source.credit_counter += credit_bits
                            else:
                                run.model_calls += 1
                                ni._credit_paired_source(dest, credit_bits)
                            # Credits arrive before this cycle's injection:
                            # the source may use them now.
                            owner_index = leaf.ni_owners.get(paired)
                            if owner_index is not None:
                                owner = owners[owner_index]
                                if owner and not owner.armed and owner.source.queue:
                                    run.arm(owner, cycle)
                        current = None
                # Every event of the cycle is applied; an exception from
                # here on leaves its link entries and launches done.
                reached = _NEVER
                bucket = owner_ring[at]
                if bucket:
                    run.visit(bucket, cycle)
                if cycle == run.cfg_next:
                    run.configure(cycle)
                if cycle == run.gen_due:
                    run.fire(cycle)
                if sink_due and (due := sink_due.pop(cycle, None)) is not None:
                    run.drain(due, cycle)
                cycle += 1
                reached = -1
                if run.halt:
                    # An apply changed what this run executes: end at the
                    # cycle boundary; the kernel re-acquires.
                    break
            reached = -1  # a clean exit
        finally:
            if reached is None:
                # What the exception left in the bucket never ran.
                run.handled -= len(ring[cycle & mask])
                reached = leaf.order if current is None else current[0]
            if current is not None:
                ring[cycle & mask].append(current)
            run.exit(cycle, reached)
        return None

    def _enter(self, end: int) -> Union[_Run, CompileRefusal, None]:
        """A run's entry: the :class:`_Run` that advances the network
        from the kernel's cycle towards ``end``, or what :meth:`run_to`
        returns without one — ``None`` at ``end`` or declining, else the
        import's refusal."""
        kernel = self.kernel
        cycle = kernel.cycle
        if cycle >= end:
            return None
        if self._exited_at != kernel.active_cycles:
            # Not where this engine last exited: the segment closes.
            self._segment = None
        refusal = self._import_registers(cycle)
        self._resolve()
        if refusal is not None:
            if self._valid_for is None:
                return refusal
            self.token = None  # declined, as below
            return None
        working = _with_work(self._owners)  # the entry's one owner scan
        # The config plane (DESIGN.md §14.6): its events, run in their
        # own order, and the next cycle holding one.
        config = _model().ConfigEvents(self.network.config_module, cycle)
        # What can act in the run, fixed at entry: the applies are
        # checked against the cells it reads.  A run without config
        # events needs it only to decline.
        live = None
        if self._valid_for is not None or config.next < end:
            live = self._live(working)
            if self._valid_for is not None and not live[1] <= self._valid_for:
                # The applies this engine rode through left its lowering
                # exact only for what was live at them: decline, and the
                # kernel's next acquisition recompiles.
                self.token = None
                return None
        self._claim_labels(working)
        if self.replay_refusal is not None:
            self._note_replay_refusal(self.replay_refusal)
        return _Run(self, cycle, end, working, config, live)

    # -- steady-state signatures and replay --------------------------------------

    def _sig_anchors(self) -> Dict[str, Tuple[int, int]]:
        """Per-connection (sequence, payload) anchors for shift-invariant
        signatures: the live channel sequence counter and generator word
        counter every in-flight identity is expressed relative to."""
        base: Dict[str, Tuple[int, int]] = {}
        for conn, (ni, channel, gen) in self.conn_meta.items():
            base[conn] = (
                ni._sequence_counters.get(channel, 0),
                gen.words_generated & _PAYLOAD_MASK,
            )
        return base

    @staticmethod
    def _sig_rel(
        base: Dict[str, Tuple[int, int]]
    ) -> Callable[[Word], tuple]:
        """Word → shift-invariant identity under the given anchors."""

        def rel(word: Word) -> tuple:
            anchor = base.get(word.connection)
            if anchor is None:
                return (
                    word.connection,
                    word.sequence,
                    word.payload,
                    word.parity,
                    False,
                )
            return (
                word.connection,
                word.sequence - anchor[0],
                (word.payload - anchor[1]) & _PAYLOAD_MASK,
                None,
                True,
            )

        return rel

    def _signature(self, cycle: int, cur: Dict[int, Phit]) -> tuple:
        """Shift-invariant snapshot of the full network state.

        Words of generator-fed connections are expressed relative to the
        live per-channel sequence counter and generator word counter, so
        two boundaries one steady epoch apart compare equal; everything
        else (credits, flags, queue shapes, generator/sink phase) is
        absolute and must literally repeat.
        """
        base = self._sig_anchors()
        rel = self._sig_rel(base)
        regs_part = tuple(
            sorted(
                (
                    rid,
                    rel(phit.word) if phit.word is not None else None,
                    phit.credit_bits,
                )
                for rid, phit in cur.items()
            )
        )
        chans = tuple(
            (
                0,
                name,
                channel,
                tuple(map(rel, end.queue)),
                end.credit_counter,
                end.flags,
                end.paired_arrival,
            )
            if kind == 0
            else (
                1,
                name,
                channel,
                tuple(map(rel, end.queue)),
                end.pending_credits,
                end.flags,
                end.paired_source,
            )
            for kind, name, channel, end in self._chans
        )
        # The next-firing offset pins the generator's phase relative to
        # the boundary.  Across same-regime boundaries (one period P
        # apart, every generator period dividing P) it is constant, so
        # the two-probe comparison is unchanged — but it is what makes
        # signatures comparable across *regimes*: re-entering a stored
        # regime with freshly started generators matches only when they
        # fire at the same offsets the recorded epoch observed.
        gens_part = tuple(
            (
                gen.done,
                max(0, getattr(gen, "start_cycle", 0) - cycle),
                self._gen_phase(gen, cycle),
            )
            for gen in self.gens
        )
        sinks_part = []
        for sink, _ni, _channel, _period in self.sinks:
            last_rel = tuple(
                sorted(
                    (
                        conn,
                        (last - base[conn][0]) if conn in base else last,
                        conn in base,
                    )
                    for conn, last in sink._last_seq.items()
                )
            )
            sinks_part.append(
                (max(0, sink.start_cycle - cycle), last_rel)
            )
        return (regs_part, chans, gens_part, tuple(sinks_part))

    @staticmethod
    def _gen_phase(gen: Any, cycle: int) -> int:
        """Cycles until the generator's next firing (-1 when done)."""
        nxt = gen.next_evaluation(cycle)
        return -1 if nxt is None else nxt - cycle

    def _snapshot(self, cycle: int) -> dict:
        """Absolute counter values backing the replay arithmetic: per
        link its word count, the generator NIs' sequence counters, per
        connection its counter, per generator its words and bursts, the
        ledger, and the fault, drop and finding counts."""
        network = self.network
        dropped = sum(
            router.dropped_words
            for router in network.routers.values()
        ) + sum(ni.dropped_words for ni in self.nis_list)
        return {
            "fixed": list(map(_WORDS_CARRIED, network.links.values())),
            "counters": {
                (ni.name, channel): value
                for ni in self._gen_nis
                for channel, value in ni._sequence_counters.items()
            },
            "seqs": {
                conn: ni._sequence_counters.get(channel, 0)
                for conn, (ni, channel, _gen) in self.conn_meta.items()
            },
            "gen_words": [gen.words_generated for gen in self.gens],
            "gen_bursts": [
                getattr(gen, "bursts_generated", 0) for gen in self.gens
            ],
            "ledger": self.stats.counters(),
            "faults": len(self.stats.faults),
            "dropped": dropped,
            "findings": tuple(len(sink[0].findings) for sink in self.sinks),
        }

    def _epoch_delta(self, before: dict, after: dict) -> Optional[dict]:
        """One proven epoch's deltas, computed once, as what moved:
        ``links`` (``(link index, delta)``), ``counters``, ``seqs`` (every
        connection), ``gen_words`` / ``gen_bursts`` (every generator)
        and ``ledger`` (:func:`counter_deltas`) — or ``None`` when the
        epoch is no template: a fault, drop or finding in it, or a
        sequence counter, connection or flow opened."""
        if (
            before["faults"] != after["faults"]
            or before["dropped"] != after["dropped"]
            or before["findings"] != after["findings"]
        ):
            return None
        ledger = counter_deltas(before["ledger"], after["ledger"])
        counters = counter_deltas(before["counters"], after["counters"])
        if ledger is None or counters is None:
            return None
        seqs = before["seqs"]
        return {
            "links": [
                (index, now - old)
                for index, old, now in zip(
                    count(), before["fixed"], after["fixed"]
                )
                if now != old
            ],
            "counters": counters,
            "seqs": {
                conn: now - seqs[conn] for conn, now in after["seqs"].items()
            },
            "gen_words": list(
                map(sub, after["gen_words"], before["gen_words"])
            ),
            "gen_bursts": list(
                map(sub, after["gen_bursts"], before["gen_bursts"])
            ),
            "ledger": ledger,
        }

    def _replay_horizon(self, delta: dict, after: dict) -> int:
        """Largest K for which every finite generator stays in budget."""
        model = _model()
        horizon = _NEVER
        for i, gen in enumerate(self.gens):
            if isinstance(gen, model.CbrGenerator):
                budget, key = gen.total_words, "gen_words"
            elif isinstance(gen, model.BurstGenerator):
                budget, key = gen.total_bursts, "gen_bursts"
            else:
                continue
            fired = delta[key][i]
            if budget is not None and fired > 0:
                horizon = min(horizon, (budget - after[key][i]) // fired)
        return horizon

    def _replay(
        self,
        epochs: int,
        delta: dict,
        after: dict,
        events: List[tuple],
        cycle: int,
    ) -> None:
        """Apply ``epochs`` steady epochs arithmetically, from ``cycle``.

        Credits the ledger (``StatsCollector.credit``) and the sinks
        (:meth:`EpochReplay.materialize`) ``epochs`` times the epoch's
        ``delta`` (:meth:`_epoch_delta`), scales the cumulative counters
        that moved, and rewrites in-flight words and queue contents to
        their post-replay identities.
        """
        deltas = delta["seqs"]
        self.stats.credit(epochs, after["ledger"], delta["ledger"])
        self.replay.materialize(epochs, deltas, events)
        self._scale_counters(epochs, delta)
        self._shift_inflight(deltas, epochs)
        self._shift_queues(deltas, epochs)

    def _scale_counters(self, epochs: int, delta: dict) -> None:
        """Add ``epochs`` epochs' deltas to every cumulative counter that
        moved in the epoch (links, generators, sequence counters)."""
        links = list(self.network.links.values())
        for index, moved in delta["links"]:
            links[index].words_carried += epochs * moved
        for gen, words, bursts in zip(
            self.gens, delta["gen_words"], delta["gen_bursts"]
        ):
            if words:
                gen.words_generated += epochs * words
            if bursts:
                gen.bursts_generated += epochs * bursts
        nis = self.network.nis
        for (name, channel), moved in delta["counters"].items():
            nis[name]._sequence_counters[channel] += epochs * moved

    def _shift_inflight(self, deltas: Dict[str, int], epochs: int) -> None:
        """Rewrite in-flight words to their post-replay identities, and
        move the ledger's undelivered entries for them along.  A stamped
        word in a register is in flight; an undelivered word in none was
        lost to a fault, and stays where it is."""
        cur = self._cur
        cycles = epochs * self.period
        stamped: Dict[str, Set[int]] = {}
        for rid, phit in list(cur.items()):
            word = phit.word
            if word is None:
                continue
            delta = deltas.get(word.connection, 0)
            if delta:
                cur[rid] = Phit(
                    word=_shifted(word, epochs * delta, cycles),
                    credit_bits=phit.credit_bits,
                )
                if word.injected_at >= 0:
                    stamped.setdefault(word.connection, set()).add(
                        word.sequence
                    )
        for conn, sequences in stamped.items():
            ledger = self.stats.connections[conn]
            moved = sequences & ledger.undelivered
            offset = epochs * deltas[conn]
            ledger.undelivered -= moved
            ledger.undelivered.update(sequence + offset for sequence in moved)

    def _shift_queues(
        self, deltas: Dict[str, int], epochs: int
    ) -> None:
        """Rewrite queued words to their post-replay identities."""
        cycles = epochs * self.period
        for _kind, _name, _channel, end in self._chans:
            self._shift_queue(end.queue, deltas, epochs, cycles)

    @staticmethod
    def _shift_queue(
        queue: Any, deltas: Dict[str, int], epochs: int, cycles: int
    ) -> None:
        if not queue or not any(
            deltas.get(word.connection) for word in queue
        ):
            return
        moved = []
        for word in queue:
            delta = deltas.get(word.connection, 0)
            if delta:
                word = _shifted(word, epochs * delta, cycles)
            moved.append(word)
        queue.clear()
        queue.extend(moved)


class _Run:
    """One :meth:`CompiledEngine.run_to` call: the state its event
    handlers share, and the handlers (the loop applies arrivals itself).

    Pending link entries and arrivals wait in ``ring`` (the engine's),
    armed slot owners in ``owner_ring`` by the cycle of their next
    owned phase (the same geometry), sinks in ``sink_due`` by the cycle
    of their next drain and generators in ``gen_heap`` by their next
    firing (``gen_due`` the first).  ``cfg_next`` is the next cycle
    holding a config event, ``live`` what can act in the run (fixed at
    entry, ``None`` when no config event can come), ``halt`` whether an
    apply changed what the run executes, and ``adopted`` the token
    moves of the applies it rode through.  ``events`` collects the sink
    events of the epoch since the last replay boundary (``None``: the
    engine never replays)."""

    __slots__ = (
        "engine", "wheel", "wps", "end", "ring", "mask", "owner_ring",
        "sink_runs", "sink_due", "sink_waiting", "gen_heap", "gen_due",
        "config", "cfg_next", "live", "changes", "halt", "adopted", "events",
        "prev_sig", "prev_snap", "next_boundary", "entered_at", "loaded",
        "handled", "model_calls", "config_events", "replayed_epochs",
        "replayed_cycles", "enabled", "flow_controlled",
    )  # fmt: skip

    def __init__(
        self,
        engine: CompiledEngine,
        cycle: int,
        end: int,
        working: List[_Owner],
        config: Any,
        live: Any,
    ) -> None:
        self.engine = engine
        self.wheel = engine.wheel
        self.wps = engine.network.params.words_per_slot
        self.end = end
        self.ring = engine._ring
        self.mask = engine._mask
        self.owner_ring = engine._owner_ring
        self.sink_runs = engine._sink_runs
        self.sink_due: Dict[int, List[int]] = {}
        self.sink_waiting = [False] * len(engine._sink_runs)
        self.gen_heap: List[Tuple[int, int]] = []
        self.config = config
        self.cfg_next = config.next
        self.live = live
        self.changes = engine.network.changes
        self.halt = False
        self.adopted = 0
        self.enabled = _model().FLAG_ENABLED
        self.flow_controlled = _model().FLAG_FLOW_CONTROLLED
        engine._load(cycle)
        self.loaded = True
        self.arm_all(cycle, working)
        # Epoch replay (module docstring): the previous boundary's
        # signature and snapshot are this run's own, so an epoch is
        # only proved where no outside code ran.
        replays = engine.replay is not None
        self.events: Optional[List[tuple]] = [] if replays else None
        self.prev_sig: Any = None
        self.prev_snap: Any = None
        self.next_boundary = cycle + (-cycle) % engine.period if replays else _NEVER
        self.entered_at = cycle
        self.handled = self.model_calls = self.config_events = 0
        self.replayed_epochs = self.replayed_cycles = 0

    # -- scheduling --------------------------------------------------------------

    def arm(self, owner: _Owner, start: int) -> None:
        """Visit ``owner``, which is not armed, at its first owned
        phase from ``start``.  A folded visit that this one comes
        before is taken back."""
        if owner.fold_at >= start:
            self.engine._unfold(owner)
        owner.armed = True
        at = start + owner.first[start % self.wheel]
        self.owner_ring[at & self.mask].append(owner)

    def fold_credits(self, owner: _Owner, dest: Any, start: int) -> None:
        """Make now the next visit from ``start`` of ``owner``, which is
        not armed and has no word queued: at its first credit-collecting
        phase it launches ``dest``'s pending credits, all of them, alone
        (see :meth:`CompiledEngine._unfold`) — unless a config event
        comes first, whose model code reads (and an apply may write)
        those credits: then the owner is armed."""
        wheel = self.wheel
        wps = self.wps
        at = start + owner.first[start % wheel]
        if at % wps:
            # Mid-slot: the slot's collecting phase, its first, is
            # behind; the next owned slot's is the next one.
            at += wps - at % wps
            at += owner.first[at % wheel]
        if at > self.cfg_next:
            self.arm(owner, start)
            return
        trajectory = owner.slots[at % wheel].trajectory
        credits = dest.pending_credits
        dest.pending_credits = 0
        for delay, order, leaf in trajectory.launch:
            self.ring[(at + delay) & self.mask].append((order, leaf, None, credits))
        if owner.fold_at < 0:
            self.engine._folded.append(owner)
        owner.fold_at = at

    def wake(self, sink_index: int, start: int) -> None:
        """Visit the sink, which is not waiting, at its first drain
        cycle from ``start``."""
        self.sink_waiting[sink_index] = True
        sink_run = self.sink_runs[sink_index]
        if start < sink_run[0].start_cycle:
            start = sink_run[0].start_cycle
        if sink_run[2]:
            start += -start % sink_run[2]
        due = self.sink_due.get(start)
        if due is None:
            self.sink_due[start] = [sink_index]
        else:
            due.append(sink_index)

    def arm_all(self, start: int, working: List[_Owner]) -> None:
        """(Re)derive every schedule from state entering ``start``
        (``working``: its owners to arm), ``gen_due`` included."""
        owner_ring = self.owner_ring
        for at in compress(range(self.mask + 1), owner_ring):
            for owner in owner_ring[at]:
                owner.armed = False
            owner_ring[at].clear()
        self.sink_due.clear()
        for owner in working:
            self.arm(owner, start)
        for sink_index, sink_run in enumerate(self.sink_runs):
            self.sink_waiting[sink_index] = False
            if sink_run[1] is not None and sink_run[1].queue:
                self.wake(sink_index, start)
        gen_heap = self.gen_heap
        gen_heap.clear()
        for gen_index, gen_run in enumerate(self.engine._gen_runs):
            fire = gen_run[0].next_evaluation(start)
            if fire is not None:
                gen_heap.append((fire, gen_index))
        heapify(gen_heap)
        self.gen_due = gen_heap[0][0] if gen_heap else _NEVER

    # -- the event handlers, in a cycle's order ----------------------------------

    def boundary(self, cycle: int) -> int:
        """A replay boundary (module docstring): probe the state, load
        the template of its signature or prove the epoch since this
        run's previous boundary, and warp on from a template; returns
        the cycle the run goes on from."""
        engine = self.engine
        period = engine.period
        if self.cfg_next < cycle + period or any(
            not gen.done for gen in engine.trace_gens
        ):
            # No epoch replays across a config event, so none is probed
            # that holds one; and a live trace generator's future
            # firings are not captured by any state signature: this
            # boundary is no probe.
            self.prev_sig = None
        else:
            # Barrier: the signature, the snapshot and the in-flight
            # rewrite all read registers and counters.
            undone = engine._unload(cycle)
            self.loaded = False
            boundary = cycle
            # Re-read the NIs whose endpoints changed since the channel
            # list was: those noted at an entry, and those a config
            # apply of this run noted.
            stale = engine._stale_chans
            stale.update(self.changes.endpoints)
            if stale:
                engine._refresh_chans(stale)
                stale.clear()
            sig = engine._signature(cycle, engine._cur)
            snap = engine._snapshot(cycle)
            anchors = engine._sig_anchors()
            # The template of this signature, or the epoch since this
            # run's previous boundary, proved.
            replay = engine.replay
            found = replay.load(sig, snap, cycle, anchors)
            proved = False
            if found is None and sig == self.prev_sig:
                delta = engine._epoch_delta(self.prev_snap, snap)
                if delta is not None:
                    events = self.events
                    found = (replay.store(sig, delta, events, cycle, anchors), events)
                    proved = True
            self.prev_sig = sig
            self.prev_snap = snap
            template = None if found is None else found[0]
            if template is not engine._segment:
                engine._segment = None
            if template is not None:
                delta = template[0]
                epochs = min(
                    (min(self.end, self.cfg_next) - cycle) // period,
                    engine._replay_horizon(delta, snap),
                )
                if epochs >= 1:
                    if engine._segment is None:
                        engine._segment = template
                        engine.kernel.regimes_detected += 1
                        if not proved:
                            engine.kernel.regime_cache_hits += 1
                    engine._replay(epochs, delta, snap, found[1], cycle)
                    cycle += epochs * period
                    self.replayed_epochs += epochs
                    self.replayed_cycles += epochs * period
            engine._load(cycle)
            self.loaded = True
            if cycle != boundary:
                # The clock jumped: every schedule is re-derived from
                # the landing state.
                self.arm_all(cycle, _with_work(engine._owners))
            else:
                # The credits of launches taken back are collected by
                # visits again.
                for owner in undone:
                    self.arm(owner, cycle)
        if self.events is not None:
            self.events.clear()
        self.next_boundary = cycle + period
        return cycle

    def visit(self, bucket: List[_Owner], cycle: int) -> None:
        """The armed slot owners of the cycle's phase: each takes a word
        (``take_word()`` if ``can_send()``), collects its destination's
        pending credits in a slot's first phase, launches what it has as
        one pending arrival per leaf of the slot's trajectory, and stays
        armed while there is something to send."""
        self.handled += len(bucket)
        engine = self.engine
        phase = cycle % self.wheel
        ring = self.ring
        mask = self.mask
        owner_ring = self.owner_ring
        connections = engine.stats.connections
        credit_cap = engine.credit_cap
        launched_words = engine._launched_words
        enabled = self.enabled
        flow_controlled = self.flow_controlled
        for owner in bucket:
            source = owner.source
            dest = owner.dest
            slot = owner.slots[phase]
            # ``can_send()`` is ``sends > 0``: the words the source can
            # send in a row, one taken per visit.
            queue = source.queue
            flags = source.flags
            sends = len(queue) if flags & enabled else 0
            if flags & flow_controlled and source.credit_counter < sends:
                sends = source.credit_counter
            word = None
            if sends > 0:
                if flags & flow_controlled:
                    source.credit_counter -= 1
                word = queue.popleft()
                sends -= 1
            # ``take_pending_credits``, in a slot's first phase: what
            # the credit wires can carry.
            credits = None
            if slot.collect and dest is not None and (pending := dest.pending_credits):
                granted = min(pending, credit_cap)
                dest.pending_credits = pending - granted
                credits = granted or None
            if word is not None or credits:
                trajectory = slot.trajectory
                if word is not None:
                    tid = trajectory.tid
                    count = launched_words[tid]
                    if not count:
                        engine._launched.append(trajectory)
                    launched_words[tid] = count + 1
                    # ``StatsCollector.record_injection`` at the link
                    # entry, done at launch: an unstamped word of a
                    # connection only this owner launches, the next
                    # after its last injected one (so every earlier
                    # injection is recorded).  A barrier before the
                    # entry takes it back (``_unload``).
                    sequence = word.sequence
                    if (
                        word.connection == owner.label
                        and word.injected_at < 0
                        and (ledger := connections.get(word.connection)) is not None
                        and sequence == ledger.last_sequence + 1
                    ):
                        entry = cycle + trajectory.entry_delay
                        stamp_injected(word, entry)
                        ledger.injected += 1
                        ledger.last_sequence = sequence
                        ledger.undelivered.add(sequence)
                    else:
                        ring[(cycle + trajectory.entry_delay) & mask].append(
                            (trajectory.entry_order, None, word, None)
                        )
                for delay, order, leaf in trajectory.launch:
                    ring[(cycle + delay) & mask].append((order, leaf, word, credits))
            # Stay armed while there is something to send.
            if sends > 0 or (dest is not None and dest.pending_credits):
                owner_ring[(cycle + slot.gap) & mask].append(owner)
            else:
                owner.armed = False
        bucket.clear()

    def configure(self, cycle: int) -> None:
        """Config events, after the cycle's owner visits
        (``ConfigEvents`` orders them).  No epoch probe spans one (the
        boundary before it is no probe), and a replay after one opens a
        new segment."""
        self.engine._segment = None
        self.config_events += self.config.run(cycle, self.applied)
        self.cfg_next = self.config.next

    def applied(self, element: Any, actions: List[Any], writes: int) -> None:
        """Ride through an apply that cannot change what this run
        executes; end the run after the cycle of one that can."""
        if self.halt or self.engine._visible(element, actions, *self.live):
            self.halt = True
        else:
            self.adopted += self.changes.writes - writes

    def fire(self, cycle: int) -> None:
        """The generators due, in heap order."""
        gen_heap = self.gen_heap
        gen_runs = self.engine._gen_runs
        while gen_heap and gen_heap[0][0] == cycle:
            self.handled += 1
            gen_index = gen_heap[0][1]
            gen, owner, firing, label = gen_runs[gen_index]
            if firing == _FIRE_MODEL:
                self.model_calls += 1
                gen.evaluate(cycle)
                fire = gen.next_evaluation(cycle + 1)
            else:
                # The heap entry is the firing (``evaluate`` would
                # re-derive it): the words go on the source queue as
                # ``ni.submit`` stamps them.
                inject = gen.inject
                ni = inject.ni
                channel = inject.channel
                queue = owner.source.queue
                generated = gen.words_generated
                sequence = ni._sequence_counters.get(channel, 0)
                burst = firing == _FIRE_BURST
                for _ in range(gen.burst_words if burst else 1):
                    payload = generated & _PAYLOAD_MASK
                    queue.append(
                        new_word(payload, label, sequence, payload.bit_count() & 1)
                    )
                    generated += 1
                    sequence += 1
                ni._sequence_counters[channel] = sequence
                gen.words_generated = generated
                if burst:
                    gen.bursts_generated += 1
                fire = None if gen.done else cycle + gen.period
            if fire is None:
                heappop(gen_heap)
            else:
                heapreplace(gen_heap, (fire, gen_index))
            if owner is not None and not owner.armed:
                self.arm(owner, cycle + 1)
        self.gen_due = gen_heap[0][0] if gen_heap else _NEVER

    def drain(self, due: List[int], cycle: int) -> None:
        """The sinks due, in sink order: ``dest.drain(sink.words_per_cycle)``
        and ``consume`` of each word, the words popped as they are
        consumed (nothing in between can raise)."""
        self.handled += len(due)
        if len(due) > 1:
            due.sort()
        sink_runs = self.sink_runs
        sink_waiting = self.sink_waiting
        flow_controlled = self.flow_controlled
        events = self.events
        intern = None if events is None else self.engine.replay.intern
        for sink_index in due:
            sink_waiting[sink_index] = False
            sink, dest, _period, credited = sink_runs[sink_index]
            queue = dest.queue
            count = len(queue)
            if count > sink.words_per_cycle:
                count = sink.words_per_cycle
            if dest.flags & flow_controlled:
                dest.pending_credits += count
            for _ in range(count):
                word = queue.popleft()
                # ``consume``: the sink counts a word with good parity
                # that is its connection's next sequence number.
                if (
                    (connection := word.connection)
                    and (sequence := word.sequence) >= 0
                    and sink._last_seq.get(connection) == sequence - 1
                    and (
                        (parity := word.parity) is None
                        or parity == word.payload.bit_count() & 1
                    )
                ):
                    sink.words_received += 1
                    sink._last_seq[connection] = sequence
                else:
                    self.model_calls += 1
                    sink.consume(cycle, word)
                if events is not None:
                    events.append(
                        (cycle, intern(word.connection), word.sequence, sink_index)
                    )
            if dest.pending_credits:
                # The owner returning them visits only to do so when it has
                # no word queued: that visit is folded into this drain.
                for owner in credited:
                    if owner.armed:
                        continue
                    if owner.fold_at > cycle:
                        # Folded credits not yet sent are sent with these.
                        self.engine._unfold(owner)
                    if len(credited) == 1 and not owner.source.queue and (
                        dest.pending_credits <= self.engine.credit_cap
                    ):
                        self.fold_credits(owner, dest, cycle + 1)
                    else:
                        self.arm(owner, cycle + 1)
            if dest.queue:
                self.wake(sink_index, cycle + 1)

    def exit(self, cycle: int, reached: int) -> None:
        """The barrier every exit pays, normal or by an exception: the
        token moves of the applies ridden through, state materialized at
        ``cycle`` (``reached``: how far into it the run got, see
        :meth:`CompiledEngine._unload`), the counters flushed."""
        engine = self.engine
        kernel = engine.kernel
        if self.halt:
            engine.token = None
        elif self.adopted and engine.token is not None:
            engine.token += self.adopted
            live_src, valid = self.live[1], engine._valid_for
            engine._valid_for = frozenset(
                live_src if valid is None else valid & live_src
            )
        if self.loaded:
            engine._unload(cycle, reached)
        engine._export_registers()
        engine._exited_at = kernel.active_cycles
        engine.events_handled += self.handled
        engine.model_calls += self.model_calls
        engine.config_events += self.config_events
        kernel.cycle = cycle
        kernel.compiled_cycles += cycle - self.entered_at
        kernel.replayed_epochs += self.replayed_epochs
        kernel.replayed_cycles += self.replayed_cycles


def _with_work(owners: List[Optional[_Owner]]) -> List[_Owner]:
    """The owners with a word queued or credits to return, in order."""
    return [
        owner
        for owner in owners
        if owner is not None
        and (owner.source.queue or owner.dest and owner.dest.pending_credits)
    ]


def _shifted(word: Word, offset: int, cycles: int) -> Word:
    """``word`` advanced ``offset`` positions along its connection and,
    if it is stamped, injected ``cycles`` cycles later."""
    payload = (word.payload + offset) & _PAYLOAD_MASK
    injected_at = word.injected_at
    return Word(
        payload=payload,
        connection=word.connection,
        sequence=word.sequence + offset,
        injected_at=injected_at + cycles if injected_at >= 0 else -1,
        parity=parity_of(payload),
    )
