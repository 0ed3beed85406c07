"""Two-phase cycle-driven simulation kernel.

Every piece of state that crosses a clock edge lives in a :class:`Register`.
Each cycle the kernel runs two phases:

1. *evaluate*: every :class:`Component` reads register **outputs** (``q``,
   the values latched at the end of the previous cycle) and drives register
   **inputs** (``d``).  Because no component ever observes a value driven in
   the same cycle, evaluation order is irrelevant — exactly like a
   synchronous netlist.
2. *latch*: every register copies ``d`` to ``q`` and resets ``d`` to its
   idle value.

A register refuses to be driven twice in one cycle; a double drive is a
word collision, which the contention-free schedule must make impossible,
so it raises :class:`~repro.errors.SimulationError`.  A component drives
only the registers it made with :meth:`Component.make_register` and,
through ``Link.send``, its outgoing links' registers.  The static rules
``KC002`` (foreign drive) and ``KC003`` (drive, then read) of
:mod:`repro.staticcheck` check that discipline.

Evaluation modes
----------------

The kernel supports two modes, selected per instance or through the
``REPRO_KERNEL_MODE`` environment variable (``vector``, the default —
:data:`DEFAULT_KERNEL_MODE` — or ``naive``):

* ``naive`` — the reference semantics above, literally: every component is
  evaluated and every register latched on every cycle.  It is the one
  behaviour spec; every kernel differential compares against it.
* ``vector`` — the configured GS data plane is flattened into integer
  event schedules (see :mod:`repro.sim.compiled`) and advanced in one
  tight loop with no component dispatch and no :class:`Register` traffic
  on the fast path; exactly periodic steady states are replayed
  arithmetically, the statistics and sinks credited by one epoch's
  deltas (see :mod:`repro.sim.replay` — the bulk replay is what the
  mode is named for).  A network opts in by installing a
  ``compile_provider`` on the kernel.  It steps only the cycles the
  provider names (``next_stepped_cycle``: a config packet's span on
  the word-level tree).  Whenever compilation is not possible — no
  provider, fault hooks on data links, a tracer, an unknown component,
  a phit off the compiled schedule — the kernel *transparently falls
  back* to ``naive`` stepping for the rest of the :meth:`Kernel.step`
  call and records a typed :class:`CompileRefusal`
  (``kernel_stats()["compile_fallbacks"]``).  Registers and stats are
  re-materialized bit-exactly at every exit from compiled execution,
  so callbacks, ``run_until`` predicates and external code always
  observe the same state as stepped execution.

Config plane in vector mode
---------------------------

What ``vector`` mode changes about the config plane is, first, how
much of the broadcast tree has to be stepped at all.  The tree is a
pure delay line — every element sees every word, ``CONFIG_HOP_CYCLES``
per hop later, and only the addressed elements act — so in this mode
the configuration module hands a response-free packet straight to the
elements it addresses, stamped with the cycle each would have seen the
end-of-packet gap, and each runs its own decoder at that cycle (see
:mod:`repro.core.config_network`).  Apply cycles, element state and
set-up times are those of the stepped tree; the work is proportional to
addressed elements instead of tree size.  ``naive`` always steps the
word-level tree, which is also the path for whatever
the elision cannot represent.  A fault hook on a config link is such a
case only for the packets it can touch — the flight-window rule: a hook
that declares the cycles it can act on (``hook.cycles``, as every
:class:`~repro.faults.FaultInjector` config hook does) refuses a packet
only if one of them lies in ``[started_at, started_at + len(words) +
commit_latency + cooldown_cycles]``, the span no word of the packet
outlives on any link at any depth; a hook that declares nothing refuses
every packet while installed.  The kernel only keeps the books:
:attr:`Kernel.config_packets_elided`,
:attr:`Kernel.config_packets_stepped` and, by refusal kind,
:attr:`Kernel.config_elision_refusals` — all in :meth:`Kernel.kernel_stats`.

Second, who runs what is left.  The elided packets' deposits and the
module's turns are events of the engine's own loop, so a set-up wait
beside running traffic is engine time: the engine rides through every
apply that writes nothing its live flows read and stops at the end of
the cycle of one that does (see :mod:`repro.sim.compiled`).  A wait
with no data plane at all (:meth:`CompileProvider.data_plane_empty`)
acquires no engine: the provider runs the config plane's events alone,
in the same order, up to the same barriers, and the cycles count in
:attr:`Kernel.compiled_cycles` and :attr:`Kernel.config_plane_cycles`.
Only a packet on the word-level tree leaves compiled execution: the
provider's ``next_stepped_cycle`` names every cycle from its activation
(the module's own elision predicate, asked of every queued packet) to
its request's finish, and the kernel steps exactly those, so a
config-link fault hook or a decoder fault monitor keeps no engine off —
only the packets the hook can touch leave it.  A :meth:`Kernel.at`
callback runs in place at its cycle's start and leaves nothing.

Register writes between cycles
------------------------------

Outside a clock edge a register's output is written through one door,
:meth:`Kernel.write_register`, which notes the register in
:attr:`Kernel.written`: the compiled engine's next entry reads the
noted registers and nothing else, unless the stepped kernels ran a
cycle since its last exit.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..errors import ReproError, SimulationError

#: Environment variable selecting the default kernel mode.
KERNEL_MODE_ENV = "REPRO_KERNEL_MODE"
#: Reference evaluation: everything, every cycle.
NAIVE_MODE = "naive"
#: Flat-schedule compiled evaluation with steady-state epoch replay,
#: credited in bulk (falls back to naive stepping whenever the network
#: is not compilable — see :mod:`repro.sim.compiled` and
#: :mod:`repro.sim.replay`).
VECTOR_MODE = "vector"

#: The mode an unset ``REPRO_KERNEL_MODE`` resolves to.  ``naive`` is the
#: selectable reference semantics: it always steps the word-level config
#: tree and the component data plane.
DEFAULT_KERNEL_MODE = VECTOR_MODE

_MODES = (NAIVE_MODE, VECTOR_MODE)


class CompileRefusal:
    """A typed reason why the data plane cannot be compiled right now.

    Returned by a kernel's compile provider (and queryable through
    :meth:`Kernel.kernel_stats`) whenever ``vector`` mode has to fall
    back to naive stepping.  ``kind`` is a stable machine-readable
    tag; ``detail`` is free-form diagnostics.
    """

    __slots__ = ("kind", "detail")

    #: No network installed a compile provider on this kernel.
    NO_PROVIDER = "no_provider"
    #: A configuration packet is in flight on the word-level tree, or
    #: config words are still in a decoder or in a register the engine
    #: does not lower.
    CONFIG_ACTIVE = "config_active"
    #: A FaultInjector armed fault hooks on data links.
    FAULT_HOOKS_ARMED = "fault_hooks_armed"
    #: An event tracer is attached (per-hop events are not compiled).
    TRACER_ACTIVE = "tracer_active"
    #: A component the compiler does not know how to flatten.
    UNSUPPORTED_COMPONENT = "unsupported_component"
    #: The programmed schedule would drop words (dead-end walk).
    INCONSISTENT_SCHEDULE = "inconsistent_schedule"
    #: A phit sits where the compiled schedule has none, or a register
    #: holds something other than a phit, or was driven outside a
    #: completed cycle: the engine puts the phits it finds back on their
    #: trajectories, and these have none.
    DATAPATH_BUSY = "datapath_busy"
    #: The current timeline segment is genuinely aperiodic — steady-state
    #: epoch replay cannot engage (ambiguous generator labels, a replay
    #: period beyond the probe budget, or trace-driven traffic that never
    #: settles).  The engine still *runs*; only the arithmetic
    #: fast-forward is withheld for this regime.
    APERIODIC = "aperiodic_segment"

    def __init__(self, kind: str, detail: str = "") -> None:
        self.kind = kind
        self.detail = detail

    def __repr__(self) -> str:
        return f"CompileRefusal({self.kind!r}, {self.detail!r})"


class CompileProvider(ABC):
    """What a network installs as :attr:`Kernel.compile_provider` to run
    in ``vector`` mode (``repro.sim.compiled``).

    Called as ``provider(kernel, previous_engine)`` it returns a fresh
    (or revalidated) engine, or a :class:`CompileRefusal`; :meth:`lower`
    gives the same verdict without building an engine.  A provider
    whose network has a config plane of its own also names the cycles
    only stepping may run and advances that plane alone while the data
    plane is empty; by default it has none.
    """

    @abstractmethod
    def __call__(self, kernel: "Kernel", previous: Any) -> Any:
        """An engine to run, or why there is none."""

    @abstractmethod
    def lower(self) -> Any:
        """The acquisition's verdict, without an engine."""

    def next_stepped_cycle(self) -> Optional[int]:
        """The first cycle from now that only a stepped kernel may run
        (``None``: none is scheduled)."""
        return None

    def data_plane_empty(self) -> bool:
        """Whether the network has nothing but its config plane to run,
        so :meth:`run_config_plane` may advance it."""
        return False

    def run_config_plane(self, end: int) -> None:
        """Advance the config plane alone towards ``end``, before which
        no callback and no stepped cycle falls; return early at the end
        of a cycle that left the data plane work."""
        raise SimulationError("this network has no config plane to run")


def default_kernel_mode() -> str:
    """Kernel mode from ``REPRO_KERNEL_MODE`` (:data:`DEFAULT_KERNEL_MODE`
    when unset), stripped and lower-cased.

    Raises:
        SimulationError: naming the variable and the accepted modes, if
            it holds anything else.
    """
    mode = os.environ.get(KERNEL_MODE_ENV, DEFAULT_KERNEL_MODE).strip().lower()
    if mode not in _MODES:
        raise SimulationError(
            f"{KERNEL_MODE_ENV}={mode!r} is not one of {_MODES}"
        )
    return mode


class Register:
    """A single clocked register with collision detection.

    Attributes:
        name: Diagnostic name used in error messages and traces.
        q: Output — value latched at the previous clock edge.
        idle: Value ``q`` takes when nothing was driven.
    """

    __slots__ = ("name", "idle", "q", "_d", "_driven", "_sink")

    def __init__(self, name: str, idle: Any = None) -> None:
        self.name = name
        self.idle = idle
        self.q: Any = idle
        self._d: Any = idle
        self._driven = False
        #: Owning kernel's dirty list (None for free-standing registers).
        self._sink: Optional[List["Register"]] = None

    def drive(self, value: Any) -> None:
        """Drive the register input for this cycle.

        Raises:
            SimulationError: if the register was already driven this cycle.
        """
        if self._driven:
            raise SimulationError(
                f"register {self.name!r} driven twice in one cycle "
                f"(had {self._d!r}, got {value!r}) — word collision"
            )
        self._d = value
        self._driven = True
        if self._sink is not None:
            self._sink.append(self)

    @property
    def driven(self) -> bool:
        """Whether the register was driven during the current cycle."""
        return self._driven

    def latch(self) -> None:
        """Clock edge: commit ``d`` to ``q`` and reset the input."""
        self.q = self._d
        self._d = self.idle
        self._driven = False

    def reset(self) -> None:
        """Asynchronous reset to the idle value."""
        self.q = self.idle
        self._d = self.idle
        self._driven = False

    def __repr__(self) -> str:
        return f"Register({self.name!r}, q={self.q!r})"


class Component(ABC):
    """A clocked hardware component.

    Subclasses implement :meth:`evaluate`, reading ``.q`` of registers and
    calling ``.drive`` on register inputs.  Registers created through
    :meth:`make_register` are automatically latched by the kernel the
    component is attached to.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.registers: List[Register] = []
        self._kernel: Optional["Kernel"] = None

    def make_register(self, suffix: str, idle: Any = None) -> Register:
        """Create a register owned (and latched) with this component."""
        register = Register(f"{self.name}.{suffix}", idle=idle)
        self.registers.append(register)
        if self._kernel is not None:
            self._kernel._adopt_register(register)
        return register

    @abstractmethod
    def evaluate(self, cycle: int) -> None:
        """Combinational phase for ``cycle``; drive register inputs."""

    def reset(self) -> None:
        """Reset all owned registers; subclasses extend for extra state."""
        for register in self.registers:
            register.reset()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class Kernel:
    """Owns components and advances the global clock.

    The kernel also exposes a tiny scheduling facility: callbacks that run
    at the start of a chosen cycle, used by test benches and the host model
    to inject stimuli at precise times.

    Attributes:
        cycle: The current simulation cycle.
        active_cycles: Cycles stepped component by component
            (instrumentation; the compiled engine's cycles add none).
        evaluations: Total component evaluations performed.
    """

    def __init__(self, mode: Optional[str] = None) -> None:
        self.cycle = 0
        self.components: List[Component] = []
        self._extra_registers: List[Register] = []
        self._callbacks: dict[int, List[Callable[[int], None]]] = {}
        #: Min-heap of the cycles that are (or were) keys of
        #: ``_callbacks``; entries whose key is gone are dropped lazily.
        self._callback_cycles: List[int] = []
        if mode is None:
            mode = default_kernel_mode()
        elif mode not in _MODES:
            raise SimulationError(
                f"unknown kernel mode {mode!r}; expected one of {_MODES}"
            )
        self._mode = mode
        #: Registers driven during the current cycle (filled by drive()).
        self._dirty: List[Register] = []
        #: Registers whose output :meth:`write_register` set since the
        #: compiled engine last entered, in write order: all an engine
        #: run that follows its own exit reads at entry.
        self.written: Dict[Register, None] = {}
        self.active_cycles = 0
        self.evaluations = 0
        #: Installed by a network that knows how to flatten its data
        #: plane (:class:`CompileProvider`).
        self.compile_provider: Optional[CompileProvider] = None
        #: The live compiled engine, if any (owned by VECTOR_MODE).
        self._engine: Any = None
        #: Cycles advanced by the compiled engine's event loop, or by
        #: the config plane alone.
        self.compiled_cycles = 0
        #: Cycles advanced by the config plane alone, with no data plane
        #: to run (a subset of compiled_cycles).
        self.config_plane_cycles = 0
        #: Steady-state epochs applied arithmetically instead of stepped.
        self.replayed_epochs = 0
        #: Cycles covered by replayed epochs (subset of compiled_cycles).
        self.replayed_cycles = 0
        #: refusal kind -> number of fallbacks to naive stepping (each
        #: for the rest of a :meth:`step` call).
        self.compile_fallbacks: Dict[str, int] = {}
        self._last_refusal: Optional[CompileRefusal] = None
        #: Replay *segments* opened.  A segment is opened by a replay.
        #: It closes at a config event; at a probed boundary whose
        #: signature has no usable template, or a template other than
        #: the open segment's; and at any engine entry that does not
        #: resume where that engine last exited (``active_cycles``
        #: moved since).  A replay while a segment is open extends it.
        self.regimes_detected = 0
        #: Segments opened by loading a template stored earlier (not
        #: the one just proved at that boundary).
        self.regime_cache_hits = 0
        #: Templates stored: epochs proved steady inside one run, each
        #: into its engine's own store (:mod:`repro.sim.replay`).
        self.regime_cache_stores = 0
        #: ``lower_network`` products served from the schedule-image
        #: cache instead of recompiled (use-case-switch campaigns).
        self.lowering_cache_hits = 0
        #: Full compiles that populated the lowering cache.
        self.lowering_cache_misses = 0
        #: refusal kind -> count of *replay* refusals: the engine ran,
        #: but epoch replay was withheld because the timeline segment
        #: was aperiodic (:attr:`CompileRefusal.APERIODIC`).
        self.replay_refusals: Dict[str, int] = {}
        #: Config packets the configuration module delivered to their
        #: addressees only (vector mode; see the module docstring).
        self.config_packets_elided = 0
        #: Config packets streamed word by word through the whole tree.
        self.config_packets_stepped = 0
        #: refusal kind -> packets vector mode had to step anyway.
        self.config_elision_refusals: Dict[str, int] = {}

    # -- mode ----------------------------------------------------------------

    @property
    def mode(self) -> str:
        """``"naive"`` or ``"vector"``."""
        return self._mode

    def set_mode(self, mode: str) -> None:
        """Switch evaluation mode (allowed at any cycle boundary).

        Raises:
            SimulationError: on an unknown mode.
        """
        if mode not in _MODES:
            raise SimulationError(
                f"unknown kernel mode {mode!r}; expected one of {_MODES}"
            )
        if mode != self._mode:
            self._retire_engine()
            self._mode = mode

    # -- construction --------------------------------------------------------

    def add(self, component: Component) -> Component:
        """Register a component (and its registers) with the kernel."""
        self._retire_engine()
        self.components.append(component)
        component._kernel = self
        for register in component.registers:
            register._sink = self._dirty
        return component

    def add_all(self, components: Iterable[Component]) -> None:
        """Register several components at once."""
        for component in components:
            self.add(component)

    def add_register(self, register: Register) -> Register:
        """Track a free-standing register not owned by any component."""
        self._retire_engine()
        self._extra_registers.append(register)
        register._sink = self._dirty
        return register

    def write_register(self, register: Register, value: Any) -> None:
        """Set ``register``'s output between cycles and note it in
        :attr:`written` (the static rule ``KC004`` flags any other write
        outside :mod:`repro.sim`)."""
        register.q = value
        self.written[register] = None

    def _adopt_register(self, register: Register) -> None:
        """Hook a register created after its component was added."""
        self._retire_engine()
        register._sink = self._dirty

    def all_registers(self) -> List[Register]:
        """Every register latched by this kernel (components + extras)."""
        registers: List[Register] = []
        for component in self.components:
            registers.extend(component.registers)
        registers.extend(self._extra_registers)
        return registers

    def at(self, cycle: int, callback: Callable[[int], None]) -> None:
        """Schedule ``callback(cycle)`` at the start of ``cycle``; one
        scheduled from a callback for that same cycle runs in it too.

        Raises:
            SimulationError: if ``cycle`` is already in the past.
        """
        if cycle < self.cycle:
            raise SimulationError(
                f"cannot schedule at cycle {cycle}; now at {self.cycle}"
            )
        callbacks = self._callbacks.get(cycle)
        if callbacks is None:
            callbacks = self._callbacks[cycle] = []
            heappush(self._callback_cycles, cycle)
        callbacks.append(callback)

    def _next_callback_cycle(self) -> Optional[int]:
        """Earliest cycle >= now holding a callback (``None``: none)."""
        cycles = self._callback_cycles
        while cycles and (
            cycles[0] < self.cycle or cycles[0] not in self._callbacks
        ):
            heappop(cycles)
        return cycles[0] if cycles else None

    def _abort_cycle(self) -> None:
        """Drop the drives of a cycle an error escaped from.

        Every register driven in it goes back to its idle input and the
        clock stays put, so a caller that handles the error can step
        again: the cycle is re-run (its callbacks, already run, are
        not).
        """
        for register in self._dirty:
            register._d = register.idle
            register._driven = False
        self._dirty.clear()

    # -- compiled-engine lifecycle --------------------------------------------

    def _note_replay_refusal(self, refusal: CompileRefusal) -> None:
        """Record why epoch replay was withheld (not a fallback).

        The engine keeps running; only the epoch fast-forward is
        withheld, so this feeds :attr:`replay_refusals` rather than the
        fallback counters.
        """
        self.replay_refusals[refusal.kind] = (
            self.replay_refusals.get(refusal.kind, 0) + 1
        )

    def _retire_engine(self) -> None:
        """Drop the compiled engine.

        The engine materializes registers, counters and statistics at
        every ``run_to`` exit, so there is nothing to write back: naive
        stepping (and external observers) already see bit-exact state.
        """
        self._engine = None

    def kernel_stats(self) -> Dict[str, Any]:
        """Instrumentation snapshot, including compiled-engine telemetry."""
        refusal = self._last_refusal
        return {
            "mode": self._mode,
            "cycle": self.cycle,
            "active_cycles": self.active_cycles,
            "evaluations": self.evaluations,
            # Read by the benchmark harness as sim.fast_forwarded_cycles.
            "fast_forwarded_cycles": 0,
            "compiled_cycles": self.compiled_cycles,
            "config_plane_cycles": self.config_plane_cycles,
            "replayed_epochs": self.replayed_epochs,
            "replayed_cycles": self.replayed_cycles,
            "compile_fallbacks": dict(self.compile_fallbacks),
            # Kept only because the benchmark harness reads it as
            # sim.compile_deferrals: the kernel defers nothing.
            "compile_deferrals": {},
            "regimes_detected": self.regimes_detected,
            "regime_cache_hits": self.regime_cache_hits,
            "regime_cache_stores": self.regime_cache_stores,
            "lowering_cache_hits": self.lowering_cache_hits,
            "lowering_cache_misses": self.lowering_cache_misses,
            "replay_refusals": dict(self.replay_refusals),
            "config_packets_elided": self.config_packets_elided,
            "config_packets_stepped": self.config_packets_stepped,
            "config_elision_refusals": dict(self.config_elision_refusals),
            "last_refusal": None if refusal is None else refusal.kind,
            "last_refusal_detail": (
                None if refusal is None else refusal.detail
            ),
        }

    def _step_compiled(self, cycles: int) -> None:
        """Advance ``cycles`` cycles, compiled where possible.

        A cycle leaves compiled execution for one reason: the provider
        names it (``next_stepped_cycle``) — every cycle a config packet
        rides the word-level tree, from its activation to its request's
        finish, and the finish of a request with an ``on_complete``
        hook.  Those cycles are stepped one at a time, the engine kept
        cached; its next entry re-reads every register.  Everything
        else runs on the engine up to the next such cycle or callback,
        or — while the data plane is empty (``data_plane_empty``) — on
        the provider's config plane alone, which hands back at the end
        of any cycle that leaves the data plane work.  An engine run
        that returns before its barrier stopped after a cycle that
        changed what it runs; the kernel re-acquires.

        A :meth:`at` callback runs in place, at its cycle's start,
        under the contract of code between two :meth:`step` calls:
        registers through :meth:`write_register`, words through
        ``submit``, schedule writes counted in ``changes.writes``.

        Any refusal — of the provider or of the engine's entry — falls
        back to naive stepping for the rest of the call; the next call
        probes again.
        """
        end = self.cycle + cycles
        provider = self.compile_provider
        if provider is None:
            self._fall_back(
                CompileRefusal(
                    CompileRefusal.NO_PROVIDER,
                    "no network installed a compile provider",
                ),
                end,
            )
            return
        while self.cycle < end:
            self._run_callbacks()
            stepped = provider.next_stepped_cycle()
            if stepped == self.cycle:
                self._step_naive(1)
                continue
            barrier = self._barrier(end, stepped)
            if provider.data_plane_empty():
                provider.run_config_plane(barrier)
                continue
            refusal = self._run_engine(provider, barrier)
            if refusal is not None:
                self._fall_back(refusal, end)
                return

    def _barrier(self, end: int, stepped: Optional[int]) -> int:
        """The first cycle before ``end`` that compiled execution may not
        run — the next callback's, or ``stepped`` — else ``end``."""
        barrier = end
        for scheduled in (
            self._next_callback_cycle(),
            stepped,
        ):
            if scheduled is not None and scheduled < barrier:
                barrier = scheduled
        return barrier

    def _run_engine(
        self, provider: CompileProvider, barrier: int
    ) -> Optional[CompileRefusal]:
        """Run the compiled engine towards ``barrier``, or say why none
        may run (then nothing was executed).  The provider revalidates
        the cached engine by the schedule-write token and recompiles
        only when the programmed schedule actually changed."""
        engine = provider(self, self._engine)
        if isinstance(engine, CompileRefusal):
            return engine
        self._engine = engine
        return engine.run_to(barrier)

    def _fall_back(self, refusal: CompileRefusal, end: int) -> None:
        """Count ``refusal`` and step naively up to ``end``."""
        self._last_refusal = refusal
        self.compile_fallbacks[refusal.kind] = (
            self.compile_fallbacks.get(refusal.kind, 0) + 1
        )
        self._retire_engine()
        self._step_naive(end - self.cycle)

    # -- execution -----------------------------------------------------------

    def step(self, cycles: int = 1) -> None:
        """Advance the simulation by ``cycles`` clock cycles."""
        if self._mode == VECTOR_MODE:
            self._step_compiled(cycles)
        else:
            self._step_naive(cycles)

    def _run_callbacks(self) -> None:
        """Run the current cycle's callbacks in scheduling order, those
        they schedule for this cycle too, until none is left."""
        cycle = self.cycle
        callbacks = self._callbacks.get(cycle)
        while callbacks:
            callbacks.pop(0)(cycle)
        self._callbacks.pop(cycle, None)

    def _step_naive(self, cycles: int) -> None:
        for _ in range(cycles):
            self._run_callbacks()
            try:
                for component in self.components:
                    component.evaluate(self.cycle)
            except ReproError:
                self._abort_cycle()
                raise
            for component in self.components:
                for register in component.registers:
                    register.latch()
            for register in self._extra_registers:
                register.latch()
            self._dirty.clear()
            self.evaluations += len(self.components)
            self.active_cycles += 1
            self.cycle += 1

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_cycles: int = 1_000_000,
    ) -> int:
        """Step until ``predicate()`` is true; return the current cycle.

        A predicate that already holds returns at once, stepping nothing
        and leaving a vector-mode engine in place.  Otherwise the
        predicate is polled after every cycle, so both modes step
        naively here.  (A predicate that watches ``kernel.cycle``
        itself rather than simulation state should use :meth:`step`
        directly; a wait whose end is
        known in closed form steps there first — see
        ``DaeliteNetwork.wait_configured``.)

        Raises:
            SimulationError: if the predicate stays false for
                ``max_cycles`` cycles.
        """
        if predicate():
            return self.cycle
        start = self.cycle
        limit = start + max_cycles
        # run_until polls arbitrary state between cycles — inherently
        # stepped execution, so vector mode steps naively here (the
        # engine left every register and counter materialized).
        self._retire_engine()
        while not predicate():
            if self.cycle >= limit:
                raise SimulationError(
                    f"condition not reached within {max_cycles} cycles"
                )
            self._step_naive(1)
        return self.cycle

    def reset(self) -> None:
        """Reset the clock, all components, and scheduled callbacks."""
        self._retire_engine()
        self.cycle = 0
        self._callbacks.clear()
        self._callback_cycles.clear()
        for component in self.components:
            component.reset()
        for register in self._extra_registers:
            register.reset()
        self._dirty.clear()
        self.written.clear()
