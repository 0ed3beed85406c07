"""Two-phase cycle-driven simulation kernel with an activity-driven mode.

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
so it raises :class:`~repro.errors.SimulationError`.

Evaluation modes
----------------

The kernel supports three modes, selected per instance or through the
``REPRO_KERNEL_MODE`` environment variable (``vector``, the default —
:data:`DEFAULT_KERNEL_MODE` — ``activity`` or ``naive``):

* ``naive`` — the reference semantics above, literally: every component is
  evaluated and every register latched on every cycle.
* ``activity`` — the same observable behaviour, computed lazily.  A TDM
  NoC is mostly idle (most slots on most links carry nothing), so the
  kernel tracks *activity* instead of brute-forcing every cycle:

  - **dirty latch** — :meth:`Register.drive` records the register in the
    kernel's dirty set, and the latch phase touches only registers that
    were driven this cycle or still hold a non-idle output (which must
    decay back to idle, exactly as a full latch would).
  - **wake sets** — components declare the registers they read
    (:attr:`Component.registers` implicitly, :meth:`Component.external_inputs`
    explicitly); a component is evaluated only when one of those registers
    was latched non-idle at the previous edge, or when it *self-schedules*
    through :meth:`Component.next_evaluation` (pending slot-table work,
    queued words, a traffic generator's next firing, ...).
  - **cached self-schedules** — the kernel does not ask every component
    "when are you next due?" on every cycle.  It keeps each answer, in a
    heap ordered by due cycle, and asks again only when the answer can
    have moved *earlier*: (a) after the component itself was evaluated
    (at its next turn, and not even then if a register wakes it again —
    it simply runs), (b) after somebody called :meth:`Component.touch`
    on it, (c) for everyone after a :meth:`Kernel.at` callback ran, and
    (d) for everyone on entry to :meth:`Kernel.step` /
    :meth:`Kernel.run_until` and whenever the activity state is rebuilt
    (a mode switch, an engine run, a new component) — external code may
    have done anything.  A cached answer that is too *early* is always sound (a
    spurious ``evaluate`` is a no-op), so nobody has to announce work
    that went away.  Components still run in ``Kernel.components``
    order, and one touched by a component earlier in that order is
    asked at its own turn of the same cycle — exactly the effect the
    naive order has.  A component that is neither woken by a register,
    nor touched, nor due costs nothing.
  - **fast-forward** — when no register is active, the clock jumps
    straight to the head of that heap or the earliest callback
    (:meth:`Kernel.at` cycles sit in a heap of their own), whichever is
    first.  No state can change in between — skipped cycles are
    bit-for-bit identical to stepping through them — so the jump is
    sound; the static TDM schedule makes the next-work computation O(1)
    per component.

* ``vector`` — the configured GS data plane is flattened into integer
  event schedules (see :mod:`repro.sim.compiled`) and advanced in one
  tight loop with no component dispatch and no :class:`Register` traffic
  on the fast path; exactly periodic steady states are replayed
  arithmetically, epoch by epoch, with numpy re-recording the epoch's
  events in bulk (see :mod:`repro.sim.replay` — the bulk replay is what
  the mode is named for).  A network opts in by installing a
  ``compile_provider`` on the kernel.  Whenever compilation is not
  possible — no provider, a config packet on the word-level tree, armed
  fault hooks, strict-registers, a tracer, an unknown component, words
  mid-flight — the kernel *transparently falls back* to the activity
  mode for the affected cycles and records a typed
  :class:`CompileRefusal` (``Kernel.kernel_stats()["compile_fallbacks"]``).  Registers and stats
  are re-materialized bit-exactly at every exit from compiled execution,
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
addressed elements instead of tree size.  ``naive`` and ``activity``
always step the word-level tree, which is also the path for whatever
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
the cycle of one that does (see :mod:`repro.sim.compiled`).  Only a
packet on the word-level tree refuses the engine (``config_active``),
and its activation is a barrier like a :meth:`Kernel.at` callback.

The activity invariant: a component may be skipped in a cycle only if its
``evaluate`` would have been a pure no-op, and a register may skip the
latch only if latching would not change it.  ``tests/sim/test_kernel_equivalence.py``
checks the two modes produce bit-identical per-cycle register traces on
randomized networks and workloads, including traffic moved by components
while connections are set up and torn down.

Who must call ``touch()``
-------------------------

Whatever changes state that a component's ``next_evaluation`` reads, from
outside that component's own ``evaluate`` and outside the cases (c)/(d)
above — in practice another component's ``evaluate``.  The shipped sites
are the narrow funnels work enters through: ``NetworkInterface.submit``
and ``.receive`` (a backlog or pending credits make a granted slot due),
the NI's delivery into a destination queue (wakes the sinks sleeping on
that channel), ``ConfigPort.deposit`` (wakes the owning element),
``ConfigModule.submit``, and the aelite NI's ``submit`` / ``receive``.
``tests/sim/test_touch_contract.py`` disables each in turn and requires
the run to be caught.  A third-party component that overrides
``next_evaluation`` over state foreign code mutates owes the same call;
one that keeps the every-cycle default owes nothing.

Strict-registers instrumentation
--------------------------------

The wake rules above are a *contract*: a component must declare every
register its ``evaluate`` reads (own registers implicitly, foreign ones
via :meth:`Component.external_inputs`), must only drive registers it
owns or free-standing (link) registers, and must be ``touch()``-ed by
whoever queues work for it.  ``Kernel(strict_registers=True)``
— or ``REPRO_STRICT_REGISTERS=1`` — verifies the contract dynamically:
while a component evaluates, every ``Register.q`` read is checked against
its declared read set and every drive against its write set; and every
component the activity kernel *skips* — at its turn of an executed cycle,
and before every fast-forward — is asked ``next_evaluation`` afresh, the
answer compared with the cached one.  The first breach raises
:class:`~repro.errors.ContractViolationError`.  This
is the runtime twin of the static auditor in :mod:`repro.staticcheck`;
the instrumentation swaps ``Register.q`` for a checking property only
while a strict kernel is actually stepping, so non-strict kernels never
pay for it.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from bisect import insort
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from ..errors import ContractViolationError, SimulationError

#: Environment variable selecting the default kernel mode.
KERNEL_MODE_ENV = "REPRO_KERNEL_MODE"
#: Environment variable enabling strict register-contract checking.
STRICT_REGISTERS_ENV = "REPRO_STRICT_REGISTERS"
#: Activity-driven evaluation (wake sets, dirty latch, fast-forward).
ACTIVITY_MODE = "activity"
#: Reference evaluation: everything, every cycle.
NAIVE_MODE = "naive"
#: Flat-schedule compiled evaluation with steady-state epoch replay,
#: materialized in bulk with numpy (falls back to the activity kernel
#: whenever the network is not compilable — see
#: :mod:`repro.sim.compiled` and :mod:`repro.sim.replay`).
VECTOR_MODE = "vector"

#: The mode an unset ``REPRO_KERNEL_MODE`` resolves to.  ``activity`` and
#: ``naive`` are the selectable reference semantics: they always step the
#: word-level config tree and the component data plane.
DEFAULT_KERNEL_MODE = VECTOR_MODE

_MODES = (ACTIVITY_MODE, NAIVE_MODE, VECTOR_MODE)


class CompileRefusal:
    """A typed reason why the data plane cannot be compiled right now.

    Returned by a kernel's compile provider (and queryable through
    :meth:`Kernel.kernel_stats`) whenever ``vector`` mode has to fall
    back to the activity kernel.  ``kind`` is a stable machine-readable
    tag; ``detail`` is free-form diagnostics.
    """

    __slots__ = ("kind", "detail")

    #: No network installed a compile provider on this kernel.
    NO_PROVIDER = "no_provider"
    #: A configuration packet is in flight on the word-level tree (or
    #: words are still on the tree's links or in a decoder).
    CONFIG_ACTIVE = "config_active"
    #: A FaultInjector armed fault hooks on data or config links.
    FAULT_HOOKS_ARMED = "fault_hooks_armed"
    #: The kernel verifies the strict register contract, which only the
    #: stepped kernels exercise.
    STRICT_REGISTERS = "strict_registers"
    #: An event tracer is attached (per-hop events are not compiled).
    TRACER_ACTIVE = "tracer_active"
    #: A component the compiler does not know how to flatten.
    UNSUPPORTED_COMPONENT = "unsupported_component"
    #: The programmed schedule would drop words (dead-end walk).
    INCONSISTENT_SCHEDULE = "inconsistent_schedule"
    #: Words are mid-flight in pipeline registers; the engine only
    #: starts from a quiescent data plane.
    DATAPATH_BUSY = "datapath_busy"
    #: An epoch's values are outside the int64 budget of the numpy bulk
    #: replay.  Like :attr:`APERIODIC` the engine still *runs*: the
    #: epoch is stepped instead of replayed.
    UNSUPPORTED_PARAMS = "unsupported_params"
    #: The current timeline segment is genuinely aperiodic — steady-state
    #: epoch replay cannot engage (ambiguous generator labels, a replay
    #: period beyond the probe budget, or trace-driven traffic that never
    #: settles).  The engine still *runs*; only the arithmetic
    #: fast-forward is withheld for this regime.
    APERIODIC = "aperiodic_segment"

    #: Kinds that are *transient* obstructions of an otherwise
    #: compilable network: a config packet on the word-level tree (a
    #: read-back, a hand-built packet, one a fault hook refuses to
    #: elide), phits parked in pipeline registers off the compiled
    #: schedule.
    #: The kernel treats these as deferrals — it steps a bounded window
    #: on the activity kernel and re-probes — instead of falling back
    #: for the remainder of the call, so the engine returns once the
    #: packet or the phits have drained.  Use-case switches never
    #: refuse the engine: elided set-up runs as engine events.
    DEFERRABLE = frozenset((CONFIG_ACTIVE, DATAPATH_BUSY))

    def __init__(self, kind: str, detail: str = "") -> None:
        self.kind = kind
        self.detail = detail

    def __repr__(self) -> str:
        return f"CompileRefusal({self.kind!r}, {self.detail!r})"


def default_kernel_mode() -> str:
    """Kernel mode from ``REPRO_KERNEL_MODE``
    (:data:`DEFAULT_KERNEL_MODE` when unset).

    Raises:
        SimulationError: if the variable holds an unknown mode.
    """
    mode = os.environ.get(KERNEL_MODE_ENV, DEFAULT_KERNEL_MODE)
    mode = mode.strip().lower()
    if mode not in _MODES:
        raise SimulationError(
            f"{KERNEL_MODE_ENV}={mode!r} is not one of {_MODES}"
        )
    return mode


def default_strict_registers() -> bool:
    """Strict-registers default from ``REPRO_STRICT_REGISTERS``."""
    value = os.environ.get(STRICT_REGISTERS_ENV, "").strip().lower()
    return value in ("1", "true", "yes", "on")


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

    Activity contract (used by the kernel's ``activity`` mode):

    * a component is always evaluated in a cycle in which one of its own
      registers or one of :meth:`external_inputs` holds a non-idle output;
    * otherwise it is evaluated only when :meth:`next_evaluation` says the
      current cycle may hold work.  The default — "every cycle" — is the
      safe choice for components the kernel knows nothing about; it simply
      reproduces naive-mode behaviour for them;
    * the kernel *caches* that answer and asks again only after the
      component was evaluated, after a :meth:`touch`, after a
      ``Kernel.at`` callback, and on entry to ``Kernel.step`` /
      ``Kernel.run_until``.  So code that, from another component's
      ``evaluate``, changes state an overridden :meth:`next_evaluation`
      reads — in the direction that makes the answer *earlier* — must
      call :meth:`touch` on this component.  ``strict_registers`` checks
      it.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.registers: List[Register] = []
        self._kernel: Optional["Kernel"] = None
        #: Position in the owning kernel's evaluation order.
        self._order = -1

    def touch(self) -> None:
        """Tell the kernel this component's :meth:`next_evaluation`
        answer may have moved *earlier* — to be called by whatever code
        just queued work for it outside its own :meth:`evaluate` (see
        the activity contract above).  Free-standing components ignore
        it."""
        kernel = self._kernel
        if kernel is None:
            return
        kernel.touches += 1
        kernel._stale.add(self)
        # If its turn in the cycle being executed is still to come, it
        # is asked at that turn.
        agenda = kernel._agenda
        if agenda is not None and self._order > kernel._turn:
            insort(agenda, self._order)

    def make_register(self, suffix: str, idle: Any = None) -> Register:
        """Create a register owned (and latched) with this component."""
        register = Register(f"{self.name}.{suffix}", idle=idle)
        self.registers.append(register)
        if self._kernel is not None:
            self._kernel._adopt_register(register)
        return register

    def external_inputs(self) -> Iterable[Register]:
        """Registers this component reads but does not own.

        Typically the pipeline registers of incoming links.  The kernel
        re-evaluates the component whenever one of them is active.
        """
        return ()

    def next_evaluation(self, cycle: int) -> Optional[int]:
        """Earliest cycle ``>= cycle`` at which :meth:`evaluate` may do
        observable work, assuming no watched register becomes active and
        no external code mutates this component before then.

        ``None`` means "never (until something wakes me)".  Returning a
        conservative (too early) cycle is always sound — evaluating an
        idle component is a no-op — but returning a too-late cycle breaks
        cycle accuracy.  The default, ``cycle``, keeps unknown components
        on the naive every-cycle schedule.

        Must be a pure function of ``cycle`` and the component's state:
        the kernel caches the answer (see :meth:`touch`).
        """
        return cycle

    @abstractmethod
    def evaluate(self, cycle: int) -> None:
        """Combinational phase for ``cycle``; drive register inputs."""

    def reset(self) -> None:
        """Reset all owned registers; subclasses extend for extra state."""
        for register in self.registers:
            register.reset()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


# -- strict-registers instrumentation --------------------------------------
#
# While a strict kernel steps, ``Register.q`` is swapped for a property
# that consults the module-level observation context.  The context is set
# only around ``component.evaluate`` calls, so reads from test code, the
# host, or the kernel's own bookkeeping are never restricted.


class _StrictContext:
    """The component currently evaluating and its declared read set."""

    __slots__ = ("component", "allowed_reads")

    def __init__(
        self, component: "Component", allowed_reads: FrozenSet[Register]
    ) -> None:
        self.component = component
        self.allowed_reads = allowed_reads


_STRICT_CTX: Optional[_StrictContext] = None
_PATCH_DEPTH = 0
_Q_MEMBER: Any = None  # saved slot descriptor while the patch is active


def _checked_q_get(register: Register) -> Any:
    ctx = _STRICT_CTX
    if ctx is not None and register not in ctx.allowed_reads:
        raise ContractViolationError(
            f"component {ctx.component.name!r} read register "
            f"{register.name!r} which it neither owns nor declares — an "
            f"undeclared input is a fast-forward staleness race.  Fix: "
            f"return it from {type(ctx.component).__name__}."
            f"external_inputs(), or create it with make_register() if "
            f"the component owns it."
        )
    return _Q_MEMBER.__get__(register, Register)


def _checked_q_set(register: Register, value: Any) -> None:
    _Q_MEMBER.__set__(register, value)


def _push_strict_patch() -> None:
    global _PATCH_DEPTH, _Q_MEMBER
    if _PATCH_DEPTH == 0:
        _Q_MEMBER = Register.q
        Register.q = property(  # type: ignore[assignment]
            _checked_q_get, _checked_q_set
        )
    _PATCH_DEPTH += 1


def _pop_strict_patch() -> None:
    global _PATCH_DEPTH, _STRICT_CTX, _Q_MEMBER
    _PATCH_DEPTH -= 1
    if _PATCH_DEPTH == 0:
        Register.q = _Q_MEMBER  # type: ignore[assignment]
        _Q_MEMBER = None
        _STRICT_CTX = None


class Kernel:
    """Owns components and advances the global clock.

    The kernel also exposes a tiny scheduling facility: callbacks that run
    at the start of a chosen cycle, used by test benches and the host model
    to inject stimuli at precise times.

    Attributes:
        cycle: The current simulation cycle.
        active_cycles: Cycles in which at least one component was
            evaluated or register latched (instrumentation).
        fast_forwarded_cycles: Quiescent cycles skipped in O(1) by the
            activity mode (instrumentation).
        evaluations: Total component evaluations performed.
    """

    def __init__(
        self,
        mode: Optional[str] = None,
        strict_registers: Optional[bool] = None,
    ) -> None:
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
        if strict_registers is None:
            strict_registers = default_strict_registers()
        #: Verify the read/write contract of every evaluation (slow;
        #: meant for tests — see the module docstring).
        self.strict_registers = strict_registers
        #: component -> (allowed reads, allowed writes); rebuilt lazily.
        self._strict_sets: Dict[
            Component, Tuple[FrozenSet[Register], FrozenSet[Register]]
        ] = {}
        #: Registers driven during the current cycle (filled by drive()).
        self._dirty: List[Register] = []
        #: Registers whose q was latched non-idle at the previous edge.
        self._carry: Set[Register] = set()
        #: Components woken for the current cycle by register activity.
        self._wake: Set[Component] = set()
        #: register -> components watching it; None marks "needs rebuild".
        self._watchers: Optional[Dict[Register, tuple]] = None
        #: Cached ``next_evaluation`` answer per component index.
        self._due: List[Optional[int]] = []
        #: Min-heap of ``(due, component index)``.  An entry is live
        #: while it equals the component's ``_due``; superseded entries
        #: are dropped when they surface.
        self._schedule: List[Tuple[int, int]] = []
        #: Components whose cached answer may be too late: evaluated or
        #: touched since they were last asked.
        self._stale: Set[Component] = set()
        #: Every cached answer may be too late (external code ran).
        self._stale_all = True
        #: Sorted indices visited in the cycle being executed (``None``
        #: between cycles) and the index being visited.
        self._agenda: Optional[List[int]] = None
        self._turn = -1
        self.active_cycles = 0
        self.fast_forwarded_cycles = 0
        self.evaluations = 0
        #: Calls to ``Component.next_evaluation`` made by the scheduler.
        self.schedule_polls = 0
        #: Calls to :meth:`Component.touch` received.
        self.touches = 0
        #: Installed by a network that knows how to flatten its data
        #: plane: ``provider(kernel, previous_engine)`` returns a fresh
        #: (or revalidated) engine object, or a :class:`CompileRefusal`.
        self.compile_provider: Optional[
            Callable[["Kernel", Any], Any]
        ] = None
        #: The live compiled engine, if any (owned by VECTOR_MODE).
        self._engine: Any = None
        #: Cycles advanced by the compiled engine's event loop.
        self.compiled_cycles = 0
        #: Steady-state epochs applied arithmetically instead of stepped.
        self.replayed_epochs = 0
        #: Cycles covered by replayed epochs (subset of compiled_cycles).
        self.replayed_cycles = 0
        #: refusal kind -> number of fallbacks to the activity kernel.
        self.compile_fallbacks: Dict[str, int] = {}
        #: refusal kind -> number of *deferrals*: transient refusals (a
        #: stepped config packet, a draining datapath) stepped through
        #: on the activity kernel before re-acquiring an engine.
        self.compile_deferrals: Dict[str, int] = {}
        self._last_refusal: Optional[CompileRefusal] = None
        #: Distinct steady-state regimes in which epoch replay engaged
        #: (a regime opens when replay first fires after a signature
        #: mismatch or reconfiguration, and closes on the next mismatch).
        self.regimes_detected = 0
        #: Boundaries where a previously cached regime replayed
        #: immediately, skipping the two-probe settling wait.
        self.regime_cache_hits = 0
        #: Regimes captured into the piecewise-periodic cache.
        self.regime_cache_stores = 0
        #: ``lower_network`` products served from the schedule-image
        #: cache instead of recompiled (use-case-switch campaigns).
        self.lowering_cache_hits = 0
        #: Full compiles that populated the lowering cache.
        self.lowering_cache_misses = 0
        #: refusal kind -> count of *replay* refusals: the engine ran,
        #: but epoch replay was withheld — the timeline segment was
        #: aperiodic (:attr:`CompileRefusal.APERIODIC`) or an epoch's
        #: values left numpy's int64 range
        #: (:attr:`CompileRefusal.UNSUPPORTED_PARAMS`).
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
        """``"activity"``, ``"naive"`` or ``"vector"``."""
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
            self._watchers = None  # rebuild activity state on next step
            self._strict_sets.clear()

    # -- construction --------------------------------------------------------

    def add(self, component: Component) -> Component:
        """Register a component (and its registers) with the kernel."""
        self._retire_engine()
        self.components.append(component)
        component._kernel = self
        for register in component.registers:
            register._sink = self._dirty
        self._watchers = None
        self._strict_sets.clear()
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
        self._watchers = None
        self._strict_sets.clear()
        return register

    def _adopt_register(self, register: Register) -> None:
        """Hook a register created after its component was added."""
        self._retire_engine()
        register._sink = self._dirty
        self._watchers = None
        self._strict_sets.clear()

    def all_registers(self) -> List[Register]:
        """Every register latched by this kernel (components + extras)."""
        registers: List[Register] = []
        for component in self.components:
            registers.extend(component.registers)
        registers.extend(self._extra_registers)
        return registers

    def at(self, cycle: int, callback: Callable[[int], None]) -> None:
        """Schedule ``callback(cycle)`` at the start of ``cycle``.

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

    # -- strict-registers contract checking -----------------------------------

    @contextmanager
    def _strict_stepping(self) -> Iterator[None]:
        """Install the ``Register.q`` observation patch while stepping."""
        if not self.strict_registers:
            yield
            return
        _push_strict_patch()
        try:
            yield
        finally:
            _pop_strict_patch()

    def _strict_allowed(
        self, component: Component
    ) -> Tuple[FrozenSet[Register], FrozenSet[Register]]:
        """(allowed reads, allowed writes) of one component, cached."""
        sets = self._strict_sets.get(component)
        if sets is None:
            own = frozenset(component.registers)
            reads = own | frozenset(component.external_inputs())
            writes = own | frozenset(self._extra_registers)
            sets = (reads, writes)
            self._strict_sets[component] = sets
        return sets

    def _evaluate_checked(self, component: Component, cycle: int) -> None:
        """Evaluate one component under read/write observation.

        Raises:
            ContractViolationError: on an undeclared register read (via
                the ``Register.q`` patch) or a drive of a register owned
                by another component (checked against the dirty list the
                evaluation appended to).
        """
        global _STRICT_CTX
        reads, writes = self._strict_allowed(component)
        before = len(self._dirty)
        _STRICT_CTX = _StrictContext(component, reads)
        try:
            component.evaluate(cycle)
        finally:
            _STRICT_CTX = None
        for register in self._dirty[before:]:
            if register not in writes:
                raise ContractViolationError(
                    f"component {component.name!r} drove register "
                    f"{register.name!r} which belongs to another "
                    f"component — a double-drive hazard the runtime "
                    f"collision check only catches when both drivers "
                    f"fire in the same cycle.  Fix: drive only "
                    f"registers created with make_register() or "
                    f"free-standing link registers."
                )

    # -- activity bookkeeping -------------------------------------------------

    def _finalize(self) -> None:
        """(Re)build the register->watchers map, the activity sets and
        the component schedule."""
        watchers: Dict[Register, list] = {}
        for index, component in enumerate(self.components):
            component._kernel = self
            component._order = index
            for register in component.registers:
                register._sink = self._dirty
                watchers.setdefault(register, []).append(component)
            for register in component.external_inputs():
                entry = watchers.setdefault(register, [])
                if component not in entry:
                    entry.append(component)
        for register in self._extra_registers:
            register._sink = self._dirty
            watchers.setdefault(register, [])
        self._watchers = {
            register: tuple(components)
            for register, components in watchers.items()
        }
        # Rebuild the active sets from the registers' current outputs so
        # a mode switch (or late component addition) starts consistent.
        carry: Set[Register] = set()
        wake: Set[Component] = set()
        for register in self._watchers:
            q = register.q
            if q is not register.idle and q != register.idle:
                carry.add(register)
                wake.update(self._watchers[register])
        self._carry = carry
        self._wake = wake
        # Whatever made the rebuild necessary (a mode switch, an engine
        # run, a new component) may have moved any answer: ask afresh.
        self._due = [None] * len(self.components)
        self._schedule.clear()
        self._stale.clear()
        self._stale_all = True

    def _set_due(self, index: int, due: Optional[int]) -> None:
        """Cache a fresh ``next_evaluation`` answer and schedule it."""
        if due != self._due[index]:
            self._due[index] = due
            if due is not None:
                heappush(self._schedule, (due, index))

    def _refresh(self, cycle: int) -> None:
        """Re-ask every component whose cached answer may be too late."""
        if self._stale_all:
            self._stale_all = False
            stale: Iterable[Component] = self.components
            self.schedule_polls += len(self.components)
        else:
            stale = self._stale
            self.schedule_polls += len(self._stale)
        for component in stale:
            self._set_due(
                component._order, component.next_evaluation(cycle)
            )
        self._stale.clear()

    def _check_wake_contract(
        self, component: Component, cycle: int, horizon: Optional[int]
    ) -> None:
        """Strict mode: ``component`` is about to be skipped from
        ``cycle`` up to ``horizon`` (``None``: indefinitely) on the
        strength of its cached answer — a fresh one must agree.

        Raises:
            ContractViolationError: if the fresh answer is earlier,
                i.e. its state was changed without a ``touch()``.
        """
        self.schedule_polls += 1
        fresh = component.next_evaluation(cycle)
        if fresh is not None and (horizon is None or fresh < horizon):
            cached = self._due[component._order]
            raise ContractViolationError(
                f"component {component.name!r} asked at cycle {cycle} "
                f"is next due at cycle {fresh}, but the kernel's cached "
                f"answer says "
                f"{'never' if cached is None else f'cycle {cached}'} — "
                f"something queued work for it without waking it.  Fix: "
                f"call {type(component).__name__}.touch() wherever code "
                f"outside its own evaluate() changes state its "
                f"next_evaluation() reads."
            )

    def _next_active_cycle(self) -> Optional[int]:
        """Earliest cycle >= now at which anything may happen.

        Returns ``None`` when no register is active, no callback is
        scheduled and every component self-schedules "never".
        """
        cycle = self.cycle
        if self._wake or self._carry or self._dirty:
            return cycle
        if self._stale_all or self._stale:
            self._refresh(cycle)
        best = self._next_callback_cycle()
        schedule = self._schedule
        due = self._due
        while schedule:
            when, index = schedule[0]
            if due[index] != when:
                heappop(schedule)  # superseded
                continue
            if best is None or when < best:
                best = when
            break
        if best is not None and best <= cycle:
            return cycle
        if self.strict_registers:
            for component in self.components:
                self._check_wake_contract(component, cycle, best)
        return best

    def _run_active_cycle(self) -> None:
        """Execute one cycle: callbacks, due and woken components in
        ``self.components`` order, dirty latch."""
        cycle = self.cycle
        self.active_cycles += 1
        callbacks = self._callbacks.pop(cycle, None)
        if callbacks:
            for callback in callbacks:  # stimuli, in registration order
                callback(cycle)
            if self._watchers is None:  # one of them attached a component
                self._finalize()
            self._stale_all = True  # they may have mutated anything
        if self._stale_all:
            self._refresh(cycle)
        wake = self._wake
        stale = self._stale
        due = self._due
        schedule = self._schedule
        components = self.components
        strict = self.strict_registers
        # Whoever ran or was touched last cycle gets a turn: a register
        # wakes it again, or it is asked there (never both — a woken
        # component is evaluated whatever it would answer).
        agenda = [
            component._order
            for component in (wake | stale if stale else wake)
        ]
        due_now: Set[int] = set()
        while schedule and schedule[0][0] <= cycle:
            when, index = heappop(schedule)
            if due[index] == when:
                # Consumed: the answer asked after the evaluation
                # schedules the component again.
                due[index] = None
                due_now.add(index)
                agenda.append(index)
        if strict:
            # Give every component a turn so the skipped ones can be
            # checked against a fresh answer.
            agenda = list(range(len(components)))
        else:
            agenda.sort()
        self._agenda = agenda
        self._turn = turn = -1
        evaluated = 0
        try:
            for index in agenda:  # touch() inserts later turns meanwhile
                if index == turn:
                    continue
                self._turn = turn = index
                component = components[index]
                if component not in wake:
                    if component in stale:
                        # Asked at its own turn, so work a component
                        # earlier in the order queued for it this cycle
                        # has the same effect as in naive order.
                        stale.discard(component)
                        self.schedule_polls += 1
                        nxt = component.next_evaluation(cycle)
                        if nxt is None or nxt > cycle:
                            self._set_due(index, nxt)
                            continue
                    elif index not in due_now:
                        if strict:
                            self._check_wake_contract(
                                component, cycle, cycle + 1
                            )
                        continue
                if strict:
                    self._evaluate_checked(component, cycle)
                else:
                    component.evaluate(cycle)
                evaluated += 1
                stale.add(component)
        finally:
            self._agenda = None
        self.evaluations += evaluated
        # Dirty latch: only registers driven this cycle or still holding
        # a non-idle output can change at this edge.
        pending = self._carry
        pending.update(self._dirty)
        self._dirty.clear()
        watchers = self._watchers
        assert watchers is not None
        carry: Set[Register] = set()
        wake = set()
        for register in pending:
            register.latch()
            q = register.q
            if q is not register.idle and q != register.idle:
                carry.add(register)
                watching = watchers.get(register)
                if watching:
                    wake.update(watching)
        self._carry = carry
        self._wake = wake
        self.cycle = cycle + 1

    # -- compiled-engine lifecycle --------------------------------------------

    def _note_refusal(self, refusal: CompileRefusal) -> None:
        self._last_refusal = refusal
        self.compile_fallbacks[refusal.kind] = (
            self.compile_fallbacks.get(refusal.kind, 0) + 1
        )

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
        every ``run_to`` exit, so there is nothing to write back: the
        stepped kernels (and external observers) already see bit-exact
        state.
        """
        if self._engine is not None:
            self._engine = None
            self._watchers = None  # rebuild activity carry/wake from registers

    def _acquire_engine(self) -> Any:
        """Return a valid compiled engine, or fall back (``None``).

        The provider revalidates a previous engine cheaply (config-tree
        quiescence, schedule version token) and recompiles only when the
        programmed schedule actually changed.  A refusal that cannot
        clear by itself drops the old engine.
        """
        provider = self.compile_provider
        if provider is None:
            self._retire_engine()
            self._note_refusal(
                CompileRefusal(
                    CompileRefusal.NO_PROVIDER,
                    "no network installed a compile provider",
                )
            )
            return None
        result = provider(self, self._engine)
        if isinstance(result, CompileRefusal):
            if result.kind not in CompileRefusal.DEFERRABLE:
                self._retire_engine()
            # Deferrable refusals keep the engine cached: it holds no
            # state between runs, and the token check makes reuse after
            # the obstruction clears cheap.
            self._note_refusal(result)
            return None
        self._engine = result
        return result

    def kernel_stats(self) -> Dict[str, Any]:
        """Instrumentation snapshot, including compiled-engine telemetry.

        ``touches`` counts wakes of the stepped kernels' scheduler: the
        compiled engine queues a generator's words without
        ``touch()``-ing the NI (every engine exit rebuilds that
        scheduler), so cycles it executes add none.
        """
        refusal = self._last_refusal
        return {
            "mode": self._mode,
            "cycle": self.cycle,
            "active_cycles": self.active_cycles,
            "evaluations": self.evaluations,
            "fast_forwarded_cycles": self.fast_forwarded_cycles,
            "schedule_polls": self.schedule_polls,
            "touches": self.touches,
            "compiled_cycles": self.compiled_cycles,
            "replayed_epochs": self.replayed_epochs,
            "replayed_cycles": self.replayed_cycles,
            "compile_fallbacks": dict(self.compile_fallbacks),
            "compile_deferrals": dict(self.compile_deferrals),
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

    #: First deferral window (cycles stepped on the activity kernel
    #: before re-probing engine eligibility after a transient refusal).
    DEFER_WINDOW_MIN = 64
    #: Deferral windows back off exponentially up to this cap, so a
    #: long-lived obstruction costs O(log) probes, not one per window.
    DEFER_WINDOW_MAX = 4096

    def _step_compiled(self, cycles: int) -> None:
        """Advance ``cycles`` cycles, compiled where possible.

        Callbacks are barriers: they may mutate arbitrary state, so the
        engine runs up to the earliest scheduled callback (leaving
        registers, counters and statistics materialized) and the
        callback's cycle executes under the activity kernel;
        eligibility is then re-checked.  The engine names one more kind
        of barrier (``next_stepped_cycle``): a cycle whose work only the
        stepped kernels model, such as the activation of a config
        packet that must stream through the word-level tree.  An engine
        run that returns before its barrier stopped after a cycle that
        changed what it runs; the kernel re-acquires.

        Refusals split two ways.  *Transient* kinds
        (:attr:`CompileRefusal.DEFERRABLE`: a config packet on the
        word-level tree, phits parked off the compiled schedule) are
        deferrals — the kernel steps a bounded, exponentially growing
        activity window and re-probes, so the engine returns once the
        tree is quiet.  Every other kind falls back to the activity
        kernel for the remainder of this call — re-probing a permanently
        refusing configuration every window would only burn eligibility
        scans.
        """
        end = self.cycle + cycles
        defer_window = self.DEFER_WINDOW_MIN
        while self.cycle < end:
            engine = self._acquire_engine()
            if engine is None:
                refusal = self._last_refusal
                if (
                    refusal is not None
                    and refusal.kind in CompileRefusal.DEFERRABLE
                ):
                    self._defer(refusal, min(defer_window, end - self.cycle))
                    defer_window = min(
                        defer_window * 2, self.DEFER_WINDOW_MAX
                    )
                    continue
                self._step_activity(end - self.cycle)
                return
            barrier = end
            for scheduled in (
                self._next_callback_cycle(),
                engine.next_stepped_cycle(),
            ):
                if scheduled is not None and scheduled < barrier:
                    barrier = scheduled
            if barrier > self.cycle:
                refusal = engine.run_to(barrier)
                if refusal is not None:
                    self._note_refusal(refusal)
                    if refusal.kind in CompileRefusal.DEFERRABLE:
                        # Import-time refusal: nothing was executed and
                        # the engine holds no state, so keep it cached —
                        # the next probe revalidates by token instead of
                        # recompiling the whole mesh.
                        self._defer(
                            refusal, min(defer_window, end - self.cycle)
                        )
                        defer_window = min(
                            defer_window * 2, self.DEFER_WINDOW_MAX
                        )
                        continue
                    self._retire_engine()
                    self._step_activity(end - self.cycle)
                    return
                defer_window = self.DEFER_WINDOW_MIN
                if self.cycle < barrier:
                    # The engine stopped after a cycle that reconfigured
                    # what it runs: re-acquire (which recompiles).
                    continue
            if self.cycle < end:
                # A callback (or a packet only the word-level tree can
                # carry) is due at the current cycle; run it stepped.
                self._retire_engine()
                self._step_activity(1)

    def _defer(self, refusal: CompileRefusal, window: int) -> None:
        """Step a bounded activity window through a transient refusal."""
        self.compile_deferrals[refusal.kind] = (
            self.compile_deferrals.get(refusal.kind, 0) + 1
        )
        self._step_activity(max(1, window))

    # -- execution -----------------------------------------------------------

    def step(self, cycles: int = 1) -> None:
        """Advance the simulation by ``cycles`` clock cycles."""
        self._stale_all = True  # the caller may have mutated anything
        with self._strict_stepping():
            if self._mode == NAIVE_MODE:
                self._step_naive(cycles)
            elif self._mode == VECTOR_MODE:
                self._step_compiled(cycles)
            else:
                self._step_activity(cycles)

    def _step_naive(self, cycles: int) -> None:
        strict = self.strict_registers
        for _ in range(cycles):
            for callback in self._callbacks.pop(self.cycle, ()):  # stimuli
                callback(self.cycle)
            for component in self.components:
                if strict:
                    self._evaluate_checked(component, self.cycle)
                else:
                    component.evaluate(self.cycle)
            for component in self.components:
                for register in component.registers:
                    register.latch()
            for register in self._extra_registers:
                register.latch()
            self._dirty.clear()
            self.evaluations += len(self.components)
            self.active_cycles += 1
            self.cycle += 1

    def _step_activity(self, cycles: int) -> None:
        end = self.cycle + cycles
        while self.cycle < end:
            if self._watchers is None:
                self._finalize()
            nxt = self._next_active_cycle()
            if nxt is None or nxt >= end:
                self.fast_forwarded_cycles += end - self.cycle
                self.cycle = end
                return
            if nxt > self.cycle:
                self.fast_forwarded_cycles += nxt - self.cycle
                self.cycle = nxt
            self._run_active_cycle()

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_cycles: int = 1_000_000,
    ) -> int:
        """Step until ``predicate()`` is true; return the current cycle.

        A predicate that already holds returns at once, stepping nothing
        and leaving a vector-mode engine in place.  Otherwise the
        predicate is polled between cycles, so vector mode steps on the
        activity kernel here; in activity mode it is re-checked after
        every cycle in which any component ran or register latched, and
        fully quiescent stretches — during which no state the predicate
        could observe can change — are fast-forwarded.  (A predicate
        that watches ``kernel.cycle`` itself rather than simulation
        state should use :meth:`step` directly; a wait whose end is
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
        # stepped execution, so vector mode defers to the activity
        # kernel here (after materializing any engine state).
        self._retire_engine()
        self._stale_all = True  # the caller may have mutated anything
        with self._strict_stepping():
            while not predicate():
                if self.cycle >= limit:
                    raise SimulationError(
                        f"condition not reached within {max_cycles} cycles"
                    )
                if self._mode == NAIVE_MODE:
                    self._step_naive(1)
                else:
                    if self._watchers is None:
                        self._finalize()
                    nxt = self._next_active_cycle()
                    if nxt is None or nxt >= limit:
                        self.fast_forwarded_cycles += limit - self.cycle
                        self.cycle = limit
                        continue
                    if nxt > self.cycle:
                        self.fast_forwarded_cycles += nxt - self.cycle
                        self.cycle = nxt
                    self._run_active_cycle()
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
        self._watchers = None  # rebuild activity state and the schedule
