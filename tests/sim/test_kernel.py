"""Unit tests for the two-phase simulation kernel."""

from __future__ import annotations

import pytest

from repro.core import DaeliteNetwork
from repro.errors import SimulationError
from repro.params import daelite_parameters
from repro.sim import Component, Kernel, Register
from repro.topology import build_mesh


class Counter(Component):
    """Increments a register every cycle (test helper)."""

    def __init__(self, name="counter"):
        super().__init__(name)
        self.value = self.make_register("value", idle=0)

    def evaluate(self, cycle):
        self.value.drive(self.value.q + 1)


class Chain(Component):
    """Copies its input register to its output register (1-cycle delay)."""

    def __init__(self, name, source):
        super().__init__(name)
        self.source = source
        self.out = self.make_register("out")

    def evaluate(self, cycle):
        self.out.drive(self.source.q)


class TestRegister:
    def test_initial_value_is_idle(self):
        register = Register("r", idle=7)
        assert register.q == 7

    def test_drive_visible_after_latch(self):
        register = Register("r")
        register.drive(42)
        assert register.q is None
        register.latch()
        assert register.q == 42

    def test_undriven_latch_resets_to_idle(self):
        register = Register("r", idle="idle")
        register.drive("busy")
        register.latch()
        register.latch()
        assert register.q == "idle"

    def test_double_drive_is_a_collision(self):
        register = Register("r")
        register.drive(1)
        with pytest.raises(SimulationError, match="driven twice"):
            register.drive(2)

    def test_driven_flag(self):
        register = Register("r")
        assert not register.driven
        register.drive(1)
        assert register.driven
        register.latch()
        assert not register.driven

    def test_reset(self):
        register = Register("r", idle=0)
        register.drive(9)
        register.latch()
        register.reset()
        assert register.q == 0


class TestKernel:
    def test_step_advances_cycle(self):
        kernel = Kernel()
        kernel.step(5)
        assert kernel.cycle == 5

    def test_component_evaluated_every_cycle(self):
        kernel = Kernel()
        counter = kernel.add(Counter())
        kernel.step(10)
        assert counter.value.q == 10

    def test_pipeline_has_per_stage_delay(self):
        kernel = Kernel()
        counter = kernel.add(Counter())
        stage = kernel.add(Chain("stage", counter.value))
        kernel.step(3)
        # After 3 cycles the counter shows 3; the chained stage shows
        # the counter's value one cycle earlier.
        assert counter.value.q == 3
        assert stage.out.q == 2

    def test_evaluation_order_is_irrelevant(self):
        results = []
        for reverse in (False, True):
            kernel = Kernel()
            counter = Counter()
            stage = Chain("stage", counter.value)
            components = [counter, stage]
            if reverse:
                components.reverse()
            kernel.add_all(components)
            kernel.step(4)
            results.append(stage.out.q)
        assert results[0] == results[1]

    def test_scheduled_callback_runs_at_cycle(self):
        kernel = Kernel()
        seen = []
        kernel.at(3, lambda cycle: seen.append(cycle))
        kernel.step(5)
        assert seen == [3]

    def test_callback_in_past_rejected(self):
        kernel = Kernel()
        kernel.step(2)
        with pytest.raises(SimulationError):
            kernel.at(1, lambda cycle: None)

    def test_run_until_returns_cycle(self):
        kernel = Kernel()
        counter = kernel.add(Counter())
        cycle = kernel.run_until(lambda: counter.value.q >= 7)
        assert counter.value.q >= 7
        assert kernel.cycle == cycle

    def test_run_until_times_out(self):
        kernel = Kernel()
        with pytest.raises(SimulationError, match="not reached"):
            kernel.run_until(lambda: False, max_cycles=10)

    def test_reset_restores_time_and_registers(self):
        kernel = Kernel()
        counter = kernel.add(Counter())
        kernel.step(8)
        kernel.reset()
        assert kernel.cycle == 0
        assert counter.value.q == 0

    def test_free_standing_register_latched(self):
        kernel = Kernel()
        register = kernel.add_register(Register("free"))
        register.drive("x")
        kernel.step(1)
        assert register.q == "x"

    def test_write_register_from_a_callback_lands_and_is_noted(self):
        """A ``Kernel.write_register`` from a ``kernel.at`` callback sets
        the output the components read in that cycle, and notes the
        register for the compiled engine's next entry."""
        kernel = Kernel()
        counter = kernel.add(Counter())
        kernel.at(1, lambda cycle: kernel.write_register(counter.value, 40))
        kernel.step(2)
        assert counter.value.q == 41
        assert counter.value in kernel.written


class Mailbox(Component):
    """Opens whatever is in its inbox (state, not a register)."""

    def __init__(self, name="mailbox"):
        super().__init__(name)
        self.inbox = []
        self.opened = []

    def post(self, item):
        self.inbox.append(item)

    def evaluate(self, cycle):
        while self.inbox:
            self.opened.append((cycle, self.inbox.pop(0)))


class Poster(Component):
    """Posts into a mailbox at chosen cycles, from its own evaluate."""

    def __init__(self, name, mailbox, cycles):
        super().__init__(name)
        self.mailbox = mailbox
        self.cycles = sorted(cycles)

    def evaluate(self, cycle):
        if cycle in self.cycles:
            self.mailbox.post(cycle)


@pytest.mark.parametrize("poster_first", [True, False])
def test_touch_keeps_the_contract(poster_first):
    """Work a component queues into a peer outside the registers keeps
    the write and two-phase rules on the ``vector`` kernel: the mailbox
    opens it in the posting cycle when the poster runs first, one cycle
    later otherwise, as the naive order would."""
    kernel = Kernel(mode="vector")
    mailbox = Mailbox()
    poster = Poster("poster", mailbox, [20])
    kernel.add_all((poster, mailbox) if poster_first else (mailbox, poster))
    kernel.step(100)
    assert mailbox.opened == [(20 if poster_first else 21, 20)]


@pytest.mark.parametrize("mode", ["naive", "vector"])
class TestCallbackSchedule:
    def test_same_cycle_callbacks_keep_registration_order(self, mode):
        kernel = Kernel(mode=mode)
        seen = []
        # Registered out of cycle order, and interleaved across cycles.
        for tag, cycle in enumerate([9, 4, 9, 4, 6, 9, 4]):
            kernel.at(cycle, lambda now, tag=tag: seen.append((now, tag)))
        kernel.step(12)
        assert seen == [
            (4, 1), (4, 3), (4, 6), (6, 4), (9, 0), (9, 2), (9, 5),
        ]

    def test_callback_registered_from_a_callback(self, mode):
        kernel = Kernel(mode=mode)
        seen = []
        kernel.at(
            5, lambda now: kernel.at(now + 300, seen.append)
        )
        kernel.step(400)
        assert seen == [305]

    @pytest.mark.parametrize("network", [False, True], ids=["bare", "network"])
    def test_callback_for_its_own_cycle_from_a_callback(self, mode, network):
        """A callback scheduled for the current cycle from inside one
        runs in that cycle, after those scheduled before it, and nothing
        stays scheduled — on a bare kernel and on a network's, whose
        ``vector`` kernel runs callbacks in place beside the config
        plane."""
        if network:
            params = daelite_parameters(slot_table_size=8)
            kernel = DaeliteNetwork(build_mesh(2, 2), params, kernel_mode=mode).kernel
        else:
            kernel = Kernel(mode=mode)
        seen = []

        def first(now):
            seen.append(("first", now))
            kernel.at(now, lambda later: seen.append(("second", later)))

        kernel.at(5, first)
        kernel.at(5, lambda now: seen.append(("sibling", now)))
        kernel.step(10)
        assert seen == [("first", 5), ("sibling", 5), ("second", 5)]
        assert kernel._callbacks == {}

    def test_reset_forgets_scheduled_callbacks(self, mode):
        kernel = Kernel(mode=mode)
        seen = []
        kernel.at(50, seen.append)
        kernel.reset()
        kernel.step(100)
        assert seen == []


class TestEventDrivenSchedule:
    """Work one component queues for another outside the registers is
    seen in component order.  These kernels have no compile provider, so
    ``vector`` mode runs them on its fallback, which must be the naive
    order exactly."""

    def build(self, poster_first, cycles=(10, 200)):
        kernel = Kernel(mode="vector")
        mailbox = Mailbox()
        poster = Poster("poster", mailbox, cycles)
        for component in (
            (poster, mailbox) if poster_first else (mailbox, poster)
        ):
            kernel.add(component)
        return kernel, mailbox

    def test_touched_later_component_runs_in_the_same_cycle(self):
        # Naive order: the poster runs first, so the mailbox sees the
        # item in the very cycle it was posted.
        kernel, mailbox = self.build(poster_first=True)
        kernel.step(300)
        assert mailbox.opened == [(10, 10), (200, 200)]

    def test_touched_earlier_component_runs_next_cycle(self):
        # Naive order: the mailbox already had its turn.
        kernel, mailbox = self.build(poster_first=False)
        kernel.step(300)
        assert mailbox.opened == [(11, 10), (201, 200)]

    @pytest.mark.parametrize("poster_first", [True, False])
    def test_matches_naive(self, poster_first):
        kernel, mailbox = self.build(poster_first)
        kernel.step(300)
        reference, expected = self.build(poster_first)
        reference.set_mode("naive")
        reference.step(300)
        assert mailbox.opened == expected.opened

    def test_external_mutation_between_steps_needs_no_touch(self):
        kernel, mailbox = self.build(poster_first=True, cycles=())
        kernel.step(100)
        mailbox.inbox.append("by hand")
        kernel.step(100)
        assert mailbox.opened == [(100, "by hand")]

    def test_callback_mutation_needs_no_touch(self):
        kernel, mailbox = self.build(poster_first=True, cycles=())
        kernel.at(40, lambda cycle: mailbox.inbox.append("cb"))
        kernel.step(100)
        assert mailbox.opened == [(40, "cb")]

    def test_component_attached_from_a_callback(self):
        kernel, mailbox = self.build(poster_first=True, cycles=())
        late = Mailbox("late")
        late.inbox.append("waiting")
        kernel.at(30, lambda cycle: kernel.add(late))
        kernel.step(100)
        assert late.opened == [(30, "waiting")]
