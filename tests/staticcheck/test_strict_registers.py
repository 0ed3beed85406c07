"""The ``strict_registers`` runtime mode: dynamic confirmation of the
contract the AST auditor proves statically."""

import pytest

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core.network import DaeliteNetwork
from repro.errors import ContractViolationError, SimulationError
from repro.sim.kernel import (
    Component,
    Kernel,
    Register,
    STRICT_REGISTERS_ENV,
    default_strict_registers,
)
from repro.topology import build_mesh

from ..sim.test_kernel import Mailbox


class Victim(Component):
    def __init__(self):
        super().__init__("victim")
        self.reg = self.make_register("r", idle=0)

    def evaluate(self, cycle):
        self.reg.drive(cycle)



class Spy(Component):
    """Reads a register it neither owns nor declares."""

    def __init__(self, victim):
        super().__init__("spy")
        self.victim = victim
        self.seen = None

    def evaluate(self, cycle):
        self.seen = self.victim.reg.q



class HonestSpy(Spy):
    """Same read, but declared — must run clean."""

    def external_inputs(self):
        return [self.victim.reg]


class PassiveOwner(Component):
    """Owns a register it never drives itself."""

    def __init__(self):
        super().__init__("owner")
        self.reg = self.make_register("r", idle=0)

    def evaluate(self, cycle):
        pass



class ForeignWriter(Component):
    """Drives a register owned by another component.

    The drive never collides with the owner in the same cycle, so the
    plain double-drive check in ``Register.drive`` cannot see it — only
    the strict ownership check can.
    """

    def __init__(self, victim):
        super().__init__("writer")
        self.victim = victim

    def external_inputs(self):
        return [self.victim.reg]

    def evaluate(self, cycle):
        self.victim.reg.drive(99)



@pytest.mark.parametrize("mode", ["naive", "vector"])
def test_undeclared_read_raises(mode):
    kernel = Kernel(mode=mode, strict_registers=True)
    victim = Victim()
    spy = Spy(victim)
    kernel.add(victim)
    kernel.add(spy)
    with pytest.raises(ContractViolationError) as excinfo:
        kernel.step(3)
    message = str(excinfo.value)
    assert "spy" in message
    assert "victim.r" in message


@pytest.mark.parametrize("mode", ["naive", "vector"])
def test_declared_read_is_clean(mode):
    kernel = Kernel(mode=mode, strict_registers=True)
    victim = Victim()
    spy = HonestSpy(victim)
    kernel.add(victim)
    kernel.add(spy)
    kernel.step(5)
    assert spy.seen is not None


def test_foreign_drive_raises():
    kernel = Kernel(strict_registers=True)
    owner = PassiveOwner()
    writer = ForeignWriter(owner)
    kernel.add(owner)
    kernel.add(writer)
    with pytest.raises(ContractViolationError) as excinfo:
        kernel.step(3)
    assert "writer" in str(excinfo.value)


def test_patch_unwinds_after_stepping():
    kernel = Kernel(strict_registers=True)
    victim = Victim()
    kernel.add(victim)
    kernel.step(2)
    # Outside stepping, Register.q must be the plain slot again: a
    # foreign read from test code is not a contract violation.
    assert isinstance(victim.reg.q, int)
    assert not isinstance(Register.q, property)


def test_door_writes_through_the_ownership_descriptor():
    """A ``Kernel.write_register`` made while a strict kernel steps —
    from a ``kernel.at`` callback, with ``Register.q`` swapped for the
    checking property — goes through that property, lands, and is
    noted for the compiled engine."""
    kernel = Kernel(strict_registers=True)
    victim = Victim()
    kernel.add(victim)
    seen = []

    def poke(cycle):
        seen.append(isinstance(Register.__dict__["q"], property))
        kernel.write_register(victim.reg, 41)
        seen.append(victim.reg.q)

    kernel.at(1, poke)
    kernel.step(1)
    kernel.step(1)
    assert seen == [True, 41]
    assert victim.reg in kernel.written


def test_non_strict_kernel_is_unaffected():
    kernel = Kernel(strict_registers=False)
    victim = Victim()
    spy = Spy(victim)
    kernel.add(victim)
    kernel.add(spy)
    kernel.step(3)
    assert spy.seen is not None


def test_full_daelite_configure_runs_clean_under_strict():
    topology = build_mesh(2, 2)
    nis = [element.name for element in topology.nis]
    network = DaeliteNetwork(topology)
    network.kernel.strict_registers = True
    allocator = SlotAllocator(topology, network.params)
    connection = allocator.allocate_connection(
        ConnectionRequest("c0", nis[0], nis[3], 1, 1)
    )
    handle = network.configure(connection)
    assert handle.done
    network.ni(nis[0]).submit_words(
        handle.forward.src_channel, [1, 2, 3]
    )
    network.drain()
    assert network.total_dropped_words == 0


# -- work queued for a peer needs no announcement -------------------------------


class Poster(Component):
    """Queues work into a peer at ``fire`` from its own evaluate; the
    peer's own registers never say so."""

    def __init__(self, mailbox, fire):
        super().__init__("poster")
        self.mailbox = mailbox
        self.fire = fire

    def evaluate(self, cycle):
        if cycle == self.fire:
            self.mailbox.inbox.append(cycle)


@pytest.mark.parametrize("poster_first", [True, False])
def test_touch_keeps_the_contract(poster_first):
    """Work a peer queues outside the registers keeps the contract: the
    mailbox opens it in the posting cycle when the poster runs first,
    one cycle later otherwise, under strict checking (``vector`` mode
    steps a strict kernel on its naive fallback)."""
    kernel = Kernel(mode="vector", strict_registers=True)
    mailbox = Mailbox()
    poster = Poster(mailbox, fire=20)
    kernel.add_all((poster, mailbox) if poster_first else (mailbox, poster))
    kernel.step(100)
    assert mailbox.opened == [(20 if poster_first else 21, 20)]


def test_env_default(monkeypatch):
    monkeypatch.delenv(STRICT_REGISTERS_ENV, raising=False)
    assert default_strict_registers() is False
    monkeypatch.setenv(STRICT_REGISTERS_ENV, "1")
    assert default_strict_registers() is True
    monkeypatch.setenv(STRICT_REGISTERS_ENV, "off")
    assert default_strict_registers() is False
    kernel = Kernel()
    assert kernel.strict_registers is False
    monkeypatch.setenv(STRICT_REGISTERS_ENV, "yes")
    assert Kernel().strict_registers is True
    monkeypatch.setenv(STRICT_REGISTERS_ENV, " No ")
    assert default_strict_registers() is False
    monkeypatch.setenv(STRICT_REGISTERS_ENV, "")
    assert default_strict_registers() is False
    # A typo must not silently run without the contract checks.
    monkeypatch.setenv(STRICT_REGISTERS_ENV, "ture")
    with pytest.raises(SimulationError, match="REPRO_STRICT_REGISTERS='ture'"):
        default_strict_registers()
    with pytest.raises(SimulationError, match="'1', 'true', 'yes', 'on'"):
        Kernel()
