"""Known-bad fixture corpus for the staticcheck analyzers.

This file is *parsed*, never imported: every class below plants exactly
one contract violation (marked with a ``PLANT:<id>`` comment) that the
kernel-contract auditor and the determinism/error-hygiene rules must
catch, plus clean classes that must stay finding-free (alias tracking,
helper inlining, inheritance through ``super()``).
"""

import random
import time

from repro.sim.kernel import Component


class ForeignDriver(Component):
    """Drives a register it does not own."""

    def __init__(self, name, victim):
        super().__init__(name)
        self.victim = victim

    def evaluate(self, cycle):
        self.victim.drive(cycle)  # PLANT:KC002


class HelperForeignDriver(Component):
    """Hides the foreign drive one helper level below evaluate()."""

    def __init__(self, name, link):
        super().__init__(name)
        self.peer_link = link

    def evaluate(self, cycle):
        self._pump(cycle)

    def _pump(self, cycle):
        self.peer_link.register.drive(cycle)  # PLANT:KC002-helper


class DriveThenRead(Component):
    """Reads back a register it drove earlier in the same evaluate()."""

    def __init__(self, name):
        super().__init__(name)
        self._stage = self.make_register("stage")

    def evaluate(self, cycle):
        self._stage.drive(cycle)
        latest = self._stage.q  # PLANT:KC003
        return latest


def jitter():
    return random.randint(0, 7)  # PLANT:DT001


def stamp():
    return time.time()  # PLANT:DT002


def check_positive(value):
    if value < 0:
        raise ValueError(f"negative: {value}")  # PLANT:ER001
    return value


class SuppressedDriver(Component):
    """Same hazard as ForeignDriver, but with an inline justification."""

    def __init__(self, name, other):
        super().__init__(name)
        self.debug_probe = other

    def evaluate(self, cycle):
        # The marker below must hide the KC002 unless suppressions are
        # disabled.  PLANT:SUPPRESSED-KC002
        self.debug_probe.drive(cycle)  # staticcheck: ignore[KC002] -- debug probe, absent from shipped builds


class CleanRelay(Component):
    """Finding-free: aliases, subscripts and read-before-drive order."""

    def __init__(self, name, upstream):
        super().__init__(name)
        self.upstream = upstream
        self._regs = [self.make_register(f"r{i}") for i in range(2)]

    def evaluate(self, cycle):
        head = self._regs[0].q
        tail_reg = self._regs[1]
        if head is not None:
            tail_reg.drive(head)
        word = self.upstream.incoming
        if word is not None:
            self._regs[0].drive(word)


class CleanChild(CleanRelay):
    """Finding-free: inherits its registers and chains to super()."""

    def evaluate(self, cycle):
        super().evaluate(cycle)
