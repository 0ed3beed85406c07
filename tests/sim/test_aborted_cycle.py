"""A cycle aborted by an error leaves the kernel steppable.

When a ``ReproError`` escapes a component's ``evaluate``, the registers
driven earlier in that cycle must not keep their drives: a caller that
handles the error and steps again (the broker's retry-with-backoff does)
would otherwise hit a spurious "driven twice in one cycle".  The aborted
cycle's drives are dropped, the clock stays at the aborted cycle, and
resuming re-runs it — so the register trace after resume equals a run
in which the error never happened.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import (
    NAIVE_MODE,
    VECTOR_MODE,
    Component,
    Kernel,
    Register,
)

ABORT_CYCLE = 3


class Driver(Component):
    """Drives its own register and a free-standing link every cycle."""

    def __init__(self, link: Register) -> None:
        super().__init__("driver")
        self.out = self.make_register("out", idle=0)
        self.link = link

    def evaluate(self, cycle: int) -> None:
        self.out.drive(cycle + 1)
        self.link.drive(10 * (cycle + 1))


class Boom(Component):
    """Raises once, at :data:`ABORT_CYCLE`, when armed."""

    def __init__(self, armed: bool) -> None:
        super().__init__("boom")
        self.armed = armed

    def evaluate(self, cycle: int) -> None:
        if self.armed and cycle == ABORT_CYCLE:
            self.armed = False
            raise SimulationError("boom")


class Recorder(Component):
    """Samples the driver's outputs, last in evaluation order."""

    def __init__(self, out: Register, link: Register) -> None:
        super().__init__("recorder")
        self.out = out
        self.link = link
        self.trace: List[Tuple[int, int, int]] = []

    def evaluate(self, cycle: int) -> None:
        self.trace.append((cycle, self.out.q, self.link.q))


def build(mode: str, armed: bool):
    kernel = Kernel(mode=mode)
    link = kernel.add_register(Register("link", idle=0))
    driver = Driver(link)
    recorder = Recorder(driver.out, link)
    kernel.add_all([driver, Boom(armed), recorder])
    return kernel, driver, recorder


@pytest.mark.parametrize("mode", [NAIVE_MODE, VECTOR_MODE])
def test_resume_after_an_aborted_cycle_matches_an_unaborted_run(mode):
    kernel, driver, recorder = build(mode, armed=True)
    with pytest.raises(SimulationError, match="boom"):
        kernel.step(ABORT_CYCLE + 2)
    assert kernel.cycle == ABORT_CYCLE
    assert not driver.out.driven
    assert not driver.link.driven
    assert kernel._dirty == []

    kernel.step(5)

    reference, _, expected = build(mode, armed=False)
    reference.step(ABORT_CYCLE)
    reference.step(5)
    assert kernel.cycle == reference.cycle == ABORT_CYCLE + 5
    assert recorder.trace == expected.trace
    assert (driver.out.q, driver.link.q) == (
        ABORT_CYCLE + 5,
        10 * (ABORT_CYCLE + 5),
    )
