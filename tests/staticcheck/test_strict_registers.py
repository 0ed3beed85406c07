"""Work a component queues into a peer outside the registers keeps the
write and two-phase rules on the event-driven (``vector``) kernel."""

import pytest

from repro.sim.kernel import Component, Kernel

from ..sim.test_kernel import Mailbox


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
    """The mailbox opens the work in the posting cycle when the poster
    runs first, one cycle later otherwise, as the naive order would."""
    kernel = Kernel(mode="vector")
    mailbox = Mailbox()
    poster = Poster(mailbox, fire=20)
    kernel.add_all((poster, mailbox) if poster_first else (mailbox, poster))
    kernel.step(100)
    assert mailbox.opened == [(20 if poster_first else 21, 20)]
