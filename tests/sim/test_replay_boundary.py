"""Epoch replay across what a boundary's signature does not hold, the
``vector`` engine against ``naive``.

Every replayed epoch comes from the engine's own template store, keyed
by the boundary signature alone: an engine proves a template inside one
run and loads it at any later boundary with that signature.  So a count
written between two runs is never taken into a template, two schedules
whose boundaries look alike each store their own, and the channel list
the signature and the queue rewrite walk is kept current from the
network's change record: an endpoint made between two runs, or by a
generator's first firing inside one, still refuses the epoch.
"""

from __future__ import annotations

import pytest

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.params import daelite_parameters
from repro.sim.compiled import _Run
from repro.sim.kernel import VECTOR_MODE
from repro.topology import build_mesh
from repro.traffic import CbrGenerator, CheckingSink

from ..differential import lockstep, mutant_survives, plant

PARAMS = daelite_parameters(slot_table_size=8)
#: One slot wheel: the generators' period, and so the replay period.
WHEEL = PARAMS.slot_table_size * PARAMS.words_per_slot
#: Ten wheels and a few cycles: the template is stored and the run ends
#: mid-epoch.
WARM = 10 * WHEEL + 3


def flow_net(mode, late=None):
    """Connection "a" (NI00 to NI11, one slot each way) on a 2x2 mesh,
    fed one word per wheel and drained by a checking sink.  With
    ``late``, a second generator feeds channel 7 of NI10, which nothing
    configured, from ``late`` cycles after the set-up on: its first
    firing makes the channel's endpoint and sequence counter, and its
    words stay queued."""
    mesh = build_mesh(2, 2)
    allocator = SlotAllocator(topology=mesh, params=PARAMS)
    connection = allocator.allocate_connection(
        ConnectionRequest("a", "NI00", "NI11", forward_slots=1, reverse_slots=1)
    )
    net = DaeliteNetwork(mesh, PARAMS, kernel_mode=mode)
    handle = net.configure(connection)
    net.run_until_configured(handle)
    gens = [
        CbrGenerator(
            "gen_a",
            net.ni("NI00").injector(handle.forward.src_channel, "a"),
            period=WHEEL,
        )
    ]
    if late is not None:
        gens.append(
            CbrGenerator(
                "gen_x",
                net.ni("NI10").injector(7, "x"),
                period=WHEEL,
                start_cycle=net.kernel.cycle + late,
            )
        )
    sinks = [
        CheckingSink(
            "sink_a",
            net.ni("NI11").receiver(handle.forward.dst_channel),
            words_per_cycle=2,
            stats=net.stats,
        )
    ]
    for component in gens + sinks:
        net.kernel.add(component)
    return net, gens, sinks


def on_vector(act):
    """A lockstep drive applying ``act(net)`` to the vector build only."""

    def drive(built):
        if built[0].kernel.mode == VECTOR_MODE:
            act(built[0])

    return drive


def on_both(act):
    """A lockstep drive applying ``act(net)`` to each build."""
    return lambda built: act(built[0])


# -- counts written between two runs ---------------------------------------------


def carrying_link(net):
    """The busiest link: one the flow's words cross."""
    return max(net.links.values(), key=lambda link: link.words_carried)


def test_counts_written_between_two_runs_are_not_replayed():
    """A link's word count and the ledger's ejections, raised by one
    between two runs once the template is stored, stay raised by one:
    the template's deltas were proved inside one run, so the write is
    not taken into an epoch and multiplied by the replay."""

    def write(net):
        carrying_link(net).words_carried += 1
        net.stats.connections["a"].ejected += 1

    net = lockstep(flow_net, (WARM, on_both(write), 20 * WHEEL))
    assert net.kernel.kernel_stats()["replayed_epochs"] > 0


# -- templates are per engine --------------------------------------------------


def dead_entry(net):
    """A schedule write that routes nothing: an entry of R10, which no
    flow crosses.  It gives a new schedule image and a new engine, and
    leaves every boundary's signature as it was."""
    net.router("R10").slot_table.set_entry(output=0, slot=5, input_port=1)


def no_dead_entry(net):
    net.router("R10").slot_table.clear_entry(output=0, slot=5)


def run_schedule_switches():
    """Schedule A, then B (A plus the dead entry), then A again, each
    for ten wheels; returns the vector build's kernel statistics and
    boundary-phase signature after each, and its engines."""
    stats, signatures, engines = [], [], []

    def note(net):
        engine = net.kernel._engine
        stats.append(net.kernel.kernel_stats())
        signatures.append(engine._signature(net.kernel.cycle, engine._cur))
        engines.append(engine)

    lockstep(
        flow_net,
        (
            WARM,
            on_vector(note),
            on_both(dead_entry),
            10 * WHEEL,
            on_vector(note),
            on_both(no_dead_entry),
            10 * WHEEL,
            on_vector(note),
        ),
    )
    return stats, signatures, engines


def test_schedules_alike_at_their_boundaries_keep_their_templates_apart():
    """Each schedule's engine sees the very same signature, and each
    proves and stores its own template: none loads another's."""
    stats, signatures, engines = run_schedule_switches()
    a, b, a_again = stats
    assert signatures[0] == signatures[1] == signatures[2]
    assert len({id(engine) for engine in engines}) == 3
    assert (a["regime_cache_stores"], a["regime_cache_hits"]) == (1, 0)
    assert (b["regime_cache_stores"], b["regime_cache_hits"]) == (2, 0)
    assert (a_again["regime_cache_stores"], a_again["regime_cache_hits"]) == (
        3,
        0,
    )
    assert a["replayed_epochs"] < b["replayed_epochs"] < a_again["replayed_epochs"]


# -- the channel list ----------------------------------------------------------


def endpoint_without_generator(net):
    """A word submitted on channel 5 of NI10, which feeds no generator:
    a new source endpoint and a new sequence counter; the word stays
    queued (the channel owns no slot)."""
    net.ni("NI10").submit(5, 0xAB)


def endpoint_on_the_generator_ni(net):
    net.ni("NI00").submit(5, 0xAB)


def counter_alone(net):
    """A sequence counter on the generator's NI and no endpoint."""
    net.ni("NI00")._sequence_counters[5] = 0


def replayed_across_the_first_boundary(poke):
    """Epochs the vector build replays in the run after ``poke`` (applied
    to both builds between two runs, once the vector engine stored its
    template): that run crosses two boundaries and ends half a wheel
    past the second, so it replays one epoch only if the first boundary
    loads the template."""
    replayed = []

    def count(net):
        replayed.append(net.kernel.kernel_stats()["replayed_epochs"])

    lockstep(
        flow_net,
        (
            WARM,
            on_vector(count),
            on_both(poke),
            WHEEL - 3 + WHEEL + WHEEL // 2,
            on_vector(count),
            20 * WHEEL,
        ),
    )
    return replayed[1] - replayed[0]


def test_an_undisturbed_probe_replays_at_the_first_boundary():
    assert replayed_across_the_first_boundary(lambda net: None) == 1


@pytest.mark.parametrize(
    "poke, replayed",
    [
        pytest.param(
            endpoint_without_generator, 0, id="endpoint_without_generator"
        ),
        pytest.param(
            endpoint_on_the_generator_ni, 0, id="endpoint_on_the_generator_ni"
        ),
        pytest.param(counter_alone, 1, id="counter_alone"),
    ],
)
def test_what_appears_between_two_runs_refuses_the_epoch(poke, replayed):
    """An endpoint is in the signature: the first boundary finds no
    template.  A sequence counter alone is not, and the template's
    deltas do not move it, so the first boundary replays from the
    template (and matches ``naive``)."""
    assert replayed_across_the_first_boundary(poke) == replayed


def test_a_generator_first_firing_inside_a_probe_epoch():
    """The second generator's first firing, mid-epoch, makes an endpoint
    and a sequence counter inside the run; its queue then grows every
    epoch, so no epoch from the one holding that firing on replays.
    (Before it no epoch replays either: a generator yet to start is
    one more cycle nearer its start at each boundary.)"""
    late = 20 * WHEEL + 5
    replayed = []

    def count(net):
        replayed.append(net.kernel.kernel_stats()["replayed_epochs"])

    lockstep(
        lambda mode: flow_net(mode, late=late),
        (late - 2 * WHEEL, on_vector(count), 30 * WHEEL, on_vector(count)),
    )
    before, after = replayed
    assert after == before


def test_a_list_not_refreshed_at_entry_is_killed(monkeypatch):
    plant(
        monkeypatch, "self._stale_chans.update(noted)", "pass", method="_resolve"
    )
    assert not mutant_survives(
        lambda: test_what_appears_between_two_runs_refuses_the_epoch(
            endpoint_without_generator, 0
        )
    )


def test_a_list_not_refreshed_at_a_boundary_is_killed(monkeypatch):
    plant(
        monkeypatch,
        "stale.update(self.changes.endpoints)",
        "pass",
        owner=_Run,
        method="boundary",
    )
    assert not mutant_survives(test_a_generator_first_firing_inside_a_probe_epoch)


def an_epoch_opening_a_counter_is_no_template():
    """``_epoch_delta`` over an epoch in which a sequence counter opened
    on the generator's NI is ``None``.  No run reaches that epoch with
    equal signatures any more: a counter opens inside a run only at a
    generator's first firing, whose word the signature sees, and one
    written between two runs is never inside a proved epoch; so the
    boundary snapshots are taken from a run and the counter added to
    the later one."""
    net = lockstep(flow_net, (WARM,))
    engine = net.kernel._engine
    before = engine._snapshot(net.kernel.cycle)
    net.run(WHEEL)
    after = engine._snapshot(net.kernel.cycle)
    assert engine._epoch_delta(before, after) is not None
    after["counters"][("NI00", 5)] = 1
    assert engine._epoch_delta(before, after) is None


def test_a_delta_blind_to_new_counters_is_killed(monkeypatch):
    """A counter that opened in the epoch counts from zero."""
    plant(
        monkeypatch,
        'counter_deltas(before["counters"], after["counters"])',
        '{key: now - before["counters"].get(key, 0) for key, now in after["counters"].items()}',
        method="_epoch_delta",
    )
    assert not mutant_survives(an_epoch_opening_a_counter_is_no_template)
