"""Epoch replay across what a boundary's signature does not hold, the
``vector`` engine against ``naive``.

A regime template is keyed ``(prefix, signature)``: the prefix stands
for the engine's ``(schedule image, traffic roster)`` and is shared
through the network, so two schedules whose boundaries look alike keep
their templates apart, and a switch back to a schedule seen before
loads the template stored under it.  The channel list the signature
and the queue rewrite walk is kept current from the network's change
record: an endpoint made between two runs, or by a generator's first
firing inside one, still refuses the epoch, and so does a sequence
counter that appears.
"""

from __future__ import annotations

import pytest

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.params import daelite_parameters
from repro.sim.kernel import VECTOR_MODE
from repro.sim.replay import EpochReplay
from repro.topology import build_mesh
from repro.traffic import CbrGenerator, CheckingSink

from ..differential import lockstep, mutant_survives, plant

PARAMS = daelite_parameters(slot_table_size=8)
#: One slot wheel: the generators' period, and so the replay period.
WHEEL = PARAMS.slot_table_size * PARAMS.words_per_slot
#: Ten wheels and a few cycles: the template is stored and the run ends
#: mid-epoch, its probe carried over to the next run.
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


# -- the regime-cache key ------------------------------------------------------


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
    """B's engine sees A's very signature, but stores its own template
    instead of loading A's; the switch back to A loads A's."""
    stats, signatures, engines = run_schedule_switches()
    a, b, a_again = stats
    assert signatures[0] == signatures[1] == signatures[2]
    assert engines[0] is not engines[1] and engines[1] is not engines[2]
    assert engines[0].schedule_image != engines[1].schedule_image
    assert (a["regime_cache_stores"], a["regime_cache_hits"]) == (1, 0)
    assert (b["regime_cache_stores"], b["regime_cache_hits"]) == (2, 0)
    assert (a_again["regime_cache_stores"], a_again["regime_cache_hits"]) == (
        2,
        1,
    )
    assert a["replayed_epochs"] < b["replayed_epochs"] < a_again["replayed_epochs"]


def test_a_key_on_the_signature_alone_is_killed(monkeypatch):
    """B loads the template A stored under the same signature."""
    for method in ("store", "load"):
        plant(
            monkeypatch,
            "key = (self.prefix, sig)",
            "key = sig",
            owner=EpochReplay,
            method=method,
        )
    assert not mutant_survives(
        test_schedules_alike_at_their_boundaries_keep_their_templates_apart
    )


def test_a_prefix_kept_per_engine_is_killed(monkeypatch):
    """The engine back on schedule A cannot find A's template."""
    plant(
        monkeypatch,
        "self.prefix = self.prefixes.setdefault(key, object())",
        "self.prefix = object()",
        owner=EpochReplay,
        method="__init__",
    )
    assert not mutant_survives(
        test_schedules_alike_at_their_boundaries_keep_their_templates_apart
    )


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
    to both builds between two runs, while the vector engine carries
    its probe): that run crosses two boundaries and ends half a wheel
    past the second, so it replays one epoch only if the first boundary
    matches the carried probe."""
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
    "poke",
    [endpoint_without_generator, endpoint_on_the_generator_ni, counter_alone],
)
def test_what_appears_between_two_runs_refuses_the_epoch(poke):
    assert replayed_across_the_first_boundary(poke) == 0


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
            endpoint_without_generator
        )
    )


def test_a_list_not_refreshed_at_a_boundary_is_killed(monkeypatch):
    plant(monkeypatch, "stale.update(changes.endpoints)", "pass")
    assert not mutant_survives(test_a_generator_first_firing_inside_a_probe_epoch)


def test_a_delta_blind_to_new_counters_is_killed(monkeypatch):
    """A counter that opened in the epoch counts from zero."""
    plant(
        monkeypatch,
        'counter_deltas(before["counters"], after["counters"])',
        '{key: now - before["counters"].get(key, 0) for key, now in after["counters"].items()}',
        method="_epoch_delta",
    )
    assert not mutant_survives(
        lambda: test_what_appears_between_two_runs_refuses_the_epoch(counter_alone)
    )
