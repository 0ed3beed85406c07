"""The one differential driver: the ``vector`` engine against ``naive``.

Every engine-vs-naive suite builds its scenario on both kernels and
compares them through :func:`lockstep`, or through :func:`network_image`
where it drives the two builds itself.  The image is everything a model
element, sink or generator keeps: register outputs, the statistics
ledger, sink and generator state, the channel endpoints, link word
counts, drops, and the slot and channel tables.  It leaves out one thing
— what DESIGN.md §14.2 says config-packet elision does not preserve: the
config tree's link registers and port buffers while a packet is in
flight (in ``vector`` mode the words never ride them), and the tree
links' word counts (which keep what rode them for good).

:func:`plant` and :func:`mutant_survives` are the mutant campaigns' way
in: a planted fragment of library code must make a differential run
fail.  The module is not collected (its name does not match
``test_*.py``).
"""

from __future__ import annotations

import inspect
import textwrap

import pytest

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.errors import ReproError
from repro.sim.compiled import CompiledEngine
from repro.sim.kernel import NAIVE_MODE, VECTOR_MODE
from repro.topology import build_mesh

#: The order both builds are made and stepped in.
MODES = (VECTOR_MODE, NAIVE_MODE)


# -- the image -------------------------------------------------------------------


def register_image(net) -> dict:
    """Every register output by name; the config tree's link registers
    and port buffers only while no packet is in flight, a span both
    kernels agree on."""
    module = getattr(net, "config_module", None)
    quiet = module is None or module._active is None
    return {
        register.name: register.q
        for register in net.kernel.all_registers()
        if quiet
        or not register.name.startswith("cfglink.")
        and not register.name.endswith((".cfg_fwd", ".cfg_resp"))
    }


def element_state(net) -> tuple:
    """Everything a configuration packet can change, per element."""
    table = net.params.slot_table_size
    routers = {
        name: tuple(
            tuple(
                router.slot_table.entry(output, slot)
                for slot in range(table)
            )
            for output in range(router.ports)
        )
        for name, router in net.routers.items()
    }
    nis = {
        name: (
            tuple(ni.injection_table.channel(s) for s in range(table)),
            tuple(ni.arrival_table.channel(s) for s in range(table)),
            {
                index: (
                    source.credit_counter,
                    source.flags,
                    source.paired_arrival,
                )
                for index, source in ni.source_channels.items()
            },
            {
                index: (dest.pending_credits, dest.flags, dest.paired_source)
                for index, dest in ni.dest_channels.items()
            },
            tuple(ni.bus_config_words),
            ni.config_applied,
        )
        for name, ni in net.nis.items()
    }
    return routers, nis


def endpoint_image(net) -> dict:
    """The channel-endpoint state the engine's fast paths mutate in
    place of ``take_word`` / ``deliver`` / ``drain`` / ``add_credits`` /
    ``submit``: per NI its sources, its destinations and its sequence
    counters."""
    return {
        ni.name: (
            {
                channel: (source.credit_counter, tuple(source.queue))
                for channel, source in sorted(ni.source_channels.items())
            },
            {
                channel: (dest.pending_credits, tuple(dest.queue))
                for channel, dest in sorted(ni.dest_channels.items())
            },
            dict(ni._sequence_counters),
        )
        for ni in net.nis.values()
    }


def fault_log(net) -> list:
    return [event.format() for event in net.stats.faults]


def network_image(net, gens=(), sinks=()) -> dict:
    """Everything the engine is obligated to reproduce, as of the end of
    the last cycle run.  daelite only: endpoints, element tables and the
    config module's timeline (aelite has no compiled model and steps
    naively in either mode)."""
    stats = net.stats
    image = {
        "cycle": net.kernel.cycle,
        "registers": register_image(net),
        "ledger": (stats.counters(), stats.undelivered(), fault_log(net)),
        "sinks": [
            (sink.words_received, list(sink.findings), dict(sink._last_seq))
            for sink in sinks
        ],
        "gens": [(gen.words_generated, gen.done) for gen in gens],
        "links": {key: link.words_carried for key, link in net.links.items()},
        "drops": (
            {name: router.dropped_words for name, router in net.routers.items()},
            {name: ni.dropped_words for name, ni in net.nis.items()},
        ),
    }
    module = getattr(net, "config_module", None)
    if module is not None:
        image["endpoints"] = endpoint_image(net)
        image["elements"] = element_state(net)
        image["config"] = [
            (r.submitted_at, r.started_at, r.finished_at)
            for r in module.completed
        ]
    return image


def difference(vector, naive, path="image"):
    """Where two images first differ, with both values; ``None`` if they
    are equal."""
    if vector == naive:
        return None
    if isinstance(naive, dict) and isinstance(vector, dict):
        if vector.keys() == naive.keys():
            for key in naive:
                found = difference(vector[key], naive[key], f"{path}[{key!r}]")
                if found is not None:
                    return found
    elif isinstance(naive, (list, tuple)) and type(vector) is type(naive):
        if len(vector) == len(naive):
            for index, (got, want) in enumerate(zip(vector, naive)):
                found = difference(got, want, f"{path}[{index}]")
                if found is not None:
                    return found
    return f"{path} diverged — naive={naive!r}, vector={vector!r}"


def assert_same(vector, naive, where: str) -> None:
    found = difference(vector, naive)
    assert found is None, f"{where}: {found}"


# -- the driver ------------------------------------------------------------------


def lockstep(build, chunks, tamper=None, per_cycle=False):
    """``build(mode)`` on the vector and on the naive kernel, run through
    ``chunks`` and compared in full after each; returns the vector
    build's network.

    A build unpacks to ``(net, gens, sinks, *more)``; ``more`` is
    compared alongside the image.  A chunk is a number of cycles to run
    (one at a time under ``per_cycle``, every register compared after
    each), or a drive: a callable given each build in turn, vector
    first.
    ``tamper(index, net)`` is applied to each build before chunk
    ``index`` (the mutant campaigns' way in)."""
    builds = [build(mode) for mode in MODES]
    nets = [net for net, *_ in builds]
    assert nets[0].kernel.cycle == nets[1].kernel.cycle
    for index, chunk in enumerate(chunks):
        if tamper is not None:
            for net in nets:
                tamper(index, net)
        if callable(chunk):
            for built in builds:
                chunk(built)
        elif per_cycle:
            for _ in range(chunk):
                for net in nets:
                    net.run(1)
                assert_same(
                    register_image(nets[0]),
                    register_image(nets[1]),
                    f"cycle {nets[1].kernel.cycle}",
                )
        else:
            for net in nets:
                net.run(chunk)
        vector, naive = (
            (network_image(net, gens, sinks), more)
            for net, gens, sinks, *more in builds
        )
        assert_same(vector, naive, f"chunk {index}, cycle {nets[1].kernel.cycle}")
    return nets[0]


# -- planted mutants -----------------------------------------------------------


def plant(
    monkeypatch,
    original: str,
    mutant: str,
    *,
    method: str,
    owner=CompiledEngine,
) -> None:
    """Run every call of ``owner.method`` with the one source fragment
    ``original`` of it rewritten to ``mutant`` (a fast path is inline
    code: there is no method to patch).  Every call names the method it
    mutates: the engine's ``run_to`` holds the loop and its arrivals,
    ``owner=_Run`` the handlers of the other event kinds (``boundary``,
    ``visit``, ``configure``, ``fire``, ``drain``, ``exit``) and the
    scheduling they share (``arm``, ``fold_credits``, ``wake``,
    ``arm_all``).  ``owner`` is a class or a module; the mutant is
    compiled against the module's own globals, so what it returns is of
    the real classes."""
    lines, first_line = inspect.getsourcelines(getattr(owner, method))
    source = "".join(lines)
    assert source.count(original) == 1, original
    module = owner if inspect.ismodule(owner) else inspect.getmodule(owner)
    namespace = dict(vars(module))
    # Padded to its own first line, so a traceback names the real line.
    padded = "\n" * (first_line - 1) + textwrap.dedent(
        source.replace(original, mutant)
    )
    exec(compile(padded, module.__file__, "exec"), namespace)
    monkeypatch.setattr(owner, method, namespace[method])


def mutant_survives(run) -> bool:
    """Whether a differential run still passes.  A kill is one of its
    assertions failing (or an exception it expects not coming), or the
    statistics collector's integrity checks refusing the words a mutant
    fabricated."""
    try:
        run()
    except (AssertionError, ReproError, pytest.fail.Exception):
        return False
    return True


# -- the shared scenario ---------------------------------------------------------


def allocate(scenario, params):
    """``scenario.connections`` — ``(src NI, dst NI, forward slots)`` —
    allocated in order on a ``scenario.width`` x ``scenario.height``
    mesh, identically for both builds; returns ``(mesh, allocations)``."""
    mesh = build_mesh(scenario.width, scenario.height)
    allocator = SlotAllocator(topology=mesh, params=params)
    allocated = [
        allocator.allocate_connection(
            ConnectionRequest(
                f"c{index}", src, dst, forward_slots=forward_slots, reverse_slots=1
            )
        )
        for index, (src, dst, forward_slots) in enumerate(scenario.connections)
    ]
    return mesh, allocated
