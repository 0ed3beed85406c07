"""The package needs no graph library at run time.

networkx stays only as the reference the differential suites compare
against (``tests/topology/test_shortest_path.py``).  A fresh interpreter
with ``import networkx`` blocked builds and validates a mesh, allocates
a unicast, a multicast and a multipath connection, fails and restores a
link and simulates; the suite's own process may have imported networkx.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import sys
sys.modules["networkx"] = None  # any import of it raises ImportError
from repro.alloc import (
    ChannelRequest, ConnectionRequest, MulticastRequest, SlotAllocator,
    allocate_multipath,
)
from repro.core import DaeliteNetwork
from repro.params import daelite_parameters
from repro.topology import build_mesh
from repro.traffic import CbrGenerator, CheckingSink

mesh, params = build_mesh(3, 3), daelite_parameters()
mesh.validate()
allocator = SlotAllocator(topology=mesh, params=params)
unicast = allocator.allocate_connection(
    ConnectionRequest("cbr", "NI00", "NI22", forward_slots=2))
tree = allocator.allocate_multicast(
    MulticastRequest("mc", "NI10", ("NI02", "NI12", "NI21")))
multipath = allocate_multipath(
    allocator, ChannelRequest("fat", "NI01", "NI20", slots=3), max_paths=3)
mesh.fail_link("R11", "R12")
detour = allocator.allocate_connection(
    ConnectionRequest("detour", "NI11", "NI12", forward_slots=1))
mesh.restore_link("R11", "R12")
mesh.validate()
net = DaeliteNetwork(mesh, params)
handle = net.configure(unicast)
net.configure_multicast(tree)
net.kernel.add(CbrGenerator("gen", period=10, inject=net.ni("NI00")
    .injector(handle.forward.src_channel, "cbr")))
sink = CheckingSink("sink", receive=net.ni("NI22")
    .receiver(handle.forward.dst_channel))
net.kernel.add(sink)
net.run(1000)
print(len(tree.paths), len(multipath.parts), len(detour.forward.path),
      sink.words_received)
"""


def test_build_allocate_fail_restore_and_run_without_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    branches, parts, detour, received = result.stdout.split()
    assert int(branches) == 3
    assert int(parts) >= 1
    assert int(detour) > 0
    assert int(received) > 0
