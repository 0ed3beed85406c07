"""Multi-use-case allocation and use-case switching.

SoCs "typically execute various ... applications which may have diverse
requirements ... These applications run concurrently in different
combinations denoted as use-cases."  A :class:`UseCase` is a named set of
connection requests; the :class:`UseCaseManager` computes, per use case,
a contention-free allocation, and — for run-time switching — the *diff*
between two use cases: which connections survive, which must be torn
down, and which must be set up, "without affecting the normal operation
of the system".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import AllocationError
from ..params import NetworkParameters
from ..topology import Topology
from .slot_alloc import SlotAllocator
from .spec import AllocatedConnection, ConnectionRequest


@dataclass(frozen=True)
class UseCase:
    """A named set of connection requests active at the same time."""

    name: str
    connections: Tuple[ConnectionRequest, ...]

    def __post_init__(self) -> None:
        labels = [request.label for request in self.connections]
        if len(set(labels)) != len(labels):
            raise AllocationError(
                f"use case {self.name!r} repeats a connection label"
            )

    def request(self, label: str) -> ConnectionRequest:
        for request in self.connections:
            if request.label == label:
                return request
        raise AllocationError(
            f"use case {self.name!r} has no connection {label!r}"
        )


@dataclass(frozen=True)
class UseCaseSwitch:
    """The reconfiguration work for one use-case transition.

    Connections whose request is *identical* in both use cases are kept
    alive through the switch; everything else is torn down / set up.
    """

    from_usecase: str
    to_usecase: str
    kept: Tuple[str, ...]
    torn_down: Tuple[str, ...]
    set_up: Tuple[str, ...]


class UseCaseManager:
    """Computes per-use-case allocations and switching plans."""

    def __init__(
        self,
        topology: Topology,
        params: NetworkParameters,
        routing: str = "shortest",
        policy: str = "spread",
    ) -> None:
        self.topology = topology
        self.params = params
        self.routing = routing
        self.policy = policy
        self.usecases: Dict[str, UseCase] = {}
        self.allocations: Dict[str, Dict[str, AllocatedConnection]] = {}

    def add_usecase(self, usecase: UseCase) -> None:
        """Register and allocate a use case.

        Each use case gets its own fresh ledger: use cases are mutually
        exclusive in time, so their schedules are independent.

        Raises:
            AllocationError: if the use case does not fit the network.
        """
        if usecase.name in self.usecases:
            raise AllocationError(
                f"use case {usecase.name!r} already registered"
            )
        allocator = SlotAllocator(
            topology=self.topology,
            params=self.params,
            routing=self.routing,
            policy=self.policy,
        )
        allocated: Dict[str, AllocatedConnection] = {}
        for request in usecase.connections:
            allocated[request.label] = allocator.allocate_connection(
                request
            )
        self.usecases[usecase.name] = usecase
        self.allocations[usecase.name] = allocated

    def allocation(
        self, usecase: str, label: str
    ) -> AllocatedConnection:
        """The allocated connection ``label`` within ``usecase``."""
        try:
            return self.allocations[usecase][label]
        except KeyError:
            raise AllocationError(
                f"no allocation for {label!r} in use case {usecase!r}"
            ) from None

    def plan_switch(
        self, from_usecase: str, to_usecase: str
    ) -> UseCaseSwitch:
        """Compute which connections to keep, tear down, and set up.

        A connection is kept only if its request *and* its allocation
        (path and slots) coincide in both use cases; otherwise keeping
        it could conflict with the incoming schedule.
        """
        for name in (from_usecase, to_usecase):
            if name not in self.usecases:
                raise AllocationError(f"unknown use case {name!r}")
        old = self.allocations[from_usecase]
        new = self.allocations[to_usecase]
        kept: List[str] = []
        torn_down: List[str] = []
        set_up: List[str] = []
        for label, connection in old.items():
            if label in new and new[label] == connection:
                kept.append(label)
            else:
                torn_down.append(label)
        for label in new:
            if label not in kept:
                set_up.append(label)
        return UseCaseSwitch(
            from_usecase=from_usecase,
            to_usecase=to_usecase,
            kept=tuple(sorted(kept)),
            torn_down=tuple(sorted(torn_down)),
            set_up=tuple(sorted(set_up)),
        )
