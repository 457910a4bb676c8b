"""Seeded change streams for the workloads.

Each op class draws from a fixed population of scenario sites through
a :class:`~common.Cycle`, so every seed covers the same sites in a
different order.  Every op carries its exact inverse, which
``dc_commit`` commits right after it; ``wan_whatif`` previews only the
forward half.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterator

from common import Cycle, Op, deck_order
from repro.config.acl import AclAction, AclRule
from repro.config.routing import StaticRouteConfig
from repro.core.change import (
    AddAclRule,
    AddBgpNeighbor,
    AddStaticRoute,
    AnnouncePrefix,
    BindAcl,
    Change,
    EnableInterface,
    LinkDown,
    LinkUp,
    RemoveAclRule,
    RemoveBgpNeighbor,
    RemoveStaticRoute,
    SetLocalPref,
    SetOspfCost,
    ShutdownInterface,
    WithdrawPrefix,
)
from repro.net.addr import Prefix

# Fresh prefixes come from a block no scenario generator allocates.
FRESH_BASE = Prefix("10.254.0.0/16").first
FRESH_SLOTS = 256
# OSPF cost bump of the ``cost`` class and of the k=8 batch shape.
COST_STEP = 13


def core_links(scenario: Any) -> list[Any]:
    """Enabled router-to-router links, customer uplinks excluded."""
    roles = scenario.fabric.roles
    return [
        link
        for link in scenario.topology.links()
        if all(roles.get(router, "node") != "customer" for router in link.routers)
    ]


def ospf_sites(scenario: Any) -> list[tuple[str, str, int]]:
    """(router, interface, cost) of every active p2p OSPF interface."""
    sites = []
    for router in sorted(scenario.snapshot.configs):
        ospf = scenario.snapshot.configs[router].ospf
        if ospf is None:
            continue
        for name, settings in sorted(ospf.interfaces.items()):
            if settings.enabled and not settings.passive:
                sites.append((router, name, settings.cost))
    return sites


def neighbor_hops(scenario: Any) -> list[tuple[str, Any]]:
    """(router, next-hop address) toward every cabled neighbour."""
    hops = []
    topology = scenario.topology
    for router in topology.router_names():
        for _neighbor, link in topology.neighbors(router):
            peer = topology.interface_peer(router, link.endpoint_on(router)[1])
            if peer is not None and peer.address is not None:
                hops.append((router, peer.address))
    return hops


def cabled_interfaces(scenario: Any) -> list[tuple[str, str]]:
    topology = scenario.topology
    return [
        (router, name)
        for router in topology.router_names()
        for name in sorted(topology.router(router).interfaces)
        if topology.link_of_interface(router, name) is not None
    ]


def customer_sessions(scenario: Any) -> list[tuple[str, Any]]:
    """(customer, neighbor config) of every customer BGP session."""
    sessions = []
    for customer in sorted(scenario.customer_asns):
        bgp = scenario.snapshot.configs[customer].bgp
        for peer_ip in sorted(bgp.neighbors, key=lambda ip: ip.value):
            sessions.append((customer, bgp.neighbors[peer_ip].clone()))
    return sessions


class OpFactory:
    """Builds the op classes of one scenario from one seed."""

    def __init__(self, scenario: Any, seed: int, by_role: bool = False) -> None:
        """``by_role`` stratifies sites by the tiers they join, for
        fabrics whose same-tier sites are symmetric."""
        self.scenario = scenario
        self.rng = random.Random(seed)
        rng = self.rng
        roles = scenario.fabric.roles
        topology = scenario.topology

        def tiers(*routers: str) -> tuple[str, ...]:
            return tuple(roles.get(router, "node") for router in routers)

        def peer_tiers(site: tuple[str, Any]) -> tuple[str, ...]:
            router, name = site[0], site[1]
            link = topology.link_of_interface(router, name)
            peer = link.side_b[0] if link.side_a[0] == router else link.side_a[0]
            return tiers(router, peer)

        def hop_tiers(hop: tuple[str, Any]) -> tuple[str, ...]:
            router, address = hop
            for neighbor, link in topology.neighbors(router):
                peer = topology.interface_peer(router, link.endpoint_on(router)[1])
                if peer is not None and peer.address == address:
                    return tiers(router, neighbor)
            return tiers(router)

        def key(function: Callable[[Any], Any]) -> Callable[[Any], Any] | None:
            return function if by_role else None

        self.links = Cycle(
            core_links(scenario), rng, key(lambda link: tiers(*sorted(link.routers)))
        )
        self.interfaces = Cycle(cabled_interfaces(scenario), rng, key(peer_tiers))
        self.costs = Cycle(ospf_sites(scenario), rng, key(peer_tiers))
        self.hops = Cycle(neighbor_hops(scenario), rng, key(hop_tiers))
        self.acl_sites = Cycle(cabled_interfaces(scenario), rng, key(peer_tiers))
        self.victims = Cycle(scenario.fabric.all_host_subnets(), rng)
        if scenario.customer_asns:
            self.sessions = Cycle(customer_sessions(scenario), rng)
            self.k8_sessions = Cycle(customer_sessions(scenario), rng)
            self.k8_links = Cycle(core_links(scenario), rng)
            self.customers = Cycle(sorted(scenario.customer_asns), rng)
        self._fresh = 0
        # The batch shape's cost bumps: the first active OSPF interface
        # of the first two routers, in config order.
        firsts: dict[str, tuple[str, str, int]] = {}
        for site in ospf_sites(scenario):
            firsts.setdefault(site[0], site)
        self._k8_cost_sites = list(firsts.values())[:2]

    def _fresh_prefix(self) -> Prefix:
        slot = self._fresh % FRESH_SLOTS
        self._fresh += 1
        return Prefix(FRESH_BASE + 256 * slot, 24)

    # -- the op classes ------------------------------------------------------

    def link(self, link: Any = None) -> Op:
        link = link or self.links.next()
        (r1, i1), (r2, i2) = link.side_a, link.side_b
        return Op(
            "link",
            [Change.of(LinkDown(r1, r2, i1, i2), label=f"fail {r1}--{r2}")],
            [Change.of(LinkUp(r1, r2, i1, i2), label=f"recover {r1}--{r2}")],
        )

    def interface(self) -> Op:
        router, name = self.interfaces.next()
        return Op(
            "interface",
            [Change.of(ShutdownInterface(router, name), label=f"{router}[{name}] shutdown")],
            [Change.of(EnableInterface(router, name), label=f"{router}[{name}] no shutdown")],
        )

    def cost(self) -> Op:
        """An OSPF cost bump, by the same step at every site, so that a
        whole cycle of sites always costs the same to recompute."""
        return self._cost_bump(*self.costs.next())

    def _cost_bump(self, router: str, name: str, old: int) -> Op:
        new = old + COST_STEP
        return Op(
            "cost",
            [Change.of(SetOspfCost(router, name, new), label=f"{router}[{name}] cost {new}")],
            [Change.of(SetOspfCost(router, name, old), label=f"{router}[{name}] cost {old}")],
        )

    def static(self) -> Op:
        router, next_hop = self.hops.next()
        route = StaticRouteConfig(prefix=self._fresh_prefix(), next_hop=next_hop)
        return Op(
            "static",
            [Change.of(AddStaticRoute(router, route), label=f"{router} +static {route.prefix}")],
            [Change.of(RemoveStaticRoute(router, route), label=f"{router} -static {route.prefix}")],
        )

    def acl(self) -> Op:
        router, name = self.acl_sites.next()
        victim = self.victims.next()
        acl = f"BLK_{router}_{name}".upper()
        deny = AclRule(action=AclAction.DENY, dst=victim)
        allow = AclRule(action=AclAction.PERMIT, dst=Prefix("0.0.0.0/0"))
        block = Change.of(
            AddAclRule(router, acl, deny),
            AddAclRule(router, acl, allow),
            BindAcl(router, name, acl, "out"),
            label=f"{router}[{name}] block {victim}",
        )
        unblock = Change.of(
            BindAcl(router, name, None, "out"),
            RemoveAclRule(router, acl, deny),
            RemoveAclRule(router, acl, allow),
            label=f"{router}[{name}] unblock {victim}",
        )
        return Op("acl", [block], [unblock])

    def session(self, site: tuple[str, Any] | None = None) -> Op:
        customer, neighbor = site or self.sessions.next()
        return Op(
            "session",
            [Change.of(RemoveBgpNeighbor(customer, neighbor.peer_ip), label=f"{customer} drop {neighbor.peer_ip}")],
            [Change.of(AddBgpNeighbor(customer, neighbor.clone()), label=f"{customer} restore {neighbor.peer_ip}")],
        )

    def announce(self) -> Op:
        customer = self.customers.next()
        prefix = self._fresh_prefix()
        return Op(
            "announce",
            [Change.of(AnnouncePrefix(customer, prefix), label=f"{customer} +{prefix}")],
            [Change.of(WithdrawPrefix(customer, prefix), label=f"{customer} -{prefix}")],
        )

    def flip(self) -> Op:
        """The dual-homed customer's primary/backup local-pref swap."""
        customer = self.scenario.dual_homed[0]

        def prefs(seat: int, newy: int) -> Change:
            edits = []
            for pop, pref in (("SEAT", seat), ("NEWY", newy)):
                maps = self.scenario.snapshot.configs[pop].route_maps
                name = next(
                    f"IMP_{customer.upper()}_{slot}"
                    for slot in (0, 1)
                    if f"IMP_{customer.upper()}_{slot}" in maps
                )
                edits.append(SetLocalPref(pop, name, 10, pref))
            return Change(edits=edits, label=f"{customer} local-pref {seat}/{newy}")

        return Op("flip", [prefs(100, 200)], [prefs(200, 100)])

    def k8(self) -> Op:
        """A k=8 WAN batch in the shape of ``wan_k8_batch``: a session
        teardown, the local-pref flip (2 edits), two announces, a link
        failure and two OSPF cost bumps.  Its session and link come from
        cycles of their own, so the single-change classes still cover
        whole cycles of sites."""
        parts = [
            self.session(self.k8_sessions.next()),
            self.flip(),
            self.announce(),
            self.announce(),
            self.link(self.k8_links.next()),
        ]
        parts += [self._cost_bump(*site) for site in self._k8_cost_sites]
        return Op(
            "k8",
            [change for part in parts for change in part.changes],
            [change for part in reversed(parts) for change in part.inverse],
        )


def deck_stream(
    factory: OpFactory, shares: dict[str, int]
) -> Iterator[list[Op]]:
    """Endless decks; each holds every class at its exact share."""
    builders: dict[str, Callable[[], Op]] = {
        name: getattr(factory, name) for name in shares
    }
    while True:
        yield [builders[name]() for name in deck_order(shares, factory.rng)]


def merged(changes: list[Change]) -> Change:
    """One change holding a batch's edits in order (for SnapshotDiff)."""
    if len(changes) == 1:
        return changes[0]
    return Change(
        edits=[edit for change in changes for edit in change.edits],
        label=" + ".join(change.label for change in changes),
    )
