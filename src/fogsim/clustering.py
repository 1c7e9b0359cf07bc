"""Distributed cluster membership protocol for same-level fog servers.

Each fog server keeps its own candidate parents; cluster membership lives on
the shared topology's cluster edges. Handlers are pure bookkeeping: they
mutate the owner's state (and the topology's structural links) and return the
messages to send next; delivery timing belongs to the simulation kernel.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from .topology import ServerId, Topology

log = logging.getLogger(__name__)


class MessageKind(str, Enum):
    CANDID_PARENT = "CandidParent"
    FOG_JOINING = "FogJoining"
    REPLY_NEW_FOG = "ReplyNewFog"
    START_FOG_LEAVING = "StartFogLeaving"
    FOG_LEAVING = "FogLeaving"
    START_FOG_FAILURE_RECOVERY = "StartFogFailureRecovery"
    FOG_FAILURE_RECOVERY = "FogFailureRecovery"


@dataclass(frozen=True)
class ControlMessage:
    kind: MessageKind
    source: ServerId
    payload: dict


@dataclass
class ClusterState:
    """Per-node protocol state."""
    owner: ServerId
    candidate_parents: Dict[ServerId, float] = field(default_factory=dict)


def select_parent(topology: Topology, owner: ServerId,
                  candidates: Dict[ServerId, float]) -> Optional[ServerId]:
    """Pick the candidate with minimum estimated latency, ties by smaller index.

    Reparents the owner in the shared topology when the choice changes.
    """
    alive = {sid: lat for sid, lat in candidates.items()
             if sid in topology.nodes and topology.nodes[sid].alive
             and sid.level == owner.level + 1}
    if not alive:
        return None
    choice = min(alive, key=lambda sid: (alive[sid], sid.index))
    if topology.nodes[owner].parent != choice:
        topology.set_parent(owner, choice)
    return choice


def broadcast_targets(topology: Topology, state: ClusterState) -> List[ServerId]:
    """In-range same-level peers, plus parent and children."""
    owner = topology.node(state.owner)
    targets = []
    for node in topology.nodes.values():
        if node.id == state.owner or not node.alive:
            continue
        if node.id.level == state.owner.level and topology.in_mutual_range(state.owner, node.id):
            targets.append(node.id)
    if owner.parent is not None:
        targets.append(owner.parent)
    targets.extend(owner.children)
    return sorted(set(targets))


def handle_cluster_message(topology: Topology, state: ClusterState,
                           msg: ControlMessage) -> List[Tuple[ServerId, ControlMessage]]:
    """Apply one protocol message at `state.owner`; returns (dest, message) pairs to send."""
    owner = state.owner
    out: List[Tuple[ServerId, ControlMessage]] = []

    if msg.kind is MessageKind.CANDID_PARENT:
        state.candidate_parents[msg.source] = msg.payload["latency_s"]
        select_parent(topology, owner, state.candidate_parents)
        joining = ControlMessage(MessageKind.FOG_JOINING, owner, {})
        for dest in broadcast_targets(topology, state):
            out.append((dest, joining))
        return out

    if msg.kind is MessageKind.FOG_JOINING:
        if msg.source not in topology.nodes or not topology.nodes[msg.source].alive:
            log.warning("%s dropped FogJoining from unknown/dead %s", owner, msg.source)
            return out
        if msg.source.level != owner.level or not topology.in_mutual_range(owner, msg.source):
            return out
        topology.link_cluster(owner, msg.source)
        out.append((msg.source, ControlMessage(MessageKind.REPLY_NEW_FOG, owner, {})))
        return out

    if msg.kind is MessageKind.REPLY_NEW_FOG:
        if msg.source not in topology.nodes or not topology.nodes[msg.source].alive:
            log.warning("%s dropped ReplyNewFog from unknown/dead %s", owner, msg.source)
            return out
        topology.link_cluster(owner, msg.source)
        return out

    if msg.kind is MessageKind.START_FOG_LEAVING:
        # Addressed to the node that is about to leave; it says goodbye to
        # everyone still in range.
        leaving = ControlMessage(MessageKind.FOG_LEAVING, owner, {})
        for dest in broadcast_targets(topology, state):
            out.append((dest, leaving))
        return out

    if msg.kind is MessageKind.FOG_LEAVING:
        _purge(topology, state, msg.source)
        return out

    if msg.kind is MessageKind.START_FOG_FAILURE_RECOVERY:
        # Runs at the parent of a failed node: drop it and fan the news out
        # to the remaining children so their cluster views heal.
        failed = ServerId(*msg.payload["failed"])
        _purge(topology, state, failed)
        note = ControlMessage(MessageKind.FOG_FAILURE_RECOVERY, owner, {"failed": failed})
        for child in sorted(topology.node(owner).children):
            out.append((child, note))
        return out

    if msg.kind is MessageKind.FOG_FAILURE_RECOVERY:
        failed = msg.payload["failed"]
        if not isinstance(failed, ServerId):
            failed = ServerId(*failed)
        _purge(topology, state, failed)
        return out

    raise ValueError(f"unhandled message kind {msg.kind}")


def _purge(topology: Topology, state: ClusterState, gone: ServerId):
    state.candidate_parents.pop(gone, None)
    owner_node = topology.node(state.owner)
    if gone in owner_node.cluster_members:
        owner_node.cluster_members.discard(gone)
        if gone in topology.nodes:
            topology.nodes[gone].cluster_members.discard(state.owner)
        topology.bump()
    if owner_node.parent == gone:
        topology.set_parent(state.owner, None)
        select_parent(topology, state.owner, state.candidate_parents)


def bootstrap_clusters(topology: Topology, levels=(1, 2)) -> Dict[ServerId, ClusterState]:
    """Form clusters by replaying the join protocol for every fog server.

    Runs synchronously before simulated time starts: each server at the given
    levels receives a CandidParent from its configured parent and the
    resulting join/reply exchange is delivered in order.
    """
    states = {sid: ClusterState(owner=sid) for sid in topology.fog_servers()}
    pending: List[Tuple[ServerId, ControlMessage]] = []
    for level in levels:
        for sid in topology.fog_servers(level):
            parent = topology.node(sid).parent
            if parent is None:
                continue
            lat = topology.links.lat_up.get(level, 0.0)
            pending.append((sid, ControlMessage(MessageKind.CANDID_PARENT, parent,
                                                {"latency_s": lat})))
    while pending:
        dest, msg = pending.pop(0)
        if dest not in states:
            continue
        pending.extend(handle_cluster_message(topology, states[dest], msg))
    return states
