"""Distributed cluster join protocol for same-level fog servers.

Each fog server keeps its own candidate parents; cluster membership lives on
the shared topology's cluster edges. Handlers are pure bookkeeping: they
mutate the owner's state (and the topology's structural links) and return the
messages to send next; delivery timing belongs to the simulation kernel.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from .topology import ServerId, Topology


class MessageKind(str, Enum):
    CANDID_PARENT = "CandidParent"
    FOG_JOINING = "FogJoining"
    REPLY_NEW_FOG = "ReplyNewFog"


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
    eligible = {sid: lat for sid, lat in candidates.items()
                if sid.level == owner.level + 1}
    if not eligible:
        return None
    choice = min(eligible, key=lambda sid: (eligible[sid], sid.index))
    if topology.nodes[owner].parent != choice:
        topology.set_parent(owner, choice)
    return choice


def broadcast_targets(topology: Topology, state: ClusterState) -> List[ServerId]:
    """In-range same-level peers, plus parent and children."""
    owner = topology.node(state.owner)
    targets = []
    for node in topology.nodes.values():
        if node.id == state.owner:
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
        if msg.source.level != owner.level or not topology.in_mutual_range(owner, msg.source):
            return out
        topology.link_cluster(owner, msg.source)
        out.append((msg.source, ControlMessage(MessageKind.REPLY_NEW_FOG, owner, {})))
        return out

    if msg.kind is MessageKind.REPLY_NEW_FOG:
        topology.link_cluster(owner, msg.source)
        return out

    raise ValueError(f"unhandled message kind {msg.kind}")


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
