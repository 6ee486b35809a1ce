"""Cluster topology: the wiring between nodes and links.

Builds the full machine from a :class:`~repro.cluster.config.ClusterConfig`:
compute nodes, storage nodes, and one network link per storage node (the
paper's bottleneck is the storage node's NIC, shared by every compute
node it serves — Figure 1).  The node lists and the link table are the
whole topology: there is no graph mirror, since every path is one
compute node, the switch and one storage node's NIC.
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.engine import Environment
from repro.cluster.config import ClusterConfig
from repro.cluster.network import FairShareLink, Link, SerialLink
from repro.cluster.node import ComputeNode, StorageNode


class ClusterTopology:
    """All nodes and links of one simulated machine.

    Parameters
    ----------
    env:
        Simulation environment.
    config:
        Machine description.
    link_cls:
        Sharing discipline for storage-node NICs; the default
        ``SerialLink`` matches the paper's g(x) = x/bw serialisation.
        Pass :class:`FairShareLink` for the processor-sharing ablation.
    """

    def __init__(
        self,
        env: Environment,
        config: ClusterConfig,
        link_cls: type = SerialLink,
    ) -> None:
        self.env = env
        self.config = config

        self.compute_nodes: List[ComputeNode] = [
            ComputeNode(env, f"cn{i}", config.compute_spec)
            for i in range(config.n_compute)
        ]
        self.storage_nodes: List[StorageNode] = [
            StorageNode(env, f"sn{i}", config.storage_spec)
            for i in range(config.n_storage)
        ]
        #: One shared link per storage node (its NIC — the contended
        #: resource in Figure 1).  Jitter seeds differ per link so the
        #: variation is independent across servers.
        self.links: Dict[str, Link] = {
            sn.name: link_cls(
                env,
                bandwidth=config.network_bandwidth,
                jitter=config.bandwidth_jitter,
                latency=config.network_latency,
                seed=config.seed + i,
                name=f"{sn.name}.nic",
            )
            for i, sn in enumerate(self.storage_nodes)
        }

    # -- lookup ----------------------------------------------------------
    def storage_node(self, index: int) -> StorageNode:
        """Storage node by index."""
        return self.storage_nodes[index]

    def compute_node(self, index: int) -> ComputeNode:
        """Compute node by index."""
        return self.compute_nodes[index]

    def link_for(self, storage: StorageNode) -> Link:
        """The NIC link of ``storage``."""
        return self.links[storage.name]

    def assignment(self) -> Dict[str, str]:
        """Round-robin mapping of compute node → home storage node.

        Mirrors the Intrepid-style "64 compute nodes share one I/O
        node" fan-in the paper's introduction describes.
        """
        out: Dict[str, str] = {}
        ns = len(self.storage_nodes)
        for i, cn in enumerate(self.compute_nodes):
            out[cn.name] = self.storage_nodes[i % ns].name
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ClusterTopology compute={len(self.compute_nodes)} "
            f"storage={len(self.storage_nodes)}>"
        )
