"""Distributed generation runtime: communicators, partitioning, generators, cost model."""

from repro.distributed.comm import (
    AlltoallRequest,
    CompletedRequest,
    Communicator,
    InlineCommunicator,
    RecvRequest,
    Request,
    ThreadCommunicator,
    make_thread_world,
    poll_interval,
    recv_timeout,
)
from repro.distributed.checked import CheckedCommunicator, SentinelLedger
from repro.distributed.mpcomm import ProcessCommunicator, make_process_pipes
from repro.distributed.sockcomm import (
    RendezvousServer,
    SocketCommunicator,
    make_socket_world,
)
from repro.distributed.launcher import spmd_run
from repro.distributed.faults import (
    FaultPlan,
    FaultyCommunicator,
    default_fault_matrix,
    socket_fault_matrix,
)
from repro.distributed.checkpoint import (
    CheckpointStore,
    RunManifest,
    edges_digest,
    reshard_run,
)
from repro.distributed.supervisor import (
    ChaosReport,
    SupervisorReport,
    decorrelated_jitter,
    generate_distributed_supervised,
    run_chaos_matrix,
    spmd_run_supervised,
)
from repro.distributed.partition import (
    partition_edges_1d,
    partition_edges_2d,
    grid_shape_2d,
    owners_by_vertex_block,
    owners_by_edge_hash,
)
from repro.distributed.shuffle import (
    WIRE_FORMATS,
    bucket_edges,
    exchange_edges,
    exchange_edges_finish,
    exchange_edges_start,
    shuffle_to_owners,
)
from repro.distributed.wire import decode_edges, encode_edges, is_wire_block
from repro.distributed.netsim import NetworkModel, ThrottledCommunicator
from repro.distributed.generator import (
    RankOutput,
    generate_rank_cells,
    generate_rank_1d_pipelined,
    generate_distributed,
)
from repro.distributed.aggregate import (
    distributed_edge_count,
    distributed_degree_counts,
    distributed_degree_histogram,
    distributed_max_vertex,
)
from repro.distributed.outofcore import ShardManifest, generate_to_directory
from repro.distributed.triangles import (
    distributed_edge_triangles,
    distributed_global_triangles,
    fetch_remote_rows,
    local_rows_csr,
)
from repro.distributed.costmodel import (
    CostModel,
    ScalingPoint,
    strong_scaling_curve,
    weak_scaling_curve,
    sequoia_projection,
)

__all__ = [
    "Communicator",
    "Request",
    "CompletedRequest",
    "RecvRequest",
    "AlltoallRequest",
    "InlineCommunicator",
    "ThreadCommunicator",
    "make_thread_world",
    "poll_interval",
    "recv_timeout",
    "CheckedCommunicator",
    "SentinelLedger",
    "ProcessCommunicator",
    "make_process_pipes",
    "SocketCommunicator",
    "RendezvousServer",
    "make_socket_world",
    "spmd_run",
    "FaultPlan",
    "FaultyCommunicator",
    "default_fault_matrix",
    "socket_fault_matrix",
    "CheckpointStore",
    "RunManifest",
    "edges_digest",
    "reshard_run",
    "SupervisorReport",
    "ChaosReport",
    "decorrelated_jitter",
    "spmd_run_supervised",
    "generate_distributed_supervised",
    "run_chaos_matrix",
    "partition_edges_1d",
    "partition_edges_2d",
    "grid_shape_2d",
    "owners_by_vertex_block",
    "owners_by_edge_hash",
    "bucket_edges",
    "exchange_edges",
    "exchange_edges_start",
    "exchange_edges_finish",
    "shuffle_to_owners",
    "WIRE_FORMATS",
    "encode_edges",
    "decode_edges",
    "is_wire_block",
    "NetworkModel",
    "ThrottledCommunicator",
    "RankOutput",
    "generate_rank_cells",
    "generate_rank_1d_pipelined",
    "generate_distributed",
    "ShardManifest",
    "generate_to_directory",
    "distributed_edge_triangles",
    "distributed_global_triangles",
    "fetch_remote_rows",
    "local_rows_csr",
    "distributed_edge_count",
    "distributed_degree_counts",
    "distributed_degree_histogram",
    "distributed_max_vertex",
    "CostModel",
    "ScalingPoint",
    "strong_scaling_curve",
    "weak_scaling_curve",
    "sequoia_projection",
]
