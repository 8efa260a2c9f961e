// Package engine runs the paper's Algorithm 1 as an always-on,
// event-driven load balancing runtime instead of a batch simulation.
//
// The batch executions (core.FlowImitation, dist.Cluster, sim.Run) fix a
// workload and a topology and run to quiescence. Two properties of the
// paper make the algorithm viable as a long-running service, and this
// package exploits both:
//
//   - Additivity (Definition 3): the continuous processes being imitated
//     are additive, so new load injected mid-run simply starts balancing
//     on top of the load already in motion — online task arrivals need no
//     restart of any kind.
//   - Locality (footnote 1): every quantity Algorithm 1 needs (the
//     continuous flows, the per-edge cumulative flows f^A and f^D, the
//     diffusion parameter α) depends only on an edge's endpoints, so a
//     topology change — a node joining or leaving, an edge appearing or
//     disappearing — only requires rebuilding the affected neighbourhood.
//
// An Engine therefore consumes a priority event stream (TaskArrival,
// TaskCompletion, NodeJoin, NodeLeave, EdgeChange) interleaved with
// balancing rounds over a mutable topology (graph.Dynamic). Load from
// departing nodes is redistributed to their neighbours, and conservation
// of non-dummy weight is enforced by an incremental ledger: every event
// folds the pool-counter deltas of the pools it touched into O(1) running
// totals, every round folds its dummy draws, and the event loop validates
// the totals once per event batch in O(1) — a burst of k arrivals costs
// O(k), not k stop-the-world recounts. The full recount survives as
// Engine.AuditFull: the opt-in deep-audit mode (Config.DeepAudit,
// WithDeepAudit, lbserve -audit) runs it after every applied event, tests
// invoke it at quiescence, and a ledger mismatch falls back to it for a
// precise per-node diagnostic. The per-node hot path (send decisions via
// core.Forward over dist.SendState pools) is
// sharded across a bounded worker pool, so large graphs step in parallel;
// results are bit-for-bit independent of the worker count, and on a static
// topology with no events identical to core.FlowImitation over FOS.
//
// A streaming metrics ring records discrepancy, potential Φ, dummy-token
// counts and per-round latency; cmd/lbserve exposes the ring, snapshots
// and event injection over HTTP. The discrepancy quantities come from an
// exact incremental tracker that re-reads only the pools a round or event
// touched, so a sample costs O(changed), not O(n).
package engine
