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
// lbserve -audit) runs it after every applied event, tests
// invoke it at quiescence, and a ledger mismatch falls back to it for a
// precise per-node diagnostic. The per-node hot path (send decisions via
// core.Forward over dist.Pool pools) is sharded across a bounded worker
// pool, so large graphs step in parallel; results are bit-for-bit
// independent of the worker count, and on a static topology with no
// events identical to core.FlowImitation over FOS.
//
// The pools are run-length: the engine holds one dist.Pool per node slot
// by value, a LIFO stack of (weight, dummy, count) runs whose first run
// lives inline, and each outbox slot holds its batch's first run inline
// too. Equal tasks cannot be told apart, so a run stands for exactly the
// task sequence it replaces: LIFO order is kept up to the order among
// equal tasks, which is no order at all, and every send decision, pool
// and snapshot byte is that of a per-task pool (EncodeState writes runs
// expanded). With unit tokens a node's pool is one run, a round allocates
// nothing, and a delivery is an O(1) merge into the receiver's top run.
//
// Events are small and travel without copies. An Event is 48 bytes: the
// round, kind, node, a count and a weight, and one pointer to the rare
// payloads (a task list of unequal weights, a join's speed and peers, an
// edge change's lists). An arrival of k equal tasks is one run, by
// Definition 3's additivity and because equal tasks cannot be told apart:
// ParseEventLine decodes it without allocating, the queue holds it in one
// slot, it lands in the pool with one dist.Pool.Add and the WAL logs it as
// Tokens+Weight, whatever k is. Step applies each due event in place in
// its calendar-queue slot, records and logs it there, and only then pops
// it; nothing is pushed while an event is applied. The HTTP stream
// handler reuses its line buffer and event batch across POSTs, so a
// steady stream of arrivals and completions allocates almost nothing per
// line.
//
// Each round sample (discrepancy, potential Φ, dummy-token counts and
// per-round latency) is stored once, in a window that also holds the
// flight recorder: 48-byte event headers and round entries that name
// their sample, rendered as TraceRecords only when read. Samples and
// Trace read that window; PublishMetrics copies the current values into
// the registry gauges at scrape time. cmd/lbserve exposes the window,
// snapshots and event injection over HTTP. The discrepancy quantities come from an
// exact incremental tracker that re-reads only the pools a round or event
// touched, so a sample costs O(changed), not O(n).
package engine
