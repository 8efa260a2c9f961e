// Package dist executes the paper's Algorithm 1 (flow imitation) as a
// message-passing distributed system: one goroutine per node, whole tasks
// travelling as messages between neighbours, and a private replica
// of the continuous process on every node — the paper's footnote 1, which
// observes that Algorithm 1 is a local algorithm because every node can
// simulate the (deterministic, or coupled-randomness) continuous process on
// its own and therefore knows the cumulative continuous flow over each of
// its incident edges without any extra communication.
//
// Rounds are barrier-synchronized: Cluster.Step wakes every node goroutine,
// each node advances its replica, decides and sends one task batch per
// incident edge (possibly empty), receives its neighbours' batches, and
// reports back; Step returns when all nodes have finished the round. Within
// a round a node inspects its incident edges in increasing edge-index order
// and pops tasks LIFO from the pool it held at round start, which makes the
// run bit-for-bit identical to the centralized core.FlowImitation with
// core.PolicyLIFO — Verify asserts exactly that, task slice by task slice.
//
// The continuous replicas are created by a ProcessMaker, one independent
// instance per node, all seeded with the same initial load vector. Replicas
// must be deterministic copies of one another: for randomized matching
// schedules that means same-seeded schedules (coupled randomness), which is
// what RandomMatchingMaker builds. Because every replica performs the same
// float64 operations on the same state, all nodes agree on the continuous
// flow of every edge in every round without exchanging flow values.
//
// The node loop is the same whatever carries the batches. Each edge is a
// duplex Link made by a Transport: NewCluster links nodes with channels,
// and NewClusterOver takes any other Transport — package netsim's carry
// gob frames over net.Conn pipes or loopback TCP. A link error fails the
// round with an error naming the node and the neighbour, and the cluster
// stays failed: its task placement is no longer complete.
package dist
