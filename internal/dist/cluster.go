package dist

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/continuous"
	"repro/internal/graph"
	"repro/internal/load"
)

// ProcessMaker builds one node's private continuous replica from the initial
// load vector. Every node gets its own instance; instances must be
// independent (no shared mutable state) yet deterministic copies of one
// another, so that all replicas compute identical flows. A ProcessMaker is
// convertible to a continuous.Factory and vice versa.
type ProcessMaker func(x0 []float64) (continuous.Process, error)

// ErrClosed is returned by Step and Run on a closed Cluster.
var ErrClosed = errors.New("dist: cluster closed")

// Link is one node's end of the duplex link over one incident edge. In
// every round a node first sends one batch (possibly empty) on each of its
// links, then receives one batch from each.
type Link interface {
	// Send hands the node's batch for the round to the link. It must not
	// wait for the peer to receive it: every node sends before any node
	// receives.
	Send(round int, tasks []load.Task) error
	// Recv returns the peer's batch for the round. It must return an error
	// rather than block forever when the link is broken.
	Recv(round int) ([]load.Task, error)
	// Close releases the link. The cluster calls it once.
	Close() error
}

// Transport creates the per-edge links a Cluster's nodes exchange batches
// over.
type Transport interface {
	// Link returns the two ends of a new duplex link: a for the edge's
	// endpoint U(e), b for V(e).
	Link() (a, b Link, err error)
	// Close releases transport-wide resources (listeners etc.). The links
	// are closed by the cluster.
	Close() error
}

// chanTransport links nodes with a duplex pair of channels per edge.
// Capacity 1 makes the single send of each direction per round
// non-blocking, so every node finishes its send phase before any node can
// stall in its receive phase — no deadlock, no extra goroutines.
type chanTransport struct{}

func (chanTransport) Link() (Link, Link, error) {
	fwd, rev := make(chan []load.Task, 1), make(chan []load.Task, 1)
	return chanLink{out: fwd, in: rev}, chanLink{out: rev, in: fwd}, nil
}

func (chanTransport) Close() error { return nil }

type chanLink struct {
	out chan<- []load.Task
	in  <-chan []load.Task
}

func (l chanLink) Send(_ int, tasks []load.Task) error {
	l.out <- tasks
	return nil
}

func (l chanLink) Recv(int) ([]load.Task, error) { return <-l.in, nil }

func (chanLink) Close() error { return nil }

// node is the state owned exclusively by one node goroutine. The
// coordinator reads it only between rounds (the done barrier orders those
// reads after the goroutine's writes).
type node struct {
	id    int
	cont  continuous.Process
	st    *SendState
	links []Link // indexed like graph.Neighbors(id)
}

// Cluster runs Algorithm 1 distributed: one goroutine per node, whole tasks
// as link messages, barrier-synchronized rounds. A Cluster is not safe for
// concurrent use; call its methods from a single goroutine.
type Cluster struct {
	g      *graph.Graph
	s      load.Speeds
	wmax   int64
	tr     Transport
	links  []Link
	nodes  []*node
	states []*SendState

	start []chan int
	done  chan error
	quit  chan struct{}
	wg    sync.WaitGroup

	round  int
	err    error
	closed bool
}

// NewCluster builds a distributed Algorithm 1 run on graph g with speeds s
// and initial task distribution d, its nodes linked by channels. maker
// builds each node's continuous replica; all replicas are seeded with d's
// load vector. The cluster's node goroutines are started immediately and
// park between rounds; call Close to release them when the cluster is no
// longer needed.
func NewCluster(g *graph.Graph, s load.Speeds, d load.TaskDist, maker ProcessMaker) (*Cluster, error) {
	return NewClusterOver(g, s, d, maker, chanTransport{})
}

// NewClusterOver is NewCluster with the per-edge links made by tr. The
// cluster owns tr from the call on: Close closes it, and so does a failed
// construction, after closing every link already made.
func NewClusterOver(g *graph.Graph, s load.Speeds, d load.TaskDist, maker ProcessMaker, tr Transport) (_ *Cluster, err error) {
	if tr == nil {
		return nil, errors.New("dist: nil transport")
	}
	c := &Cluster{tr: tr, quit: make(chan struct{})}
	defer func() {
		if err != nil {
			err = errors.Join(err, c.Close())
		}
	}()
	switch {
	case g == nil:
		return nil, errors.New("dist: nil graph")
	case maker == nil:
		return nil, errors.New("dist: nil process maker")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(s) != g.N() {
		return nil, fmt.Errorf("dist: speeds length %d != n %d", len(s), g.N())
	}
	if len(d) != g.N() {
		return nil, fmt.Errorf("dist: task distribution length %d != n %d", len(d), g.N())
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	x0 := d.Loads().Float()

	// c.links[2e] is edge e's end at U(e), c.links[2e+1] its end at V(e).
	for e := 0; e < g.M(); e++ {
		a, b, err := tr.Link()
		if err != nil {
			return nil, fmt.Errorf("dist: link for edge %d: %w", e, err)
		}
		c.links = append(c.links, a, b)
	}

	c.g, c.s, c.wmax = g, s.Clone(), d.MaxWeight()
	c.nodes = make([]*node, g.N())
	c.states = make([]*SendState, g.N())
	c.start = make([]chan int, g.N())
	c.done = make(chan error, g.N())
	for i := range c.nodes {
		replica, err := maker(x0)
		if err != nil {
			return nil, fmt.Errorf("dist: replica for node %d: %w", i, err)
		}
		neigh := g.Neighbors(i)
		nd := &node{id: i, cont: replica, st: NewSendState(d[i], len(neigh)), links: make([]Link, len(neigh))}
		for k, arc := range neigh {
			end := 2 * arc.Edge
			if arc.Out < 0 {
				end++
			}
			nd.links[k] = c.links[end]
		}
		c.nodes[i] = nd
		c.states[i] = nd.st
		c.start[i] = make(chan int, 1)
	}
	c.wg.Add(len(c.nodes))
	for i, nd := range c.nodes {
		go c.serve(nd, c.start[i])
	}
	return c, nil
}

// serve is the per-node goroutine: it parks between rounds and executes one
// round per start signal until the cluster is closed.
func (c *Cluster) serve(nd *node, start chan int) {
	defer c.wg.Done()
	for {
		select {
		case <-c.quit:
			return
		case round := <-start:
			c.done <- nd.runRound(c.g, c.wmax, round)
		}
	}
}

// runRound executes one node's round: advance the private replica, decide
// and send one batch per incident edge, then receive the neighbours'
// batches. A link error does not stop the round: the node still sends and
// receives on every other link, so no neighbour is left waiting on it.
func (nd *node) runRound(g *graph.Graph, wmax int64, round int) error {
	fl := nd.cont.Step()
	neigh := g.Neighbors(nd.id)
	batches := nd.st.DecideSends(neigh, fl, wmax)
	var first error
	for k, arc := range neigh {
		if err := nd.links[k].Send(round, batches[k]); err != nil && first == nil {
			first = fmt.Errorf("node %d: send to neighbour %d: %w", nd.id, arc.To, err)
		}
	}
	for k, arc := range neigh {
		tasks, err := nd.links[k].Recv(round)
		if err != nil {
			if first == nil {
				first = fmt.Errorf("node %d: recv from neighbour %d: %w", nd.id, arc.To, err)
			}
			continue
		}
		nd.st.Receive(k, arc, tasks)
	}
	return first
}

// Step executes one synchronous round: it wakes every node goroutine and
// returns once all of them have finished the round. A link error fails the
// round; the task placement is then incomplete, so every later Step
// returns the same error. Step on a closed cluster returns ErrClosed.
func (c *Cluster) Step() error {
	if c.closed {
		return ErrClosed
	}
	if c.err != nil {
		return c.err
	}
	for _, ch := range c.start {
		ch <- c.round
	}
	for range c.nodes {
		if err := <-c.done; err != nil && c.err == nil {
			c.err = fmt.Errorf("dist: round %d: %w", c.round, err)
		}
	}
	if c.err != nil {
		return c.err
	}
	c.round++
	return nil
}

// Run executes the given number of rounds, stopping at the first error.
func (c *Cluster) Run(rounds int) error {
	for t := 0; t < rounds; t++ {
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the node goroutines, waits for them to exit, and closes every
// link and the transport, returning the first close error. It is
// idempotent; the cluster's state remains readable afterwards.
func (c *Cluster) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	close(c.quit)
	c.wg.Wait()
	var first error
	for _, l := range c.links {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := c.tr.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Round returns the number of completed rounds.
func (c *Cluster) Round() int { return c.round }

// Graph returns the network.
func (c *Cluster) Graph() *graph.Graph { return c.g }

// Speeds returns the node speeds.
func (c *Cluster) Speeds() load.Speeds { return c.s }

// Wmax returns the maximum task weight the cluster was built with.
func (c *Cluster) Wmax() int64 { return c.wmax }

// Load returns the per-node total task weight, including dummy tokens.
func (c *Cluster) Load() load.Vector { return Loads(c.states) }

// LoadExcludingDummies returns the per-node real load after the paper's
// end-of-process dummy elimination.
func (c *Cluster) LoadExcludingDummies() load.Vector { return RealLoads(c.states) }

// DummiesCreated returns the total dummy weight drawn from the infinite
// source across all nodes.
func (c *Cluster) DummiesCreated() int64 { return TotalDummies(c.states) }

// Tasks returns a deep copy of the current task distribution, in each
// node's exact pool order.
func (c *Cluster) Tasks() load.TaskDist { return CloneTasks(c.states) }
