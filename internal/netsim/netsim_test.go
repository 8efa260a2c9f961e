package netsim

import (
	"errors"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/continuous"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/workload"
)

func setup(t *testing.T) (*graph.Graph, load.Speeds, continuous.Alphas, load.TaskDist) {
	t.Helper()
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	a, err := continuous.DefaultAlphas(g, s)
	if err != nil {
		t.Fatal(err)
	}
	x0, err := workload.PointMass(g.N(), 32*int64(g.N()), 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := load.NewTokens(x0)
	if err != nil {
		t.Fatal(err)
	}
	return g, s, a, d
}

// weightedSetup is the paper's general model on g: heterogeneous speeds and
// a point mass of weighted tasks.
func weightedSetup(t *testing.T, g *graph.Graph) (load.Speeds, continuous.Alphas, load.TaskDist) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	s, err := workload.RandomSpeeds(g.N(), 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := continuous.DefaultAlphas(g, s)
	if err != nil {
		t.Fatal(err)
	}
	d, err := workload.PointMassWeightedTasks(g.N(), 30*g.N(), 0, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	return s, a, d
}

// makers returns all four maker kinds for (g, s).
func makers(g *graph.Graph, s load.Speeds, a continuous.Alphas) map[string]dist.ProcessMaker {
	return map[string]dist.ProcessMaker{
		"fos":               dist.FOSMaker(g, s, a),
		"sos":               dist.SOSMaker(g, s, a, 1.3),
		"periodic-matching": dist.PeriodicMatchingMaker(g, s, nil),
		"random-matching":   dist.RandomMatchingMaker(g, s, 42),
	}
}

// trackedConn records whether it was closed.
type trackedConn struct {
	net.Conn
	closed bool
}

func (c *trackedConn) Close() error {
	c.closed = true
	return c.Conn.Close()
}

// trackingTransport makes gob links over the conn pairs dial returns and
// keeps every conn it hands out, so a test can close one or check that all
// were closed.
type trackingTransport struct {
	dial  func() (net.Conn, net.Conn, error)
	close func() error
	conns []*trackedConn
}

func (tt *trackingTransport) Link() (dist.Link, dist.Link, error) {
	a, b, err := tt.dial()
	if err != nil {
		return nil, nil, err
	}
	ta, tb := &trackedConn{Conn: a}, &trackedConn{Conn: b}
	tt.conns = append(tt.conns, ta, tb)
	return newLink(ta), newLink(tb), nil
}

func (tt *trackingTransport) Close() error { return tt.close() }

func pipeTracking() *trackingTransport {
	return &trackingTransport{
		dial: func() (net.Conn, net.Conn, error) {
			a, b := net.Pipe()
			return a, b, nil
		},
		close: func() error { return nil },
	}
}

func tcpTracking(t *testing.T) (*trackingTransport, *TCPTransport) {
	t.Helper()
	tcp, err := NewTCPTransport()
	if err != nil {
		t.Fatal(err)
	}
	return &trackingTransport{dial: tcp.dial, close: tcp.Close}, tcp
}

// listenerClosed reports whether tcp's listener was closed, without
// blocking on an open one.
func listenerClosed(tcp *TCPTransport) bool {
	tcp.ln.(*net.TCPListener).SetDeadline(time.Now())
	_, err := tcp.ln.Accept()
	return errors.Is(err, net.ErrClosed)
}

// TestNewValidation: a failed construction closes the transport, whether it
// fails before the links are made or after, and then every conn it opened.
func TestNewValidation(t *testing.T) {
	g, s, a, d := setup(t)
	tt, tcp := tcpTracking(t)
	if _, err := dist.NewClusterOver(g, s[:2], d, dist.FOSMaker(g, s, a), tt); err == nil {
		t.Error("short speeds should error")
	}
	if !listenerClosed(tcp) {
		t.Error("listener left open after failed construction")
	}

	tt, tcp = tcpTracking(t)
	failing := func(x0 []float64) (continuous.Process, error) {
		return nil, errors.New("replica refused")
	}
	if _, err := dist.NewClusterOver(g, s, d, failing, tt); err == nil {
		t.Fatal("failing maker should error")
	}
	if got, want := len(tt.conns), 2*g.M(); got != want {
		t.Fatalf("opened %d conns, want %d", got, want)
	}
	for i, c := range tt.conns {
		if !c.closed {
			t.Errorf("conn %d left open after failed construction", i)
		}
	}
	if !listenerClosed(tcp) {
		t.Error("listener left open after failed construction")
	}
}

// TestPipeEquivalenceWithCentralized: over in-memory pipes the cluster is
// bit-for-bit identical to the centralized Algorithm 1 after every round,
// task by task, for every maker kind.
func TestPipeEquivalenceWithCentralized(t *testing.T) {
	g, s, a, d := setup(t)
	for name, maker := range makers(g, s, a) {
		t.Run(name, func(t *testing.T) {
			if err := dist.VerifyOver(g, s, d, maker, PipeTransport{}, 80); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWeightedTasksOverPipes: the gob frames carry weighted (and dummy)
// tasks faithfully, with heterogeneous speeds, for every maker kind.
func TestWeightedTasksOverPipes(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, a, d := weightedSetup(t, g)
	for name, maker := range makers(g, s, a) {
		t.Run(name, func(t *testing.T) {
			if err := dist.VerifyOver(g, s, d, maker, PipeTransport{}, 60); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTCPEquivalence runs weighted tasks over real loopback TCP and checks
// identity with the centralized run after every round.
func TestTCPEquivalence(t *testing.T) {
	g, err := graph.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	s, a, d := weightedSetup(t, g)
	tr, err := NewTCPTransport()
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.VerifyOver(g, s, d, dist.FOSMaker(g, s, a), tr, 40); err != nil {
		t.Fatal(err)
	}
}

// TestCloseThenStepErrors: closing after a run returns without hanging, and
// a Step after Close returns dist.ErrClosed rather than deadlocking.
func TestCloseThenStepErrors(t *testing.T) {
	g, s, a, d := setup(t)
	c, err := dist.NewClusterOver(g, s, d, dist.FOSMaker(g, s, a), PipeTransport{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); !errors.Is(err, dist.ErrClosed) {
		t.Errorf("Step after Close = %v, want dist.ErrClosed", err)
	}
}

// TestLinkRejectsWrongRound: a frame from another round is a protocol
// error, not a batch.
func TestLinkRejectsWrongRound(t *testing.T) {
	a, b := net.Pipe()
	la, lb := newLink(a), newLink(b)
	defer la.Close()
	defer lb.Close()
	if err := la.Send(5, []load.Task{{Weight: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := lb.Recv(4); err == nil || !strings.Contains(err.Error(), "protocol") {
		t.Errorf("Recv(4) of a round-5 frame = %v, want a protocol error", err)
	}
}

// within runs f and fails the test if it does not return in time.
func within(t *testing.T, what string, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s hung", what)
		return nil
	}
}

// TestBrokenLinkFailsStep: one conn closed between rounds makes the next
// Step return an error naming the node and the neighbour instead of
// hanging; the failure sticks, and Close still returns.
func TestBrokenLinkFailsStep(t *testing.T) {
	g, s, a, d := setup(t)
	for name, tt := range map[string]func(*testing.T) *trackingTransport{
		"pipe": func(*testing.T) *trackingTransport { return pipeTracking() },
		"tcp": func(t *testing.T) *trackingTransport {
			tt, _ := tcpTracking(t)
			return tt
		},
	} {
		t.Run(name, func(t *testing.T) {
			tr := tt(t)
			c, err := dist.NewClusterOver(g, s, d, dist.FOSMaker(g, s, a), tr)
			if err != nil {
				t.Fatal(err)
			}
			const k = 3
			if err := c.Run(k); err != nil {
				t.Fatal(err)
			}
			tr.conns[0].Close()
			err = within(t, "Step", c.Step)
			if err == nil {
				t.Fatal("Step over a closed conn should error")
			}
			if msg := err.Error(); !strings.Contains(msg, "node ") || !strings.Contains(msg, "neighbour ") {
				t.Errorf("error %q should name the node and the neighbour", msg)
			}
			if again := within(t, "second Step", c.Step); again == nil || again.Error() != err.Error() {
				t.Errorf("second Step = %v, want the first failure %v", again, err)
			}
			if c.Round() != k {
				t.Errorf("Round = %d, want %d", c.Round(), k)
			}
			within(t, "Close", c.Close)
		})
	}
}
