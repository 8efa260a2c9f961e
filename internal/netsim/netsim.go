// Package netsim carries dist.Cluster's task batches over a real network
// stack: each edge's link is a pair of net.Conn ends exchanging gob-encoded
// frames, so nodes share no memory at all. The node loop, the round barrier
// and the bit-identity with the centralized Algorithm 1 are dist's; this
// package supplies only the transports and the wire link:
//
//	c, err := dist.NewClusterOver(g, s, d, maker, netsim.PipeTransport{})
//
// PipeTransport links nodes with synchronous in-memory pipes (net.Pipe);
// TCPTransport with TCP connections over the loopback interface, which
// exercises the OS network stack.
package netsim

import (
	"encoding/gob"
	"fmt"
	"net"

	"repro/internal/dist"
	"repro/internal/load"
)

// PipeTransport links nodes with synchronous in-memory pipes.
type PipeTransport struct{}

var _ dist.Transport = PipeTransport{}

// Link implements dist.Transport.
func (PipeTransport) Link() (dist.Link, dist.Link, error) {
	a, b := net.Pipe()
	return newLink(a), newLink(b), nil
}

// Close implements dist.Transport.
func (PipeTransport) Close() error { return nil }

// TCPTransport links nodes with TCP connections over the loopback
// interface.
type TCPTransport struct {
	ln net.Listener
}

var _ dist.Transport = (*TCPTransport)(nil)

// NewTCPTransport opens a loopback listener used to accept one side of
// every link.
func NewTCPTransport() (*TCPTransport, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netsim: listen: %w", err)
	}
	return &TCPTransport{ln: ln}, nil
}

// Link implements dist.Transport.
func (t *TCPTransport) Link() (dist.Link, dist.Link, error) {
	a, b, err := t.dial()
	if err != nil {
		return nil, nil, err
	}
	return newLink(a), newLink(b), nil
}

// dial dials the listener and pairs the dialled conn with the accepted one.
func (t *TCPTransport) dial() (net.Conn, net.Conn, error) {
	type accepted struct {
		conn net.Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		conn, err := t.ln.Accept()
		ch <- accepted{conn: conn, err: err}
	}()
	dialled, err := net.Dial("tcp", t.ln.Addr().String())
	if err != nil {
		return nil, nil, fmt.Errorf("netsim: dial: %w", err)
	}
	acc := <-ch
	if acc.err != nil {
		dialled.Close()
		return nil, nil, fmt.Errorf("netsim: accept: %w", acc.err)
	}
	return dialled, acc.conn, nil
}

// Close implements dist.Transport.
func (t *TCPTransport) Close() error { return t.ln.Close() }

// frame is the wire message: one round's task batch over one directed link.
type frame struct {
	Round int
	Tasks []load.Task
}

// link is one node's end of a conn, speaking gob frames. Send hands the
// encode to a goroutine of its own: a net.Pipe write blocks until the peer
// reads, and the peer reads only after its own sends, so a synchronous
// write would deadlock the send-then-receive round.
type link struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
	// sent carries the result of the one write in flight (or of the last
	// one); it holds nil before the first Send.
	sent chan error
}

func newLink(conn net.Conn) *link {
	l := &link{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn), sent: make(chan error, 1)}
	l.sent <- nil
	return l
}

// Send implements dist.Link. It returns the previous round's write error;
// that write has completed, since the peer received it in that round.
func (l *link) Send(round int, tasks []load.Task) error {
	if err := <-l.sent; err != nil {
		l.sent <- err
		return err
	}
	go func() { l.sent <- l.enc.Encode(frame{Round: round, Tasks: tasks}) }()
	return nil
}

// Recv implements dist.Link, checking that the frame belongs to the round.
func (l *link) Recv(round int) ([]load.Task, error) {
	var in frame
	if err := l.dec.Decode(&in); err != nil {
		return nil, err
	}
	if in.Round != round {
		return nil, fmt.Errorf("netsim: protocol: got round %d frame, want %d", in.Round, round)
	}
	return in.Tasks, nil
}

// Close implements dist.Link: it closes the conn, which fails any write
// still in flight, and waits for that write's goroutine to finish.
func (l *link) Close() error {
	err := l.conn.Close()
	<-l.sent
	return err
}
