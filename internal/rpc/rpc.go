// Package rpc is the cluster's wire transport: length-prefixed binary
// frames over TCP. A frame carries an opcode, two small integer
// operands, and an opaque body (the cluster layer puts the packed-key
// relation encodings there), so the framing itself stays oblivious to
// the protocol running over it.
//
// Wire layout, big-endian:
//
//	[payload length u32][kind u8][a i32][b i32][body ...]
//
// where the payload length counts everything after the length word
// (9 header bytes + the body). Frames above MaxFrameBytes are rejected
// on both ends, and the reader allocates a frame's buffer as its bytes
// arrive, so a corrupt length word cannot trigger a large allocation.
//
// Clients speak strict request/response over a connection: RoundTrip
// holds the connection for one exchange, applies the per-message
// deadline (the tighter of the connection default and the context
// deadline), and aborts the blocking read promptly when the context is
// canceled. Any exchange error poisons the connection — the reply
// stream may be desynchronized — so callers discard it and dial anew.
//
// The rpc.dial / rpc.send / rpc.recv failpoints fire on the client
// side only: an injected failure surfaces as a typed error at the
// coordinator, never as an unexplained EOF fabricated by the server.
package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// MaxFrameBytes bounds a single frame's payload (header + body). The
// largest legitimate frames are relation shards; 256 MiB is far above
// any admissible shard and small enough to make a corrupted length
// word harmless.
const MaxFrameBytes = 1 << 28

// frameHeaderBytes is the fixed header after the length word: kind (1)
// plus the two int32 operands (8).
const frameHeaderBytes = 9

// HeaderBytes is the full per-frame wire overhead: the length word plus
// the fixed header. Byte accounting in the cluster layer uses it to
// separate framing overhead from relation payload.
const HeaderBytes = 4 + frameHeaderBytes

// Chaos failpoints on the client-side exchange path.
var (
	dialSite = fault.Register("rpc.dial")
	sendSite = fault.Register("rpc.send")
	recvSite = fault.Register("rpc.recv")
)

// ErrFrameTooLarge reports a frame whose payload exceeds MaxFrameBytes,
// on encode or decode.
var ErrFrameTooLarge = errors.New("rpc: frame exceeds size limit")

// Frame is one message: an opcode, two small operands (the cluster
// layer uses A for the GHD node and B for a child index or count), and
// an opaque body.
type Frame struct {
	Kind uint8
	A, B int32
	Body []byte
}

// WireBytes returns the frame's full encoded size including the length
// word.
func (f *Frame) WireBytes() int { return 4 + frameHeaderBytes + len(f.Body) }

// appendFrame encodes f onto dst.
func appendFrame(dst []byte, f *Frame) ([]byte, error) {
	if len(f.Body) > MaxFrameBytes-frameHeaderBytes {
		return dst, fmt.Errorf("%w: body %d bytes", ErrFrameTooLarge, len(f.Body))
	}
	n := uint32(frameHeaderBytes + len(f.Body))
	dst = binary.BigEndian.AppendUint32(dst, n)
	dst = append(dst, f.Kind)
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.A))
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.B))
	dst = append(dst, f.Body...)
	return dst, nil
}

// readChunk caps readFrame's first allocation. Frames up to this size
// are read into one exactly-sized buffer; larger ones grow as bytes
// arrive, so a length word alone cannot commit MaxFrameBytes of memory.
const readChunk = 1 << 20

// readFrame decodes one frame from r.
func readFrame(r *bufio.Reader) (*Frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(lenBuf[:]))
	if n < frameHeaderBytes {
		return nil, fmt.Errorf("rpc: short frame payload (%d bytes)", n)
	}
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: payload %d bytes", ErrFrameTooLarge, n)
	}
	// Each growth step at most doubles what the peer already delivered.
	buf := make([]byte, min(n, readChunk))
	for got := 0; ; {
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if got = len(buf); got == n {
			break
		}
		grow := min(n-got, got)
		buf = slices.Grow(buf, grow)[:got+grow]
	}
	f := &Frame{
		Kind: buf[0],
		A:    int32(binary.BigEndian.Uint32(buf[1:5])),
		B:    int32(binary.BigEndian.Uint32(buf[5:9])),
	}
	if n > frameHeaderBytes {
		f.Body = buf[frameHeaderBytes:]
	}
	return f, nil
}

// Conn is a client connection speaking strict request/response. It is
// safe for concurrent use; concurrent RoundTrips serialize on the
// connection.
type Conn struct {
	mu      sync.Mutex
	nc      net.Conn
	br      *bufio.Reader
	wbuf    []byte
	timeout time.Duration // per-message default deadline; 0 = none
	broken  atomic.Bool
}

// Dial connects to a cluster peer. msgTimeout, when positive, is both
// the dial timeout and the default per-message deadline of later
// RoundTrips (a context deadline tightens it further).
func Dial(ctx context.Context, addr string, msgTimeout time.Duration) (*Conn, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := dialSite.Hit(ctx); err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	d := net.Dialer{Timeout: msgTimeout}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &Conn{nc: nc, br: bufio.NewReader(nc), timeout: msgTimeout}, nil
}

// Broken reports whether a previous exchange failed, leaving the reply
// stream in an unknown state. Broken connections must be discarded.
func (c *Conn) Broken() bool { return c.broken.Load() }

// Close closes the underlying connection.
func (c *Conn) Close() error {
	c.broken.Store(true)
	return c.nc.Close()
}

// RoundTrip sends req and reads the single reply frame. On any error —
// injected fault, I/O failure, deadline, cancellation — the connection
// is poisoned and closed, because a half-written request or unread
// reply would desynchronize the next exchange. Timeouts caused by
// context cancellation surface as the context's error.
func (c *Conn) RoundTrip(ctx context.Context, req *Frame) (*Frame, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken.Load() {
		return nil, errors.New("rpc: round trip on broken connection")
	}
	fail := func(err error) (*Frame, error) {
		c.broken.Store(true)
		c.nc.Close()
		if ctxErr := ctx.Err(); ctxErr != nil && isTimeout(err) {
			// The cancellation watcher below aborts blocked I/O by
			// expiring the deadline; report the cause, not the mechanism.
			return nil, ctxErr
		}
		return nil, err
	}

	if err := sendSite.Hit(ctx); err != nil {
		return fail(fmt.Errorf("rpc: send: %w", err))
	}
	deadline := time.Time{}
	if c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if err := c.nc.SetDeadline(deadline); err != nil {
		return fail(fmt.Errorf("rpc: set deadline: %w", err))
	}
	// Abort blocked I/O promptly on cancellation by expiring the
	// deadline; fail() maps the resulting timeout back to ctx.Err().
	stop := context.AfterFunc(ctx, func() { c.nc.SetDeadline(time.Now()) })
	defer func() {
		// A watcher that already fired may expire the deadline after this
		// exchange returns, failing the connection's next one: retire it.
		if !stop() {
			c.broken.Store(true)
			c.nc.Close()
		}
	}()

	buf, err := appendFrame(c.wbuf[:0], req)
	if err != nil {
		return fail(err)
	}
	c.wbuf = buf[:0]
	if _, err := c.nc.Write(buf); err != nil {
		return fail(fmt.Errorf("rpc: write: %w", err))
	}

	if err := recvSite.Hit(ctx); err != nil {
		return fail(fmt.Errorf("rpc: recv: %w", err))
	}
	resp, err := readFrame(c.br)
	if err != nil {
		return fail(fmt.Errorf("rpc: read: %w", err))
	}
	return resp, nil
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Handler serves one request frame and returns the reply frame.
// Handlers encode application errors into reply frames themselves; a
// nil reply closes the connection.
type Handler func(ctx context.Context, req *Frame) *Frame

// Server accepts connections and serves frames with a Handler, one
// request at a time per connection (matching the client's strict
// request/response discipline; concurrency comes from multiple
// connections).
type Server struct {
	ln      net.Listener
	handler Handler
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
}

// Serve listens on addr (":0" picks a free port — use Addr to learn it)
// and serves frames until Close.
func Serve(addr string, handler Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		ln:      ln,
		handler: handler,
		ctx:     ctx,
		cancel:  cancel,
		conns:   make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, closes every live connection, and waits for
// the serving goroutines to drain.
func (s *Server) Close() error {
	s.cancel()
	err := s.ln.Close()
	s.mu.Lock()
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed (or fatally broken): stop serving
		}
		s.mu.Lock()
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(nc)
	}
}

func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(nc)
	var wbuf []byte
	for {
		req, err := readFrame(br)
		if err != nil {
			return // client went away or sent garbage: drop the conn
		}
		resp := s.handler(s.ctx, req)
		if resp == nil {
			return
		}
		wbuf, err = appendFrame(wbuf[:0], resp)
		if err != nil {
			return
		}
		if _, err := nc.Write(wbuf); err != nil {
			return
		}
	}
}
