package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Kind: 1},
		{Kind: 7, A: 3, B: -1},
		{Kind: 0x7f, A: -2147483648, B: 2147483647, Body: []byte("hello")},
		{Kind: 5, Body: make([]byte, 1<<16)},
	}
	for i, f := range cases {
		buf, err := appendFrame(nil, &f)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		if len(buf) != f.WireBytes() {
			t.Fatalf("case %d: WireBytes %d != encoded %d", i, f.WireBytes(), len(buf))
		}
		got, err := readFrame(bufio.NewReader(bytes.NewReader(buf)))
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.Kind != f.Kind || got.A != f.A || got.B != f.B || !bytes.Equal(got.Body, f.Body) {
			t.Fatalf("case %d: round trip mismatch: %+v != %+v", i, got, f)
		}
	}
}

func TestFrameSizeLimit(t *testing.T) {
	f := &Frame{Kind: 1, Body: make([]byte, MaxFrameBytes)}
	if _, err := appendFrame(nil, f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized encode returned %v, want ErrFrameTooLarge", err)
	}
	// A corrupt length word must be rejected before allocation.
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], MaxFrameBytes+1)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(buf[:]))); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized decode returned %v, want ErrFrameTooLarge", err)
	}
	// A payload length below the fixed header is garbage, not a frame.
	binary.BigEndian.PutUint32(buf[:], frameHeaderBytes-1)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(buf[:]))); err == nil {
		t.Fatal("short payload length was accepted")
	}
}

// allocDuring returns the bytes the heap allocated while f ran.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadFrameAllocatesAsBytesArrive: a length word claiming the
// largest legal frame, followed by nothing, must not commit the claimed
// size — the reader allocates as body bytes arrive.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameBytes)
	br := bufio.NewReader(bytes.NewReader(hdr[:]))
	var err error
	alloc := allocDuring(func() { _, err = readFrame(br) })
	if !errors.Is(err, io.EOF) {
		t.Fatalf("truncated frame returned %v, want io.EOF", err)
	}
	if alloc >= 2<<20 {
		t.Fatalf("header-only frame allocated %d bytes, want < 2 MiB", alloc)
	}

	// A body cut off past the first chunk is an unexpected EOF, and a
	// frame spanning several growth steps still decodes intact.
	big := &Frame{Kind: 3, A: 1, B: 2, Body: bytes.Repeat([]byte{0xab}, 3*readChunk+5)}
	enc, err := appendFrame(nil, big)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(enc[:4+readChunk]))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("frame cut at a chunk boundary returned %v, want io.ErrUnexpectedEOF", err)
	}
	got, err := readFrame(bufio.NewReader(bytes.NewReader(enc)))
	if err != nil || got.Kind != big.Kind || got.A != big.A || got.B != big.B || !bytes.Equal(got.Body, big.Body) {
		t.Fatalf("multi-chunk frame did not round trip: err=%v", err)
	}
}

// FuzzReadFrame: on arbitrary bytes the reader returns an error or
// exactly the frame appendFrame encoded at the head of the input —
// never a panic — and allocates at most the first chunk plus a small
// multiple of the bytes it was given.
func FuzzReadFrame(f *testing.F) {
	for _, fr := range []Frame{{Kind: 1}, {Kind: 7, A: 3, B: -1, Body: []byte("hello")}} {
		enc, err := appendFrame(nil, &fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
	}
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], MaxFrameBytes)
	f.Add(huge[:])
	f.Add([]byte{0, 0, 0, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var fr *Frame
		var err error
		alloc := allocDuring(func() { fr, err = readFrame(br) })
		if limit := uint64(readChunk + 8*len(data) + 4096); alloc > limit {
			t.Fatalf("readFrame allocated %d bytes on %d input bytes (limit %d)", alloc, len(data), limit)
		}
		if err != nil {
			return
		}
		enc, err := appendFrame(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if !bytes.HasPrefix(data, enc) {
			t.Fatalf("decoded frame %+v re-encodes to %x, input %x", fr, enc, data)
		}
	})
}

// echoServer serves frames that echo the request with Kind+1.
func echoServer(t *testing.T) *Server {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", func(_ context.Context, req *Frame) *Frame {
		return &Frame{Kind: req.Kind + 1, A: req.A, B: req.B, Body: req.Body}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestClientServerExchange(t *testing.T) {
	srv := echoServer(t)
	c, err := Dial(context.Background(), srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		req := &Frame{Kind: uint8(i), A: int32(i), B: int32(-i), Body: bytes.Repeat([]byte{byte(i)}, i*100)}
		resp, err := c.RoundTrip(context.Background(), req)
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if resp.Kind != req.Kind+1 || resp.A != req.A || resp.B != req.B || !bytes.Equal(resp.Body, req.Body) {
			t.Fatalf("exchange %d: bad echo %+v", i, resp)
		}
	}
	out, in := c.Bytes()
	if out == 0 || in == 0 {
		t.Fatalf("byte counters did not move: out=%d in=%d", out, in)
	}
	if c.Broken() {
		t.Fatal("healthy connection reported broken")
	}
}

func TestRoundTripMessageTimeout(t *testing.T) {
	// The handler never replies (it waits on server shutdown), so the
	// per-message deadline must fire.
	srv, err := Serve("127.0.0.1:0", func(ctx context.Context, _ *Frame) *Frame {
		<-ctx.Done()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(context.Background(), srv.Addr(), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RoundTrip(context.Background(), &Frame{Kind: 1}); err == nil {
		t.Fatal("stalled exchange returned nil error")
	} else if !isTimeout(err) {
		t.Fatalf("stalled exchange returned %v, want a timeout", err)
	}
	if !c.Broken() {
		t.Fatal("failed exchange left the connection usable")
	}
	if _, err := c.RoundTrip(context.Background(), &Frame{Kind: 1}); err == nil {
		t.Fatal("broken connection accepted another exchange")
	}
}

func TestRoundTripContextCancel(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(ctx context.Context, _ *Frame) *Frame {
		<-ctx.Done()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(context.Background(), srv.Addr(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, err = c.RoundTrip(ctx, &Frame{Kind: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled exchange returned %v, want context.Canceled", err)
	}
	// The minute-long message timeout must not gate cancellation.
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
}

func TestServerCloseDropsConns(t *testing.T) {
	srv := echoServer(t)
	c, err := Dial(context.Background(), srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RoundTrip(context.Background(), &Frame{Kind: 1}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RoundTrip(context.Background(), &Frame{Kind: 2}); err == nil {
		t.Fatal("exchange against a closed server succeeded")
	}
}
