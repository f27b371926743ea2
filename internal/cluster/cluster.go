// Package cluster implements real distributed execution of the GHD
// bottom-up pass: a coordinator that hash-partitions each factor across
// shard workers, drives every star reduction as a scatter/gather of
// routed message slices, and merges the root answer.
//
// # Execution scheme
//
// Child order, keep sets and factor placement come from faq.NewPass,
// the pass plan faq.SolveGHD runs over. Each GHD node v carrying a
// factor also gets a static partition key K_v:
//
//   - a leaf partitions its factor on the columns its message keeps
//     (χ(v) ∩ (free ∪ χ(parent)));
//   - an internal node partitions on the intersection of its children's
//     message schemas — a subset of every child message's columns, so
//     routing child messages by the same key co-locates every joining
//     pair of rows;
//   - an empty key (including any node with a factorless child) sends
//     all rows to worker 0, the correct serialized fallback.
//
// Factorless nodes (the fat core root of Construction 2.8) are evaluated
// at the coordinator (faq.EvalNode) from the already-gathered child
// messages, as the protocol runner runs its core phase at one player.
//
// Per star, the coordinator scatters each merged child message as
// routed slices (StoreMsg), asks every worker to join its shard with
// its slices in child order and aggregate (ComputeStar), then gathers
// and merges the partials in worker order. Partitioning preserves the
// relations' sorted order and duplicate groups merge through the same
// ⊕ as the local pass, so answers are bit-identical to faq.SolveGHD
// for exact semirings at any worker count — the same contract the exec
// layer holds for threads, extended to processes.
//
// The Transport seam carries the protocol either over real TCP
// (internal/rpc) or over the netsim ledger in-process (SimTransport),
// so the differential harness runs identical frames both ways.
package cluster

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/semiring"
	"repro/internal/shard"
)

// Frame kinds of the cluster protocol (rpc.Frame.Kind). The body of
// every session frame (kindReset through kindCompute) opens with the
// solve's epoch (see appendEpoch); the bodies described below follow it.
const (
	kindPing    uint8 = iota + 1 // liveness probe → kindOK
	kindReset                    // drop all session state → kindOK
	kindQuery                    // begin a session: semiring name + domain → kindOK
	kindLoad                     // A = GHD node; body = factor shard → kindOK
	kindStore                    // A = node, B = child index; body = routed message slice → kindOK
	kindCompute                  // A = node, B = child count; body = keep vars → kindRel
	kindOK                       // success, empty reply
	kindRel                      // success, body = encoded relation
	kindErr     uint8 = 0x7f     // failure, body = error text
)

// Profile resolves a registry semiring name to the typed semiring and
// wire codec both transport ends use. The instantiated type parameter
// must match the semiring's value type.
func Profile[T any](name string) (semiring.Semiring[T], shard.Codec[T], error) {
	var s, c any
	switch name {
	case "bool":
		s, c = semiring.Bool{}, shard.Codec[bool]{
			Enc: func(v bool) uint64 {
				if v {
					return 1
				}
				return 0
			},
			Dec: func(k uint64) bool { return k != 0 },
		}
	case "count":
		s, c = semiring.Count{}, shard.Codec[int64]{
			Enc: func(v int64) uint64 { return uint64(v) },
			Dec: func(k uint64) int64 { return int64(k) },
		}
	case "sumproduct":
		s, c = semiring.SumProduct{}, floatCodec()
	case "minplus":
		s, c = semiring.MinPlus{}, floatCodec()
	case "maxtimes":
		s, c = semiring.MaxTimes{}, floatCodec()
	case "f2":
		s, c = semiring.F2{}, shard.Codec[byte]{
			Enc: func(v byte) uint64 { return uint64(v & 1) },
			Dec: func(k uint64) byte { return byte(k & 1) },
		}
	default:
		return nil, shard.Codec[T]{}, fmt.Errorf("cluster: unknown semiring %q", name)
	}
	sr, ok := s.(semiring.Semiring[T])
	cod, ok2 := c.(shard.Codec[T])
	if !ok || !ok2 {
		var zero T
		return nil, shard.Codec[T]{}, fmt.Errorf("cluster: semiring %q does not carry values of type %T", name, zero)
	}
	return sr, cod, nil
}

func floatCodec() shard.Codec[float64] {
	return shard.Codec[float64]{Enc: math.Float64bits, Dec: math.Float64frombits}
}

// epochBytes is the size of the epoch that opens every session frame.
const epochBytes = 8

// appendEpoch appends a solve's epoch as a big-endian u64. The
// coordinator gives every solve a larger epoch than the last, and a
// worker refuses frames older than its session (errStaleEpoch): a
// request left on a connection an earlier solve abandoned can then
// neither wipe nor pollute the current session.
func appendEpoch(dst []byte, epoch uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, epoch)
}

// splitEpoch separates a session frame's epoch from the rest of its body.
func splitEpoch(body []byte) (uint64, []byte, error) {
	if len(body) < epochBytes {
		return 0, nil, fmt.Errorf("cluster: truncated session epoch (%d bytes)", len(body))
	}
	return binary.BigEndian.Uint64(body), body[epochBytes:], nil
}

// encodeQuery serializes a session header: [u32 domSize][name bytes].
func encodeQuery(name string, domSize int) []byte {
	buf := make([]byte, 0, 4+len(name))
	buf = binary.BigEndian.AppendUint32(buf, uint32(domSize))
	return append(buf, name...)
}

func decodeQuery(body []byte) (name string, domSize int, err error) {
	if len(body) < 4 {
		return "", 0, fmt.Errorf("cluster: truncated query header (%d bytes)", len(body))
	}
	return string(body[4:]), int(binary.BigEndian.Uint32(body)), nil
}

// encodeVars serializes a sorted variable list: [u32 k][k × u32 ids].
func encodeVars(vs []int) []byte {
	buf := make([]byte, 0, 4+4*len(vs))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(vs)))
	for _, v := range vs {
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(v)))
	}
	return buf
}

func decodeVars(body []byte) ([]int, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("cluster: truncated variable list (%d bytes)", len(body))
	}
	k := int(binary.BigEndian.Uint32(body))
	body = body[4:]
	if k < 0 || len(body) != 4*k {
		return nil, fmt.Errorf("cluster: variable list is %d bytes, want %d ids", len(body), k)
	}
	vs := make([]int, k)
	for i := range vs {
		vs[i] = int(int32(binary.BigEndian.Uint32(body[4*i:])))
	}
	return vs, nil
}
