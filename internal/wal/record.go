// Package wal implements the durable event log of the online engine: an
// append-only sequence of length-prefixed, CRC-checked records — applied
// runtime events (internal/wire form) and round markers — split across
// rotating segment files, with periodic full-state snapshots that bound
// replay and allow the log prefix they cover to be truncated.
//
// Durability contract: a round marker is the commit record of the batch of
// event records since the previous marker. Recovery replays only committed
// batches; trailing event records without a closing marker (a crash
// mid-step) are discarded and reported. The fsync policy (Options.Sync)
// decides when appended records become durable: SyncAlways fsyncs at every
// round marker, SyncInterval (the default) at most once per SyncEvery, and
// SyncNever leaves flushing to the OS — the classic
// throughput/durability-window trade.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/wire"
)

// Record types. Snapshots live in separate snap-*.snap files, not in the
// record stream.
const (
	// RecordEvent is one applied runtime event, payload = EncodeEvent.
	RecordEvent byte = 1
	// RecordRound is a round marker, payload = EncodeRoundMark. It commits
	// the event records appended since the previous marker.
	RecordRound byte = 2
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms the engine targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxRecordPayload bounds one record's payload so a corrupt length prefix
// cannot ask the reader to allocate gigabytes.
const maxRecordPayload = 16 << 20

// ErrCorrupt marks framing-level corruption: a bad length prefix, an
// unknown record type, or a CRC mismatch. Callers distinguish a torn tail
// (truncate to the durable prefix) from mid-log corruption (fail loudly)
// by where the corrupt record sits.
var ErrCorrupt = errors.New("wal: corrupt record")

// RoundMark is the payload of a RecordRound: the post-round ledger
// checkpoint the engine writes after every balancing round. Replay
// re-derives the same quantities and refuses to continue on a mismatch, so
// a divergent replay is caught at the first round boundary after the
// divergence, named by round.
type RoundMark struct {
	// Round is the engine's round counter after the round completed.
	Round int64
	// Real is the conserved non-dummy task weight W (expectedReal).
	Real int64
	// Total is the ledger's aggregate pool weight, dummies included.
	Total int64
	// Created is the cumulative dummy weight ever drawn.
	Created int64
	// Wmax is the maximum task weight seen so far.
	Wmax int64
}

// AppendRecord appends one framed record to dst and returns the extended
// slice. Frame layout:
//
//	uint32-LE payload length | type byte | payload | uint32-LE CRC32C
//
// where the CRC covers the type byte and the payload.
func AppendRecord(dst []byte, typ byte, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	body := len(dst)
	dst = append(dst, typ)
	dst = append(dst, payload...)
	crc := crc32.Update(0, crcTable, dst[body:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// DecodeRecord parses one framed record from the front of b. It returns
// the record type, its payload (aliasing b), and the total number of bytes
// the record occupies. A short buffer returns (0, nil, 0, errShort); any
// other failure wraps ErrCorrupt.
func DecodeRecord(b []byte) (typ byte, payload []byte, size int, err error) {
	if len(b) < 4 {
		return 0, nil, 0, errShort
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxRecordPayload {
		return 0, nil, 0, fmt.Errorf("%w: payload length %d exceeds cap %d", ErrCorrupt, n, maxRecordPayload)
	}
	size = 4 + 1 + int(n) + 4
	if len(b) < size {
		return 0, nil, 0, errShort
	}
	typ = b[4]
	if typ != RecordEvent && typ != RecordRound {
		return 0, nil, 0, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, typ)
	}
	payload = b[5 : 5+int(n)]
	want := binary.LittleEndian.Uint32(b[5+int(n):])
	crc := crc32.Update(0, crcTable, b[4:5+int(n)])
	if crc != want {
		return 0, nil, 0, fmt.Errorf("%w: crc mismatch (stored %08x, computed %08x)", ErrCorrupt, want, crc)
	}
	return typ, payload, size, nil
}

// errShort reports that a buffer ends mid-record — at the tail of the last
// segment this is a torn write, anywhere else it is corruption.
var errShort = errors.New("wal: short record")

// EncodeEvent appends the binary form of one wire event to dst. The
// encoding is kind byte + varints, field order fixed per kind; it is the
// payload of a RecordEvent. Only the fields the kind uses are encoded, so
// DecodeEvent(EncodeEvent(ev)) == ev holds exactly for events that are
// canonical for their kind (zero-valued unused fields), which every event
// the engine logs is.
func EncodeEvent(dst []byte, ev *wire.Event) ([]byte, error) {
	kb := wire.KindCode(ev.Kind)
	if kb == 0 {
		return dst, fmt.Errorf("wal: unencodable event kind %q", ev.Kind)
	}
	dst = append(dst, kb)
	dst = binary.AppendVarint(dst, ev.At)
	switch kb {
	case wire.KindArrival:
		dst = binary.AppendVarint(dst, int64(ev.Node))
		dst = binary.AppendUvarint(dst, uint64(ev.Tokens))
		dst = binary.AppendVarint(dst, ev.Weight)
		dst = binary.AppendUvarint(dst, uint64(len(ev.Weights)))
		for _, w := range ev.Weights {
			dst = binary.AppendVarint(dst, w)
		}
	case wire.KindCompletion:
		dst = binary.AppendVarint(dst, int64(ev.Node))
		dst = binary.AppendUvarint(dst, uint64(ev.Count))
	case wire.KindJoin:
		dst = binary.AppendVarint(dst, ev.Speed)
		dst = binary.AppendUvarint(dst, uint64(len(ev.Peers)))
		for _, p := range ev.Peers {
			dst = binary.AppendVarint(dst, int64(p))
		}
	case wire.KindLeave:
		dst = binary.AppendVarint(dst, int64(ev.Node))
	case wire.KindEdgeChange:
		dst = appendPairs(dst, ev.Add)
		dst = appendPairs(dst, ev.Remove)
	}
	return dst, nil
}

func appendPairs(dst []byte, pairs [][2]int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pairs)))
	for _, uv := range pairs {
		dst = binary.AppendVarint(dst, int64(uv[0]))
		dst = binary.AppendVarint(dst, int64(uv[1]))
	}
	return dst
}

func readPairs(r *wire.Reader) [][2]int {
	n := r.Count()
	if n == 0 {
		return nil
	}
	out := make([][2]int, n)
	for i := range out {
		out[i] = [2]int{int(r.Varint()), int(r.Varint())}
	}
	return out
}

// DecodeEvent parses the payload of a RecordEvent back into a wire event.
func DecodeEvent(payload []byte) (wire.Event, error) {
	if len(payload) == 0 {
		return wire.Event{}, fmt.Errorf("%w: empty event payload", ErrCorrupt)
	}
	kb := payload[0]
	if kb == 0 || int(kb) >= len(wire.Kinds) {
		return wire.Event{}, fmt.Errorf("%w: unknown event kind byte %d", ErrCorrupt, kb)
	}
	r := wire.NewReader(payload[1:])
	ev := wire.Event{Kind: wire.Kinds[kb], At: r.Varint()}
	switch kb {
	case wire.KindArrival:
		ev.Node = int(r.Varint())
		ev.Tokens = int(r.Uvarint())
		ev.Weight = r.Varint()
		ev.Weights = wire.Varints[int64](&r)
	case wire.KindCompletion:
		ev.Node = int(r.Varint())
		ev.Count = int(r.Uvarint())
	case wire.KindJoin:
		ev.Speed = r.Varint()
		ev.Peers = wire.Varints[int](&r)
	case wire.KindLeave:
		ev.Node = int(r.Varint())
	case wire.KindEdgeChange:
		ev.Add = readPairs(&r)
		ev.Remove = readPairs(&r)
	}
	if err := r.Done(); err != nil {
		return wire.Event{}, fmt.Errorf("%w: event: %v", ErrCorrupt, err)
	}
	if ev.Tokens < 0 || ev.Count < 0 {
		return wire.Event{}, fmt.Errorf("%w: negative count field", ErrCorrupt)
	}
	return ev, nil
}

// EncodeRoundMark appends the binary form of a round marker to dst — the
// payload of a RecordRound.
func EncodeRoundMark(dst []byte, m RoundMark) []byte {
	dst = binary.AppendVarint(dst, m.Round)
	dst = binary.AppendVarint(dst, m.Real)
	dst = binary.AppendVarint(dst, m.Total)
	dst = binary.AppendVarint(dst, m.Created)
	dst = binary.AppendVarint(dst, m.Wmax)
	return dst
}

// DecodeRoundMark parses the payload of a RecordRound.
func DecodeRoundMark(payload []byte) (RoundMark, error) {
	r := wire.NewReader(payload)
	m := RoundMark{
		Round:   r.Varint(),
		Real:    r.Varint(),
		Total:   r.Varint(),
		Created: r.Varint(),
		Wmax:    r.Varint(),
	}
	if err := r.Done(); err != nil {
		return RoundMark{}, fmt.Errorf("%w: round mark: %v", ErrCorrupt, err)
	}
	if m.Round < 0 {
		return RoundMark{}, fmt.Errorf("%w: negative round %d", ErrCorrupt, m.Round)
	}
	return m, nil
}
