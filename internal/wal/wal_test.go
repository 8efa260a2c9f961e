package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wire"
)

// sampleEvents covers every kind and field shape the codec must carry.
func sampleEvents() []wire.Event {
	return []wire.Event{
		{Kind: "arrival", At: 3, Node: 7, Tokens: 4, Weight: 2},
		{Kind: "arrival", Node: 0, Tokens: 3, Weights: []int64{5, 1, 9}},
		{Kind: "arrival", At: -2, Node: 1, Tokens: 1, Weight: 1},
		{Kind: "completion", At: 10, Node: 2, Count: 6},
		{Kind: "join", Speed: 3, Peers: []int{0, 4, 2}},
		{Kind: "join", At: 1, Speed: 1},
		{Kind: "leave", Node: 5},
		{Kind: "edge-change", Add: [][2]int{{0, 1}, {2, 3}}, Remove: [][2]int{{1, 2}}},
		{Kind: "edge-change", Remove: [][2]int{{0, 3}}},
		{Kind: "edge-change"},
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	for _, ev := range sampleEvents() {
		p, err := EncodeEvent(nil, &ev)
		if err != nil {
			t.Fatalf("encode %+v: %v", ev, err)
		}
		got, err := DecodeEvent(p)
		if err != nil {
			t.Fatalf("decode %+v: %v", ev, err)
		}
		if !reflect.DeepEqual(got, ev) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ev)
		}
	}
	if _, err := EncodeEvent(nil, &wire.Event{Kind: "warp"}); err == nil {
		t.Fatalf("unknown kind must not encode")
	}
}

func TestRoundMarkRoundTrip(t *testing.T) {
	m := RoundMark{Round: 41, Real: 9000, Total: 9100, Created: 100, Wmax: 7}
	got, err := DecodeRoundMark(EncodeRoundMark(nil, m))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != m {
		t.Fatalf("got %+v want %+v", got, m)
	}
	if _, err := DecodeRoundMark(EncodeRoundMark(nil, RoundMark{Round: -1})); err == nil {
		t.Fatalf("negative round must not decode")
	}
}

func TestRecordFraming(t *testing.T) {
	payload := []byte("hello")
	rec := AppendRecord(nil, RecordEvent, payload)
	typ, got, size, err := DecodeRecord(rec)
	if err != nil || typ != RecordEvent || !bytes.Equal(got, payload) || size != len(rec) {
		t.Fatalf("decode: typ=%d payload=%q size=%d err=%v", typ, got, size, err)
	}
	// Every strict prefix is a short (torn) record, never ErrCorrupt.
	for i := 0; i < len(rec); i++ {
		if _, _, _, err := DecodeRecord(rec[:i]); !errors.Is(err, errShort) {
			t.Fatalf("prefix %d: want errShort, got %v", i, err)
		}
	}
	// Any single flipped bit in the stored CRC fails loudly.
	bad := append([]byte(nil), rec...)
	bad[len(bad)-1] ^= 0x40
	if _, _, _, err := DecodeRecord(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped crc: want ErrCorrupt, got %v", err)
	}
	// A hostile length prefix must not drive an allocation.
	huge := AppendRecord(nil, RecordEvent, payload)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f
	if _, _, _, err := DecodeRecord(huge); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge length: want ErrCorrupt, got %v", err)
	}
	unknown := AppendRecord(nil, 9, payload)
	if _, _, _, err := DecodeRecord(unknown); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown type: want ErrCorrupt, got %v", err)
	}
}

// appendRounds writes n committed batches, each carrying the sample events,
// returning the marks written.
func appendRounds(t *testing.T, w *Writer, startRound int64, n int) []RoundMark {
	t.Helper()
	var marks []RoundMark
	for r := 0; r < n; r++ {
		for _, ev := range sampleEvents() {
			if err := w.AppendEvent(&ev); err != nil {
				t.Fatalf("append event: %v", err)
			}
		}
		m := RoundMark{Round: startRound + int64(r) + 1, Real: 100 + int64(r), Total: 110, Created: 10, Wmax: 9}
		if err := w.AppendRound(m); err != nil {
			t.Fatalf("append round: %v", err)
		}
		marks = append(marks, m)
	}
	return marks
}

func checkBatches(t *testing.T, rec *Recovery, marks []RoundMark) {
	t.Helper()
	if len(rec.Batches) != len(marks) {
		t.Fatalf("recovered %d batches, want %d", len(rec.Batches), len(marks))
	}
	want := sampleEvents()
	for i, b := range rec.Batches {
		if b.Mark != marks[i] {
			t.Fatalf("batch %d mark %+v want %+v", i, b.Mark, marks[i])
		}
		if !reflect.DeepEqual(b.Events, want) {
			t.Fatalf("batch %d events mismatch:\n got %+v\nwant %+v", i, b.Events, want)
		}
	}
}

func TestWriterRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, rec, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if rec.HasState() || len(rec.Batches) != 0 || rec.LastLSN != 0 {
		t.Fatalf("fresh dir recovered non-empty: %+v", rec)
	}
	state := []byte("genesis-state")
	if err := w.WriteSnapshot(0, state); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	marks := appendRounds(t, w, 0, 5)
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	got, err := Recover(dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if !got.HasState() || !bytes.Equal(got.Snapshot, state) || got.SnapshotRound != 0 {
		t.Fatalf("snapshot not recovered: %+v", got)
	}
	checkBatches(t, got, marks)
	if got.LastRound != marks[len(marks)-1].Round {
		t.Fatalf("last round %d want %d", got.LastRound, marks[len(marks)-1].Round)
	}
	if got.TailEvents != 0 || got.Corruption != nil || got.TruncatedBytes != 0 {
		t.Fatalf("clean log reported tail damage: %+v", got)
	}

	// Reopen and continue: the chain extends, nothing is lost.
	w2, rec2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	checkBatches(t, rec2, marks)
	marks = append(marks, appendRounds(t, w2, 5, 2)...)
	if err := w2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got, err = Recover(dir)
	if err != nil {
		t.Fatalf("recover after reopen: %v", err)
	}
	checkBatches(t, got, marks)
}

func TestCreateRefusesExistingLog(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	appendRounds(t, w, 0, 1)
	w.Close()
	if _, err := Create(Options{Dir: dir}); err == nil {
		t.Fatalf("create over an existing log must fail")
	}
}

// lastSegment returns the path of the newest segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	_, segs, err := listFiles(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listFiles: %v (%d segs)", err, len(segs))
	}
	return segs[len(segs)-1].path
}

func TestSegmentRotationAndChain(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a rotation roughly every batch.
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 256, Sync: SyncNever})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	marks := appendRounds(t, w, 0, 8)
	w.Close()
	_, segs, err := listFiles(dir)
	if err != nil {
		t.Fatalf("listFiles: %v", err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	checkBatches(t, rec, marks)

	// Deleting a middle segment breaks the chain loudly.
	if err := os.Remove(segs[1].path); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil || !strings.Contains(err.Error(), "chain") {
		t.Fatalf("gap in chain: got %v", err)
	}
}

func TestTornTailTruncatedToDurablePrefix(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	marks := appendRounds(t, w, 0, 3)
	w.Close()
	seg := lastSegment(t, dir)
	durable, _ := os.ReadFile(seg)

	// Crash simulation: one committed-looking event record that never got
	// its round marker, then a record torn mid-write.
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	evPayload, _ := EncodeEvent(nil, &wire.Event{Kind: "leave", Node: 1})
	f.Write(AppendRecord(nil, RecordEvent, evPayload))
	torn := AppendRecord(nil, RecordRound, EncodeRoundMark(nil, RoundMark{Round: 4}))
	f.Write(torn[:len(torn)-3])
	f.Close()

	w2, rec, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery must succeed to the durable prefix: %v", err)
	}
	if rec.TailEvents != 1 {
		t.Fatalf("TailEvents = %d, want 1 discarded uncommitted event", rec.TailEvents)
	}
	if rec.Corruption == nil || !strings.Contains(rec.Corruption.Reason, "torn") {
		t.Fatalf("torn tail not reported: %+v", rec.Corruption)
	}
	checkBatches(t, rec, marks)
	// Physically cut back: the file is byte-identical to the durable prefix.
	now, _ := os.ReadFile(seg)
	if !bytes.Equal(now, durable) {
		t.Fatalf("segment not truncated to durable prefix: %d bytes vs %d", len(now), len(durable))
	}
	// And the writer continues the chain cleanly.
	marks = append(marks, appendRounds(t, w2, 3, 1)...)
	w2.Close()
	rec2, err := Recover(dir)
	if err != nil {
		t.Fatalf("recover after continue: %v", err)
	}
	checkBatches(t, rec2, marks)
}

func TestFlippedCRCByteInLastSegment(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := Open(Options{Dir: dir, Sync: SyncAlways})
	marks := appendRounds(t, w, 0, 4)
	w.Close()
	seg := lastSegment(t, dir)
	raw, _ := os.ReadFile(seg)

	// Flip one byte three quarters into the file: recovery falls back to
	// the durable prefix before it and says where.
	off := len(raw) * 3 / 4
	raw[off] ^= 0x01
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatalf("corruption in last segment must recover to prefix: %v", err)
	}
	if rec.Corruption == nil || rec.Corruption.File != seg || rec.Corruption.Offset == 0 {
		t.Fatalf("corruption not located: %+v", rec.Corruption)
	}
	if len(rec.Batches) >= len(marks) || rec.TruncatedBytes == 0 {
		t.Fatalf("prefix not shortened: %d batches of %d, truncated %d", len(rec.Batches), len(marks), rec.TruncatedBytes)
	}
	checkBatches(t, rec, marks[:len(rec.Batches)])
}

func TestFlippedCRCByteInMiddleSegmentFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := Open(Options{Dir: dir, SegmentBytes: 256, Sync: SyncNever})
	appendRounds(t, w, 0, 8)
	w.Close()
	_, segs, _ := listFiles(dir)
	if len(segs) < 3 {
		t.Fatalf("need several segments, got %d", len(segs))
	}
	victim := segs[1].path
	raw, _ := os.ReadFile(victim)
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Recover(dir)
	if err == nil {
		t.Fatalf("mid-log corruption must refuse recovery")
	}
	if !strings.Contains(err.Error(), filepath.Base(victim)) || !strings.Contains(err.Error(), "byte") {
		t.Fatalf("error must name file and offset, got: %v", err)
	}
	// Open must refuse identically — never truncate mid-log.
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatalf("Open must refuse mid-log corruption")
	}
}

func TestZeroLengthSegments(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := Open(Options{Dir: dir, SegmentBytes: 256, Sync: SyncNever})
	marks := appendRounds(t, w, 0, 6)
	w.Close()
	_, segs, _ := listFiles(dir)
	if len(segs) < 3 {
		t.Fatalf("need several segments, got %d", len(segs))
	}

	// Zero-length LAST segment (crash during rotation): dropped, recovery
	// succeeds to the durable prefix.
	last := segs[len(segs)-1].path
	lastRaw, _ := os.ReadFile(last)
	if err := os.Truncate(last, 0); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatalf("zero-length tail segment must recover: %v", err)
	}
	if rec.Corruption == nil || rec.Corruption.File != last {
		t.Fatalf("dropped tail segment not reported: %+v", rec.Corruption)
	}
	checkBatches(t, rec, marks[:len(rec.Batches)])
	if err := os.WriteFile(last, lastRaw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Zero-length MIDDLE segment: hard error naming the file.
	victim := segs[1].path
	if err := os.Truncate(victim, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil || !strings.Contains(err.Error(), filepath.Base(victim)) {
		t.Fatalf("zero-length middle segment: got %v", err)
	}
}

func TestUncommittedCleanTailDiscarded(t *testing.T) {
	// Events flushed to disk but no round marker (crash between flush and
	// commit): the events are discarded even though every byte is valid.
	dir := t.TempDir()
	w, _, _ := Open(Options{Dir: dir, Sync: SyncAlways})
	marks := appendRounds(t, w, 0, 2)
	for _, ev := range sampleEvents()[:3] {
		if err := w.AppendEvent(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, rec, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer w2.Close()
	if rec.TailEvents != 3 {
		t.Fatalf("TailEvents = %d, want 3", rec.TailEvents)
	}
	checkBatches(t, rec, marks)
	if rec.LastRound != marks[len(marks)-1].Round {
		t.Fatalf("LastRound = %d, want %d", rec.LastRound, marks[len(marks)-1].Round)
	}
}

func TestSnapshotRetentionAndPruning(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 256, Sync: SyncNever, RetainSnapshots: 2})
	if err != nil {
		t.Fatal(err)
	}
	var allMarks []RoundMark
	for i := 0; i < 4; i++ {
		allMarks = append(allMarks, appendRounds(t, w, int64(2*i), 2)...)
		if err := w.WriteSnapshot(int64(2*i+2), []byte{byte('a' + i)}); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
	w.Close()

	snaps, segs, err := listFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("retained %d snapshots, want 2", len(snaps))
	}
	// Segments wholly covered by the oldest retained snapshot are gone,
	// so the oldest snapshot must still have a contiguous tail after it.
	if segs[0].lsn > snaps[0].lsn+1 {
		t.Fatalf("pruning cut past the oldest retained snapshot: first seg LSN %d, snap LSN %d", segs[0].lsn, snaps[0].lsn)
	}

	newest, err := Recover(dir)
	if err != nil {
		t.Fatalf("recover newest: %v", err)
	}
	if !bytes.Equal(newest.Snapshot, []byte{'d'}) || newest.SnapshotRound != 8 {
		t.Fatalf("newest snapshot wrong: %q round %d", newest.Snapshot, newest.SnapshotRound)
	}
	if len(newest.Batches) != 0 {
		t.Fatalf("nothing to replay after the final snapshot, got %d batches", len(newest.Batches))
	}

	oldest, err := RecoverOldest(dir)
	if err != nil {
		t.Fatalf("recover oldest: %v", err)
	}
	if !bytes.Equal(oldest.Snapshot, []byte{'c'}) || oldest.SnapshotRound != 6 {
		t.Fatalf("oldest snapshot wrong: %q round %d", oldest.Snapshot, oldest.SnapshotRound)
	}
	checkBatches(t, oldest, allMarks[6:])
}

func TestCorruptNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := Open(Options{Dir: dir, RetainSnapshots: 4, Sync: SyncAlways})
	if err := w.WriteSnapshot(0, []byte("good-old")); err != nil {
		t.Fatal(err)
	}
	marks := appendRounds(t, w, 0, 2)
	if err := w.WriteSnapshot(2, []byte("bad-new")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	snaps, _, _ := listFiles(dir)
	raw, _ := os.ReadFile(snaps[len(snaps)-1].path)
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(snaps[len(snaps)-1].path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if !bytes.Equal(rec.Snapshot, []byte("good-old")) {
		t.Fatalf("did not fall back to older snapshot: %q", rec.Snapshot)
	}
	if len(rec.SkippedSnapshots) != 1 {
		t.Fatalf("skipped snapshots not reported: %v", rec.SkippedSnapshots)
	}
	checkBatches(t, rec, marks)
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := Open(Options{Dir: dir})
	appendRounds(t, w, 0, 1)
	state := bytes.Repeat([]byte{0xab, 0x00, 0x7f}, 100)
	if err := w.WriteSnapshot(1, state); err != nil {
		t.Fatal(err)
	}
	w.Close()
	snaps, _, _ := listFiles(dir)
	lsn, round, got, err := readSnapshot(snaps[len(snaps)-1].path)
	if err != nil {
		t.Fatalf("readSnapshot: %v", err)
	}
	if round != 1 || lsn != snaps[len(snaps)-1].lsn || !bytes.Equal(got, state) {
		t.Fatalf("snapshot mismatch: lsn=%d round=%d len=%d", lsn, round, len(got))
	}
}

// TestLargeSnapshotRecovers: a snapshot is not a record, so the 16 MiB cap
// on a record's payload does not bound it; a 17 MiB state written by
// WriteSnapshot comes back from Recover byte for byte.
func TestLargeSnapshotRecovers(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendRounds(t, w, 0, 1)
	state := bytes.Repeat([]byte{0x5a, 0x01, 0xc3, 0x00}, 17<<18)
	if err := w.WriteSnapshot(1, state); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatalf("recovering a %d-byte snapshot: %v", len(state), err)
	}
	if rec.SnapshotRound != 1 || !bytes.Equal(rec.Snapshot, state) {
		t.Fatalf("recovered snapshot of round %d, %d bytes; want round 1, %d bytes", rec.SnapshotRound, len(rec.Snapshot), len(state))
	}
}
