package engine

import (
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/wal"
)

// walPair builds two identical engines on a 4x4 torus — one logging to a
// fresh WAL in dir, one bare as the uninterrupted reference — plus the
// writer so the test can control its lifecycle.
func walPair(t *testing.T, dir string, opts wal.Options, snapshotEvery int) (logged, bare *Engine, w *wal.Writer) {
	t.Helper()
	opts.Dir = dir
	w, rec, err := wal.Open(opts)
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	if rec.HasState() {
		t.Fatalf("fresh dir already holds a log")
	}
	build := func(sink WALSink) *Engine {
		g, err := graph.Torus(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		speeds := make(load.Speeds, g.N())
		for i := range speeds {
			speeds[i] = 1 + int64(i%2)
		}
		tasks, err := load.NewTokens([]int64{30, 0, 12, 5, 0, 9, 0, 0, 21, 3, 0, 7, 0, 16, 2, 0})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Graph: g, Speeds: speeds, Tasks: tasks, Workers: 2, SnapshotEvery: snapshotEvery}
		if sink != nil {
			cfg.WAL = sink
		}
		return mustEngine(t, cfg)
	}
	return build(w), build(nil), w
}

// TestRecoveryIdentityAtEveryCut is the headline property: cut the log at
// ANY batch boundary, recover, and the state hash equals the uninterrupted
// run's hash at that round. It also pins that logging itself never perturbs
// execution (WAL-on and WAL-off engines agree round by round).
func TestRecoveryIdentityAtEveryCut(t *testing.T) {
	dir := t.TempDir()
	const rounds = 30
	logged, bare, w := walPair(t, dir, wal.Options{
		Sync:            wal.SyncNever,
		SegmentBytes:    2048, // force rotations mid-history
		RetainSnapshots: 1000, // keep everything: the sweep needs the oldest
	}, 7)

	hashes := map[int64][sha256.Size]byte{logged.Round(): logged.StateHash()}
	scn := scenarioFor(t, 16)
	for r := 0; r < rounds; r++ {
		scheduleScenario(t, scn, 3, logged, bare)
		errL, errB := logged.Step(), bare.Step()
		if (errL == nil) != (errB == nil) {
			t.Fatalf("round %d: WAL changed execution: %v vs %v", r, errL, errB)
		}
		if logged.StateHash() != bare.StateHash() {
			t.Fatalf("round %d: logging perturbed the engine state", r)
		}
		hashes[logged.Round()] = logged.StateHash()
	}
	finalRound := logged.Round()
	logged.Close()
	bare.Close()
	if err := w.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}

	for _, from := range []struct {
		name    string
		recover func(string) (*wal.Recovery, error)
	}{
		{"newest", wal.Recover},
		{"oldest", wal.RecoverOldest},
	} {
		t.Run(from.name, func(t *testing.T) {
			rec, err := from.recover(dir)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if rec.Corruption != nil || rec.TailEvents != 0 {
				t.Fatalf("clean shutdown reported damage: %+v", rec)
			}
			if rec.LastRound != finalRound {
				t.Fatalf("log tip at round %d, engine finished at %d", rec.LastRound, finalRound)
			}
			// Every cut point: replay the first k committed batches only.
			for cut := 0; cut <= len(rec.Batches); cut++ {
				sub := *rec
				sub.Batches = rec.Batches[:cut]
				e, err := Restore(&sub, Config{Workers: 1})
				if err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				want, ok := hashes[e.Round()]
				if !ok {
					t.Fatalf("cut %d: recovered to round %d the live run never visited", cut, e.Round())
				}
				if e.StateHash() != want {
					t.Fatalf("cut %d (round %d): recovered state differs from the uninterrupted run", cut, e.Round())
				}
				checkTracker(t, e, "restored")
				e.Close()
			}
		})
	}
}

// copyDir clones the WAL directory so destructive crash injection can run
// against a scratch copy per offset.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestRecoveryCrashInjectionSweep simulates a crash at EVERY byte offset of
// the live segment (and a stride of bit flips): recovery must either refuse
// loudly or land exactly on a state the uninterrupted run passed through —
// never a third thing.
func TestRecoveryCrashInjectionSweep(t *testing.T) {
	dir := t.TempDir()
	logged, bare, w := walPair(t, dir, wal.Options{Sync: wal.SyncNever, RetainSnapshots: 1000}, 4)

	hashes := map[int64][sha256.Size]byte{logged.Round(): logged.StateHash()}
	scn := scenarioFor(t, 16)
	for r := 0; r < 10; r++ {
		scheduleScenario(t, scn, 2, logged, bare)
		if err := logged.Step(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if err := bare.Step(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		hashes[logged.Round()] = logged.StateHash()
	}
	logged.Close()
	bare.Close()
	if err := w.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Base(segs[0])

	// verify recovers a mutated directory and checks the recovered state is
	// one the live run actually passed through. Returns whether recovery
	// succeeded with state.
	verify := func(t *testing.T, scratch, what string) bool {
		rec, err := wal.Recover(scratch)
		if err != nil {
			return false // refused loudly — acceptable
		}
		if !rec.HasState() {
			t.Fatalf("%s: recovery without error must carry a snapshot", what)
		}
		e, err := Restore(rec, Config{Workers: 1})
		if err != nil {
			t.Fatalf("%s: scan accepted a prefix the engine rejects: %v", what, err)
		}
		defer e.Close()
		if e.Round() != rec.LastRound {
			t.Fatalf("%s: restored round %d, scan promised %d", what, e.Round(), rec.LastRound)
		}
		want, ok := hashes[e.Round()]
		if !ok {
			t.Fatalf("%s: recovered to round %d the live run never visited", what, e.Round())
		}
		if e.StateHash() != want {
			t.Fatalf("%s: recovered state differs from live run at round %d", what, e.Round())
		}
		if err := e.AuditFull(); err != nil {
			t.Fatalf("%s: recovered engine fails conservation: %v", what, err)
		}
		return true
	}

	t.Run("truncate-at-every-offset", func(t *testing.T) {
		recovered := 0
		for off := 0; off <= len(raw); off++ {
			scratch := copyDir(t, dir)
			if err := os.Truncate(filepath.Join(scratch, seg), int64(off)); err != nil {
				t.Fatal(err)
			}
			if verify(t, scratch, "cut@"+seg) {
				recovered++
			}
		}
		// Sanity: the sweep must not have refused everything — at minimum
		// the untruncated copy and every committed prefix recover.
		if recovered < len(raw)/2 {
			t.Fatalf("only %d/%d crash points recovered", recovered, len(raw)+1)
		}
	})

	t.Run("bitflip-at-offsets", func(t *testing.T) {
		for off := 0; off < len(raw); off += 5 {
			scratch := copyDir(t, dir)
			mut := append([]byte(nil), raw...)
			mut[off] ^= 1 << (off % 8)
			if err := os.WriteFile(filepath.Join(scratch, seg), mut, 0o644); err != nil {
				t.Fatal(err)
			}
			verify(t, scratch, "flip@"+seg)
		}
	})
}

// TestRecoveryAfterMidBatchRejection pins the commit semantics when a batch
// stops early: the applied prefix stays logged but uncommitted, and the
// NEXT successful round's marker commits it — replay must converge to the
// live engine's exact state.
func TestRecoveryAfterMidBatchRejection(t *testing.T) {
	dir := t.TempDir()
	logged, bare, w := walPair(t, dir, wal.Options{Sync: wal.SyncAlways}, 100)

	step := func(evs ...Event) {
		t.Helper()
		for _, e := range []*Engine{logged, bare} {
			for _, ev := range evs {
				if err := e.Schedule(ev); err != nil {
					t.Fatal(err)
				}
			}
		}
		errL, errB := logged.Step(), bare.Step()
		if (errL == nil) != (errB == nil) {
			t.Fatalf("engines disagree: %v vs %v", errL, errB)
		}
	}

	step(Arrival(0, 0, 5))
	// Valid arrival, then an arrival at a slot that was never activated:
	// the batch stops early with the valid prefix applied and logged.
	step(Arrival(1, 1, 2), Arrival(1, 99, 1))
	// The next clean step's marker commits the orphaned prefix.
	step(Completion(2, 0, 3))
	if logged.StateHash() != bare.StateHash() {
		t.Fatalf("rejection handling diverged between engines")
	}
	want := logged.StateHash()
	wantRound := logged.Round()
	logged.Close()
	bare.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	e, err := Restore(rec, Config{Workers: 1})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer e.Close()
	if e.Round() != wantRound || e.StateHash() != want {
		t.Fatalf("replay after mid-batch rejection diverged: round %d vs %d", e.Round(), wantRound)
	}
}

// TestWALPoisonOnSinkFailure: a failing sink must poison the engine (state
// and log can no longer be proven to agree), and SnapshotNow must refuse to
// baseline a poisoned state.
func TestWALPoisonOnSinkFailure(t *testing.T) {
	g, err := graph.Torus(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := load.NewTokens([]int64{4, 0, 0, 2, 0, 0, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	sink := &failingSink{}
	e := mustEngine(t, Config{
		Graph: g, Speeds: load.UniformSpeeds(g.N()), Tasks: tasks, Workers: 1, WAL: sink,
	})
	if err := e.Step(); err != nil {
		t.Fatalf("healthy sink: %v", err)
	}
	sink.fail = true
	if err := e.Schedule(Arrival(0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	err = e.Step()
	if !errors.Is(err, ErrWAL) {
		t.Fatalf("failing sink: got %v, want ErrWAL", err)
	}
	if err2 := e.Step(); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("WAL failure not latched: %v", err2)
	}
	if err := e.SnapshotNow(); err == nil {
		t.Fatalf("SnapshotNow accepted a poisoned engine")
	}
}

type failingSink struct{ fail bool }

func (s *failingSink) AppendEvent(*WireEvent) error {
	if s.fail {
		return os.ErrClosed
	}
	return nil
}
func (s *failingSink) AppendRound(wal.RoundMark) error {
	if s.fail {
		return os.ErrClosed
	}
	return nil
}
func (s *failingSink) WriteSnapshot(int64, []byte) error {
	if s.fail {
		return os.ErrClosed
	}
	return nil
}
