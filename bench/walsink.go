package main

import (
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/wire"
)

// walOptions are lbserve's default WAL flags (-wal-sync interval,
// -wal-sync-interval 100ms, -wal-segment 64 MiB, -wal-retain 2) with the
// registry shared with the engine.
func walOptions(dir string, reg *obs.Registry) wal.Options {
	return wal.Options{
		Dir:             dir,
		SegmentBytes:    64 << 20,
		Sync:            wal.SyncInterval,
		SyncEvery:       100 * time.Millisecond,
		RetainSnapshots: 2,
		Registry:        reg,
	}
}

// timedSink is an engine.WALSink that times every call into the writer:
// the traced runs' view of the WAL layer from outside the program.
type timedSink struct {
	w *wal.Writer

	events, rounds, snaps int64
	eventT, roundT, snapT time.Duration
	firstSnap             time.Duration // the baseline snapshot engine.New writes
}

func (s *timedSink) AppendEvent(ev *wire.Event) error {
	t0 := time.Now()
	err := s.w.AppendEvent(ev)
	s.eventT += time.Since(t0)
	s.events++
	return err
}

func (s *timedSink) AppendRound(m wal.RoundMark) error {
	t0 := time.Now()
	err := s.w.AppendRound(m)
	s.roundT += time.Since(t0)
	s.rounds++
	return err
}

func (s *timedSink) WriteSnapshot(round int64, state []byte) error {
	t0 := time.Now()
	err := s.w.WriteSnapshot(round, state)
	d := time.Since(t0)
	if s.snaps == 0 {
		s.firstSnap = d
	}
	s.snapT += d
	s.snaps++
	return err
}

// walAcc accumulates the WAL layer over traced episodes: call timings
// from timedSink, fsync counts and bytes from the WAL's own registry.
type walAcc struct {
	episodes             int64
	events, rounds       int64
	snaps                int64
	eventT, roundT       time.Duration
	snapT                time.Duration
	syncs                int64
	syncSec              float64
	bytes, eventsApplied int64
}

// add folds one traced episode in; reg is the registry the WAL wrote to
// and applied the number of events the engine applied (and logged).
func (a *walAcc) add(s *timedSink, reg *obs.Registry, applied int64) {
	a.episodes++
	a.events += s.events
	a.rounds += s.rounds
	a.snaps += s.snaps
	a.eventT += s.eventT
	a.roundT += s.roundT
	a.snapT += s.snapT
	a.syncs += reg.Counter("wal_syncs_total", "").Value()
	a.syncSec += reg.Histogram("wal_sync_seconds", "", nil).Sum()
	a.bytes += reg.Counter("wal_bytes_total", "").Value()
	a.eventsApplied += applied
}

func (a *walAcc) report(r *report) {
	if a.episodes == 0 {
		r.notApplicable("wal.append_event_ns", "wal.append_round_us", "wal.snapshot_ms",
			"wal.syncs", "wal.sync_ms", "wal.bytes_per_event")
		return
	}
	r.set("wal.append_event_ns", ratio(float64(a.eventT), float64(a.events)))
	r.set("wal.append_round_us", ratio(float64(a.roundT)/1e3, float64(a.rounds)))
	r.set("wal.snapshot_ms", ratio(float64(a.snapT)/1e6, float64(a.snaps)))
	r.set("wal.syncs", float64(a.syncs)/float64(a.episodes))
	r.set("wal.sync_ms", ratio(a.syncSec*1e3, float64(a.syncs)))
	r.set("wal.bytes_per_event", ratio(float64(a.bytes), float64(a.eventsApplied)))
	r.note("wal.syncs is per episode; wal.sync_ms, wal.append_* and wal.snapshot_ms are means per call (the baseline snapshot included)")
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
