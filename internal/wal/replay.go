package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/wire"
)

// Batch is one committed step of the log: the events applied between two
// round markers (possibly none) and the marker that committed them.
type Batch struct {
	Events []wire.Event
	Mark   RoundMark
}

// Corruption describes a CRC or framing failure at the tail of the log
// that recovery resolved by falling back to the durable prefix. It is
// reported, never silent.
type Corruption struct {
	File   string
	Offset int64
	Reason string
}

func (c *Corruption) String() string {
	return fmt.Sprintf("%s@%d: %s", c.File, c.Offset, c.Reason)
}

// Recovery is the result of scanning a log directory: the newest valid
// snapshot and the committed batches after it. Trailing event records
// without a closing round marker (a crash mid-step) are not replayed;
// TailEvents counts them.
type Recovery struct {
	// SnapshotLSN / SnapshotRound / Snapshot describe the chosen snapshot;
	// Snapshot is nil when the directory holds no log yet.
	SnapshotLSN   int64
	SnapshotRound int64
	Snapshot      []byte

	// Batches are the committed steps after the snapshot, in order.
	Batches []Batch

	// LastLSN is the LSN of the last committed record; LastRound the round
	// of the last committed marker (SnapshotRound when no batch follows).
	LastLSN   int64
	LastRound int64

	// TailEvents counts uncommitted trailing event records discarded;
	// TruncatedBytes how many tail bytes were (or, read-only, would be)
	// dropped; Corruption is non-nil when the tail ended in a CRC/framing
	// failure rather than a clean cut.
	TailEvents     int
	TruncatedBytes int64
	Corruption     *Corruption

	// SkippedSnapshots names snapshot files that failed validation and
	// were ignored in favor of an older one.
	SkippedSnapshots []string

	tailSegment  string
	tailFirstLSN int64
}

// HasState reports whether the directory holds a recoverable log.
func (r *Recovery) HasState() bool { return r.Snapshot != nil }

// Recover scans dir read-only: nothing is truncated or deleted, so it is
// safe against a live writer's directory only if that writer is paused.
// Use Open to recover and continue appending.
func Recover(dir string) (*Recovery, error) {
	return scan(dir, false, false)
}

// RecoverOldest is Recover but replays from the oldest retained snapshot
// instead of the newest — the longest reproducible trace the directory
// still holds (cmd/lbreplay's default).
func RecoverOldest(dir string) (*Recovery, error) {
	return scan(dir, false, true)
}

type fileEntry struct {
	path string
	lsn  int64
}

func listFiles(dir string) (snaps, segs []fileEntry, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			lsn, perr := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 16, 64)
			if perr != nil {
				return nil, nil, fmt.Errorf("wal: malformed segment name %s", name)
			}
			segs = append(segs, fileEntry{path: filepath.Join(dir, name), lsn: lsn})
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			lsn, perr := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 16, 64)
			if perr != nil {
				return nil, nil, fmt.Errorf("wal: malformed snapshot name %s", name)
			}
			snaps = append(snaps, fileEntry{path: filepath.Join(dir, name), lsn: lsn})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].lsn < snaps[j].lsn })
	sort.Slice(segs, func(i, j int) bool { return segs[i].lsn < segs[j].lsn })
	return snaps, segs, nil
}

// readSnapshot validates and decodes one snapshot file.
func readSnapshot(path string) (lsn, round int64, state []byte, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(raw) < len(snapMagic)+1+4 || string(raw[:len(snapMagic)]) != snapMagic {
		return 0, 0, nil, fmt.Errorf("%w: %s: bad snapshot magic", ErrCorrupt, path)
	}
	body, crcB := raw[len(snapMagic):len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(crcB) {
		return 0, 0, nil, fmt.Errorf("%w: %s: snapshot crc mismatch", ErrCorrupt, path)
	}
	if body[0] != snapVer {
		return 0, 0, nil, fmt.Errorf("%w: %s: unsupported snapshot version %d", ErrCorrupt, path, body[0])
	}
	r := wire.NewReader(body[1:])
	lsn, round = r.Varint(), r.Varint()
	n := r.Count()
	if r.Err() != nil {
		return 0, 0, nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, r.Err())
	}
	if state = r.Rest(); len(state) != n {
		return 0, 0, nil, fmt.Errorf("%w: %s: snapshot state length %d != declared %d", ErrCorrupt, path, len(state), n)
	}
	return lsn, round, state, nil
}

// segHeader parses a segment file header, returning the first record LSN
// and the header length.
func segHeader(raw []byte) (firstLSN int64, hdrLen int, err error) {
	if len(raw) < len(segMagic)+1 || string(raw[:len(segMagic)]) != segMagic {
		return 0, 0, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	if raw[len(segMagic)] != segVer {
		return 0, 0, fmt.Errorf("%w: unsupported segment version %d", ErrCorrupt, raw[len(segMagic)])
	}
	v, n := binary.Varint(raw[len(segMagic)+1:])
	if n <= 0 || v < 1 {
		return 0, 0, fmt.Errorf("%w: bad segment header LSN", ErrCorrupt)
	}
	return v, len(segMagic) + 1 + n, nil
}

// errTipBehindSnapshot reports that the durable tip of the segment chain
// ends before the chosen snapshot's LSN — the log was cut (externally)
// behind a snapshot that claims to cover more. Recovery retries with the
// next older snapshot.
var errTipBehindSnapshot = errors.New("log ends before snapshot LSN")

// scan walks the directory: it picks a snapshot (newest valid, or oldest
// when preferOldest), verifies the segment chain is contiguous and covers
// everything after the snapshot, decodes committed batches, and resolves
// the tail. With truncate set, the torn/uncommitted tail is physically cut
// back to the last committed record so a writer can continue appending.
//
// A snapshot that fails validation — or whose LSN the durable chain no
// longer reaches — is skipped in favor of the next older one (reported via
// SkippedSnapshots), so a damaged newest snapshot never takes down a
// recovery an older baseline can still carry.
//
// Corruption at the tail of the LAST segment falls back to the durable
// prefix (reported via Recovery.Corruption); corruption anywhere else is a
// hard error naming the file and byte offset — recovery never silently
// diverges.
func scan(dir string, truncate, preferOldest bool) (*Recovery, error) {
	snaps, segs, err := listFiles(dir)
	if err != nil {
		return nil, err
	}

	order := make([]fileEntry, len(snaps))
	copy(order, snaps)
	if !preferOldest {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	var skipped []string
	idx := 0
	for {
		rec := &Recovery{}
		for ; idx < len(order); idx++ {
			s := order[idx]
			lsn, round, state, serr := readSnapshot(s.path)
			if serr != nil {
				skipped = append(skipped, serr.Error())
				continue
			}
			if lsn != s.lsn {
				skipped = append(skipped,
					fmt.Sprintf("%s: embedded LSN %d != filename LSN %d", s.path, lsn, s.lsn))
				continue
			}
			rec.SnapshotLSN, rec.SnapshotRound, rec.Snapshot = lsn, round, state
			idx++
			break
		}
		rec.SkippedSnapshots = skipped

		if len(segs) == 0 {
			if rec.HasState() || len(snaps) > 0 {
				return nil, fmt.Errorf("wal: %s holds snapshots but no segments", dir)
			}
			return rec, nil
		}
		if len(snaps) > 0 && !rec.HasState() {
			return nil, fmt.Errorf("wal: %s: no valid snapshot (%s)", dir, strings.Join(skipped, "; "))
		}

		err := scanSegments(rec, truncate, segs)
		if errors.Is(err, errTipBehindSnapshot) && idx < len(order) {
			// Truncation side effects (tail cut, headerless-tail removal)
			// are snapshot-independent, so retrying after them is safe.
			skipped = append(skipped, fmt.Sprintf("snap-%016x.snap: %v", rec.SnapshotLSN, err))
			continue
		}
		if err != nil {
			return nil, err
		}
		return rec, nil
	}
}

// scanSegments decodes the segment chain into rec, whose snapshot fields
// must already be set.
func scanSegments(rec *Recovery, truncate bool, segs []fileEntry) error {
	rec.LastLSN = rec.SnapshotLSN
	rec.LastRound = rec.SnapshotRound

	// Drop segments wholly covered by the snapshot (their batches are
	// baked into the state already); the remaining chain must start at or
	// before SnapshotLSN+1 and be contiguous.
	start := 0
	for start+1 < len(segs) && segs[start+1].lsn <= rec.SnapshotLSN+1 {
		start++
	}
	segs = segs[start:]
	if segs[0].lsn > rec.SnapshotLSN+1 {
		return fmt.Errorf("wal: gap between snapshot LSN %d and first segment %s (first LSN %d)",
			rec.SnapshotLSN, segs[0].path, segs[0].lsn)
	}

	lsn := segs[0].lsn - 1
	var pending []wire.Event
	for si, seg := range segs {
		last := si == len(segs)-1
		raw, rerr := os.ReadFile(seg.path)
		if rerr != nil {
			return rerr
		}
		// commitEnd/commitLSN track the byte/LSN position after the last
		// committed (round-marker) record in this segment, the truncation
		// target when the tail must be cut.
		tail := func(off int64, reason string, hard bool) error {
			if hard || !last {
				return fmt.Errorf("wal: %s at byte %d: %s", seg.path, off, reason)
			}
			if reason != "clean end of log" {
				rec.Corruption = &Corruption{File: seg.path, Offset: off, Reason: reason}
			}
			return nil
		}
		firstLSN, hdrLen, herr := segHeader(raw)
		if herr != nil {
			if !last {
				return fmt.Errorf("wal: %s at byte 0: %v (zero-length or headerless non-tail segment)", seg.path, herr)
			}
			// A tail segment that never got a full header (crash during
			// rotation) holds no records; drop it entirely.
			rec.Corruption = &Corruption{File: seg.path, Offset: 0, Reason: herr.Error()}
			rec.TruncatedBytes += int64(len(raw))
			if truncate {
				if err := os.Remove(seg.path); err != nil {
					return err
				}
			}
			break
		}
		if firstLSN != seg.lsn || firstLSN != lsn+1 {
			return fmt.Errorf("wal: %s: segment header LSN %d breaks chain (want %d)", seg.path, firstLSN, lsn+1)
		}
		commitEnd := int64(hdrLen)
		commitLSN := lsn
		off := int64(hdrLen)
		for off < int64(len(raw)) {
			typ, payload, size, derr := DecodeRecord(raw[off:])
			if derr != nil {
				reason := derr.Error()
				if errors.Is(derr, errShort) {
					reason = fmt.Sprintf("torn record (%d trailing bytes)", int64(len(raw))-off)
				}
				if terr := tail(off, reason, false); terr != nil {
					return terr
				}
				break
			}
			lsn++
			switch typ {
			case RecordEvent:
				if lsn > rec.SnapshotLSN {
					ev, eerr := DecodeEvent(payload)
					if eerr != nil {
						lsn--
						if terr := tail(off, eerr.Error(), false); terr != nil {
							return terr
						}
						off = int64(len(raw)) // stop this segment
						continue
					}
					pending = append(pending, ev)
				}
			case RecordRound:
				m, merr := DecodeRoundMark(payload)
				if merr != nil {
					lsn--
					if terr := tail(off, merr.Error(), false); terr != nil {
						return terr
					}
					off = int64(len(raw))
					continue
				}
				if lsn > rec.SnapshotLSN {
					rec.Batches = append(rec.Batches, Batch{Events: pending, Mark: m})
					pending = nil
					rec.LastRound = m.Round
				}
				commitEnd = off + int64(size)
				commitLSN = lsn
			}
			if off != int64(len(raw)) {
				off += int64(size)
			}
		}
		if rec.Corruption != nil || off > int64(len(raw)) || commitLSN < lsn || off < int64(len(raw)) {
			// The segment did not end cleanly at a committed record: cut
			// back to the last commit point. Uncommitted events (pending)
			// are discarded.
			rec.TailEvents = len(pending)
			pending = nil
			rec.TruncatedBytes += int64(len(raw)) - commitEnd
			lsn = commitLSN
			if truncate && int64(len(raw)) > commitEnd {
				if err := os.Truncate(seg.path, commitEnd); err != nil {
					return err
				}
			}
			rec.tailSegment = seg.path
			rec.tailFirstLSN = firstLSN
			if !last {
				return fmt.Errorf("wal: %s ended mid-batch but later segments exist", seg.path)
			}
			break
		}
		rec.tailSegment = seg.path
		rec.tailFirstLSN = firstLSN
	}
	rec.LastLSN = lsn
	if rec.LastLSN < rec.SnapshotLSN {
		return fmt.Errorf("wal: %w: durable tip LSN %d, snapshot LSN %d", errTipBehindSnapshot, rec.LastLSN, rec.SnapshotLSN)
	}
	return nil
}
