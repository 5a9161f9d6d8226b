// Package durability gives control-plane sessions a crash-tolerant
// write-ahead journal. Each session owns up to three files under a state
// directory:
//
//   - <id>.snap — the most recent full checkpoint, written atomically (temp
//     file + rename): the scenario spec that rebuilds the plant, the engine's
//     DCSPSNAP snapshot bytes, and the tick the snapshot was taken at, all
//     under one CRC32 trailer.
//   - <id>.log — an append-only, CRC-framed record of every tick applied
//     since that snapshot: fixed 20-byte records of (seq, demand, crc).
//   - <id>.delta — an append-only chain of length-prefixed, CRC-framed delta
//     checkpoints (opaque to this package; the serving layer writes the sim
//     codec's DCSPDELT frames) taken between full snapshot rewrites. Folding
//     the chain onto the base snapshot fast-forwards recovery past most of
//     the log without the byte cost of rewriting a full snapshot every time.
//
// Recovery restores the snapshot, folds the delta chain, and replays the
// remaining log through the deterministic engine, producing a session
// bit-identical to one that never crashed. A process killed mid-append leaves
// a torn tail; Load detects it by length and CRC and truncates it — the ticks
// before the tear are intact, and the serving layer's reply-after-journal
// ordering guarantees no acknowledged tick is ever behind the tear. A torn
// delta tail costs nothing but recovery speed: the log still carries every
// tick since the base, so the fold simply stops earlier and the replay covers
// the rest.
//
// Durability target: unclean process death (kill -9). Every append is a
// write(2) into the page cache, which survives the process; the snapshot file
// is fsynced before rename, so even a machine crash loses at most the ticks
// since the last checkpoint.
package durability

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	// snapMagic identifies a session checkpoint file.
	snapMagic = "DCSPSESS"
	// snapVersion is the checkpoint codec version; decoders reject others.
	snapVersion uint16 = 1
	// snapHeaderLen is magic + version + tick.
	snapHeaderLen = len(snapMagic) + 2 + 8
	// stepRecSize is one log record: u64 seq + f64 demand + u32 crc.
	stepRecSize = 20

	// maxSpecLen bounds the spec blob a decoder will allocate for (matches
	// the service layer's request-body cap).
	maxSpecLen = 64 << 20
	// maxSnapLen bounds the engine snapshot blob (a year-long run's snapshot
	// is well under this).
	maxSnapLen = 256 << 20

	snapSuffix  = ".snap"
	logSuffix   = ".log"
	deltaSuffix = ".delta"
	// corruptSuffix marks quarantined files so a failed restore is not
	// retried on every start.
	corruptSuffix = ".corrupt"

	// deltaFrameOverhead is the per-frame cost in the delta chain: a u32
	// length prefix and a u32 CRC32 trailer around the opaque payload.
	deltaFrameOverhead = 8
)

// ErrCorrupt reports a checkpoint file that cannot be trusted: bad magic,
// unknown version, CRC mismatch, or impossible lengths.
var ErrCorrupt = errors.New("durability: corrupt checkpoint")

// Step is one journaled tick: the zero-based tick index it produced and the
// demand it was stepped with.
type Step struct {
	Seq    uint64
	Demand float64
}

// State is everything recovered for one session: the checkpoint plus the
// ticks to replay on top of it.
type State struct {
	ID       string
	Spec     []byte // scenario spec, JSON
	Snapshot []byte // engine DCSPSNAP bytes
	Tick     uint64 // engine tick at the snapshot
	Steps    []Step // contiguous from Tick; replay in order
	// Deltas is the delta-checkpoint chain appended since the snapshot, in
	// append order, payloads verified against their frame CRCs but otherwise
	// opaque — the caller folds them onto Snapshot (sim.ApplyDelta) to
	// fast-forward past the log records the chain already covers.
	Deltas [][]byte
	// TornTail reports that a torn or corrupt log tail was discarded — an
	// expected artifact of unclean death, not an error.
	TornTail bool
	// TornDelta reports that a torn or corrupt delta-chain tail was
	// discarded. The frames before the tear are intact and usable; the log
	// replay covers whatever the truncated chain no longer does, so this too
	// is an artifact of unclean death, not data loss.
	TornDelta bool
}

// Journal is one session's durable state writer. It is not safe for
// concurrent use; the serving layer confines it to the session goroutine.
type Journal struct {
	dir, id string
	log     *os.File
	// delta is the chain file, opened lazily on the first AppendDelta so
	// sessions that never write a delta checkpoint never create the file.
	delta *os.File
	buf   [stepRecSize]byte
}

func snapPath(dir, id string) string  { return filepath.Join(dir, id+snapSuffix) }
func logPath(dir, id string) string   { return filepath.Join(dir, id+logSuffix) }
func deltaPath(dir, id string) string { return filepath.Join(dir, id+deltaSuffix) }

// validID rejects ids that could escape the state directory or collide with
// the journal's own suffixes.
func validID(id string) error {
	if id == "" {
		return errors.New("durability: empty session id")
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-':
		default:
			return fmt.Errorf("durability: session id %q has unsafe byte %q", id, c)
		}
	}
	return nil
}

// Open creates (or reopens, after recovery) the journal for a session,
// creating the state directory if needed. The log is opened for append; the
// caller is expected to write a snapshot before the first Append so recovery
// always has a base to replay from.
func Open(dir, id string) (*Journal, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(logPath(dir, id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{dir: dir, id: id, log: f}, nil
}

// WriteSnapshot atomically replaces the session's checkpoint and truncates
// the step log. Crash ordering is safe in both windows: before the rename the
// old snapshot + full log still recover, and between rename and truncate the
// new snapshot simply skips the stale records (Load drops seq < Tick).
func (j *Journal) WriteSnapshot(spec, snap []byte, tick uint64) error {
	if len(spec) > maxSpecLen || len(snap) > maxSnapLen {
		return fmt.Errorf("durability: snapshot blobs too large (%d spec, %d snap)", len(spec), len(snap))
	}
	buf := make([]byte, 0, snapHeaderLen+8+len(spec)+len(snap)+8)
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, snapVersion)
	buf = binary.LittleEndian.AppendUint64(buf, tick)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(spec)))
	buf = append(buf, spec...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(snap)))
	buf = append(buf, snap...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))

	tmp, err := os.CreateTemp(j.dir, j.id+snapSuffix+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, snapPath(j.dir, j.id)); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := j.log.Truncate(0); err != nil {
		return err
	}
	// The new base supersedes the whole delta chain. A crash before this
	// truncate is safe: stale frames are keyed (by the sim codec's base CRC
	// and tick) against the superseded base, so the caller's fold rejects
	// them and recovery falls back to the new base plus log replay.
	if j.delta != nil {
		return j.delta.Truncate(0)
	}
	if err := os.Remove(deltaPath(j.dir, j.id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// AppendDelta appends one delta checkpoint to the session's chain file,
// framed as (u32 length, payload, u32 CRC32). The payload is opaque — the
// serving layer hands in sim DCSPDELT frames keyed against the previous
// checkpoint. Like Append, the frame is a single write(2), so an unclean
// death tears at most the final frame; Load truncates the tear and the log
// replay covers the difference.
func (j *Journal) AppendDelta(frame []byte) error {
	if len(frame) == 0 || len(frame) > maxSnapLen {
		return fmt.Errorf("durability: %d-byte delta frame", len(frame))
	}
	if j.delta == nil {
		f, err := os.OpenFile(deltaPath(j.dir, j.id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		j.delta = f
	}
	buf := make([]byte, 0, deltaFrameOverhead+len(frame))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(frame)))
	buf = append(buf, frame...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(frame))
	_, err := j.delta.Write(buf)
	return err
}

// Append journals one applied tick. The record is a single write(2), so an
// unclean death can tear at most the final record — never reorder or
// interleave earlier ones.
func (j *Journal) Append(seq uint64, demand float64) error {
	b := j.buf[:]
	binary.LittleEndian.PutUint64(b[0:], seq)
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(demand))
	binary.LittleEndian.PutUint32(b[16:], crc32.ChecksumIEEE(b[:16]))
	_, err := j.log.Write(b)
	return err
}

// Sync flushes the step log and delta chain to stable storage. The serving
// layer calls it only at quiet points; per-tick appends rely on the page
// cache surviving process death.
func (j *Journal) Sync() error {
	err := j.log.Sync()
	if j.delta != nil {
		if e := j.delta.Sync(); err == nil {
			err = e
		}
	}
	return err
}

// Close releases the journal's file handles, leaving the files on disk for
// recovery.
func (j *Journal) Close() error {
	err := j.log.Close()
	if j.delta != nil {
		if e := j.delta.Close(); err == nil {
			err = e
		}
		j.delta = nil
	}
	return err
}

// Remove deletes the session's durable state — the session finished (or was
// evicted) and must not be resurrected on the next start.
func (j *Journal) Remove() error {
	err := j.Close()
	for _, p := range []string{snapPath(j.dir, j.id), logPath(j.dir, j.id), deltaPath(j.dir, j.id)} {
		if e := os.Remove(p); e != nil && !errors.Is(e, os.ErrNotExist) && err == nil {
			err = e
		}
	}
	return err
}

// List returns the session ids with a checkpoint under dir, sorted, skipping
// temp and quarantined files. A missing directory is an empty journal, not an
// error.
func List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		ids = append(ids, strings.TrimSuffix(name, snapSuffix))
	}
	sort.Strings(ids)
	return ids, nil
}

// Load reads one session's durable state: the checkpoint (strictly verified —
// any corruption is ErrCorrupt) and the step log (leniently verified — a torn
// or corrupt tail is truncated and flagged, because that is what an unclean
// death legitimately leaves behind).
func Load(dir, id string) (*State, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(snapPath(dir, id))
	if err != nil {
		return nil, err
	}
	st := &State{ID: id}
	if err := decodeSnap(raw, st); err != nil {
		return nil, err
	}
	logRaw, err := os.ReadFile(logPath(dir, id))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	st.Steps, st.TornTail = decodeLog(logRaw, st.Tick)
	deltaRaw, err := os.ReadFile(deltaPath(dir, id))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	st.Deltas, st.TornDelta = decodeDeltas(deltaRaw)
	return st, nil
}

// decodeSnap verifies and unpacks a checkpoint blob into st.
func decodeSnap(raw []byte, st *State) error {
	if len(raw) < snapHeaderLen+4+4+4 {
		return fmt.Errorf("%w: %d-byte checkpoint", ErrCorrupt, len(raw))
	}
	if string(raw[:len(snapMagic)]) != snapMagic {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return fmt.Errorf("%w: checksum %08x != %08x", ErrCorrupt, got, want)
	}
	if v := binary.LittleEndian.Uint16(raw[len(snapMagic):]); v != snapVersion {
		return fmt.Errorf("%w: version %d (have %d)", ErrCorrupt, v, snapVersion)
	}
	st.Tick = binary.LittleEndian.Uint64(raw[len(snapMagic)+2:])
	rest := body[snapHeaderLen:]
	specLen := int(binary.LittleEndian.Uint32(rest))
	if specLen > maxSpecLen || len(rest) < 4+specLen+4 {
		return fmt.Errorf("%w: spec length %d", ErrCorrupt, specLen)
	}
	st.Spec = append([]byte(nil), rest[4:4+specLen]...)
	rest = rest[4+specLen:]
	snapLen := int(binary.LittleEndian.Uint32(rest))
	if snapLen > maxSnapLen || len(rest) != 4+snapLen {
		return fmt.Errorf("%w: snapshot length %d with %d bytes left", ErrCorrupt, snapLen, len(rest)-4)
	}
	st.Snapshot = append([]byte(nil), rest[4:4+snapLen]...)
	return nil
}

// decodeLog unpacks step records. Records with seq below the checkpoint tick
// are stale leftovers from a crash between snapshot rename and log truncate
// and are skipped; the first short, corrupt, or out-of-sequence record
// truncates the log there.
func decodeLog(raw []byte, tick uint64) (steps []Step, torn bool) {
	next := tick
	for off := 0; off < len(raw); off += stepRecSize {
		if off+stepRecSize > len(raw) {
			return steps, true // torn final record
		}
		rec := raw[off : off+stepRecSize]
		if binary.LittleEndian.Uint32(rec[16:]) != crc32.ChecksumIEEE(rec[:16]) {
			return steps, true
		}
		seq := binary.LittleEndian.Uint64(rec[0:])
		if len(steps) == 0 && seq < tick {
			continue // pre-snapshot leftover
		}
		if seq != next {
			return steps, true // gap: nothing after it can be trusted
		}
		steps = append(steps, Step{Seq: seq, Demand: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))})
		next++
	}
	return steps, false
}

// decodeDeltas unpacks the delta chain. The first frame with a short or
// impossible length, a short payload, or a CRC mismatch truncates the chain
// there — everything before it is intact and usable.
func decodeDeltas(raw []byte) (frames [][]byte, torn bool) {
	for off := 0; off < len(raw); {
		if off+4 > len(raw) {
			return frames, true
		}
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		if n <= 0 || n > maxSnapLen || off+4+n+4 > len(raw) {
			return frames, true
		}
		payload := raw[off+4 : off+4+n]
		if binary.LittleEndian.Uint32(raw[off+4+n:]) != crc32.ChecksumIEEE(payload) {
			return frames, true
		}
		frames = append(frames, append([]byte(nil), payload...))
		off += 4 + n + 4
	}
	return frames, false
}

// Quarantine renames a session's files out of the recovery scan so one
// corrupt journal is diagnosed once instead of failing every restart. Missing
// files are ignored.
func Quarantine(dir, id string) error {
	if err := validID(id); err != nil {
		return err
	}
	var first error
	for _, p := range []string{snapPath(dir, id), logPath(dir, id), deltaPath(dir, id)} {
		if err := os.Rename(p, p+corruptSuffix); err != nil && !errors.Is(err, os.ErrNotExist) && first == nil {
			first = err
		}
	}
	return first
}

// QuarantineDeltas renames only the session's delta chain out of the
// recovery scan, leaving the base snapshot and step log untouched. Used when
// the chain cannot be folded (torn tail, base mismatch after a crash between
// snapshot rename and chain truncate): the base + log still recover every
// acked tick, so only the accelerator is set aside for diagnosis.
func QuarantineDeltas(dir, id string) error {
	if err := validID(id); err != nil {
		return err
	}
	p := deltaPath(dir, id)
	if err := os.Rename(p, p+corruptSuffix); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}
