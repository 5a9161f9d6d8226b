package durability

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeJournal builds a journal with one snapshot and n appended steps.
func writeJournal(t *testing.T, dir, id string, spec, snap []byte, tick uint64, n int) *Journal {
	t.Helper()
	j, err := Open(dir, id)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := j.WriteSnapshot(spec, snap, tick); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := j.Append(tick+uint64(i), float64(i)*0.5); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	return j
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := []byte(`{"name":"rt"}`)
	snap := []byte("DCSPSNAP-not-really-but-opaque-here")
	j := writeJournal(t, dir, "abc123", spec, snap, 7, 5)
	defer j.Close()

	st, err := Load(dir, "abc123")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(st.Spec, spec) || !bytes.Equal(st.Snapshot, snap) {
		t.Fatal("spec/snapshot bytes did not round-trip")
	}
	if st.Tick != 7 || len(st.Steps) != 5 || st.TornTail {
		t.Fatalf("state = tick %d, %d steps, torn %v", st.Tick, len(st.Steps), st.TornTail)
	}
	for i, s := range st.Steps {
		if s.Seq != 7+uint64(i) || s.Demand != float64(i)*0.5 {
			t.Fatalf("step %d = %+v", i, s)
		}
	}

	ids, err := List(dir)
	if err != nil || len(ids) != 1 || ids[0] != "abc123" {
		t.Fatalf("List = %v, %v", ids, err)
	}
}

func TestSnapshotTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	j := writeJournal(t, dir, "s1", []byte(`{}`), []byte("v1"), 0, 10)
	defer j.Close()
	if err := j.WriteSnapshot([]byte(`{}`), []byte("v2"), 10); err != nil {
		t.Fatalf("second WriteSnapshot: %v", err)
	}
	st, err := Load(dir, "s1")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if st.Tick != 10 || len(st.Steps) != 0 || !bytes.Equal(st.Snapshot, []byte("v2")) {
		t.Fatalf("after truncating snapshot: tick %d, %d steps", st.Tick, len(st.Steps))
	}
}

// TestTornTail simulates kill -9 mid-append: a partial final record must be
// detected and dropped, keeping every complete record before it.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	j := writeJournal(t, dir, "torn", []byte(`{}`), []byte("s"), 0, 4)
	defer j.Close()
	f, err := os.OpenFile(filepath.Join(dir, "torn.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := Load(dir, "torn")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(st.Steps) != 4 || !st.TornTail {
		t.Fatalf("torn tail: %d steps, torn %v", len(st.Steps), st.TornTail)
	}
}

// TestBitFlip flips one byte in a mid-log record: the CRC must catch it and
// truncate from the damaged record on.
func TestBitFlip(t *testing.T) {
	dir := t.TempDir()
	j := writeJournal(t, dir, "flip", []byte(`{}`), []byte("s"), 0, 6)
	defer j.Close()
	path := filepath.Join(dir, "flip.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[2*stepRecSize+9] ^= 0x40 // corrupt record 2's demand
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Load(dir, "flip")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(st.Steps) != 2 || !st.TornTail {
		t.Fatalf("bit flip: %d steps, torn %v (want 2, true)", len(st.Steps), st.TornTail)
	}
}

// TestStaleRecordsSkipped covers the crash window between snapshot rename and
// log truncate: records older than the checkpoint are skipped, newer ones
// replay.
func TestStaleRecordsSkipped(t *testing.T) {
	dir := t.TempDir()
	j := writeJournal(t, dir, "stale", []byte(`{}`), []byte("s"), 0, 8)
	// Snapshot at tick 5 without the log truncate a crash would have skipped.
	// Emulate by rewriting only the snap file via a second journal whose
	// truncate we undo: simplest is to write records 0..7, snapshot at 5,
	// then re-append the surviving tail 5..7 as a crashed truncate would not
	// have happened — instead, append post-snapshot records and verify both
	// generations coexist.
	if err := j.WriteSnapshot([]byte(`{}`), []byte("s5"), 5); err != nil {
		t.Fatal(err)
	}
	// Log now truncated; write the stale generation back by hand, then the
	// live one, to model the un-truncated crash layout.
	for i := 0; i < 8; i++ {
		if err := j.Append(uint64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	st, err := Load(dir, "stale")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if st.Tick != 5 || len(st.Steps) != 3 {
		t.Fatalf("stale skip: tick %d, %d steps (want 5, 3)", st.Tick, len(st.Steps))
	}
	if st.Steps[0].Seq != 5 || st.Steps[2].Seq != 7 {
		t.Fatalf("replay range = [%d, %d]", st.Steps[0].Seq, st.Steps[2].Seq)
	}
}

func TestCorruptSnapshots(t *testing.T) {
	dir := t.TempDir()
	j := writeJournal(t, dir, "c1", []byte(`{"name":"x"}`), []byte("snapbytes"), 3, 2)
	j.Close()
	path := filepath.Join(dir, "c1.snap")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"short":       good[:10],
		"bad magic":   append([]byte("NOTMAGIC"), good[8:]...),
		"bad crc":     append(append([]byte{}, good[:len(good)-1]...), good[len(good)-1]^1),
		"bad version": append(append([]byte{}, good[:8]...), append([]byte{99, 0}, good[10:]...)...),
	}
	for name, raw := range cases {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir, "c1"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Load err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestRemoveAndQuarantine(t *testing.T) {
	dir := t.TempDir()
	j := writeJournal(t, dir, "gone", []byte(`{}`), []byte("s"), 0, 1)
	if err := j.Remove(); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if ids, _ := List(dir); len(ids) != 0 {
		t.Fatalf("List after Remove = %v", ids)
	}

	j2 := writeJournal(t, dir, "quar", []byte(`{}`), []byte("s"), 0, 1)
	j2.Close()
	if err := Quarantine(dir, "quar"); err != nil {
		t.Fatalf("Quarantine: %v", err)
	}
	if ids, _ := List(dir); len(ids) != 0 {
		t.Fatalf("List after Quarantine = %v", ids)
	}
	if _, err := os.Stat(filepath.Join(dir, "quar.snap.corrupt")); err != nil {
		t.Fatalf("quarantined snap missing: %v", err)
	}
}

func TestBadIDsRejected(t *testing.T) {
	for _, id := range []string{"", "../evil", "a/b", "a.snap", "x y"} {
		if _, err := Open(t.TempDir(), id); err == nil {
			t.Errorf("Open accepted id %q", id)
		}
	}
}

func TestListIgnoresTempAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a.snap.tmp123", "b.snap.corrupt", "c.log", "noise"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j := writeJournal(t, dir, "real", []byte(`{}`), []byte("s"), 0, 0)
	j.Close()
	ids, err := List(dir)
	if err != nil || len(ids) != 1 || ids[0] != "real" {
		t.Fatalf("List = %v, %v", ids, err)
	}
}

func TestListMissingDir(t *testing.T) {
	ids, err := List(filepath.Join(t.TempDir(), "does-not-exist"))
	if err != nil || ids != nil {
		t.Fatalf("List missing dir = %v, %v", ids, err)
	}
}

// appendDeltas appends n distinct delta frames to the journal's chain.
func appendDeltas(t *testing.T, j *Journal, n int) [][]byte {
	t.Helper()
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = bytes.Repeat([]byte{byte('A' + i)}, 10+i)
		if err := j.AppendDelta(frames[i]); err != nil {
			t.Fatalf("AppendDelta %d: %v", i, err)
		}
	}
	return frames
}

func TestDeltaChainRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := writeJournal(t, dir, "dc", []byte(`{}`), []byte("base"), 0, 6)
	frames := appendDeltas(t, j, 3)
	j.Close()

	st, err := Load(dir, "dc")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(st.Deltas) != 3 || st.TornDelta {
		t.Fatalf("chain = %d frames, torn %v", len(st.Deltas), st.TornDelta)
	}
	for i, f := range frames {
		if !bytes.Equal(st.Deltas[i], f) {
			t.Fatalf("frame %d did not round-trip", i)
		}
	}
	// The log and base are independent of the chain.
	if len(st.Steps) != 6 || !bytes.Equal(st.Snapshot, []byte("base")) {
		t.Fatalf("steps %d, snapshot %q", len(st.Steps), st.Snapshot)
	}
}

// TestDeltaTornTail simulates kill -9 mid-AppendDelta: the partial final
// frame is dropped and flagged, the frames before it survive, and the base
// snapshot and step log are untouched.
func TestDeltaTornTail(t *testing.T) {
	dir := t.TempDir()
	j := writeJournal(t, dir, "dtorn", []byte(`{}`), []byte("base"), 0, 4)
	frames := appendDeltas(t, j, 2)
	// A frame header promising more bytes than follow.
	f, err := os.OpenFile(filepath.Join(dir, "dtorn.delta"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 0, 0, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	j.Close()

	st, err := Load(dir, "dtorn")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(st.Deltas) != 2 || !st.TornDelta {
		t.Fatalf("torn chain = %d frames, torn %v", len(st.Deltas), st.TornDelta)
	}
	if !bytes.Equal(st.Deltas[1], frames[1]) {
		t.Fatal("surviving frame damaged by the tear")
	}
	if !bytes.Equal(st.Snapshot, []byte("base")) || len(st.Steps) != 4 || st.TornTail {
		t.Fatalf("tear leaked into base/log: steps %d, torn log %v", len(st.Steps), st.TornTail)
	}
}

// TestDeltaBitFlip corrupts a mid-chain payload byte: the frame CRC must
// catch it and truncate the chain from that frame on.
func TestDeltaBitFlip(t *testing.T) {
	dir := t.TempDir()
	j := writeJournal(t, dir, "dflip", []byte(`{}`), []byte("base"), 0, 0)
	appendDeltas(t, j, 3)
	j.Close()
	path := filepath.Join(dir, "dflip.delta")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Frame 0 is 4+10+4 bytes; flip a payload byte of frame 1.
	raw[18+4+3] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Load(dir, "dflip")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(st.Deltas) != 1 || !st.TornDelta {
		t.Fatalf("bit flip: %d frames, torn %v (want 1, true)", len(st.Deltas), st.TornDelta)
	}
}

// TestSnapshotTruncatesDeltas checks a full base rewrite supersedes the
// chain, whether the chain file is open on this journal or left over from a
// previous process.
func TestSnapshotTruncatesDeltas(t *testing.T) {
	dir := t.TempDir()
	j := writeJournal(t, dir, "dt", []byte(`{}`), []byte("v1"), 0, 0)
	appendDeltas(t, j, 2)
	if err := j.WriteSnapshot([]byte(`{}`), []byte("v2"), 10); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	j.Close()
	st, err := Load(dir, "dt")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(st.Deltas) != 0 || !bytes.Equal(st.Snapshot, []byte("v2")) {
		t.Fatalf("chain survived rewrite: %d frames", len(st.Deltas))
	}

	// Reopen (as recovery does) without touching the chain, then rewrite:
	// the stale on-disk chain must go even though this journal never opened
	// it.
	j2 := writeJournal(t, dir, "dt2", []byte(`{}`), []byte("v1"), 0, 0)
	appendDeltas(t, j2, 2)
	j2.Close()
	j3, err := Open(dir, "dt2")
	if err != nil {
		t.Fatal(err)
	}
	if err := j3.WriteSnapshot([]byte(`{}`), []byte("v2"), 5); err != nil {
		t.Fatalf("WriteSnapshot after reopen: %v", err)
	}
	j3.Close()
	st, err = Load(dir, "dt2")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(st.Deltas) != 0 {
		t.Fatalf("stale chain survived reopened rewrite: %d frames", len(st.Deltas))
	}
}

// TestQuarantineDeltas checks the chain-only quarantine sets aside just the
// .delta file: the base snapshot and log keep recovering.
func TestQuarantineDeltas(t *testing.T) {
	dir := t.TempDir()
	j := writeJournal(t, dir, "dq", []byte(`{}`), []byte("base"), 0, 3)
	appendDeltas(t, j, 2)
	j.Close()
	if err := QuarantineDeltas(dir, "dq"); err != nil {
		t.Fatalf("QuarantineDeltas: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "dq.delta.corrupt")); err != nil {
		t.Fatalf("quarantined chain missing: %v", err)
	}
	st, err := Load(dir, "dq")
	if err != nil {
		t.Fatalf("Load after quarantine: %v", err)
	}
	if len(st.Deltas) != 0 || len(st.Steps) != 3 || !bytes.Equal(st.Snapshot, []byte("base")) {
		t.Fatalf("quarantine touched the base: %d frames, %d steps", len(st.Deltas), len(st.Steps))
	}
	// Quarantining a session with no chain is a no-op, not an error.
	if err := QuarantineDeltas(dir, "missing"); err != nil {
		t.Fatalf("QuarantineDeltas on missing chain: %v", err)
	}
}

// TestRemoveDeletesDeltas checks Remove leaves no chain file behind.
func TestRemoveDeletesDeltas(t *testing.T) {
	dir := t.TempDir()
	j := writeJournal(t, dir, "drm", []byte(`{}`), []byte("s"), 0, 1)
	appendDeltas(t, j, 1)
	if err := j.Remove(); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "drm.delta")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("chain file survived Remove: %v", err)
	}
}

// deltaFrame frames one delta payload as the chain file holds it.
func deltaFrame(payload []byte) []byte {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// deltaChainSeeds are chain files FuzzDeltaChain starts from and
// TestLoadDecodesDeltaChain loads: a well-formed chain, a torn tail, a
// hostile length and an empty file.
func deltaChainSeeds() [][]byte {
	good := append(deltaFrame([]byte("delta-one")), deltaFrame([]byte("delta-two"))...)
	return [][]byte{good, good[:len(good)-3], append(good, 0xFF, 0xFF, 0xFF, 0x7F), {}}
}

// TestLoadDecodesDeltaChain writes each seed chain beside a snapshot and
// requires Load to return exactly the frames and torn flag decodeDeltas
// returns for the same bytes, so FuzzDeltaChain can fuzz the decoder in
// memory.
func TestLoadDecodesDeltaChain(t *testing.T) {
	for i, raw := range deltaChainSeeds() {
		dir := t.TempDir()
		j := writeJournal(t, dir, "dc", []byte(`{}`), []byte("s"), 0, 0)
		j.Close()
		if err := os.WriteFile(filepath.Join(dir, "dc.delta"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Load(dir, "dc")
		if err != nil {
			t.Fatalf("seed %d: Load: %v", i, err)
		}
		frames, torn := decodeDeltas(raw)
		if !reflect.DeepEqual(st.Deltas, frames) || st.TornDelta != torn {
			t.Fatalf("seed %d: Load returned %q torn %v, decodeDeltas %q torn %v", i, st.Deltas, st.TornDelta, frames, torn)
		}
	}
}

// FuzzDeltaChain throws arbitrary bytes at the chain decoder. It must never
// panic, every frame it returns must be non-empty, and the returned frames,
// framed again, must be a prefix of the input; an untorn chain is all of
// it. Load hands the file's bytes to the same decoder
// (TestLoadDecodesDeltaChain).
func FuzzDeltaChain(f *testing.F) {
	for _, raw := range deltaChainSeeds() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		frames, torn := decodeDeltas(raw)
		var framed []byte
		for i, fr := range frames {
			if len(fr) == 0 {
				t.Fatalf("frame %d empty", i)
			}
			framed = append(framed, deltaFrame(fr)...)
		}
		if !bytes.HasPrefix(raw, framed) {
			t.Fatalf("%d frames are not a prefix of the %d-byte chain", len(frames), len(raw))
		}
		if !torn && len(framed) != len(raw) {
			t.Fatalf("untorn chain decoded %d of %d bytes", len(framed), len(raw))
		}
	})
}

// encodeRecords builds a raw log image by hand for fuzz seeding.
func encodeRecords(tick uint64, demands []float64) []byte {
	var buf []byte
	for i, d := range demands {
		var rec [stepRecSize]byte
		binary.LittleEndian.PutUint64(rec[0:], tick+uint64(i))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(d))
		binary.LittleEndian.PutUint32(rec[16:], crc32.ChecksumIEEE(rec[:16]))
		buf = append(buf, rec[:]...)
	}
	return buf
}

// FuzzJournalReplay throws arbitrary bytes at both halves of the journal
// codec. Whatever the corruption — torn tails, bit flips, truncation,
// hostile length fields — Load must never panic, never allocate absurdly,
// and any steps it does return must be contiguous from the checkpoint tick.
func FuzzJournalReplay(f *testing.F) {
	// Seed with a valid checkpoint and log so mutations explore near-valid
	// space.
	dir := f.TempDir()
	j, err := Open(dir, "seed")
	if err != nil {
		f.Fatal(err)
	}
	if err := j.WriteSnapshot([]byte(`{"name":"fuzz"}`), []byte("enginebytes"), 3); err != nil {
		f.Fatal(err)
	}
	j.Close()
	goodSnap, err := os.ReadFile(filepath.Join(dir, "seed.snap"))
	if err != nil {
		f.Fatal(err)
	}
	goodLog := encodeRecords(3, []float64{1, 1.5, 2})
	f.Add(goodSnap, goodLog)
	f.Add(goodSnap, goodLog[:len(goodLog)-7]) // torn tail
	f.Add(goodSnap[:12], []byte{})            // truncated checkpoint
	f.Add([]byte{}, goodLog)
	f.Add(goodSnap, append(encodeRecords(0, []float64{9, 9, 9}), goodLog...)) // stale prefix

	f.Fuzz(func(t *testing.T, snapRaw, logRaw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "f.snap"), snapRaw, 0o644); err != nil {
			t.Skip()
		}
		if err := os.WriteFile(filepath.Join(dir, "f.log"), logRaw, 0o644); err != nil {
			t.Skip()
		}
		st, err := Load(dir, "f")
		if err != nil {
			return // rejected is fine; panicking is not
		}
		next := st.Tick
		for _, s := range st.Steps {
			if s.Seq != next {
				t.Fatalf("non-contiguous replay: step seq %d, want %d", s.Seq, next)
			}
			next++
		}
		if len(st.Steps) > len(logRaw)/stepRecSize {
			t.Fatalf("%d steps from a %d-byte log", len(st.Steps), len(logRaw))
		}
	})
}
