package core

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSnapshotRoundtripWithHistory checks the v2 write/read cycle
// preserves the full solver state, momentum included.
func TestSnapshotRoundtripWithHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rt.scaffemodel")
	want := &Snapshot{
		Model:     "tiny",
		Iteration: 41,
		Params:    []float32{1.5, -2.25, 0, float32(math.Inf(1))},
		History:   []float32{0.5, 0.25, -0.125, 4096},
	}
	if err := WriteSnapshot(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestSnapshotWriteLeavesNoTemp verifies the crash-safe write protocol:
// after a successful write only the final file exists, and rewriting an
// existing snapshot replaces it atomically.
func TestSnapshotWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.scaffemodel")
	for i := 0; i < 2; i++ {
		s := &Snapshot{Model: "tiny", Iteration: i, Params: []float32{float32(i)}}
		if err := WriteSnapshot(path, s); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "snap.scaffemodel" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory after writes = %v, want only snap.scaffemodel", names)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iteration != 1 {
		t.Errorf("snapshot iteration = %d, want the rewrite (1)", got.Iteration)
	}
}

// encodeSnapshot returns the bytes WriteSnapshot writes for s.
func encodeSnapshot(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "enc.scaffemodel")
	if err := WriteSnapshot(path, s); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSnapshotDecodeRejectsCorruption feeds decodeSnapshot a gallery of
// malformed inputs; each must error, never panic or over-allocate. A
// version-1 file (no momentum section; nothing has written one since
// version 2 existed) is one of them: it is not a snapshot file.
func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	// magic, name length, "m", iteration, 2 params, 2 history values.
	valid := encodeSnapshot(t, &Snapshot{Model: "m", Iteration: 1, Params: []float32{1, 2}, History: []float32{3, 4}})
	if _, err := decodeSnapshot("valid", valid); err != nil {
		t.Fatalf("the gallery's starting point does not decode: %v", err)
	}
	paramCount := len(snapshotMagic) + 4 + 1 + 4
	cases := map[string][]byte{
		"empty":          nil,
		"bad magic":      []byte("SCAFFESNAP9\nxxxx"),
		"version 1":      append([]byte("SCAFFESNAP1\n"), valid[len(snapshotMagic):paramCount+4+8]...),
		"magic only":     append([]byte{}, snapshotMagic...),
		"truncated name": valid[:len(snapshotMagic)+4],
		"huge name len":  append(append([]byte{}, snapshotMagic...), 0xff, 0xff, 0xff, 0xff),
		"truncated vec":  valid[:len(valid)-3],
		"no history":     valid[:paramCount+4+8],
		"trailing bytes": append(append([]byte{}, valid...), 0, 0, 0, 0),
		"huge vec count": func() []byte {
			b := append([]byte{}, valid...)
			binary.LittleEndian.PutUint32(b[paramCount:], 1<<31)
			return b
		}(),
		"history shorter than params": encodeSnapshot(t, &Snapshot{Model: "m", Params: []float32{1, 2}, History: []float32{3}}),
		"misaligned tail":             append(append([]byte{}, valid...), 1),
	}
	for name, raw := range cases {
		if _, err := decodeSnapshot(name, raw); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
}

// FuzzSnapshotDecode drives the snapshot decoder with arbitrary bytes.
// The invariants: never panic, never allocate beyond the input size,
// and any successfully decoded snapshot re-encodes byte-stably through
// WriteSnapshot + ReadSnapshot.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeSnapshot(f, &Snapshot{Model: "tiny", Iteration: 3, Params: []float32{1, -2, 0.5}})) // cold momentum
	warm := encodeSnapshot(f, &Snapshot{Model: "tiny", Iteration: 7, Params: []float32{1, 2}, History: []float32{3, 4}})
	f.Add(warm)
	f.Add(warm[:len(warm)-2])
	f.Add(append([]byte{}, snapshotMagic...))
	f.Add([]byte("SCAFFESNAP2\n\x04\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := decodeSnapshot("fuzz", raw)
		if err != nil {
			return
		}
		if len(s.Params)*4 > len(raw) || len(s.History)*4 > len(raw) {
			t.Fatalf("decoded %d params / %d history floats from %d input bytes",
				len(s.Params), len(s.History), len(raw))
		}
		path := filepath.Join(t.TempDir(), "re.scaffemodel")
		if err := WriteSnapshot(path, s); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSnapshot(path)
		if err != nil {
			t.Fatalf("re-decode of re-encoded snapshot failed: %v", err)
		}
		if back.Model != s.Model || back.Iteration != s.Iteration ||
			len(back.Params) != len(s.Params) || len(back.History) != len(s.History) {
			t.Fatalf("re-encode changed shape: %+v vs %+v", back, s)
		}
	})
}
