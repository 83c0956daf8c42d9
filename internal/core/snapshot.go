package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
)

// Snapshotting: the root solver periodically serializes its packed
// parameter vector, like Caffe's solver snapshots, so long trainings
// can resume. The format is a small binary container with a CRC-free
// but length-checked layout (corruption surfaces as a decode error).
// It carries the packed momentum vector, so a resumed run continues
// bit-identically to one that never stopped.

var snapshotMagic = []byte("SCAFFESNAP2\n")

// Snapshot is a serialized solver state.
type Snapshot struct {
	// Model is the model name the snapshot belongs to.
	Model string
	// Iteration is the 0-based iteration after which it was taken.
	Iteration int
	// Params is the packed parameter vector.
	Params []float32
	// History is the packed momentum vector (same length and order as
	// Params). Empty means cold momentum: a solver that never stepped.
	History []float32
}

// WriteSnapshot saves a snapshot to path. The write is crash-safe: it
// goes to a temporary file in the same directory and renames into
// place, so an interrupted write can never leave a truncated
// .scaffemodel behind — path either holds its previous content or the
// complete new snapshot.
func WriteSnapshot(path string, s *Snapshot) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	w := bufio.NewWriter(f)
	w.Write(snapshotMagic)
	writeU32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		w.Write(b[:])
	}
	writeU32(uint32(len(s.Model)))
	w.WriteString(s.Model)
	writeU32(uint32(s.Iteration))
	writeU32(uint32(len(s.Params)))
	for _, v := range s.Params {
		writeU32(math.Float32bits(v))
	}
	writeU32(uint32(len(s.History)))
	for _, v := range s.History {
		writeU32(math.Float32bits(v))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: snapshot flush: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: snapshot rename: %w", err)
	}
	return nil
}

// ReadSnapshot loads a snapshot from path.
func ReadSnapshot(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	return decodeSnapshot(path, raw)
}

// decodeSnapshot parses snapshot bytes. Every length is validated
// before the corresponding allocation, so arbitrarily corrupt input
// yields an error, never a panic or an absurd allocation (the fuzz
// target drives this directly).
func decodeSnapshot(path string, raw []byte) (*Snapshot, error) {
	if !bytes.HasPrefix(raw, snapshotMagic) {
		return nil, fmt.Errorf("core: %s is not a snapshot file", path)
	}
	p := len(snapshotMagic)
	readU32 := func() (uint32, error) {
		if p+4 > len(raw) {
			return 0, fmt.Errorf("core: snapshot %s truncated", path)
		}
		v := binary.LittleEndian.Uint32(raw[p:])
		p += 4
		return v, nil
	}
	nameLen, err := readU32()
	if err != nil {
		return nil, err
	}
	if int(nameLen) > len(raw)-p {
		return nil, fmt.Errorf("core: snapshot %s truncated in name", path)
	}
	s := &Snapshot{Model: string(raw[p : p+int(nameLen)])}
	p += int(nameLen)
	iter, err := readU32()
	if err != nil {
		return nil, err
	}
	s.Iteration = int(iter)
	readVector := func(what string, wantRest bool) ([]float32, error) {
		count, err := readU32()
		if err != nil {
			return nil, err
		}
		rest := (len(raw) - p) / 4
		if int(count) > rest || (len(raw)-p)%4 != 0 {
			return nil, fmt.Errorf("core: snapshot %s truncated in %s", path, what)
		}
		if wantRest && int(count) != rest {
			return nil, fmt.Errorf("core: snapshot %s has %d trailing bytes", path, len(raw)-p-4*int(count))
		}
		vec := make([]float32, count)
		for i := range vec {
			vec[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[p:]))
			p += 4
		}
		return vec, nil
	}
	if s.Params, err = readVector("params", false); err != nil {
		return nil, err
	}
	if s.History, err = readVector("history", true); err != nil {
		return nil, err
	}
	if n := len(s.History); n != 0 && n != len(s.Params) {
		return nil, fmt.Errorf("core: snapshot %s history length %d != params %d", path, n, len(s.Params))
	}
	return s, nil
}

// snapshotPath formats the per-iteration snapshot filename, following
// Caffe's prefix_iter_N convention.
func snapshotPath(prefix string, iter int) string {
	return fmt.Sprintf("%s_iter_%d.scaffemodel", prefix, iter+1)
}
