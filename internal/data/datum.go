package data

import (
	"encoding/binary"
	"fmt"
	"math"

	"scaffe/internal/layers"
	"scaffe/internal/lmdb"
)

// This file wires the functional LMDB store (package lmdb) into the
// training data plane: samples serialize to a Datum-like binary
// record, datasets can be materialized into a store file, and a
// StoreDataset reads them back — so real-compute training can run off
// an actual on-disk database, exactly as Caffe does.

const datumMagic = uint32(0x5343_4446) // "SCDF"

// EncodeSample serializes a sample: magic, label, element count, then
// little-endian float32s.
func EncodeSample(s Sample) []byte {
	buf := make([]byte, 12+4*len(s.Image))
	binary.LittleEndian.PutUint32(buf[0:], datumMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(s.Label))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(s.Image)))
	for i, v := range s.Image {
		binary.LittleEndian.PutUint32(buf[12+4*i:], math.Float32bits(v))
	}
	return buf
}

// DecodeSample parses an encoded sample record.
func DecodeSample(b []byte) (Sample, error) {
	if len(b) < 12 {
		return Sample{}, fmt.Errorf("data: datum too short (%d bytes)", len(b))
	}
	if binary.LittleEndian.Uint32(b[0:]) != datumMagic {
		return Sample{}, fmt.Errorf("data: bad datum magic")
	}
	label := int(binary.LittleEndian.Uint32(b[4:]))
	n := int(binary.LittleEndian.Uint32(b[8:]))
	if len(b) != 12+4*n {
		return Sample{}, fmt.Errorf("data: datum length %d does not match %d elements", len(b), n)
	}
	img := make([]float32, n)
	for i := range img {
		img[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[12+4*i:]))
	}
	return Sample{Image: img, Label: label}, nil
}

// datumKey formats the cursor-ordered key of sample i (Caffe's
// zero-padded convention).
func datumKey(i int) string { return fmt.Sprintf("%08d", i) }

// BuildStore materializes the first n samples of ds into an LMDB-style
// store file at path.
func BuildStore(path string, ds Dataset, n int) error {
	if n > ds.Len() {
		n = ds.Len()
	}
	w, err := lmdb.Create(path)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := w.Put([]byte(datumKey(i)), EncodeSample(ds.At(i))); err != nil {
			w.Close()
			return fmt.Errorf("data: store sample %d: %w", i, err)
		}
	}
	return w.Close()
}

// StoreDataset is a Dataset reading samples from an on-disk store. It
// is safe for concurrent At calls (the underlying reader uses ReadAt).
type StoreDataset struct {
	name    string
	r       *lmdb.Reader
	shape   layers.Shape
	classes int
}

// OpenStore opens a store built by BuildStore.
func OpenStore(path string, shape layers.Shape, classes int) (*StoreDataset, error) {
	r, err := lmdb.Open(path)
	if err != nil {
		return nil, err
	}
	return &StoreDataset{name: "lmdb:" + path, r: r, shape: shape, classes: classes}, nil
}

// Name implements Dataset.
func (d *StoreDataset) Name() string { return d.name }

// Len implements Dataset.
func (d *StoreDataset) Len() int { return d.r.Len() }

// Shape implements Dataset.
func (d *StoreDataset) Shape() layers.Shape { return d.shape }

// Classes implements Dataset.
func (d *StoreDataset) Classes() int { return d.classes }

// At implements Dataset. Decode failures panic: a corrupt training
// database is not recoverable mid-run (Caffe aborts likewise).
func (d *StoreDataset) At(i int) Sample {
	raw, err := d.r.Get(d.r.KeyAt(i))
	if err != nil {
		panic(fmt.Sprintf("data: store read %d: %v", i, err))
	}
	s, err := DecodeSample(raw)
	if err != nil {
		panic(fmt.Sprintf("data: store decode %d: %v", i, err))
	}
	return s
}

// Close releases the store file.
func (d *StoreDataset) Close() error { return d.r.Close() }
