package coll

import (
	"testing"

	"scaffe/internal/gpu"
)

// TestViewsAreReadOffByPosition pins the view memo of payload buffers: a
// call that asks for the views an earlier call on the same buffer asked
// for, in the same order, gets the same views back without making any;
// buffers are told apart by identity whatever order calls come in; and a
// call that asks for something else at some point gets a correct fresh
// view there, the old one left as it was.
func TestViewsAreReadOffByPosition(t *testing.T) {
	var tab stateTable
	a, b := gpu.NewDataBuffer(25), gpu.NewDataBuffer(25)
	for i := range a.Data {
		a.Data[i] = float32(i)
	}
	extents := [][2]int{{0, 10}, {10, 20}, {20, 25}}
	call := func(buf *gpu.Buffer, ext [][2]int) []*gpu.Buffer {
		st := tab.acquire(4, 2)
		var vs []*gpu.Buffer
		for _, e := range ext {
			vs = append(vs, st.view(buf, e[0], e[1]))
		}
		return vs
	}
	first := call(a, extents)
	for i, v := range first {
		lo, hi := extents[i][0], extents[i][1]
		if v.Elems() != hi-lo || &v.Data[0] != &a.Data[lo] {
			t.Fatalf("view %d of a: %d elems starting at %v, want [%d,%d) of a", i, v.Elems(), v.Data[0], lo, hi)
		}
	}
	onB := call(b, extents)
	if onB[0] == first[0] || onB[1].Bytes != 40 || &onB[1].Data[0] != &b.Data[10] {
		t.Fatalf("views of the other buffer b: %+v", onB[1])
	}
	st := &tab.sts[2]
	made := st.carved - len(st.block)
	for round := 0; round < 3; round++ {
		for _, buf := range []*gpu.Buffer{b, a, a, b} {
			want := first
			if buf == b {
				want = onB
			}
			for i, v := range call(buf, extents) {
				if v != want[i] {
					t.Fatalf("round %d: view %d came back as another object", round, i)
				}
			}
		}
	}
	if now := st.carved - len(st.block); now != made || len(st.bufs) != 2 {
		t.Errorf("repeat calls made %d more views over %d buffers; want 0 over 2", now-made, len(st.bufs))
	}

	changed := call(a, [][2]int{{0, 10}, {10, 15}, {20, 25}})
	if changed[0] != first[0] || changed[2] != first[2] {
		t.Error("a call that differs at one position lost the views at the others")
	}
	if changed[1] == first[1] || changed[1].Elems() != 5 || &changed[1].Data[0] != &a.Data[10] {
		t.Errorf("the differing position returned %+v", changed[1])
	}
	if first[1].Elems() != 10 {
		t.Error("a view already handed out was rewritten")
	}
}

// TestScratchIsFoundByShape: a released payload scratch buffer serves the
// next request of its size and no other.
func TestScratchIsFoundByShape(t *testing.T) {
	var tab stateTable
	st := tab.acquire(1, 0)
	data, other, small := gpu.NewDataBuffer(64), gpu.NewDataBuffer(32), gpu.NewDataBuffer(4)
	s1, s2, s3 := st.getScratch(data), st.getScratch(other), st.getScratch(small)
	if len(s1.Data) != 64 || len(s2.Data) != 32 || s2.Bytes != 128 || s3.Bytes != 16 {
		t.Fatalf("fresh scratch has the wrong shape: %+v %+v %+v", s1, s2, s3)
	}
	st.putScratch(s1)
	st.putScratch(s2)
	st.putScratch(s3)
	if got := st.getScratch(other); got != s2 {
		t.Error("a request of 128 bytes did not get the free buffer of that size")
	}
	if got := st.getScratch(data); got != s1 {
		t.Error("a request of 256 bytes did not get the free buffer of that size")
	}
	if got := st.getScratch(gpu.NewDataBuffer(8)); got == s3 || len(got.Data) != 8 {
		t.Error("a request no free buffer fits must allocate")
	}
	if len(st.scratch) != 1 || st.scratch[0] != s3 {
		t.Errorf("free list holds %d buffers, want only the 16-byte one", len(st.scratch))
	}
}

// TestPayloadFreeBuffersAreSharedBySize: a payload-free view or scratch
// buffer is the table's one descriptor of its size — the same object for
// every rank and every call, whatever buffer it is of, views and scratch
// alike — and it never goes on a free list.
func TestPayloadFreeBuffersAreSharedBySize(t *testing.T) {
	var tab stateTable
	const ranks = 4
	bufs := []*gpu.Buffer{gpu.NewBuffer(100), gpu.NewBuffer(100), gpu.NewBuffer(40)}
	want := map[int64]*gpu.Buffer{}
	check := func(got *gpu.Buffer, bytes int64) {
		t.Helper()
		if got.Bytes != bytes || got.Data != nil {
			t.Fatalf("descriptor %+v, want %d payload-free bytes", got, bytes)
		}
		if w := want[bytes]; w == nil {
			want[bytes] = got
		} else if got != w {
			t.Fatalf("a second descriptor of %d bytes", bytes)
		}
	}
	for call := 0; call < 3; call++ {
		for r := 0; r < ranks; r++ {
			st := tab.acquire(ranks, r)
			for _, buf := range bufs {
				for _, e := range [][2]int{{0, 10}, {10, 20}, {20, 25}, {0, buf.Elems()}} {
					if e[1] > buf.Elems() {
						continue
					}
					v := st.view(buf, e[0], e[1])
					check(v, int64(e[1]-e[0])*4)
					s := st.getScratch(v)
					check(s, v.Bytes)
					st.putScratch(s)
					check(st.getScratch(buf), buf.Bytes)
				}
				if len(st.scratch) != 0 || len(st.bufs) != 0 {
					t.Fatalf("rank %d keeps %d free scratch buffers and views of %d buffers, want none", r, len(st.scratch), len(st.bufs))
				}
			}
		}
	}
	if len(tab.sizes) != len(want) {
		t.Errorf("the table holds %d descriptors, %d sizes were asked for", len(tab.sizes), len(want))
	}
}
