package coll

import (
	"testing"

	"scaffe/internal/gpu"
)

// TestViewsAreReadOffByPosition pins the view memo: a call that asks for
// the views an earlier call on the same buffer asked for, in the same
// order, gets the same views back without making any; buffers are told
// apart by identity whatever order calls come in; and a call that asks
// for something else at some point gets a correct fresh view there, the
// old one left as it was.
func TestViewsAreReadOffByPosition(t *testing.T) {
	var tab stateTable
	a, b := gpu.NewDataBuffer(25), gpu.NewBuffer(100)
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
	if onB[0] == first[0] || onB[1].Bytes != 40 || onB[1].Data != nil {
		t.Fatalf("views of the payload-free buffer b: %+v", onB[1])
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

// TestScratchIsFoundByShape: a released scratch buffer serves the next
// request of its shape — size and payload both — and no other.
func TestScratchIsFoundByShape(t *testing.T) {
	var tab stateTable
	st := tab.acquire(1, 0)
	data, plain, small := gpu.NewDataBuffer(64), gpu.NewBuffer(256), gpu.NewBuffer(16)
	s1, s2, s3 := st.getScratch(data), st.getScratch(plain), st.getScratch(small)
	if s1.Data == nil || len(s1.Data) != 64 || s2.Data != nil || s2.Bytes != 256 || s3.Bytes != 16 {
		t.Fatalf("fresh scratch has the wrong shape: %+v %+v %+v", s1, s2, s3)
	}
	st.putScratch(s1)
	st.putScratch(s2)
	st.putScratch(s3)
	if got := st.getScratch(plain); got != s2 {
		t.Error("a payload-free request of 256 bytes did not get the free buffer of that shape")
	}
	if got := st.getScratch(data); got != s1 {
		t.Error("a payload request of 256 bytes did not get the free payload buffer")
	}
	if got := st.getScratch(gpu.NewBuffer(32)); got == s3 || got.Bytes != 32 {
		t.Error("a request no free buffer fits must allocate")
	}
	if len(st.scratch) != 1 || st.scratch[0] != s3 {
		t.Errorf("free list holds %d buffers, want only the 16-byte one", len(st.scratch))
	}
}
