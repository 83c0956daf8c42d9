package sched

import "unsafe"

// Arena reports how the nodes of a single-lane plan were carved: the
// chunks they lie in — consecutive nodes of one chunk are adjacent in
// memory — and the nodes the last chunk has left that no Add took.
func (p *Plan) Arena() (chunks, unused int) {
	var prev *Node
	for _, n := range p.lanes[0] {
		if prev == nil || unsafe.Pointer(n) != unsafe.Add(unsafe.Pointer(prev), unsafe.Sizeof(Node{})) {
			chunks++
		}
		prev = n
	}
	return chunks, cap(p.slab) - len(p.slab)
}
