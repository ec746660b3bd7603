// Package indexbad exercises the indexdiscipline pass: dense position
// arrays indexed by slot ids, slot-id arrays indexed by loop positions, and
// blessed uses (active-list iteration, aIdx translation, ch*numVCs+vc
// packing, len-bounded counters, draws below a position bound, positions
// from a position-bitmap producer) that must stay silent. Expected findings carry trailing "// WANT indexdiscipline"
// markers.
package indexbad

// BEng is the miniature batch engine under audit.
type BEng struct {
	hot    []int
	aIdx   []int32
	act    []int32
	numVCs int32
	rt     *stream
	live   []uint64
}

// stream stands in for the engine's random stream.
type stream struct{ state uint64 }

// Intn draws uniformly from [0, n).
func (s *stream) Intn(n int) int {
	s.state = s.state*6364136223846793005 + 1
	return int(s.state>>33) % n
}

// Step is the audited root.
func (b *BEng) Step() {
	for pos, id := range b.act {
		_ = pos
		b.consume(id)
	}
	b.posLoop()
	b.mixedUp()
	b.pack(3, 1)
	b.rotated(len(b.act))
	b.bitScan()
}

// consume's id parameter is blessed by name; the aIdx hop translates it to
// a position, but indexing the position array by the raw id is the bug.
func (b *BEng) consume(id int32) {
	b.hot[b.aIdx[id]]++
	b.hot[id]++ // WANT indexdiscipline
}

// posLoop's counter is a position (bounded by the position array), so the
// slot-id array must not be indexed by it.
func (b *BEng) posLoop() {
	for i := 0; i < len(b.hot); i++ {
		b.hot[i]++
		b.aIdx[i]++ // WANT indexdiscipline
	}
}

// mixedUp hands a position to a slot-id parameter.
func (b *BEng) mixedUp() {
	for pos := range b.hot {
		b.consume(int32(pos)) // WANT indexdiscipline
	}
}

// pack builds a slot id the blessed way: ch*numVCs + vc.
func (b *BEng) pack(ch, vc int32) {
	t := ch*b.numVCs + vc
	b.aIdx[t]++
}

// rotated scans the position array from a random start, wrapping once: a
// draw below len(hot) is a position, a draw below an arbitrary count is not,
// and a position still must not index the slot-id array.
func (b *BEng) rotated(n int) {
	count := len(b.hot)
	next := b.rt.Intn(count)
	for i := 0; i < count; i++ {
		pos := next
		if next++; next == count {
			next -= count
		}
		b.hot[pos]++
	}
	b.hot[b.rt.Intn(n)]++           // WANT indexdiscipline
	b.aIdx[b.rt.Intn(len(b.hot))]++ // WANT indexdiscipline
}

// nextSet returns the first set position of the live bitmap in [from, to),
// or -1: a blessed position producer.
func (b *BEng) nextSet(from, to int) int {
	for ; from < to; from++ {
		if b.live[from>>6]>>(uint(from)&63)&1 != 0 {
			return from
		}
	}
	return -1
}

// bitScan visits the positions a producer yields: they index the position
// array, never the slot-id array.
func (b *BEng) bitScan() {
	for pos := b.nextSet(0, len(b.hot)); pos >= 0; pos = b.nextSet(pos+1, len(b.hot)) {
		b.hot[pos]++
		b.aIdx[pos]++ // WANT indexdiscipline
	}
}
