package message

import "wormsim/internal/topology"

// Pool is a deterministic free list of Messages for the steady-state engine
// hot path: the network recycles a worm's Message at delivery (and at
// congestion drop), so after warmup the inject phase allocates nothing.
//
// Determinism: the free list is LIFO and touched only by the owning engine's
// goroutine, so which physical Message backs a logical worm is a pure
// function of the run's event order — and since Get fully reinitializes
// every field (via the same code path New uses, consuming identical tieBreak
// draws), recycled worms are indistinguishable from fresh ones. Results and
// traces of a run are therefore bit-identical with or without recycling,
// which TestPoolGetMatchesNew pins.
//
// Contract for callers holding *Message pointers (OnDeliver hooks, trace
// tooling): the pointer stays valid and its fields untouched until the pool
// hands the same Message out again, so copy what you need inside the
// callback rather than retaining the pointer across cycles.
type Pool struct {
	free []*Message
	// gets/reuses count lifetime traffic for diagnostics and tests.
	gets   int64
	reuses int64
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a fully initialized message, recycling a previously Put one
// when the grid's dimensionality matches (a pool shared across runs on
// different-n grids falls back to allocating).
func (p *Pool) Get(g *topology.Grid, id int64, src, dst, length int, genTime int64, tieBreak func(dim int) bool) *Message {
	p.gets++
	for n := len(p.free); n > 0; n = len(p.free) {
		m := p.free[n-1]
		p.free = p.free[:n-1]
		if len(m.Remaining) != g.N() {
			continue // wrong dimensionality; drop it and keep looking
		}
		p.reuses++
		m.reset(g, id, src, dst, length, genTime, tieBreak)
		return m
	}
	return New(g, id, src, dst, length, genTime, tieBreak)
}

// Put recycles m. The caller must guarantee no live reference uses m after
// the next Get may return it. Put does not clear fields — a delivered
// message's latency stays readable until reuse — and ignores nil.
func (p *Pool) Put(m *Message) {
	if m == nil {
		return
	}
	p.free = append(p.free, m)
}

// Stats reports lifetime Get calls and how many were served by recycling.
func (p *Pool) Stats() (gets, reuses int64) { return p.gets, p.reuses }

// Len returns the current free-list depth.
func (p *Pool) Len() int { return len(p.free) }
