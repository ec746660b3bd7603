package network

import (
	"fmt"
	"testing"

	"wormsim/internal/message"
	"wormsim/internal/routing"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

// checkInvariants scans the whole simulator state for structural
// violations. It runs inside the package so it can reach private state.
func checkInvariants(t *testing.T, n *Network) {
	t.Helper()
	// Every vc slot: counts consistent, buffers within depth.
	ownersByCh := make([]int32, len(n.owners))
	for ch := 0; ch < n.g.ChannelSlots(); ch++ {
		for class := 0; class < n.numVCs; class++ {
			id := int32(ch*n.numVCs + class)
			if n.vcMsg[id] == nil {
				if n.vcFlits[id] != 0 {
					t.Fatalf("free vc %d/%d holds %d flits", ch, class, n.vcFlits[id])
				}
				continue
			}
			ownersByCh[ch]++
			if n.vcFlits[id] < 0 || int(n.vcFlits[id]) > n.cfg.BufDepth {
				t.Fatalf("vc %d/%d flit count %d out of [0,%d]", ch, class, n.vcFlits[id], n.cfg.BufDepth)
			}
			if n.vcRecvd[id]-n.vcSent[id] != n.vcFlits[id] {
				t.Fatalf("vc %d/%d recvd %d - sent %d != flits %d", ch, class, n.vcRecvd[id], n.vcSent[id], n.vcFlits[id])
			}
			if int(n.vcRecvd[id]) > n.vcMsg[id].Len {
				t.Fatalf("vc %d/%d received %d flits of a %d-flit worm", ch, class, n.vcRecvd[id], n.vcMsg[id].Len)
			}
			ai := n.vcAIdx[id]
			if ai < 0 || int(ai) >= len(n.active) || n.active[ai] != id {
				t.Fatalf("vc %d/%d active index broken", ch, class)
			}
		}
	}
	// Owner counters agree with actual ownership.
	for ch, want := range ownersByCh {
		if n.owners[ch] != want {
			t.Fatalf("channel %d owner count %d, actual %d", ch, n.owners[ch], want)
		}
	}
	// The channel tables agree with the grid's per-call answers.
	for ch := 0; ch < n.g.ChannelSlots(); ch++ {
		up, dim, dir := n.g.ChannelInfo(ch)
		if int(n.tbl.up[ch]) != up || int(n.tbl.dim[ch]) != dim || topology.Dir(n.tbl.dir[ch]) != dir {
			t.Fatalf("channel %d table decodes (%d,%d,%d), grid says (%d,%d,%d)",
				ch, n.tbl.up[ch], n.tbl.dim[ch], n.tbl.dir[ch], up, dim, dir)
		}
		if int(n.tbl.down[ch]) != n.g.Neighbor(up, dim, dir) {
			t.Fatalf("channel %d down table %d, grid says %d", ch, n.tbl.down[ch], n.g.Neighbor(up, dim, dir))
		}
	}
	// Active list has no strays.
	for i, id := range n.active {
		if n.vcMsg[id] == nil {
			t.Fatalf("active[%d] has no message", i)
		}
		if int(n.vcAIdx[id]) != i {
			t.Fatalf("active[%d] claims index %d", i, n.vcAIdx[id])
		}
	}
	// Injection free list holds only dead injection slots.
	for _, id := range n.injFree {
		if id < n.chanVCs {
			t.Fatalf("channel vc %d on the injection free list", id)
		}
		if n.vcMsg[id] != nil {
			t.Fatalf("free injection slot %d still holds a message", id)
		}
	}
	// Injection-port counters never exceed the cap.
	if n.cfg.InjectionPorts > 0 {
		for node, c := range n.injecting {
			if c < 0 || int(c) > n.cfg.InjectionPorts {
				t.Fatalf("node %d injecting %d (cap %d)", node, c, n.cfg.InjectionPorts)
			}
		}
	}
}

// TestStateInvariantsUnderLoad steps loaded networks and validates the full
// state every cycle, for a representative algorithm mix.
func TestStateInvariantsUnderLoad(t *testing.T) {
	for _, algName := range []string{"ecube", "nlast", "2pn", "nbc", "phop"} {
		g := topology.NewTorus(6, 2)
		alg, _ := routing.Get(algName)
		wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.04, 3)
		n, err := New(Config{
			Grid: g, Algorithm: alg, Workload: wl, MsgLen: 8,
			CCLimit: 2, InjectionPorts: 2, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1500; i++ {
			if err := n.Step(); err != nil {
				t.Fatalf("%s: %v", algName, err)
			}
			checkInvariants(t, n)
		}
	}
}

// TestStateInvariantsOnMesh repeats the scan on a mesh, where boundary
// channel slots must stay untouched.
func TestStateInvariantsOnMesh(t *testing.T) {
	g := topology.NewMesh(5, 2)
	alg, _ := routing.Get("nlast")
	wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.04, 9)
	n, err := New(Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 8, CCLimit: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i++ {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, n)
		// Boundary slots never owned.
		for ch := 0; ch < g.ChannelSlots(); ch++ {
			id, dim, dir := g.ChannelInfo(ch)
			if g.HasChannel(id, dim, dir) {
				continue
			}
			for class := 0; class < n.numVCs; class++ {
				if n.vcMsg[ch*n.numVCs+class] != nil {
					t.Fatalf("boundary channel %d owned", ch)
				}
			}
		}
	}
}

// TestArbitrationFairness: two saturating streams share the same physical
// channels on different virtual channels; the rotating arbiter must give
// each a comparable share of deliveries.
func TestArbitrationFairness(t *testing.T) {
	g := topology.NewTorus(16, 2)
	alg, _ := routing.Get("phop")
	// Two sources on row 0 continuously send worms through the shared +x
	// channels of that row; phop gives them distinct VC classes at each
	// shared link (their hop counts differ by one), so they time-multiplex
	// the physical channels rather than queue behind one another.
	var cycles []int64
	var arrs []traffic.Arrival
	src0 := g.ID([]int{0, 0})
	src1 := g.ID([]int{1, 0})
	dst := g.ID([]int{7, 0})
	for i := 0; i < 60; i++ {
		cycles = append(cycles, int64(i*36), int64(i*36))
		arrs = append(arrs,
			traffic.Arrival{Src: src0, Dst: dst},
			traffic.Arrival{Src: src1, Dst: dst})
	}
	wl := traffic.NewTrace(g, "pair", cycles, arrs)
	counts := map[int]int{}
	n, err := New(Config{
		Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, Seed: 1,
		OnDeliver: func(m *message.Message) { counts[m.Src]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(wl.LastCycle() + 1); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(50000); err != nil {
		t.Fatal(err)
	}
	if counts[src0] != 60 || counts[src1] != 60 {
		t.Fatalf("deliveries per source: %v, want 60 each", counts)
	}
	// Fairness shows up as comparable mean latency for the two streams
	// rather than one stream monopolizing the channel; re-run measuring it.
	var sum [2]int64
	wl.Reseed(0)
	n2, _ := New(Config{
		Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, Seed: 1,
		OnDeliver: func(m *message.Message) {
			if m.Src == src0 {
				sum[0] += m.Latency()
			} else {
				sum[1] += m.Latency()
			}
		},
	})
	if err := n2.Run(wl.LastCycle() + 1); err != nil {
		t.Fatal(err)
	}
	if err := n2.Drain(50000); err != nil {
		t.Fatal(err)
	}
	mean0 := float64(sum[0]) / 60
	mean1 := float64(sum[1]) / 60
	ratio := mean0 / mean1
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("stream latencies %0.1f vs %0.1f: arbiter looks unfair", mean0, mean1)
	}
}

// checkBatchBookkeeping validates replica r's allocation bookkeeping: the
// unrouted bitmap mirrors out.ch == outNone over the active positions and is
// clear beyond them, the blocked stamps track the positions one for one,
// and every slot whose stamp matches its node's release count is an
// unrouted header whose candidate virtual channels are all occupied — the
// condition under which skipping its route attempt is exact. It returns
// how many stamps matched.
func checkBatchBookkeeping(t *testing.T, b *BatchNetwork, r int) int {
	t.Helper()
	rep := &b.reps[r]
	count := len(rep.active)
	if len(rep.blk) != count || len(rep.unr)*64 < count {
		t.Fatalf("replica %d: %d active positions, %d stamps, %d bitmap words", r, count, len(rep.blk), len(rep.unr))
	}
	for w, word := range rep.unr {
		for bit := 0; bit < 64; bit++ {
			pos := w*64 + bit
			set := word>>uint(bit)&1 != 0
			if pos >= count {
				if set {
					t.Fatalf("replica %d: unrouted bit %d set beyond %d active positions", r, pos, count)
				}
				continue
			}
			if want := rep.hotA[pos].out.ch == outNone; set != want {
				t.Fatalf("replica %d: position %d unrouted bit %v, out.ch %d", r, pos, set, rep.hotA[pos].out.ch)
			}
		}
	}
	matched := 0
	for pos := 0; pos < count; pos++ {
		h := rep.hotA[pos]
		if rep.blk[pos] != rep.freed[h.node]|blkSet {
			continue
		}
		matched++
		if h.out.ch != outNone {
			t.Fatalf("replica %d: routed position %d keeps a matching blocked stamp", r, pos)
		}
		node := int(h.node)
		for _, c := range b.alg.Candidates(b.g, rep.msgA[pos], node, nil) {
			ch := (node*b.nDims+c.Dim)*2 + int(c.Dir)
			if b.tbl.down[ch] < 0 {
				continue
			}
			slot := ch*b.numVCs + c.VC
			if rep.occ[slot>>6]>>(uint(slot)&63)&1 == 0 {
				t.Fatalf("replica %d: header at node %d keeps a matching stamp while candidate VC %d of channel %d is free",
					r, node, c.VC, ch)
			}
		}
	}
	return matched
}

// TestBatchBookkeepingInvariants steps saturated batches (8-ary 2-cube,
// rate 0.06, about rho 0.97) and checks the allocation bookkeeping after
// every Step, for adaptive and oblivious algorithms and a half-duplex
// config. Each replica must still end bit-identical to a scalar run.
func TestBatchBookkeepingInvariants(t *testing.T) {
	g := topology.NewTorus(8, 2)
	cases := []struct {
		alg  string
		half bool
	}{{"phop", false}, {"nbc", false}, {"ecube", false}, {"nlast", false}, {"nbc", true}}
	for _, c := range cases {
		name := c.alg
		if c.half {
			name += "/halfduplex"
		}
		t.Run(name, func(t *testing.T) {
			alg, err := routing.Get(c.alg)
			if err != nil {
				t.Fatal(err)
			}
			seeds := []uint64{5, 6, 7}
			base := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.06, seeds[0])
			wls := make([]traffic.Workload, len(seeds))
			for r, seed := range seeds {
				wls[r] = base.Replicate(seed)
			}
			bn, err := NewBatch(BatchConfig{
				Grid: g, Algorithm: alg, Workloads: wls, Seeds: seeds,
				MsgLen: 16, CCLimit: 2, InjectionPorts: 2, HalfDuplex: c.half,
			})
			if err != nil {
				t.Fatal(err)
			}
			const cycles = 1500
			matched := 0
			for i := 0; i < cycles; i++ {
				if faults := bn.Step(); faults != nil {
					t.Fatalf("unexpected watchdog fault: %+v", faults)
				}
				for r := range seeds {
					matched += checkBatchBookkeeping(t, bn, r)
				}
			}
			if matched == 0 {
				t.Error("no header ever held a matching blocked stamp: the skip path went unexercised")
			}
			for r, seed := range seeds {
				n, err := New(Config{
					Grid: g, Algorithm: alg, Workload: traffic.NewBernoulli(g, traffic.NewUniform(g), 0.06, seed),
					MsgLen: 16, CCLimit: 2, InjectionPorts: 2, HalfDuplex: c.half, Seed: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := n.Run(cycles); err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("%+v %v %v", bn.Total(r), bn.ChannelFlitCounts(r), bn.WormStatesOf(r))
				if want := fmt.Sprintf("%+v %v %v", n.Total(), n.ChannelFlitCounts(), n.WormStates()); got != want {
					t.Errorf("replica %d (seed %d) diverged from the scalar engine", r, seed)
				}
			}
		})
	}
}
