// Package network is the flit-level discrete-event simulator at the heart
// of the reproduction: wormhole-switched k-ary n-cubes and meshes with
// virtual channels time-multiplexed on unidirectional physical channels,
// header-driven virtual-channel allocation, credit-based flit flow control,
// injection-side congestion control and a deadlock watchdog.
//
// # Model
//
// Every physical channel carries one flit per cycle (the paper's ft = 1) and
// hosts V virtual channels, each with a small flit buffer at its receiving
// node. A message (worm) advances as a pipeline: its header allocates one
// virtual channel per hop, chosen by the routing algorithm among the
// admissible candidates that are currently free; body flits follow the
// header's path; the tail releases each virtual channel as it passes.
// Blocked worms hold their channels, which is precisely what distinguishes
// wormhole from virtual cut-through: with BufDepth >= message length a
// blocked worm instead fits entirely in one node's buffer and frees its
// upstream channels, so the same engine simulates the paper's sec. 3.4
// virtual cut-through experiment.
//
// Flits of one message are indistinguishable and FIFO, so buffers track
// counts rather than flit objects: each virtual channel records how many
// flits it currently buffers and how many it has received and forwarded in
// total. The header is "present" when one flit has been received and none
// forwarded; the tail "passes" when the forwarded count reaches the message
// length.
//
// The simulator is cycle-driven with a two-phase transfer step (decide all
// moves from start-of-cycle state, then apply), which makes a cycle
// equivalent to the event-driven simulation of the paper at ft = 1 while
// staying deterministic for a given seed.
//
// # Data layout
//
// Virtual-channel state lives in parallel struct-of-arrays slices indexed by
// a dense vc id (ch*numVCs+class for channel buffers, ids past that for
// injection slots), and the per-channel topology facts the cycle path needs
// (endpoints, direction, reverse channel, Advance inputs) are precomputed
// into flat tables at construction (see tables.go). The steady-state cycle
// allocates nothing: messages come from a free-list pool, arbitration and
// rendering use reusable scratch buffers, and every closure the hot path
// calls is created once in New.
package network

import (
	"fmt"

	"wormsim/internal/congestion"
	"wormsim/internal/forensics"
	"wormsim/internal/message"
	"wormsim/internal/rng"
	"wormsim/internal/routing"
	"wormsim/internal/telemetry"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

// Config describes one simulated network.
type Config struct {
	// Grid is the topology (required).
	Grid *topology.Grid
	// Algorithm is the wormhole routing algorithm (required).
	Algorithm routing.Algorithm
	// Policy selects among free candidate output virtual channels; nil means
	// routing.RandomPolicy.
	Policy routing.SelectionPolicy
	// Workload generates arrivals (required).
	Workload traffic.Workload
	// MsgLen is the message length in flits (paper: 16).
	MsgLen int
	// BufDepth is the per-virtual-channel flit buffer depth. The default 2
	// lets an unblocked worm sustain one flit per cycle per channel;
	// >= MsgLen yields virtual cut-through behaviour.
	BufDepth int
	// CCLimit is the congestion-control per-class message limit at each
	// source (0 disables congestion control).
	CCLimit int
	// InjectionPorts caps how many messages per node may be actively
	// injecting (holding a first-hop virtual channel) at once; queued
	// messages wait their turn. 0 means unlimited.
	InjectionPorts int
	// Seed drives direction tie-breaking and adaptive selection.
	Seed uint64
	// RouteDelay models router pipeline latency: a header that arrives at a
	// node waits this many cycles before it may bid for an output virtual
	// channel. 0 (the default, the paper's idealization) routes in the
	// arrival cycle. The paper's discussion notes adaptive routing logic
	// "could increase the node delay per hop" — this knob quantifies that
	// claim (bench A-RTD).
	RouteDelay int
	// HalfDuplex couples each pair of opposite channels into one
	// bidirectional link carrying one flit per cycle in total — the channel
	// model of Song's study that the paper's footnote 5 compares against
	// ("the use of two unidirectional channels ... results in lower
	// throughputs"). Utilization should then be normalized by half the
	// channel count (see EffectiveChannels).
	HalfDuplex bool
	// WatchdogCycles is how long the network may go without any flit
	// movement while messages are in flight before Step reports a deadlock
	// (default 20000; < 0 disables).
	WatchdogCycles int64
	// OnDeliver, if set, is called for every delivered message with the
	// delivery cycle already recorded. The *message.Message is recycled
	// after the callback returns: copy what you need, do not retain the
	// pointer across cycles.
	OnDeliver func(*message.Message)
	// OnHeaderHop, if set, is called whenever a header flit completes a hop
	// into the given node over (dim, dir) — a flight recorder for path
	// verification and visualization. Like OnDeliver, m is engine-owned and
	// valid only for the duration of the callback: copy what you need, do
	// not retain the pointer.
	OnHeaderHop func(m *message.Message, node int, dim int, dir topology.Dir)
	// Telemetry, if set, receives per-cycle metrics and sampled worm
	// lifecycle events. It must be sized for this network (telemetry.New
	// with the grid's channel slots and the algorithm's NumVCs). nil
	// disables collection at near-zero cost: every hook is a nil check.
	Telemetry *telemetry.Collector
	// Phases, if set, attributes wall-clock time to the engine's pipeline
	// stages (inject, route, eject, transfer, watchdog) — the self-profiling
	// feed behind the CLIs' -phaseprof flag and the observatory's
	// wormsim_phase_seconds_total metric. Like Telemetry, nil costs one
	// branch per hook and an attached profiler never alters results.
	Phases *telemetry.PhaseProfiler
	// Forensics, if set, receives sampled wait-for graph captures and
	// per-worm latency anatomy (forensics.New with the grid's channel
	// slots). Like Telemetry, nil costs one branch per hook, the analyzer
	// consumes no random draws, and an attached analyzer is bit-identical to
	// a detached one.
	Forensics *forensics.Analyzer
}

// outRoute is the output allocation of a routed header: the output physical
// channel (outEject for ejection at the destination, outNone while the
// header is unrouted), the virtual channel on it, and the decoded direction
// of travel. Folding "unrouted" into the channel field lets the transfer and
// eject scans classify a vc from this one record instead of also loading the
// routed flag.
type outRoute struct {
	ch  int32
	vc  int16
	dim int8
	dir int8
}

const (
	// outEject marks a routed header consuming at its destination.
	outEject = -1
	// outNone marks an unallocated output (header not yet routed).
	outNone = -2
)

// Counters is a snapshot of a measurement window.
type Counters struct {
	// Cycles covered by the window.
	Cycles int64
	// FlitMoves counts flit transfers across physical channels.
	FlitMoves int64
	// Generated, Admitted, Dropped and Delivered count messages.
	Generated int64
	Admitted  int64
	Dropped   int64
	Delivered int64
	// FlitMovesByClass breaks FlitMoves down by virtual-channel class, the
	// paper's virtual-channel load-balance observable.
	FlitMovesByClass []int64
}

// Utilization returns achieved normalized throughput: flit moves per cycle
// per physical channel (eq. (3) of the paper).
func (c Counters) Utilization(channels int) float64 {
	if c.Cycles == 0 || channels == 0 {
		return 0
	}
	return float64(c.FlitMoves) / (float64(c.Cycles) * float64(channels))
}

// Network is a running simulation. Create with New; advance with Step or
// Run.
type Network struct {
	cfg    Config
	g      *topology.Grid
	alg    routing.Algorithm
	policy routing.SelectionPolicy
	wl     traffic.Workload
	numVCs int
	nDims  int
	// msgLen mirrors cfg.MsgLen: every message has this length, so the
	// tail-passed tests compare against it without loading the message.
	msgLen  int32
	limiter *congestion.Limiter
	rt      *rng.Stream
	tel     *telemetry.Collector
	prof    *telemetry.PhaseTimer
	fore    *forensics.Analyzer
	// foreSampling caches StartCycle's verdict for the current cycle so the
	// allocation loop tests a bool instead of re-deriving the sample phase.
	foreSampling bool
	pool         *message.Pool
	// tieFn is the half-ring tie-break passed to the message pool — a method
	// value bound once here so inject closes over nothing per call.
	tieFn func(int) bool

	now        int64
	nextMsgID  int64
	inFlight   int
	lastMotion int64

	// tbl holds the per-channel topology tables (tables.go).
	tbl chanTable

	// Virtual-channel state, struct-of-arrays: index ch*numVCs+class is the
	// input buffer of that virtual channel at the channel's downstream node;
	// indices >= chanVCs are injection slots, recycled through injFree.
	// vcNode is where a buffer's flits reside (the downstream node, or the
	// source node for an injection slot); vcCh is the owning physical
	// channel (-1 for injection slots); vcFlits counts currently buffered
	// flits while vcRecvd/vcSent are lifetime totals (an injection slot
	// starts with vcFlits = message length); vcRouted marks headers with an
	// assigned output; vcReady is the earliest cycle a header may bid for an
	// output (arrival + RouteDelay); vcAIdx is the slot's position in active
	// for swap-removal.
	chanVCs  int32
	vcMsg    []*message.Message
	vcNode   []int32
	vcCh     []int32
	vcClass  []int16
	vcFlits  []int32
	vcRecvd  []int32
	vcSent   []int32
	vcRouted []bool
	vcOut    []outRoute
	vcReady  []int64
	vcAIdx   []int32

	// active lists every live vc id (owned buffers and injection slots);
	// injFree is the free list of injection-slot ids.
	active  []int32
	injFree []int32

	// Per-channel round-robin pointer and owner count (congestion score).
	rr     []uint32
	owners []int32
	// flitsByChannel counts lifetime flit transfers per physical channel
	// slot, for load-balance analysis.
	flitsByChannel []int64
	// injecting counts actively injecting messages per node (InjectionPorts
	// enforcement).
	injecting []int32

	// Scratch, reused across cycles.
	arrivals   []traffic.Arrival
	cands      []routing.Candidate
	freeCands  []routing.Candidate
	freeScores []int
	moves      []int32
	reqs       [][]int32
	touched    []int32
	// Half-duplex arbitration scratch: generation-stamped per-channel marks
	// replace the per-cycle maps a naive implementation would build. A slot
	// is valid only when its generation equals revGen, so clearing is one
	// counter increment.
	revGen     uint32
	chMoverGen []uint32
	chDropGen  []uint32
	// Worm-state rendering scratch (snapshot.go).
	wormRefs []wormRef
	wormSort wormRefSort

	// window holds the live counters; base accumulates closed windows.
	// Lifetime totals are base+window, materialized in Total, so the hot
	// path increments each counter once instead of twice.
	window Counters
	base   Counters
}

// New validates cfg and builds the network.
func New(cfg Config) (*Network, error) {
	if cfg.Grid == nil || cfg.Algorithm == nil || cfg.Workload == nil {
		return nil, fmt.Errorf("network: Grid, Algorithm and Workload are required")
	}
	if err := cfg.Algorithm.Compatible(cfg.Grid); err != nil {
		return nil, err
	}
	if cfg.MsgLen <= 0 {
		cfg.MsgLen = 16
	}
	if cfg.BufDepth == 0 {
		cfg.BufDepth = 2
	}
	if cfg.BufDepth < 1 {
		return nil, fmt.Errorf("network: BufDepth %d must be >= 1", cfg.BufDepth)
	}
	if cfg.WatchdogCycles == 0 {
		cfg.WatchdogCycles = 20000
	}
	if cfg.Policy == nil {
		cfg.Policy = routing.RandomPolicy{}
	}
	g := cfg.Grid
	n := &Network{
		cfg:     cfg,
		g:       g,
		alg:     cfg.Algorithm,
		policy:  cfg.Policy,
		wl:      cfg.Workload,
		numVCs:  cfg.Algorithm.NumVCs(g),
		nDims:   g.N(),
		msgLen:  int32(cfg.MsgLen),
		limiter: congestion.NewLimiter(g.Nodes(), cfg.CCLimit),
		rt:      rng.NewStream(cfg.Seed, 0x90f7),
		tel:     cfg.Telemetry,
		prof:    cfg.Phases.Timer(),
		fore:    cfg.Forensics,
		pool:    message.NewPool(),
	}
	n.tieFn = n.tieBreak
	slots := g.ChannelSlots()
	if n.tel != nil {
		if chs, classes := n.tel.Dims(); chs != slots || classes != n.numVCs {
			return nil, fmt.Errorf("network: telemetry collector sized for %d channels / %d classes, need %d / %d",
				chs, classes, slots, n.numVCs)
		}
	}
	if n.fore != nil {
		if chs := n.fore.Channels(); chs != slots {
			return nil, fmt.Errorf("network: forensics analyzer sized for %d channels, need %d", chs, slots)
		}
	}
	n.tbl = buildChanTable(g)
	n.chanVCs = int32(slots * n.numVCs)
	size := int(n.chanVCs)
	n.vcMsg = make([]*message.Message, size)
	n.vcNode = make([]int32, size)
	n.vcCh = make([]int32, size)
	n.vcClass = make([]int16, size)
	n.vcFlits = make([]int32, size)
	n.vcRecvd = make([]int32, size)
	n.vcSent = make([]int32, size)
	n.vcRouted = make([]bool, size)
	n.vcOut = make([]outRoute, size)
	n.vcReady = make([]int64, size)
	n.vcAIdx = make([]int32, size)
	for ch := 0; ch < slots; ch++ {
		for class := 0; class < n.numVCs; class++ {
			id := ch*n.numVCs + class
			n.vcCh[id] = int32(ch)
			n.vcClass[id] = int16(class)
			// -1 on mesh boundaries; such slots stay unused.
			n.vcNode[id] = n.tbl.down[ch]
			n.vcAIdx[id] = -1
			n.vcOut[id] = outRoute{ch: outNone}
		}
	}
	n.rr = make([]uint32, slots)
	n.owners = make([]int32, slots)
	n.injecting = make([]int32, g.Nodes())
	n.flitsByChannel = make([]int64, slots)
	n.reqs = make([][]int32, slots)
	n.chMoverGen = make([]uint32, slots)
	n.chDropGen = make([]uint32, slots)
	n.window.FlitMovesByClass = make([]int64, n.numVCs)
	n.base.FlitMovesByClass = make([]int64, n.numVCs)
	return n, nil
}

// tieBreak resolves half-ring direction ties at injection; bound as a method
// value (tieFn) so the hot path never allocates a closure for it.
func (n *Network) tieBreak(int) bool { return n.rt.Bernoulli(0.5) }

// Grid returns the topology.
func (n *Network) Grid() *topology.Grid { return n.g }

// NumVCs returns the virtual channels per physical channel in use.
func (n *Network) NumVCs() int { return n.numVCs }

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.now }

// InFlight returns the number of admitted messages not yet delivered.
func (n *Network) InFlight() int { return n.inFlight }

// Window returns the counters accumulated since the last ResetWindow.
func (n *Network) Window() Counters {
	w := n.window
	w.FlitMovesByClass = append([]int64(nil), n.window.FlitMovesByClass...)
	return w
}

// Total returns the counters accumulated since construction: the closed
// windows plus the live one.
func (n *Network) Total() Counters {
	t := n.base
	t.Cycles += n.window.Cycles
	t.FlitMoves += n.window.FlitMoves
	t.Generated += n.window.Generated
	t.Admitted += n.window.Admitted
	t.Dropped += n.window.Dropped
	t.Delivered += n.window.Delivered
	t.FlitMovesByClass = append([]int64(nil), n.base.FlitMovesByClass...)
	for i, v := range n.window.FlitMovesByClass {
		t.FlitMovesByClass[i] += v
	}
	return t
}

// ResetWindow folds the window counters into the lifetime base and zeroes
// them (e.g. at a sampling-period boundary).
func (n *Network) ResetWindow() {
	n.base.Cycles += n.window.Cycles
	n.base.FlitMoves += n.window.FlitMoves
	n.base.Generated += n.window.Generated
	n.base.Admitted += n.window.Admitted
	n.base.Dropped += n.window.Dropped
	n.base.Delivered += n.window.Delivered
	for i, v := range n.window.FlitMovesByClass {
		n.base.FlitMovesByClass[i] += v
		n.window.FlitMovesByClass[i] = 0
	}
	byClass := n.window.FlitMovesByClass
	n.window = Counters{FlitMovesByClass: byClass}
}

// Reseed hands fresh random streams to the workload and the router's
// tie-breaking, per the paper's sampling methodology.
func (n *Network) Reseed(seed uint64) {
	n.wl.Reseed(seed)
	n.rt = rng.NewStream(seed, 0x90f7)
}

// DeadlockError reports that the watchdog saw no flit motion for its window
// while messages were in flight.
type DeadlockError struct {
	Cycle    int64
	InFlight int
	Detail   string
	// Blame is the forensics stall report (dominant congestion-tree root
	// and wait-for cycle witness) when an analyzer was attached — also the
	// first lines of Detail.
	Blame string
	// Trace holds the most recent lifecycle events when telemetry tracing
	// was enabled — the flight recorder of the cycles leading into the
	// stall (also rendered into Detail).
	Trace []telemetry.Event
}

// Error describes the deadlock.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("network: no flit motion for %d cycles with %d messages in flight (possible deadlock)\n%s",
		e.Cycle, e.InFlight, e.Detail)
}

// Step advances the simulation one cycle: arrivals, virtual-channel
// allocation, ejection of flits that arrived in earlier cycles, then
// channel arbitration and flit transfer. Ejecting before transferring makes
// consumption take one cycle, so an unloaded message's latency is exactly
// eq. (2)'s (ml + d - 1) cycles.
func (n *Network) Step() error {
	if n.prof != nil {
		n.prof.Begin()
	}
	if n.fore != nil {
		n.foreSampling = n.fore.StartCycle(n.now)
	}
	n.inject()
	if n.prof != nil {
		n.prof.Mark(telemetry.PhaseInject)
	}
	n.allocate()
	if n.fore != nil && n.foreSampling {
		// Resolve within the cycle, while the captured slot ids are live.
		n.fore.Resolve(n.now)
	}
	if n.prof != nil {
		n.prof.Mark(telemetry.PhaseRoute)
	}
	moved := n.transfer()
	if n.prof != nil {
		n.prof.Mark(telemetry.PhaseTransfer)
	}
	if moved {
		n.lastMotion = n.now
	}
	n.now++
	n.window.Cycles++
	if n.tel != nil {
		n.tel.EndCycle()
	}
	if n.cfg.WatchdogCycles > 0 && n.inFlight > 0 && n.now-n.lastMotion > n.cfg.WatchdogCycles {
		err := &DeadlockError{Cycle: n.now - n.lastMotion, InFlight: n.inFlight, Detail: n.describeStuck(8)}
		if n.fore != nil {
			// Lead with causality: the blame root and any wait-for cycle
			// witness come before the raw stuck-worm dump.
			if blame := n.fore.StallReport(); blame != "" {
				err.Blame = blame
				err.Detail = blame + err.Detail
			}
		}
		if n.tel != nil && n.tel.Tracing() {
			for i, w := range n.WormStates() {
				if i >= 8 {
					break
				}
				n.tel.Kill(n.now, w.ID, w.HeadNode)
			}
			err.Trace = n.tel.LastEvents(32)
			err.Detail += "last trace events:\n" + telemetry.FormatEvents(err.Trace)
		}
		if n.prof != nil {
			n.prof.Mark(telemetry.PhaseWatchdog)
		}
		return err
	}
	if n.prof != nil {
		n.prof.Mark(telemetry.PhaseWatchdog)
	}
	return nil
}

// Run advances the simulation the given number of cycles.
func (n *Network) Run(cycles int64) error {
	for i := int64(0); i < cycles; i++ {
		if err := n.Step(); err != nil {
			return err
		}
	}
	return nil
}

// inject generates this cycle's arrivals and admits them through congestion
// control onto injection slots.
func (n *Network) inject() {
	n.arrivals = n.wl.Arrivals(n.now, n.arrivals[:0])
	for _, a := range n.arrivals {
		n.window.Generated++
		m := n.pool.Get(n.g, n.nextMsgID, a.Src, a.Dst, n.cfg.MsgLen, n.now, n.tieFn)
		n.nextMsgID++
		n.alg.Init(n.g, m)
		if !n.limiter.Admit(a.Src, m.Class) {
			n.window.Dropped++
			if n.tel != nil {
				n.tel.Drop(n.now, m.ID, a.Src, a.Dst)
			}
			n.pool.Put(m)
			continue
		}
		n.window.Admitted++
		n.inFlight++
		id := n.newInjSlot()
		n.vcMsg[id] = m
		n.vcNode[id] = int32(a.Src)
		n.vcFlits[id] = int32(m.Len)
		n.vcRecvd[id] = 0
		n.vcSent[id] = 0
		n.vcRouted[id] = false
		n.vcOut[id] = outRoute{ch: outNone}
		n.vcReady[id] = 0
		n.addActive(id)
		if n.tel != nil {
			n.tel.Inject(n.now, m.ID, a.Src, a.Dst)
			n.tel.InjEnqueue()
		}
	}
}

// newInjSlot returns a free injection-slot id, growing the state arrays when
// the free list is empty. Slot count stabilizes at the run's peak concurrent
// injections, after which inject allocates nothing.
func (n *Network) newInjSlot() int32 {
	if k := len(n.injFree); k > 0 {
		id := n.injFree[k-1]
		n.injFree = n.injFree[:k-1]
		return id
	}
	id := int32(len(n.vcMsg))
	n.vcMsg = append(n.vcMsg, nil)
	n.vcNode = append(n.vcNode, 0)
	n.vcCh = append(n.vcCh, -1)
	n.vcClass = append(n.vcClass, 0)
	n.vcFlits = append(n.vcFlits, 0)
	n.vcRecvd = append(n.vcRecvd, 0)
	n.vcSent = append(n.vcSent, 0)
	n.vcRouted = append(n.vcRouted, false)
	n.vcOut = append(n.vcOut, outRoute{ch: outNone})
	n.vcReady = append(n.vcReady, 0)
	n.vcAIdx = append(n.vcAIdx, -1)
	return id
}

// addActive appends the vc id to the active list.
func (n *Network) addActive(id int32) {
	n.vcAIdx[id] = int32(len(n.active))
	n.active = append(n.active, id)
}

// removeActive swap-removes the vc id from the active list.
func (n *Network) removeActive(id int32) {
	last := len(n.active) - 1
	i := n.vcAIdx[id]
	moved := n.active[last]
	n.active[i] = moved
	n.vcAIdx[moved] = i
	n.active = n.active[:last]
	n.vcAIdx[id] = -1
}

// allocate routes headers: every live vc holding an unrouted header tries to
// acquire an output virtual channel.
func (n *Network) allocate() {
	count := len(n.active)
	if count == 0 {
		return
	}
	ports := n.cfg.InjectionPorts
	// Rotate the scan start each cycle so no node gets a standing priority
	// in virtual-channel contention. The wrap is a branch, not a modulo:
	// an integer division per active vc would dominate this scan.
	idx := n.rt.Intn(count)
	// route may append to n.active (allocating a downstream vc), but growth
	// never disturbs the first count entries, so the snapshot stays valid.
	active := n.active
	vcRouted, vcRecvd, vcCh := n.vcRouted, n.vcRecvd, n.vcCh
	for i := 0; i < count; i++ {
		id := active[idx]
		idx++
		if idx == count {
			idx = 0
		}
		if vcRouted[id] || vcRecvd[id] == 0 && vcCh[id] != -1 {
			continue
		}
		m := n.vcMsg[id]
		if m == nil || n.now < n.vcReady[id] {
			continue
		}
		if n.vcCh[id] == -1 && ports > 0 && int(n.injecting[n.vcNode[id]]) >= ports {
			continue // all injection ports busy; wait for one to free up
		}
		if !n.route(id) {
			if n.tel != nil {
				n.tel.HeadBlocked(m.Class)
			}
			if n.fore != nil {
				n.foreBlocked(id, m)
			}
		}
	}
}

// route attempts virtual-channel allocation for the header in vc id and
// reports whether the header is routed afterwards.
func (n *Network) route(id int32) bool {
	m := n.vcMsg[id]
	node := int(n.vcNode[id])
	if m.Dst == node {
		n.vcRouted[id] = true
		n.vcOut[id] = outRoute{ch: outEject}
		return true
	}
	n.cands = n.alg.Candidates(n.g, m, node, n.cands[:0])
	n.freeCands = n.freeCands[:0]
	n.freeScores = n.freeScores[:0]
	for _, c := range n.cands {
		// Dense channel index, inlined (topology.Grid.ChannelIndex); the
		// down table doubles as the HasChannel test.
		ch := (node*n.nDims+c.Dim)*2 + int(c.Dir)
		if n.tbl.down[ch] < 0 {
			continue
		}
		if n.vcMsg[ch*n.numVCs+c.VC] != nil {
			continue
		}
		n.freeCands = append(n.freeCands, c)
		n.freeScores = append(n.freeScores, int(n.owners[ch]))
	}
	if len(n.freeCands) == 0 {
		return false
	}
	pick := n.policy.Select(n.freeCands, n.freeScores, n.rt)
	c := n.freeCands[pick]
	ch := (node*n.nDims+c.Dim)*2 + int(c.Dir)
	t := int32(ch*n.numVCs + c.VC)
	n.vcMsg[t] = m
	n.vcFlits[t], n.vcRecvd[t], n.vcSent[t] = 0, 0, 0
	n.vcRouted[t] = false
	n.vcReady[t] = 0
	n.vcOut[t] = outRoute{ch: outNone}
	n.owners[ch]++
	n.addActive(t)
	n.vcRouted[id] = true
	n.vcOut[id] = outRoute{ch: int32(ch), vc: int16(c.VC), dim: int8(c.Dim), dir: int8(c.Dir)}
	if n.vcCh[id] == -1 {
		n.injecting[n.vcNode[id]]++
		m.FirstAlloc = n.now
	}
	n.alg.Allocated(n.g, m, node, c)
	if n.tel != nil {
		n.tel.VCAlloc(n.now, m.ID, node, ch, c.VC)
		n.tel.VCAcquired(c.VC)
	}
	return true
}

// transfer performs ejection, channel arbitration, and flit movement in one
// pass over the active list, two-phase: all arbitration decisions are made
// against start-of-cycle state, then applied. Ejection — the paper's node
// model consumes arriving flits without competing for network channels — is
// fused into the requester scan: draining a consuming buffer in scan order
// is equivalent to a separate prior ejection pass because (a) a removal's
// swap-and-revisit reproduces exactly the element order a post-ejection scan
// would have seen, and (b) a full downstream buffer that is consuming always
// drains this cycle, so the credit check treats it as empty. It reports
// whether any flit moved across a channel (ejection drains update lastMotion
// directly).
func (n *Network) transfer() bool {
	// Phase 1: drain consuming buffers and collect requesters per physical
	// channel. An unrouted header (outNone) and a consuming one (outEject)
	// both fail the single out.ch sign test.
	touched := n.touched[:0]
	bufDepth := int32(n.cfg.BufDepth)
	numVCs := int32(n.numVCs)
	vcOut, vcFlits, reqs := n.vcOut, n.vcFlits, n.reqs
	for i := 0; i < len(n.active); i++ {
		id := n.active[i]
		out := vcOut[id]
		if out.ch < 0 {
			if out.ch == outEject && vcFlits[id] != 0 && n.vcCh[id] != -1 {
				n.vcSent[id] += vcFlits[id]
				vcFlits[id] = 0
				n.lastMotion = n.now
				if n.vcSent[id] == n.msgLen {
					n.deliver(id)
					i-- // the swapped-in element must be visited too
				}
			}
			continue
		}
		if vcFlits[id] == 0 {
			continue
		}
		t := out.ch*numVCs + int32(out.vc)
		if vcFlits[t] >= bufDepth && vcOut[t].ch != outEject {
			continue // no credit downstream (full consuming buffers drain)
		}
		if len(reqs[out.ch]) == 0 {
			touched = append(touched, out.ch)
		}
		reqs[out.ch] = append(reqs[out.ch], id)
	}
	n.touched = touched
	// Phase 2: pick one winner per channel (rotating priority) and move its
	// flit. Uncontended channels — the common case — skip the rotation
	// modulo.
	n.moves = n.moves[:0]
	for _, ch := range n.touched {
		req := n.reqs[ch]
		winner := req[0]
		if len(req) > 1 {
			winner = req[int(n.rr[ch])%len(req)]
		}
		n.rr[ch]++
		n.moves = append(n.moves, winner)
		n.reqs[ch] = req[:0]
	}
	if n.cfg.HalfDuplex && len(n.moves) > 1 {
		n.moves = n.dropReverseConflicts(n.moves)
	}
	for _, id := range n.moves {
		n.applyMove(id)
	}
	return len(n.moves) > 0

}

// dropReverseConflicts enforces half-duplex links: when both directions of
// a link won arbitration this cycle, only one (alternating per link) keeps
// its grant. Conflict detection and the drop set use generation-stamped
// per-channel scratch (valid only when the stamp equals revGen), so the
// per-cycle cost is proportional to the number of winners, with no map or
// slice allocation.
func (n *Network) dropReverseConflicts(moves []int32) []int32 {
	n.revGen++
	gen := n.revGen
	for _, id := range moves {
		n.chMoverGen[n.vcOut[id].ch] = gen
	}
	dropped := 0
	for _, id := range moves {
		ch := n.vcOut[id].ch
		rev := n.tbl.rev[ch]
		if ch > rev {
			continue // each conflicting pair is handled from its lower side
		}
		if n.chMoverGen[rev] != gen {
			continue
		}
		// Alternate the winner per link across cycles.
		n.rr[ch]++
		if n.rr[ch]%2 == 0 {
			n.chDropGen[ch] = gen
		} else {
			n.chDropGen[rev] = gen
		}
		dropped++
	}
	if dropped == 0 {
		return moves
	}
	kept := moves[:0]
	for _, id := range moves {
		if n.chDropGen[n.vcOut[id].ch] != gen {
			kept = append(kept, id)
		}
	}
	return kept
}

// applyMove transfers one flit from vc id across its output channel.
func (n *Network) applyMove(id int32) {
	out := n.vcOut[id]
	ch := int(out.ch)
	t := int32(ch*n.numVCs + int(out.vc))
	n.vcFlits[id]--
	n.vcSent[id]++
	n.vcFlits[t]++
	n.vcRecvd[t]++
	n.window.FlitMoves++
	n.window.FlitMovesByClass[out.vc]++
	n.flitsByChannel[ch]++
	if n.tel != nil {
		n.tel.FlitMove(ch)
	}
	if n.vcRecvd[t] == 1 {
		// Header hop completed: update the message's routing state from the
		// upstream node's viewpoint (precomputed in the channel tables).
		m := n.vcMsg[id]
		dim, dir := int(out.dim), topology.Dir(out.dir)
		m.Advance(n.g, dim, dir, int(n.tbl.coord[ch]), int(n.tbl.parity[ch]))
		n.vcReady[t] = n.now + 1 + int64(n.cfg.RouteDelay)
		if n.cfg.OnHeaderHop != nil {
			// Zero-copy handoff by contract: m is engine-owned and valid only
			// for the duration of the callback (see Config.OnHeaderHop).
			n.cfg.OnHeaderHop(m, int(n.vcNode[t]), dim, dir) //lint:allow hookescape (documented borrow, copying would allocate per hop)
		}
		if n.tel != nil {
			n.tel.Hop(n.now, m.ID, int(n.vcNode[t]), ch, int(out.vc))
		}
	}
	if n.vcSent[id] == n.msgLen {
		// Tail has left this buffer: release it.
		if n.vcCh[id] == -1 {
			n.limiter.Release(int(n.vcNode[id]), n.vcMsg[id].Class)
			n.injecting[n.vcNode[id]]--
			if n.tel != nil {
				n.tel.InjDequeue()
			}
			n.removeActive(id)
			n.vcMsg[id] = nil
			n.injFree = append(n.injFree, id)
		} else {
			n.owners[n.vcCh[id]]--
			if n.tel != nil {
				n.tel.VCReleased(int(n.vcClass[id]))
			}
			n.removeActive(id)
			n.vcMsg[id] = nil
		}
	}
}

// deliver completes message consumption at vc id: the tail flit has been
// drained, so the buffer is released and the message recycled.
func (n *Network) deliver(id int32) {
	m := n.vcMsg[id]
	m.DeliverTime = n.now
	n.owners[n.vcCh[id]]--
	n.removeActive(id)
	n.vcMsg[id] = nil
	n.inFlight--
	n.window.Delivered++
	if n.tel != nil {
		n.tel.VCReleased(int(n.vcClass[id]))
		n.tel.Deliver(n.now, m.ID, m.Dst)
	}
	if n.fore != nil {
		// The drain component is the unloaded latency of eq. (2), ml + d - 1,
		// plus the router pipeline delay the header paid at each hop.
		ideal := int64(m.HopsTotal)*int64(1+n.cfg.RouteDelay) + int64(n.msgLen) - 1
		n.fore.Delivered(m.Class, m.HopsTotal, m.GenTime, m.FirstAlloc, m.DeliverTime, m.HeadStalls, ideal)
	}
	if n.cfg.OnDeliver != nil {
		// Zero-copy handoff by contract: m is pooled and valid only for the
		// duration of the callback (see Config.OnDeliver) — it is recycled on
		// the next line.
		n.cfg.OnDeliver(m) //lint:allow hookescape (documented borrow, copying would defeat the message pool)
	}
	n.pool.Put(m)
}

// Drain runs until no messages are in flight or maxCycles pass; it reports
// an error on deadlock or if the deadline is hit with messages still
// in flight. The workload keeps injecting during a drain only if it still
// has arrivals (use a zero-rate or exhausted workload to quiesce).
func (n *Network) Drain(maxCycles int64) error {
	for i := int64(0); i < maxCycles; i++ {
		if n.inFlight == 0 {
			return nil
		}
		if err := n.Step(); err != nil {
			return err
		}
	}
	if n.inFlight > 0 {
		return fmt.Errorf("network: %d messages still in flight after %d drain cycles", n.inFlight, maxCycles)
	}
	return nil
}

// Limiter exposes the congestion limiter (nil when disabled).
func (n *Network) Limiter() *congestion.Limiter { return n.limiter }

// EffectiveChannels returns the channel count to normalize utilization by:
// the grid's unidirectional channel count, halved under half-duplex links.
func (n *Network) EffectiveChannels() int {
	if n.cfg.HalfDuplex {
		return n.g.NumChannels() / 2
	}
	return n.g.NumChannels()
}

// ChannelFlitCounts returns lifetime flit transfers per physical channel,
// indexed by the grid's dense channel index (mesh boundary slots stay 0).
func (n *Network) ChannelFlitCounts() []int64 {
	return append([]int64(nil), n.flitsByChannel...)
}

// OccupiedVCsByClass returns how many virtual channels of each class are
// currently owned by a worm.
func (n *Network) OccupiedVCsByClass() []int {
	counts := make([]int, n.numVCs)
	for _, id := range n.active {
		if n.vcCh[id] >= 0 && n.vcMsg[id] != nil {
			counts[n.vcClass[id]]++
		}
	}
	return counts
}
