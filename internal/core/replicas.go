package core

import (
	"fmt"
	"math"

	"wormsim/internal/forensics"
	"wormsim/internal/message"
	"wormsim/internal/network"
	"wormsim/internal/routing"
	"wormsim/internal/saf"
	"wormsim/internal/stats"
	"wormsim/internal/telemetry"
	"wormsim/internal/traffic"
)

// replicaRun is one replica's measurement state inside the methodology
// loop, held per replica so the lockstep engine's fused sweep can feed all
// of them from one pass.
type replicaRun struct {
	res       Result
	sample    *stats.Stratified
	hopStats  []stats.Welford
	latHist   stats.Histogram
	thr       stats.Welford
	conv      *stats.Convergence
	lastBound float64
	startMove int64
	startCyc  int64
}

// RunReplicas executes one simulation point at each seed, in lockstep on
// the batch engine (network.BatchNetwork): the replicas share precomputed
// tables and draw their arrival trials through one interleaved sweep per
// cycle, and every replica's Result equals Run of the same config and
// seed. Replicas follow the paper's sampling methodology in phase (the
// warmup/sample/gap schedule is a config constant); a replica whose
// convergence rule fires drops out of the live set and stops costing
// anything while the stragglers finish.
//
// Deadlocked replicas are recorded in their Result (Deadlocked set, the
// other fields describing the run up to the stall) rather than returned as
// an error — the Sweep convention. The error return covers setup failures
// only.
//
// Config.Telemetry, Forensics and OnSample attach to the first replica of
// each batch only (the batch engine's observer); Config.Cache is consulted
// per seed, but only for uninstrumented configs, where a stored Result
// carries everything a run produces. OnTick publishes one replica's state,
// so OnTick configs run one seed per batch and every seed publishes its
// own ticks; store-and-forward configs run one seed per engine too.
func RunReplicas(cfg Config, seeds []uint64) ([]Result, error) {
	cfg.ApplyDefaults()
	results := make([]Result, len(seeds))
	// Per-seed cache consult. Instrumented configs bypass it: the batch
	// engine attaches the collector/analyzer to the observer replica only,
	// so storing the bare siblings under an instrumented hash would poison
	// later instrumented lookups.
	useCache := cfg.Cache != nil && cfg.Telemetry == nil && cfg.Forensics == nil
	misses := make([]int, 0, len(seeds))
	for i, seed := range seeds {
		if useCache {
			c := cfg
			c.Seed = seed
			if r, ok := cfg.Cache.Lookup(c.Hash()); ok {
				results[i] = r
				continue
			}
		}
		misses = append(misses, i)
	}
	width := len(misses)
	if cfg.OnTick != nil || cfg.Switching == StoreFwd {
		width = 1
	}
	for lo := 0; lo < len(misses); lo += width {
		idx := misses[lo:min(lo+width, len(misses))]
		batch := make([]uint64, len(idx))
		for j, i := range idx {
			batch[j] = seeds[i]
		}
		rs, _, err := runLockstep(cfg, batch)
		if err != nil {
			return results, err
		}
		for j, i := range idx {
			results[i] = rs[j]
			if useCache {
				c := cfg
				c.Seed = seeds[i]
				if serr := cfg.Cache.Store(c.Hash(), c.Canonical(), rs[j]); serr != nil {
					return results, fmt.Errorf("core: record replica %s: %w", c.Hash()[:12], serr)
				}
			}
		}
	}
	return results, nil
}

// runLockstep is the paper's methodology loop — warmup, then sampling
// periods separated by reseeded gaps until the convergence rule fires — run
// for every seed at once on one lockstep engine. It returns one Result per
// seed, the watchdog error of each deadlocked seed (nil elsewhere), and a
// setup error, after which the Results are partial. The cache is not
// consulted.
func runLockstep(cfg Config, seeds []uint64) ([]Result, []error, error) {
	results := make([]Result, len(seeds))
	deadlocks := make([]error, len(seeds))
	if len(seeds) == 0 {
		return results, deadlocks, nil
	}
	g := cfg.Grid()
	alg, err := routing.Get(cfg.Algorithm)
	if err != nil {
		return results, deadlocks, err
	}
	if err := alg.Compatible(g); err != nil {
		return results, deadlocks, err
	}
	pattern, err := traffic.Parse(g, cfg.Pattern)
	if err != nil {
		return results, deadlocks, err
	}
	policy, err := routing.GetPolicy(cfg.Policy)
	if err != nil {
		return results, deadlocks, err
	}
	// Probe the pattern's mean distance with a zero-rate workload, then
	// derive lambda via eq. (4): rho = lambda * msgLen * meanDist / 2n —
	// identical for every seed, so one probe serves the whole batch.
	probe := traffic.NewBernoulli(g, pattern, 0, cfg.Seed)
	meanDist := probe.MeanDistance()
	lambda := cfg.InjectionRate
	if lambda == 0 {
		if meanDist == 0 {
			return results, deadlocks, fmt.Errorf("core: pattern %s generates no traffic", cfg.Pattern)
		}
		lambda = cfg.OfferedLoad * float64(2*g.N()) / (float64(cfg.MsgLen) * meanDist)
	}
	if lambda > 1 {
		return results, deadlocks, fmt.Errorf("core: offered load %.3g needs injection rate %.3g > 1 message/node/cycle", cfg.OfferedLoad, lambda)
	}
	base := traffic.NewBernoulli(g, pattern, lambda, seeds[0])
	wls := make([]traffic.Workload, len(seeds))
	for r, seed := range seeds {
		// Replicate shares the O(nodes^2) distance statistics: a replica
		// fleet pays the workload construction cost once.
		wls[r] = base.Replicate(seed)
	}

	sts := make([]replicaRun, len(seeds))
	for r := range sts {
		st := &sts[r]
		st.res = Result{
			Algorithm:     cfg.Algorithm,
			Pattern:       cfg.Pattern,
			Switching:     cfg.Switching,
			K:             cfg.K,
			N:             cfg.N,
			Mesh:          cfg.Mesh,
			OfferedLoad:   cfg.OfferedLoad,
			InjectionRate: lambda,
			MeanDistance:  meanDist,
		}
		results[r] = st.res
		st.hopStats = make([]stats.Welford, g.Diameter()+1)
		st.conv = &stats.Convergence{MinSamples: cfg.MinSamples, MaxSamples: cfg.MaxSamples, Tolerance: cfg.Tolerance}
	}

	// The saf engine has no flit-level channels to meter or publish.
	var tel *telemetry.Collector
	var fore *forensics.Analyzer
	if cfg.Switching != StoreFwd {
		if cfg.Telemetry != nil {
			tel = telemetry.New(*cfg.Telemetry, g.ChannelSlots(), alg.NumVCs(g))
		}
		if cfg.Forensics != nil {
			fore = forensics.New(*cfg.Forensics, g.ChannelSlots())
		}
	}
	eng, err := newLockstep(cfg.Switching, network.BatchConfig{
		Grid: g, Algorithm: alg, Policy: policy, Workloads: wls, Seeds: seeds,
		MsgLen: cfg.MsgLen, BufDepth: cfg.BufDepth, CCLimit: cfg.CCLimit,
		InjectionPorts: cfg.InjectionPorts, RouteDelay: cfg.RouteDelay,
		Telemetry: tel, Phases: cfg.PhaseProf, Forensics: fore,
		OnDeliver: func(r int, m *message.Message) {
			st := &sts[r]
			if st.sample != nil {
				st.sample.Add(m.HopsTotal, float64(m.Latency()))
				st.hopStats[m.HopsTotal].Add(float64(m.Latency()))
				st.latHist.Add(float64(m.Latency()))
			}
		},
	})
	if err != nil {
		return results, deadlocks, err
	}

	// The tick publication: every tickGap cycles OnTick receives a deep copy
	// of the observer replica's state. RunReplicas gives OnTick configs a
	// batch of one, so the observer is the run.
	var tickGap, sinceTick, lastRecorded int64
	bn, _ := eng.(batchEngine)
	if cfg.OnTick != nil && bn.BatchNetwork != nil {
		tickGap = cfg.TickCycles
		if tickGap <= 0 {
			tickGap = 1000
		}
	}
	emitTick := func(final bool) {
		ev := TickEvent{
			Algorithm: cfg.Algorithm, Pattern: cfg.Pattern, Switching: cfg.Switching,
			K: cfg.K, N: cfg.N, Mesh: cfg.Mesh, OfferedLoad: cfg.OfferedLoad, Seed: seeds[0],
			Cycle: bn.Now(0), InFlight: bn.InFlight(0),
			Counters:     bn.Total(0),
			Worms:        bn.WormStatesOf(0),
			ChannelFlits: bn.ChannelFlitCounts(0),
			Final:        final,
		}
		if fore != nil {
			ev.Forensics = fore.Summary()
		}
		if tel != nil {
			ev.Telemetry = tel.Summary()
			if fresh := tel.Recorded() - lastRecorded; fresh > 0 {
				if fresh > 64 {
					fresh = 64
				}
				ev.Events = tel.LastEvents(int(fresh))
			}
			lastRecorded = tel.Recorded()
		}
		cfg.OnTick(ev)
	}
	runFor := func(cycles int64) {
		for i := int64(0); i < cycles && eng.Live() > 0; i++ {
			eng.step(deadlocks)
			if tickGap > 0 && eng.IsLive(0) {
				if sinceTick++; sinceTick >= tickGap {
					sinceTick = 0
					emitTick(false)
				}
			}
		}
	}

	weights := base.HopClassWeights()
	runFor(cfg.WarmupCycles)
	for eng.Live() > 0 {
		for r := range sts {
			if !eng.IsLive(r) {
				continue
			}
			st := &sts[r]
			st.sample = stats.NewStratified(weights)
			eng.ResetWindow(r)
			t := eng.Total(r)
			st.startMove, st.startCyc = t.FlitMoves, t.Cycles
		}
		runFor(cfg.SampleCycles)
		for r := range sts {
			if !eng.IsLive(r) {
				continue // faulted mid-sample: the period is discarded
			}
			st := &sts[r]
			t := eng.Total(r)
			if t.Cycles > st.startCyc {
				st.thr.Add(float64(t.FlitMoves-st.startMove) / (float64(t.Cycles-st.startCyc) * float64(g.NumChannels())))
			}
			st.conv.Record(st.sample.Mean())
			st.lastBound = st.sample.ErrorBound()
			done := st.conv.Done(st.sample)
			if r == 0 && cfg.OnSample != nil {
				cfg.OnSample(SampleEvent{
					Sample: st.conv.Samples(), MaxSamples: cfg.MaxSamples,
					Mean: st.sample.Mean(), Bound: st.lastBound, Done: done,
				})
			}
			st.sample = nil
			if done {
				st.res.Converged = st.conv.Samples() < cfg.MaxSamples
				eng.Deactivate(r)
				continue
			}
			// Unmeasured gap with fresh random streams, per the paper.
			eng.Reseed(r, seeds[r]+uint64(st.conv.Samples())*0x9e3779b97f4a7c15)
		}
		runFor(cfg.GapCycles)
	}

	for r := range sts {
		st := &sts[r]
		acrossBound, acrossMean := st.conv.AcrossSampleBound()
		st.res.AvgLatency = acrossMean
		st.res.LatencyBound = math.Max(st.lastBound, acrossBound)
		if math.IsInf(st.res.LatencyBound, 1) {
			st.res.LatencyBound = st.lastBound
		}
		st.res.Cycles = cfgCycles(cfg, st.conv.Samples())
		t := eng.Total(r)
		st.res.Generated, st.res.Admitted, st.res.Dropped, st.res.Delivered = t.Generated, t.Admitted, t.Dropped, t.Delivered
		if t.FlitMoves > 0 && t.FlitMovesByClass != nil { // saf has no virtual-channel classes
			st.res.VCFlitShare = make([]float64, len(t.FlitMovesByClass))
			for i, f := range t.FlitMovesByClass {
				st.res.VCFlitShare[i] = float64(f) / float64(t.FlitMoves)
			}
		}
		st.res.HopClassLatency = make([]float64, len(st.hopStats))
		for i := range st.hopStats {
			if st.hopStats[i].Count() == 0 {
				st.res.HopClassLatency[i] = -1 // unobserved (JSON has no NaN)
			} else {
				st.res.HopClassLatency[i] = st.hopStats[i].Mean()
			}
		}
		st.res.ChannelFlits = eng.ChannelFlitCounts(r)
		st.res.Samples = st.conv.Samples()
		st.res.Throughput = st.thr.Mean()
		if st.latHist.Count() > 0 {
			q := st.latHist.Quantiles(0.5, 0.95, 0.99)
			st.res.LatencyP50, st.res.LatencyP95, st.res.LatencyP99 = q[0], q[1], q[2]
			st.res.LatencyMax = st.latHist.Max()
		}
		if r == 0 && tel != nil {
			st.res.Telemetry = tel.Summary()
			st.res.TraceEvents = tel.Events()
		}
		if r == 0 && fore != nil {
			st.res.Forensics = fore.Summary()
		}
		if deadlocks[r] != nil {
			st.res.Deadlocked = true
			st.res.Converged = false
		}
		results[r] = st.res
	}
	if tickGap > 0 {
		emitTick(true)
	}
	return results, deadlocks, nil
}

// cfgCycles estimates cycles simulated for reporting.
func cfgCycles(cfg Config, samples int) int64 {
	return cfg.WarmupCycles + int64(samples)*(cfg.SampleCycles+cfg.GapCycles)
}

// lockstep is the engine surface the methodology loop and the burst runner
// drive: replicas of one config stepped together, each with its own
// counters, random streams and watchdog.
type lockstep interface {
	// step advances every live replica one cycle. A replica whose watchdog
	// fires gets its error in deadlocks and leaves the live set, frozen at
	// the cycle of the report.
	step(deadlocks []error)
	Live() int
	IsLive(r int) bool
	Deactivate(r int)
	InFlight(r int) int
	ResetWindow(r int)
	Total(r int) network.Counters
	Reseed(r int, seed uint64)
	ChannelFlitCounts(r int) []int64
}

// newLockstep builds the engine for switching sw from bc: the lockstep
// batch for wormhole and vct, or the store-and-forward engine as a batch of
// one (bc then holds one seed, and its flit-level observers are unused).
func newLockstep(sw Switching, bc network.BatchConfig) (lockstep, error) {
	switch sw {
	case Wormhole, CutThrough:
		bn, err := network.NewBatch(bc)
		if err != nil {
			return nil, err
		}
		return batchEngine{bn}, nil
	case StoreFwd:
		onDeliver := bc.OnDeliver
		n, err := saf.New(saf.Config{
			Grid: bc.Grid, Algorithm: bc.Algorithm, Policy: bc.Policy, Workload: bc.Workloads[0],
			MsgLen: bc.MsgLen, CCLimit: bc.CCLimit, Seed: bc.Seeds[0],
			OnDeliver: func(m *message.Message) { onDeliver(0, m) },
		})
		if err != nil {
			return nil, err
		}
		return &safEngine{n: n, wl: bc.Workloads[0], live: true}, nil
	}
	return nil, fmt.Errorf("core: unknown switching %q", sw)
}

// batchEngine is the wormhole/vct lockstep engine.
type batchEngine struct{ *network.BatchNetwork }

func (e batchEngine) step(deadlocks []error) {
	for _, f := range e.Step() {
		deadlocks[f.Replica] = f.Err
		e.Deactivate(f.Replica)
	}
}

// safEngine runs the store-and-forward engine as a batch of one replica.
type safEngine struct {
	n    *saf.Network
	wl   traffic.Workload
	live bool
}

func (e *safEngine) step(deadlocks []error) {
	if err := e.n.Step(); err != nil {
		deadlocks[0] = err
		e.live = false
	}
}

func (e *safEngine) Live() int {
	if e.live {
		return 1
	}
	return 0
}

func (e *safEngine) IsLive(int) bool               { return e.live }
func (e *safEngine) Deactivate(int)                { e.live = false }
func (e *safEngine) InFlight(int) int              { return e.n.InFlight() }
func (e *safEngine) ResetWindow(int)               {}
func (e *safEngine) Reseed(_ int, seed uint64)     { e.wl.Reseed(seed) }
func (e *safEngine) ChannelFlitCounts(int) []int64 { return nil }
func (e *safEngine) Total(int) network.Counters {
	var t network.Counters
	t.Generated, t.Admitted, t.Dropped, t.Delivered = e.n.Counts()
	t.Cycles, t.FlitMoves = e.n.Now(), e.n.FlitMoves()
	return t
}
