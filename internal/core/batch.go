package core

import (
	"fmt"

	"wormsim/internal/message"
	"wormsim/internal/network"
	"wormsim/internal/rng"
	"wormsim/internal/routing"
	"wormsim/internal/stats"
	"wormsim/internal/telemetry"
	"wormsim/internal/traffic"
)

// BatchResult reports a finite-workload (trace or permutation burst)
// simulation run to completion, measured by makespan rather than
// steady-state sampling.
type BatchResult struct {
	Algorithm string
	Switching Switching
	// Delivered counts completed messages; Dropped those refused by
	// congestion control.
	Delivered int64
	Dropped   int64
	// Makespan is the cycle the last message was delivered.
	Makespan int64
	// Latency statistics over delivered messages (cycles).
	MeanLatency float64
	LatencyP95  float64
	MaxLatency  float64
	// FlitMoves is the total channel traffic.
	FlitMoves int64
	// Telemetry aggregates the run's collector when Config.Telemetry was
	// set (wormhole/vct only).
	Telemetry *telemetry.Summary `json:",omitempty"`
	// TraceEvents is the retained lifecycle trace, kept out of JSON.
	TraceEvents []telemetry.Event `json:"-"`
}

// String renders a one-line summary.
func (r BatchResult) String() string {
	return fmt.Sprintf("%-6s makespan=%d delivered=%d mean=%.1f p95=%.0f max=%.0f",
		r.Algorithm, r.Makespan, r.Delivered, r.MeanLatency, r.LatencyP95, r.MaxLatency)
}

// RunBatch drives the given finite workload (typically a traffic.Trace) to
// completion under cfg's network settings and returns makespan statistics:
// the burst runner of ReplicateBatch with cfg.Seed as its only seed. The
// workload must stop generating eventually; drainBudget caps the cycles
// spent waiting for the network to empty after the last arrival (default
// 1e6). On a watchdog or drain-budget error the Result holds only the
// makespan reached so far.
func RunBatch(cfg Config, wl traffic.Workload, lastArrival int64, drainBudget int64) (BatchResult, error) {
	cfg.ApplyDefaults()
	out, errs, err := runBurstReplicas(cfg, []traffic.Workload{wl}, []uint64{cfg.Seed}, lastArrival, drainBudget)
	if err != nil {
		return out[0], err
	}
	return out[0], errs[0]
}

// ReplicateBatch runs the permutation-burst experiment once per seed and
// returns the replicas in seed order — the spread of makespans across seeds
// is the batch experiments' error bar. The seeds ride the lockstep engine
// in chunks of up to replicaChunk (shared tables, one fused sweep per
// cycle), spread across the work-stealing scheduler; results are identical
// to running each seed through RunBatch. Telemetry meters one replica per
// batch and the saf engine has no lockstep form, so those configs run one
// seed per chunk.
func ReplicateBatch(cfg Config, patternSpec string, seeds []uint64, workers int, drainBudget int64) ([]BatchResult, error) {
	cfg.ApplyDefaults()
	chunk := replicaChunk
	if cfg.Switching == StoreFwd || cfg.Telemetry != nil {
		chunk = 1
	}
	out := make([]BatchResult, len(seeds))
	errs := make([]error, (len(seeds)+chunk-1)/chunk)
	s := NewScheduler(workers)
	for lo := 0; lo < len(seeds); lo += chunk {
		hi := min(lo+chunk, len(seeds))
		s.Submit(func(int) {
			errs[lo/chunk] = replicateChunk(cfg, patternSpec, seeds[lo:hi], out[lo:hi], drainBudget)
		})
	}
	s.Close()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// replicateChunk runs one chunk of permutation-burst seeds into out and
// returns the first replica's error, tagged with its seed.
func replicateChunk(cfg Config, patternSpec string, seeds []uint64, out []BatchResult, drainBudget int64) error {
	wls := make([]traffic.Workload, len(seeds))
	last := int64(0)
	for r, seed := range seeds {
		c := cfg
		c.Seed = seed
		burst, err := PermutationBurst(c, patternSpec)
		if err != nil {
			return err
		}
		wls[r] = burst
		last = max(last, burst.LastCycle())
	}
	rs, errs, err := runBurstReplicas(cfg, wls, seeds, last, drainBudget)
	copy(out, rs)
	if err != nil {
		return err
	}
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("core: batch replica seed=%#x: %w", seeds[r], err)
		}
	}
	return nil
}

// runBurstReplicas drives one finite workload per seed to completion on
// one lockstep engine. Each replica is stepped through the arrival window
// and then drained; a replica whose network empties drops out of the live
// set while its siblings keep draining. It returns one BatchResult and one
// watchdog or drain-budget error per seed — an erring replica's totals stay
// unfilled — and a setup error.
func runBurstReplicas(cfg Config, wls []traffic.Workload, seeds []uint64, last, drainBudget int64) ([]BatchResult, []error, error) {
	if drainBudget <= 0 {
		drainBudget = 1_000_000
	}
	g := cfg.Grid()
	out := make([]BatchResult, len(seeds))
	errs := make([]error, len(seeds))
	for r := range out {
		out[r] = BatchResult{Algorithm: cfg.Algorithm, Switching: cfg.Switching}
	}
	alg, err := routing.Get(cfg.Algorithm)
	if err != nil {
		return out, errs, err
	}
	policy, err := routing.GetPolicy(cfg.Policy)
	if err != nil {
		return out, errs, err
	}
	var tel *telemetry.Collector
	if cfg.Telemetry != nil && cfg.Switching != StoreFwd {
		tel = telemetry.New(*cfg.Telemetry, g.ChannelSlots(), alg.NumVCs(g))
	}
	hists := make([]stats.Histogram, len(seeds))
	eng, err := newLockstep(cfg.Switching, network.BatchConfig{
		Grid: g, Algorithm: alg, Policy: policy, Workloads: wls, Seeds: seeds,
		MsgLen: cfg.MsgLen, BufDepth: cfg.BufDepth, CCLimit: cfg.CCLimit,
		InjectionPorts: cfg.InjectionPorts, Telemetry: tel,
		OnDeliver: func(r int, m *message.Message) {
			hists[r].Add(float64(m.Latency()))
			if m.DeliverTime > out[r].Makespan {
				out[r].Makespan = m.DeliverTime
			}
		},
	})
	if err != nil {
		return out, errs, err
	}
	// The arrival window, then the drain: a replica leaves the live set the
	// moment its network empties.
	for i := int64(0); i <= last && eng.Live() > 0; i++ {
		eng.step(errs)
	}
	for i := int64(0); i < drainBudget && eng.Live() > 0; i++ {
		for r := range seeds {
			if eng.IsLive(r) && eng.InFlight(r) == 0 {
				eng.Deactivate(r)
			}
		}
		if eng.Live() == 0 {
			break
		}
		eng.step(errs)
	}
	for r := range seeds {
		if errs[r] == nil && eng.InFlight(r) > 0 {
			errs[r] = fmt.Errorf("core: %d messages still in flight after %d drain cycles", eng.InFlight(r), drainBudget)
		}
		if errs[r] != nil {
			continue
		}
		t := eng.Total(r)
		out[r].Delivered, out[r].Dropped, out[r].FlitMoves = t.Delivered, t.Dropped, t.FlitMoves
		out[r].MeanLatency = hists[r].Mean()
		out[r].LatencyP95 = hists[r].Quantile(0.95)
		out[r].MaxLatency = hists[r].Max()
		if r == 0 && tel != nil {
			out[r].Telemetry = tel.Summary()
			out[r].TraceEvents = tel.Events()
		}
	}
	return out, errs, nil
}

// PermutationBurst builds a trace that injects every source's message for
// the named permutation pattern at cycle 0 — the "how fast does one
// all-at-once permutation complete" experiment.
func PermutationBurst(cfg Config, patternSpec string) (*traffic.Trace, error) {
	cfg.ApplyDefaults()
	g := cfg.Grid()
	pattern, err := traffic.Parse(g, patternSpec)
	if err != nil {
		return nil, err
	}
	var cycles []int64
	var arrs []traffic.Arrival
	r := rng.NewStream(cfg.Seed, 0xb135)
	for src := 0; src < g.Nodes(); src++ {
		dst := pattern.Dest(src, r)
		if dst < 0 {
			continue
		}
		cycles = append(cycles, 0)
		arrs = append(arrs, traffic.Arrival{Src: src, Dst: dst})
	}
	return traffic.NewTrace(g, patternSpec+"-burst", cycles, arrs), nil
}
