package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"

	"wormsim/internal/core"
	"wormsim/internal/telemetry"
)

// quick applies the methodology of `figures -quick`: 2000 warmup cycles,
// 1000-cycle samples separated by 300-cycle gaps, at most 5 samples, and
// the paper's 5% convergence bound.
func quick(c core.Config) core.Config {
	c.WarmupCycles, c.SampleCycles, c.GapCycles, c.MaxSamples = 2000, 1000, 300, 5
	return c
}

// buildOnly shrinks a config's methodology to one cycle per stage, so that
// running it costs little more than building its engine: the work a job
// does before its first simulated cycle.
func buildOnly(c core.Config) core.Config {
	c.WarmupCycles, c.SampleCycles, c.GapCycles, c.MinSamples, c.MaxSamples = 1, 1, 1, 1, 1
	return c
}

// batch describes a job that regenerates a fixed set of points.
type batch struct {
	base core.Config
	// job runs the whole job once on base and returns every point, in a
	// fixed order.
	job func(base core.Config) ([]core.Result, error)
	// setup builds the job's engines once without simulating (see
	// buildOnly); setupRounds set-ups are timed and their median reported.
	setup       func() error
	setupRounds int
	// workers is the scheduler width the job runs at.
	workers int
	// seeds, set for a lockstep job, are the replica seeds of each load, in
	// the order the job returns a load's points. The job runs them in
	// lockstep chunks: a chunk is one scheduler item, and only its first
	// replica reports samples. How wide a chunk is, the traced run works
	// out from what it observes (see lockstepWidth).
	seeds []uint64
	// check runs after timing with one job's points.
	check func(*report, []core.Result) error
}

// runFig3 regenerates Figure 3: uniform traffic, the six algorithms at
// offered loads 0.1 to 1.0 on the 16-ary 2-cube, `figures -quick`
// methodology, one scalar engine per point on nproc sweep workers.
func runFig3(r *run) (*report, error) {
	spec, err := core.FigureByID("fig3")
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0) // the width core.Sweep uses
	if workers > len(spec.Loads) {
		workers = len(spec.Loads)
	}
	return runBatch(r, batch{
		base: quick(core.Config{Seed: r.seed}),
		job: func(base core.Config) ([]core.Result, error) {
			fr, err := core.RunFigure(spec, base)
			var out []core.Result
			for _, s := range fr.Series {
				out = append(out, s.Results...)
			}
			return out, err
		},
		setup: func() error {
			for _, alg := range spec.Algorithms {
				c := buildOnly(core.Config{Algorithm: alg, Pattern: spec.Pattern, OfferedLoad: spec.Loads[0], Seed: r.seed})
				if _, err := core.Run(c); err != nil {
					return err
				}
			}
			return nil
		},
		setupRounds: 9,
		workers:     workers,
	})
}

// replicaLoads and replicaSeeds shape replicas-light: the error-bar
// workflow at light loads, below nbc's saturation, with 16 seeds per load.
var replicaLoads = []float64{0.1, 0.2, 0.3, 0.4}

const replicaSeeds = 16

// runReplicas runs core.SweepReplicated for nbc on uniform traffic: every
// load once per seed, each load's seeds in lockstep BatchNetwork chunks.
func runReplicas(r *run) (*report, error) {
	rng := rand.New(rand.NewPCG(r.seed, 0x7265706c))
	seeds := make([]uint64, replicaSeeds)
	for i := range seeds {
		seeds[i] = rng.Uint64() | 1
	}
	base := quick(core.Config{Algorithm: "nbc", Pattern: "uniform"})
	return runBatch(r, batch{
		base: base,
		job: func(base core.Config) ([]core.Result, error) {
			rr, err := core.SweepReplicated(base, replicaLoads, seeds, r.workers)
			var out []core.Result
			for _, x := range rr {
				out = append(out, x.Replicas...)
			}
			return out, err
		},
		setup: func() error {
			for _, load := range replicaLoads {
				if _, err := core.RunReplicas(buildOnly(core.Config{Algorithm: "nbc", Pattern: "uniform", OfferedLoad: load}), seeds); err != nil {
					return err
				}
			}
			return nil
		},
		setupRounds: 9,
		workers:     r.workers,
		seeds:       seeds,
		check: func(rep *report, points []core.Result) error {
			// One seeded replica, re-run alone on the scalar engine, must be
			// bit-identical to its lockstep twin.
			li, si := rng.IntN(len(replicaLoads)), rng.IntN(len(seeds))
			c := base
			c.OfferedLoad, c.Seed = replicaLoads[li], seeds[si]
			want, err := core.Run(c)
			if err != nil {
				return fmt.Errorf("scalar re-run of replica %d at load %.1f: %w", si, c.OfferedLoad, err)
			}
			if !sameResult(points[li*replicaSeeds+si], want) {
				rep.problem("replica seed %#x at load %.1f differs from core.Run of the same config", c.Seed, c.OfferedLoad)
			}
			rep.note("check replica seed=%#x load=%.1f equals core.Run", c.Seed, c.OfferedLoad)
			return nil
		},
	})
}

// runBatch times b's job repeatedly until the run's seconds are used up.
// In a traced run, untraced and traced repetitions alternate: the traced
// ones give the per-layer metrics, the difference between the two kinds is
// the tracing overhead.
func runBatch(r *run, b batch) (*report, error) {
	rep := newReport()
	setups := make([]float64, 0, b.setupRounds)
	for i := 0; i < b.setupRounds; i++ {
		// Each round starts from a collected heap, as a fresh process would,
		// rather than paying for the previous round's garbage.
		runtime.GC()
		t := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	rep.set("setup_s", median(setups))
	rep.note("set-up rounds %v s", roundAll(setups))

	var (
		plain, traced   []float64 // job walls, s
		p50s            []float64 // per repetition: median point completion time since job start, ms
		pointS, busy    []float64
		mallocs, allocB uint64
		tracedPoints    int
		first           []core.Result
		digest          string
		counts          workCounts
		samples         atomic.Int64 // OnSample events
		observers       atomic.Int64 // OnSample events of a first sample: one per engine run
		tracedSpans     [][]pointSpan
	)
	var prof *telemetry.PhaseProfiler
	minReps := 1
	if r.trace {
		prof = telemetry.NewPhaseProfiler()
		minReps = 2
	}
	start := time.Now()
	for i := 0; time.Since(start) < r.seconds || i < minReps; i++ {
		isTraced := r.trace && i%2 == 1
		base := b.base
		var m0 runtime.MemStats
		if isTraced {
			base.PhaseProf = prof
			parent := int64(i)
			base.OnSample = func(ev core.SampleEvent) {
				samples.Add(1)
				if ev.Sample == 1 {
					observers.Add(1)
				}
				now := r.tr.now()
				r.tr.add(span{Name: "sample", Layer: "core", Parent: parent, Start: now, End: now,
					Args: map[string]any{"sample": ev.Sample, "done": ev.Done}})
			}
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		rec := newRecorder(t0)
		base.Cache = rec
		points, err := b.job(base)
		wall := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		rep.attempted += len(points)

		d := newDigester()
		for j, p := range points {
			d.add(p)
			if p.Deadlocked {
				rep.failed++
			}
			if i == 0 {
				counts.add(p, base.WarmupCycles)
				checkResult(rep, fmt.Sprintf("point %d (%s rho=%.1f)", j, p.Algorithm, p.OfferedLoad), p)
			}
		}
		if i == 0 {
			first, digest = points, d.String()
		} else if d.String() != digest {
			rep.problem("repetition %d digest %s differs from repetition 0's %s", i, d.String(), digest)
		}
		if len(rec.spans) != len(points) {
			rep.problem("repetition %d recorded %d point spans for %d points", i, len(rec.spans), len(points))
		}

		if !isTraced {
			plain = append(plain, wall.Seconds())
			done := make([]float64, 0, len(rec.spans))
			for _, s := range rec.spans {
				done = append(done, ms(s.end))
			}
			p50s = append(p50s, percentile(done, 0.50))
			continue
		}
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		allocB += m1.TotalAlloc - m0.TotalAlloc
		tracedPoints += len(points)
		traced = append(traced, wall.Seconds())
		off := t0.Sub(r.tr.t0)
		r.tr.add(span{Name: "job", Layer: "bench", ID: int64(i), Start: off, End: off + wall})
		for j, s := range rec.spans {
			pointS = append(pointS, (s.end - s.start).Seconds())
			r.tr.add(span{Name: "point", Layer: "core", ID: int64(j), Parent: int64(i),
				Start: off + s.start, End: off + s.end, Args: map[string]any{"load": s.load, "seed": s.seed}})
		}
		tracedSpans = append(tracedSpans, rec.spans)
	}

	counts.report(rep)
	rep.digest = digest
	if b.check != nil {
		if err := b.check(rep, first); err != nil {
			return nil, err
		}
	}

	wall := median(plain)
	rep.note("job walls in order %v s (median %.3f)", roundAll(plain), wall)
	rep.set("wall_s", wall)
	rep.set("flit_hops_per_s", ratio(float64(counts.flitHops), wall))
	// The median is taken per repetition, whose points complete in a fixed
	// order, and the median of those reported like wall_s: pooling the
	// repetitions would put it on the boundary between two of them.
	rep.set("lat_p50_ms", median(p50s))
	rep.note("point completion latency: %d samples per repetition", len(first))
	rep.note("failed_frac %.4g (%d of %d points)", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	if !r.trace {
		return rep, nil
	}

	// One engine run per scheduler item: a point on the scalar engine, or a
	// lockstep chunk of one load's seeds, whose width is inferred from the
	// sample events rather than assumed.
	reps := int64(len(traced))
	width := 1
	if b.seeds != nil {
		width = lockstepWidth(first, len(b.seeds), observers.Load()/reps, samples.Load()/reps)
		if width == 0 || observers.Load()%reps != 0 || samples.Load()%reps != 0 {
			rep.problem("traced repetitions saw %d engine runs and %d sample events, which no contiguous lockstep chunking of %d seeds per load gives",
				observers.Load(), samples.Load(), len(b.seeds))
			width = len(b.seeds)
		}
		rep.note("lockstep chunks of %d seeds (inferred from %d sample events)", width, samples.Load()/reps)
	} else if got, want := samples.Load(), reps*sampleEvents(first); got != want {
		rep.problem("traced repetitions saw %d sample events, want %d", got, want)
	}
	for k, spans := range tracedSpans {
		busy = append(busy, ratio(busyTime(spans, b.seeds, width).Seconds(), float64(b.workers)*traced[k]))
	}
	phases := prof.Snapshot()
	shares := map[string]float64{}
	for _, p := range phases.Phases {
		shares[p.Phase] = p.Share
	}
	rep.set("network.ns_per_flit_hop", ratio(float64(phases.Total()), float64(int64(len(traced))*counts.flitHops)))
	rep.set("network.inject_frac", shares["inject"])
	rep.set("network.route_frac", shares["route"])
	rep.set("network.transfer_frac", shares["transfer"])
	rep.set("network.watchdog_frac", shares["watchdog"])
	rep.set("core.allocs_per_point", ratio(float64(mallocs), float64(tracedPoints)))
	rep.set("core.alloc_bytes_per_point", ratio(float64(allocB), float64(tracedPoints)))
	rep.set("core.point_s_p50", percentile(pointS, 0.5))
	rep.set("core.point_s_max", percentile(pointS, 1))
	rep.set("sched.busy_frac", median(busy))
	rep.set("core.replica_live_frac", 0)
	if b.seeds != nil {
		rep.set("core.replica_live_frac", liveFrac(first, len(b.seeds), width))
	}
	rep.set("trace.overhead_frac", median(traced)/median(plain)-1)
	rep.notApplicable(storeAndAPIMetrics...)
	return rep, nil
}

// sampleEvents is how many OnSample calls one job's scalar points imply:
// one per sample.
func sampleEvents(points []core.Result) int64 {
	var n int64
	for _, p := range points {
		n += int64(p.Samples)
	}
	return n
}

// lockstepWidth works out how wide a lockstep job's chunks were from what
// one traced repetition observed: every chunk's observer (its first
// replica) reports each of its samples through OnSample, starting at
// sample 1. It returns the narrowest contiguous chunking of each load's
// perLoad seeds that gives the observed number of chunks and of sample
// events, or 0 if none does. Widths that give the same chunk count (9 to 15
// of 16 seeds all make two chunks) resolve to the most even split.
func lockstepWidth(points []core.Result, perLoad int, chunks, events int64) int {
	for w := 1; w <= perLoad; w++ {
		var c, e int64
		for i := 0; i+perLoad <= len(points); i += perLoad {
			for lo := 0; lo < perLoad; lo += w {
				c++
				e += int64(points[i+lo].Samples)
			}
		}
		if c == chunks && e == events {
			return w
		}
	}
	return 0
}

// busyTime sums the spans of the scheduler items: a point each, or for a
// lockstep job one chunk of width seeds of a load, whose replicas' spans
// are merged.
func busyTime(spans []pointSpan, seeds []uint64, width int) time.Duration {
	if seeds == nil {
		var sum time.Duration
		for _, s := range spans {
			sum += s.end - s.start
		}
		return sum
	}
	index := make(map[uint64]int, len(seeds))
	for i, s := range seeds {
		index[s] = i
	}
	type item struct {
		load  float64
		chunk int
	}
	items := map[item]pointSpan{}
	for _, s := range spans {
		k := item{s.load, index[s.seed] / width}
		it, ok := items[k]
		if !ok {
			it = s
		}
		it.start, it.end = min(it.start, s.start), max(it.end, s.end)
		items[k] = it
	}
	var sum time.Duration
	for _, it := range items {
		sum += it.end - it.start
	}
	return sum
}

// liveFrac is the share of lockstep replica-cycles still live: a chunk of
// width replicas runs until its longest replica is done, and a replica that
// converged earlier has dropped out of the live set for the rest.
func liveFrac(points []core.Result, perLoad, width int) float64 {
	var live, lockstep int64
	for i := 0; i+perLoad <= len(points); i += perLoad {
		for lo := 0; lo < perLoad; lo += width {
			chunk := points[i+lo : i+min(lo+width, perLoad)]
			var longest int64
			for _, p := range chunk {
				live += p.Cycles
				longest = max(longest, p.Cycles)
			}
			lockstep += longest * int64(len(chunk))
		}
	}
	return ratio(float64(live), float64(lockstep))
}

// storeAndAPIMetrics are the per-layer metrics of the run store, the HTTP
// API and the load generator, which only service-mix exercises.
var storeAndAPIMetrics = []string{
	"runstore.replay_s", "runstore.records", "runstore.bytes_per_record",
	"runstore.lookup_us_p50", "core.hash_us_p50", "runstore.hit_frac", "runstore.put_us_p50",
	"observatory.submit_ms_p50", "observatory.response_bytes_p50",
	"observatory.queue_wait_ms_p50", "observatory.queue_wait_ms_p95", "observatory.run_ms_p50",
	"hit_p50_ms", "hit_p99_ms", "miss_p50_ms", "miss_p95_ms", "loadgen.late_p99_ms", "service.repeat_frac",
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1e4+0.5)) / 1e4
	}
	return out
}
