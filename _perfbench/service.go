package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"wormsim/internal/core"
	"wormsim/internal/observatory"
	"wormsim/internal/runstore"
)

// service-mix shape. Nothing in the repository records how the API is used,
// so the mix is assumed, not measured: nine in ten submissions repeat an
// earlier config and are answered from the store; the tenth, in a fixed
// slot, is a new config the API must simulate. New configs therefore arrive
// evenly, one every 125 ms, and rarely overlap: the API's workers stay about
// a twentieth busy, so the latencies measure the store, the HTTP path and
// the scheduler rather than contention for a saturated 2-CPU host. With that
// mix the median lies inside the hit distribution, away from the boundary
// between hits and misses. What a store change depends on is the repeat
// share, reported as service.repeat_frac beside runstore.hit_frac.
const (
	serviceRate    = 80
	newEvery       = 10
	storedRecords  = 2048
	serviceSetups  = 7
	checkedMisses  = 8
	lateLimit      = 100 * time.Millisecond
	repeatLag      = 2 * time.Second
	generatorStart = 50 * time.Millisecond
	// minBeyond is how many samples every reported service percentile must
	// keep above it; fewer, and the value rests on a handful of requests.
	minBeyond = 10
	// missTail is the misses' tail percentile: a 30 s run has 240 misses,
	// which leaves 12 beyond p95 and only 2 beyond p99.
	missTail = 0.95
)

var paperAlgorithms = []string{"nbc", "phop", "nhop", "2pn", "ecube", "nlast"}

// missDeck deals the new points for the API to simulate: 8-ary 2-cubes at
// loads from 0.1 to 0.5 with a short methodology (at most 5 samples), so
// that a miss costs milliseconds, not a saturated run's hundreds. Every
// block of 30 deals each (algorithm, load band) pair once in seeded order,
// so every seed asks for the same mix of work; the load is drawn within
// its band of 0.08, so miss costs form a smooth distribution whose upper
// percentiles do not sit on the step between two configs.
type missDeck struct {
	rng  *rand.Rand
	deck []int
}

const missBands = 5

func (d *missDeck) next() core.Config {
	if len(d.deck) == 0 {
		d.deck = d.rng.Perm(len(paperAlgorithms) * missBands)
	}
	k := d.deck[0]
	d.deck = d.deck[1:]
	band := k / len(paperAlgorithms)
	return core.Config{
		K: 8, N: 2, Algorithm: paperAlgorithms[k%len(paperAlgorithms)], Pattern: "uniform",
		OfferedLoad: 0.1 + 0.08*(float64(band)+d.rng.Float64()), Seed: d.rng.Uint64() | 1,
		WarmupCycles: 500, SampleCycles: 300, GapCycles: 100, MaxSamples: 5,
	}
}

// storedConfig is a point of the pre-populated store: a 4-ary 2-cube run
// just long enough to be a real record.
func storedConfig(rng *rand.Rand) core.Config {
	return core.Config{
		K: 4, N: 2, Algorithm: paperAlgorithms[rng.IntN(len(paperAlgorithms))], Pattern: "uniform",
		OfferedLoad: float64(1+rng.IntN(9)) / 10, Seed: rng.Uint64() | 1,
		WarmupCycles: 200, SampleCycles: 200, GapCycles: 50, MinSamples: 1, MaxSamples: 2,
	}
}

type opKind int

const (
	opNew          opKind = iota // a config nobody submitted: must be simulated
	opRepeatStored               // repeats a pre-populated record
	opRepeatRun                  // repeats a config first submitted in this run
)

// op is one scheduled submission and, once it has run, what happened.
type op struct {
	due  time.Duration // since the window opened
	kind opKind
	of   int // the repeated record (opRepeatStored) or op (opRepeatRun)
	cfg  core.Config
	hash string
	body []byte

	late, sent, posted, running, done time.Duration
	status                            int
	respBytes                         int
	result                            *core.Result
	err                               error
}

// class is how the API answered: from the store, or by simulating (joined
// marks a repeat that arrived while its first run was still pending).
func (o *op) class() string {
	switch {
	case o.err != nil:
		return "failed"
	case o.status == http.StatusOK:
		return "hit"
	case o.kind != opNew:
		return "joined"
	}
	return "miss"
}

// schedule lays out the open loop: one submission every 1/serviceRate
// seconds for the run's length.
func schedule(rng *rand.Rand, stored []runstore.Record, seconds time.Duration) []*op {
	n := int(seconds.Seconds() * serviceRate)
	ops := make([]*op, n)
	var fresh []int // indices of opNew ops, in due order
	deck := &missDeck{rng: rng}
	for i := range ops {
		o := &op{due: time.Duration(i) * time.Second / serviceRate}
		if i%newEvery != 0 {
			// Repeat a run-time miss only once its first submission is long
			// past, so that the repeat finds it stored.
			eligible := 0
			for eligible < len(fresh) && ops[fresh[eligible]].due <= o.due-repeatLag {
				eligible++
			}
			if eligible > 0 && rng.IntN(2) == 0 {
				o.kind, o.of = opRepeatRun, fresh[rng.IntN(eligible)]
				o.cfg = ops[o.of].cfg
			} else {
				o.kind, o.of = opRepeatStored, rng.IntN(len(stored))
				o.cfg = stored[o.of].Config
			}
		} else {
			o.kind, o.cfg = opNew, deck.next()
			fresh = append(fresh, i)
		}
		o.hash = o.cfg.Hash()
		body, err := json.Marshal(o.cfg)
		if err != nil {
			panic(err) // a Config of plain values always encodes
		}
		o.body = body
		ops[i] = o
	}
	return ops
}

// prepopulate fills a fresh store in dir with real records, simulated on
// every CPU; it is not timed.
func prepopulate(dir string, rng *rand.Rand, workers int) ([]runstore.Record, error) {
	recs := make([]runstore.Record, storedRecords)
	for i := range recs {
		recs[i].Config = storedConfig(rng)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(recs); i += workers {
				res, err := core.Run(recs[i].Config)
				if err != nil {
					errs[w] = err
					return
				}
				recs[i].Result = res
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pre-populate: %w", err)
		}
	}
	store, err := runstore.Open(dir)
	if err != nil {
		return nil, err
	}
	for i := range recs {
		recs[i].Config = recs[i].Config.Canonical()
		recs[i].Hash = recs[i].Config.Hash()
		if err := store.Put(recs[i]); err != nil {
			store.Close()
			return nil, err
		}
	}
	return recs, store.Close()
}

// service is one started API: the replayed store, the API over it, its
// loopback listener and the client that talks to it.
type service struct {
	store  *runstore.Store
	api    *observatory.API
	srv    *observatory.Server
	client *http.Client
	base   string
}

// startService replays the store in dir and starts the API the way the
// CLIs' -http -store flags do, then opens the first client connection.
func startService(dir string, workers int) (*service, time.Duration, error) {
	t := time.Now()
	store, err := runstore.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	replay := time.Since(t)
	pub := observatory.NewPublisher()
	api := observatory.NewAPI(store, pub, workers)
	srv, err := observatory.Listen("127.0.0.1:0", pub, api)
	if err != nil {
		api.Close()
		store.Close()
		return nil, 0, err
	}
	s := &service{
		store: store, api: api, srv: srv, base: "http://" + srv.Addr(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true,
		}},
	}
	resp, err := s.client.Get(s.base + "/api/runs/" + strings.Repeat("0", 64))
	if err != nil {
		s.stop()
		return nil, 0, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // the status is what matters
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		s.stop()
		return nil, 0, fmt.Errorf("probe of an unknown run answered %s", resp.Status)
	}
	return s, replay, nil
}

func (s *service) stop() error {
	s.client.CloseIdleConnections()
	s.srv.Close()
	s.api.Close()
	return s.store.Close()
}

// runStatus mirrors the API's wire status.
type runStatus struct {
	Hash   string       `json:"hash"`
	State  string       `json:"state"`
	Cached bool         `json:"cached"`
	Error  string       `json:"error"`
	Result *core.Result `json:"result"`
}

// submit runs one op against the API: POST the config; a 202 is followed on
// the run's SSE stream until done. Times are since t0.
func (s *service) submit(o *op, t0 time.Time) {
	o.sent = time.Since(t0)
	resp, err := s.client.Post(s.base+"/api/runs", "application/json", bytes.NewReader(o.body))
	if err != nil {
		o.err = err
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.posted = time.Since(t0)
	o.status, o.respBytes = resp.StatusCode, len(body)
	if err != nil {
		o.err = err
		return
	}
	var st runStatus
	if err := json.Unmarshal(body, &st); err != nil {
		o.err = fmt.Errorf("decode %s answer: %w", resp.Status, err)
		return
	}
	if st.Hash != o.hash {
		o.err = fmt.Errorf("API hashed the config to %s, want %s", st.Hash, o.hash)
		return
	}
	switch {
	case resp.StatusCode == http.StatusOK && st.State == "done" && st.Cached && st.Result != nil:
		o.result, o.done = st.Result, o.posted
		return
	case resp.StatusCode != http.StatusAccepted:
		o.err = fmt.Errorf("submit answered %s (state %q)", resp.Status, st.State)
		return
	}

	resp, err = s.client.Get(s.base + "/api/runs/" + o.hash + "/events")
	if err != nil {
		o.err = err
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		now := time.Since(t0)
		var st runStatus
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			o.err = fmt.Errorf("decode SSE frame: %w", err)
			return
		}
		switch st.State {
		case "queued":
		case "running":
			if o.running == 0 {
				o.running = now
			}
		case "done":
			if st.Result == nil {
				o.err = fmt.Errorf("done frame without a result")
				return
			}
			o.result, o.done = st.Result, now
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain so the connection is reused
			return
		default:
			o.err = fmt.Errorf("run %s: state %q %s", o.hash[:12], st.State, st.Error)
			return
		}
	}
	if err := sc.Err(); err != nil {
		o.err = err
		return
	}
	o.err = fmt.Errorf("run %s: event stream ended before done", o.hash[:12])
}

// runService drives service-mix: the observatory API over a pre-populated
// run store on a loopback listener, fed by an open loop of submissions.
func runService(r *run) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewPCG(r.seed, 0x73657276))
	dir := filepath.Join(r.out, fmt.Sprintf("service-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	storeDir := filepath.Join(dir, "store")
	stored, err := prepopulate(storeDir, rng, r.workers)
	if err != nil {
		return nil, err
	}
	ops := schedule(rng, stored, r.seconds)
	rep.attempted = len(ops)
	rep.inputs = fmt.Sprintf("seconds=%d", int(r.seconds.Seconds()))

	var setups, replays []float64
	var svc *service
	for i := 0; i < serviceSetups; i++ {
		runtime.GC() // as in runBatch: start each round from a collected heap
		t := time.Now()
		s, replay, err := startService(storeDir, r.workers)
		if err != nil {
			return nil, fmt.Errorf("start service: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		replays = append(replays, replay.Seconds())
		if i < serviceSetups-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		svc = s
	}
	rep.set("setup_s", median(setups))
	rep.note("set-up rounds %v s", roundAll(setups))
	err = drive(r, rep, rng, svc, ops, stored, replays)
	if serr := svc.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// drive runs the open loop against svc, checks every answer and reports
// the metrics.
func drive(r *run, rep *report, rng *rand.Rand, svc *service, ops []*op, stored []runstore.Record, replays []float64) error {
	records := svc.store.Len()
	fi, err := os.Stat(svc.store.Path())
	if err != nil {
		return err
	}

	// The open loop. Each submission runs on its own goroutine once it is
	// due and then waits for one of `workers` client slots; that wait is
	// part of its latency, which is measured from the due time.
	hits0, misses0 := svc.store.Hits(), svc.store.Misses()
	cpu0 := processCPU()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	slots := make(chan struct{}, r.workers)
	var wg sync.WaitGroup
	t0 := time.Now().Add(generatorStart)
	for i, o := range ops {
		time.Sleep(time.Until(t0.Add(o.due)))
		o.late = time.Since(t0) - o.due
		wg.Add(1)
		traced := r.trace && i%2 == 0
		go func(o *op) {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			svc.submit(o, t0)
			if traced {
				o.record(r.tr, t0.Sub(r.tr.t0), int64(i))
			}
		}(o)
	}
	wg.Wait()
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	hits1, misses1 := svc.store.Hits(), svc.store.Misses()

	// Outcomes.
	var lat, hitLat, missLat, late, runS, runMS, queue []float64
	var window, served, runTotal time.Duration
	var counts workCounts
	var runHops int64 // flit hops of the misses whose run was timed
	classes := map[string]int{}
	d := newDigester()
	for _, rec := range stored {
		d.add(rec.Result)
	}
	if records != storedRecords {
		rep.problem("the replayed store holds %d records, want the %d pre-populated", records, storedRecords)
	}
	for i, o := range ops {
		late = append(late, ms(o.late))
		c := o.class()
		classes[c]++
		if c == "failed" {
			rep.failed++
			rep.problem("submission %d failed: %v", i, o.err)
			continue
		}
		l := ms(o.done - o.due)
		lat = append(lat, l)
		window = max(window, o.done)
		served += o.done - o.sent
		if c == "hit" {
			hitLat = append(hitLat, l)
		} else {
			missLat = append(missLat, l)
		}
		if o.running > 0 && c != "hit" {
			queue = append(queue, ms(o.running-o.sent))
			runS = append(runS, (o.done - o.running).Seconds())
			runMS = append(runMS, ms(o.done-o.running))
		}
		if o.running > 0 && c == "miss" {
			// A joined repeat waited for the same run; count each run once.
			runTotal += o.done - o.running
			runHops += flitHops(*o.result)
		}
		what := fmt.Sprintf("submission %d (%s rho=%.1f)", i, o.cfg.Algorithm, o.cfg.OfferedLoad)
		checkResult(rep, what, *o.result)
		switch o.kind {
		case opNew:
			if c != "miss" {
				rep.problem("%s: a new config was answered from the store", what)
			}
			counts.add(*o.result, o.cfg.WarmupCycles)
			d.add(*o.result)
		case opRepeatStored:
			if c != "hit" {
				rep.problem("%s: a repeat of a pre-populated record was answered %d, not from the store", what, o.status)
			}
			if !sameResult(*o.result, stored[o.of].Result) {
				rep.problem("%s: the store answered a different Result than the record it holds", what)
			}
		case opRepeatRun:
			if first := ops[o.of]; first.result != nil && !sameResult(*o.result, *first.result) {
				rep.problem("%s: repeat of submission %d returned a different Result than its run", what, o.of)
			}
		}
	}
	rep.digest = d.String()
	counts.report(rep)
	rep.count("runstore.records", int64(records))
	rep.count("service.submissions", int64(len(ops)))
	rep.count("service.misses", int64(classes["miss"]))
	rep.count("service.repeats", int64(classes["hit"]+classes["joined"]))
	rep.count("service.hits", int64(classes["hit"]))
	rep.count("service.joined", int64(classes["joined"]))
	if want := records + classes["miss"]; svc.store.Len() != want {
		rep.problem("store holds %d records after the run, want %d", svc.store.Len(), want)
	}

	// Seeded sample of simulated answers, re-run in-process.
	var fresh []*op
	for _, o := range ops {
		if o.kind == opNew && o.result != nil {
			fresh = append(fresh, o)
		}
	}
	for k := 0; k < checkedMisses && len(fresh) > 0; k++ {
		o := fresh[rng.IntN(len(fresh))]
		want, err := core.Run(o.cfg)
		if err != nil {
			rep.problem("core.Run of checked config %s: %v", o.hash[:12], err)
			continue
		}
		if !sameResult(*o.result, want) {
			rep.problem("API Result for %s differs from core.Run of the same config", o.hash[:12])
		}
	}

	latP99 := percentile(late, 0.99)
	if latP99 > ms(lateLimit) {
		rep.problem("invalid run: the load generator ran late, p99 %.1f ms > %v", latP99, lateLimit)
	}
	// The end-to-end times come from the program's work, not from the
	// schedule: the open loop fixes when the last answer arrives, so the
	// window's length could not show a slower API. They are counted in
	// process CPU time. The API idles between requests, and on a shared
	// host every wake-up and every stolen slice lands in the wall time of
	// the short runs it serves; CPU time leaves both out.
	if cpu <= 0 {
		rep.problem("process CPU time over the window is unavailable (%v)", cpu)
	}
	rep.set("wall_s", cpu.Seconds())
	rep.set("flit_hops_per_s", ratio(float64(counts.flitHops), cpu.Seconds()))
	rep.tail("lat_p50_ms", lat, 0.50)
	repeats := classes["hit"] + classes["joined"]
	rep.note("submissions %d: %d hits, %d misses, %d joined, %d failed (failed_frac %.4g, repeat share %.3g)",
		len(ops), classes["hit"], classes["miss"], classes["joined"], classes["failed"],
		ratio(float64(rep.failed), float64(rep.attempted)), ratio(float64(repeats), float64(len(ops))))
	rep.note("window %.3f s: process CPU %.3f s; API answering %.3f s summed over submissions; %d timed runs, %.3f s, %d flit hops (%.4g /s)",
		window.Seconds(), cpu.Seconds(), served.Seconds(), len(runS), runTotal.Seconds(), runHops, ratio(float64(runHops), runTotal.Seconds()))
	rep.note("latency all: %d samples; p95 %.3f ms, %d beyond; p99 %.3f ms, %d beyond",
		len(lat), percentile(lat, 0.95), beyond(len(lat), 0.95), percentile(lat, 0.99), beyond(len(lat), 0.99))
	rep.note("hit  p50 %.3f ms  p99 %.3f ms  (%d samples, %d beyond p99)",
		percentile(hitLat, 0.5), percentile(hitLat, 0.99), len(hitLat), beyond(len(hitLat), 0.99))
	rep.note("miss p50 %.3f ms  p95 %.3f ms  (%d samples, %d beyond p95)",
		percentile(missLat, 0.5), percentile(missLat, missTail), len(missLat), beyond(len(missLat), missTail))
	rep.note("load generator late p99 %.3f ms (limit %v); setup replays %v s", latP99, lateLimit, roundAll(replays))

	if r.trace {
		if err := traceService(r, rep, svc, ops, stored); err != nil {
			return err
		}
		rep.set("runstore.replay_s", median(replays))
		rep.set("runstore.records", float64(records))
		rep.set("runstore.bytes_per_record", ratio(float64(fi.Size()), float64(records)))
		rep.set("runstore.hit_frac", ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0)))
		rep.set("service.repeat_frac", ratio(float64(repeats), float64(len(ops))))
		rep.tail("hit_p50_ms", hitLat, 0.5)
		rep.tail("hit_p99_ms", hitLat, 0.99)
		rep.tail("miss_p50_ms", missLat, 0.5)
		rep.tail("miss_p95_ms", missLat, missTail)
		rep.tail("loadgen.late_p99_ms", late, 0.99)
		rep.tail("observatory.queue_wait_ms_p50", queue, 0.5)
		rep.tail("observatory.queue_wait_ms_p95", queue, missTail)
		rep.tail("observatory.run_ms_p50", runMS, 0.5)
		rep.set("network.ns_per_flit_hop", ratio(float64(runTotal), float64(runHops)))
		rep.tail("core.point_s_p50", runS, 0.5)
		rep.set("core.point_s_max", percentile(runS, 1))
		rep.set("sched.busy_frac", ratio(runTotal.Seconds(), float64(r.workers)*window.Seconds()))
		rep.set("core.allocs_per_point", ratio(float64(m1.Mallocs-m0.Mallocs), float64(counts.points)))
		rep.set("core.alloc_bytes_per_point", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(counts.points)))
		// The API builds its engines internally, so engine phases are not
		// observable through it, and it has no lockstep replicas.
		rep.notApplicable("network.inject_frac", "network.route_frac", "network.transfer_frac",
			"network.watchdog_frac", "core.replica_live_frac")
	}
	return nil
}

// tail reports the p-quantile of the service samples xs as metric name.
// Every service percentile must keep minBeyond samples above it; one that
// does not rests on a handful of requests and fails the run.
func (r *report) tail(name string, xs []float64, p float64) {
	if n := beyond(len(xs), p); n < minBeyond {
		r.problem("%s: %d samples leave %d beyond the percentile, need %d (measure longer)", name, len(xs), n, minBeyond)
	}
	r.set(name, percentile(xs, p))
}

// record adds the submission's spans to tr, whose clock runs off behind
// the window's.
func (o *op) record(tr *tracer, off time.Duration, id int64) {
	tr.add(span{Name: "submission", Layer: "loadgen", ID: id, Start: off + o.due, End: off + o.done,
		Args: map[string]any{"class": o.class(), "hash": o.hash[:12], "late_ms": ms(o.late)}})
	tr.add(span{Name: "POST /api/runs", Layer: "observatory", ID: id, Parent: id, Start: off + o.sent, End: off + o.posted,
		Args: map[string]any{"status": o.status, "bytes": o.respBytes}})
	if o.running > 0 {
		tr.add(span{Name: "queued", Layer: "sched", ID: id, Parent: id, Start: off + o.sent, End: off + o.running})
		tr.add(span{Name: "run", Layer: "core", ID: id, Parent: id, Start: off + o.running, End: off + o.done})
	}
}

// traceService reports the API breakdown from the submissions and times
// direct calls into the layers the API composes: Config.Hash, the store's
// Lookup, and Put into a scratch store. Only even submissions recorded
// spans; comparing their hit latency with the odd ones' gives the
// overhead.
func traceService(r *run, rep *report, svc *service, ops []*op, stored []runstore.Record) error {
	var submit, bytesOut, tracedHits, plainHits []float64
	for i, o := range ops {
		if o.err != nil {
			continue
		}
		submit = append(submit, ms(o.posted-o.sent))
		bytesOut = append(bytesOut, float64(o.respBytes))
		l := ms(o.done - o.due)
		if o.class() == "hit" {
			if i%2 == 0 {
				tracedHits = append(tracedHits, l)
			} else {
				plainHits = append(plainHits, l)
			}
		}
	}
	rep.tail("observatory.submit_ms_p50", submit, 0.5)
	rep.tail("observatory.response_bytes_p50", bytesOut, 0.5)
	rep.set("trace.overhead_frac", ratio(percentile(tracedHits, 0.5), percentile(plainHits, 0.5))-1)

	var hashUS, lookupUS, putUS []float64
	for _, o := range ops {
		t := time.Now()
		h := o.cfg.Hash()
		hashUS = append(hashUS, float64(time.Since(t).Nanoseconds())/1e3)
		if h != o.hash {
			rep.problem("Config.Hash is not stable for %s", o.hash[:12])
		}
	}
	for _, rec := range stored {
		t := time.Now()
		_, ok := svc.store.Lookup(rec.Hash)
		lookupUS = append(lookupUS, float64(time.Since(t).Nanoseconds())/1e3)
		if !ok {
			rep.problem("stored record %s not found by Lookup", rec.Hash[:12])
		}
	}
	scratch, err := runstore.Open(filepath.Join(r.out, fmt.Sprintf("service-%d", os.Getpid()), "put"))
	if err != nil {
		return err
	}
	for _, o := range ops {
		if o.kind != opNew || o.result == nil {
			continue
		}
		t := time.Now()
		err := scratch.Put(runstore.Record{Hash: o.hash, Config: o.cfg.Canonical(), Result: *o.result})
		putUS = append(putUS, float64(time.Since(t).Nanoseconds())/1e3)
		if err != nil {
			scratch.Close()
			return err
		}
	}
	if err := scratch.Close(); err != nil {
		return err
	}
	rep.tail("core.hash_us_p50", hashUS, 0.5)
	rep.tail("runstore.lookup_us_p50", lookupUS, 0.5)
	rep.tail("runstore.put_us_p50", putUS, 0.5)
	return nil
}

// processCPU is the user and system CPU time the process has used. A VM
// guest's kernel leaves time stolen by the host out of it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
