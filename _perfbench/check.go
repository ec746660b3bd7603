package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"os"

	"wormsim/internal/core"
)

// digester hashes simulated Results in a fixed order. Every field of a
// Result that is persisted is covered (TraceEvents are not serialized and
// the benchmark never asks for them), so a digest changes whenever any
// simulated statistic does.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(r core.Result) {
	d.h.Write(resultBytes(r))
	d.h.Write([]byte{'\n'})
}

func (d *digester) String() string { return hex.EncodeToString(d.h.Sum(nil)) }

// resultBytes is the canonical encoding two Results are compared by.
func resultBytes(r core.Result) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		// A Result holding NaN or Inf cannot be encoded; make that visible
		// in the digest and in equality checks rather than crash.
		return []byte("unencodable: " + err.Error())
	}
	return b
}

func sameResult(a, b core.Result) bool { return bytes.Equal(resultBytes(a), resultBytes(b)) }

// workCounts are the deterministic counts of a set of simulated points:
// a speed-only change must leave every one of them identical.
type workCounts struct {
	points, samples, unconverged      int64
	flitHops, simCycles, warmupCycles int64
	delivered, dropped                int64
}

func (w *workCounts) add(r core.Result, warmup int64) {
	w.points++
	w.samples += int64(r.Samples)
	if !r.Converged && !r.Deadlocked {
		w.unconverged++
	}
	w.flitHops += flitHops(r)
	w.simCycles += r.Cycles
	w.warmupCycles += warmup
	w.delivered += r.Delivered
	w.dropped += r.Dropped
}

// report adds the counts to rep, both as printed counts and as the
// per-layer metrics derived from them.
func (w *workCounts) report(rep *report) {
	rep.count("core.points", w.points)
	rep.count("core.samples", w.samples)
	rep.count("network.flit_hops", w.flitHops)
	rep.count("network.sim_cycles", w.simCycles)
	rep.count("network.delivered", w.delivered)
	rep.count("network.dropped", w.dropped)
	rep.set("core.points", float64(w.points))
	rep.set("network.flit_hops", float64(w.flitHops))
	rep.set("network.sim_cycles", float64(w.simCycles))
	rep.set("network.delivered", float64(w.delivered))
	rep.set("network.dropped", float64(w.dropped))
	rep.set("core.samples_per_point", ratio(float64(w.samples), float64(w.points)))
	rep.set("core.unconverged_frac", ratio(float64(w.unconverged), float64(w.points)))
	rep.set("core.warmup_cycle_frac", ratio(float64(w.warmupCycles), float64(w.simCycles)))
}

// flitHops is how many flits a point moved over channels.
func flitHops(r core.Result) int64 {
	var n int64
	for _, f := range r.ChannelFlits {
		n += f
	}
	return n
}

// checkResult asserts the invariants every point of a deadlock-free
// algorithm must satisfy, whatever the seed.
func checkResult(rep *report, what string, r core.Result) {
	if r.Generated != r.Admitted+r.Dropped {
		rep.problem("%s: Generated %d != Admitted %d + Dropped %d", what, r.Generated, r.Admitted, r.Dropped)
	}
	if r.Delivered > r.Admitted {
		rep.problem("%s: Delivered %d > Admitted %d", what, r.Delivered, r.Admitted)
	}
	if r.Deadlocked {
		rep.problem("%s: %s deadlocked, but it is deadlock-free", what, r.Algorithm)
	}
}

// golden is golden.json: per workload, the digest and deterministic counts
// of the default seed.
type golden map[string]goldenEntry

type goldenEntry struct {
	Seed uint64 `json:"seed"`
	// Inputs names the run settings the inputs depend on beyond the seed
	// (service-mix schedules one submission per 1/rate s of the run).
	Inputs string           `json:"inputs,omitempty"`
	Digest string           `json:"digest"`
	Counts map[string]int64 `json:"counts"`
}

func readGolden(path string) (golden, error) {
	g := golden{}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return g, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return g, nil
}

func recordGolden(path, workload string, rep *report) error {
	g, err := readGolden(path)
	if err != nil {
		return err
	}
	e := goldenEntry{Seed: defaultSeed, Inputs: rep.inputs, Digest: rep.digest, Counts: map[string]int64{}}
	for _, c := range rep.counts {
		if !volatileCount[c.name] {
			e.Counts[c.name] = c.value
		}
	}
	g[workload] = e
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// volatileCount names counts that may legitimately differ between two runs
// of one seed: a repeated submission that arrives while its first run is
// still pending joins that run instead of hitting the store. Their sum,
// service.repeats, is exact.
var volatileCount = map[string]bool{"service.hits": true, "service.joined": true}

func checkGolden(path, workload string, rep *report) {
	g, err := readGolden(path)
	if err != nil {
		rep.problem("golden digests: %v", err)
		return
	}
	e, ok := g[workload]
	if !ok {
		rep.problem("no golden digest recorded for %s (run with -record-golden)", workload)
		return
	}
	if e.Inputs != rep.inputs {
		rep.note("golden digest recorded for inputs %q, this run has %q: not compared", e.Inputs, rep.inputs)
		return
	}
	if e.Digest != rep.digest {
		rep.problem("digest %s differs from the recorded %s: the simulated outputs changed", rep.digest, e.Digest)
	}
	seen := map[string]bool{}
	for _, c := range rep.counts {
		if volatileCount[c.name] {
			continue
		}
		seen[c.name] = true
		if want, ok := e.Counts[c.name]; !ok || want != c.value {
			rep.problem("count %s = %d, recorded %d", c.name, c.value, want)
		}
	}
	for name := range e.Counts {
		if !seen[name] {
			rep.problem("recorded count %s was not produced", name)
		}
	}
}
