// Command perfbench is wormsim's end-to-end benchmark. It drives one
// workload through the simulator's public APIs, checks the simulated
// outputs, and prints every metric BENCHMARK.json names for that mode as
// the last line of standard output:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (timed with tracing
// off); with -trace 1 they are the per-layer ones, measured by a separate
// traced run. See README.md in this directory for the workloads, the
// metrics and how they relate.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose digests and counts are recorded in
// golden.json; heldOutSeed is kept out of tuning so that later speed claims
// can be confirmed on inputs nobody optimized for.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// benchDir is this directory, relative to the repository root the
// benchmark runs from. Its leading underscore keeps it out of the main
// module's ./... patterns and of wormlint's package walk.
const benchDir = "_perfbench"

// workloads maps a workload name to its runner.
var workloads = map[string]func(*run) (*report, error){
	"fig3-quick":     runFig3,
	"replicas-light": runReplicas,
	"service-mix":    runService,
}

// run is one invocation's settings.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string
	// workers is the simulation worker count and the client connection
	// limit: the host's CPU count, so the load generator never asks for
	// more parallelism than the machine has.
	workers int
	tr      *tracer
}

// report is what a workload hands back: the metric values, the operation
// counts, the deterministic counts and digest that must repeat for a seed,
// and any output check that failed.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	counts    []count
	digest    string
	inputs    string
	problems  []string
	notes     []string
}

type count struct {
	name  string
	value int64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) count(name string, v int64) { r.counts = append(r.counts, count{name, v}) }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// notApplicable reports per-layer metrics of layers the workload does not
// exercise as 0.
func (r *report) notApplicable(names ...string) {
	for _, n := range names {
		r.metrics[n] = 0
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// benchSpec is the part of BENCHMARK.json the program needs: the metric
// names and units it must print.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: fig3-quick, replicas-light or service-mix")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for the run store and span files")
	record := flag.Bool("record-golden", false, "write this run's digest and counts to _perfbench/golden.json (default seed only)")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		os.Exit(1)
	}
	runner, ok := workloads[*workload]
	if !ok {
		fail("unknown workload %q", *workload)
	}
	if *trace != 0 && *trace != 1 {
		fail("-trace must be 0 or 1")
	}
	if *seconds < 1 {
		fail("-seconds must be at least 1")
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fail("%v", err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail("%v", err)
	}

	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		out:      *out,
		workers:  runtime.NumCPU(),
	}
	if r.trace {
		r.tr = newTracer()
	}
	fmt.Printf("# env nproc=%d GOMAXPROCS=%d go=%s rev=%s src=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), vcsRevision(), sourceDigest())
	fmt.Printf("# run workload=%s seed=%d seconds=%d trace=%d workers=%d\n",
		r.workload, r.seed, *seconds, *trace, r.workers)
	if r.seed == heldOutSeed {
		fmt.Printf("# seed %d is the held-out seed: use it to confirm a claim, not to tune\n", heldOutSeed)
	}

	rep, err := runner(r)
	if err != nil {
		fail("%s: %v", r.workload, err)
	}
	rep.set("max_rss_mb", maxRSSMB())

	if *record {
		if r.seed != defaultSeed {
			fail("-record-golden needs -seed %d", defaultSeed)
		}
		if err := recordGolden(filepath.Join(benchDir, "golden.json"), r.workload, rep); err != nil {
			fail("%v", err)
		}
	} else if r.seed == defaultSeed {
		checkGolden(filepath.Join(benchDir, "golden.json"), r.workload, rep)
	}

	if r.trace {
		path := filepath.Join(r.out, fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
		if err := r.tr.write(path); err != nil {
			fail("write spans: %v", err)
		}
		fmt.Printf("# spans %s (%d spans)\n", path, len(r.tr.spans))
	}

	want := spec.EndToEnd
	if r.trace {
		want = spec.PerLayer
	}
	res := output{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	for _, m := range want {
		v, ok := rep.metrics[m.Name]
		if !ok {
			rep.problem("metric %s was not measured", m.Name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.problem("metric %s is %v", m.Name, v)
			continue
		}
		res.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	res.Correct = len(rep.problems) == 0 && rep.attempted > 0

	for _, n := range rep.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, c := range rep.counts {
		fmt.Printf("# count %s %d\n", c.name, c.value)
	}
	fmt.Printf("# digest %s\n", rep.digest)
	for _, m := range want {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Printf("# metric %-32s %16.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
	for _, p := range rep.problems {
		fmt.Printf("# FAILED CHECK: %s\n", p)
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read metric names: %w (run from the repository root)", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

// maxRSSMB reports the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// vcsRevision is the git revision the binary was built from, when the
// build saw a git checkout.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// sourceDigest hashes the module's Go sources and go.mod, so that a run in
// a checkout without git history still names the code it measured.
func sourceDigest() string {
	var paths []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || p == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
