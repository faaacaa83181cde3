// Command benchmark is the repository's end-to-end benchmark. It
// generates the CA corpus, runs one workload over it, checks the
// outputs, and prints one JSON result line with every metric by name
// and unit.
//
// Usage (from the repository root; benchmark/run.sh builds the
// binaries first):
//
//	bash benchmark/run.sh --workload serve-index --seed 1 --seconds 30 --trace 0
//
// Workloads: study, serve-index, ingest (see LAYERS.md
// for why each exists and which layers it exercises). With --trace 0
// the result carries the end-to-end metrics, measured with no tracing;
// with --trace 1 it carries the per-layer metrics, taken by timing
// calls into each layer's public functions from this package and by
// reading the counters the program exports.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"ogdp/internal/gen"
)

// The corpus every workload runs on: the CA portal at full calibrated
// scale, generation seed 1 (614 tables, 3,409 join-indexed columns).
// The corpus is a fixed input so that runs with different --seed
// values measure the same program on the same data; --seed drives the
// serve and ingest workloads (arrival schedules, table draws, delta
// sequences). The study always runs with the corpus seed (studyOptions).
const (
	corpusPortal = "CA"
	corpusScale  = 1.0
	corpusSeed   = 1
)

// setupReps is how many times every workload times its set-up; setup_s
// is the median. Each set-up starts from a collected heap.
const setupReps = 5

// metricDef declares one reported metric.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of a --trace 0 run, reported by every
// workload; LAYERS.md gives each one's meaning per workload. cpu_ms is
// the CPU time one operation costs (a served request, a study, a
// delta), not its wall time: on the shared machine the baseline was
// taken on, the host's steal moved wall-clock medians by up to 2.3x
// between runs of the same code (serve p50 1.24-2.90 ms), and Linux
// does not charge a task for time the host gave to other tenants.
// Wall-clock medians and tails are in every run record, and the traced
// run reports them as trace.p50_ms and workload.tail_ms.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// env is one run's resolved settings and scratch paths.
type env struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	nproc     int
	work      string
	corpusDir string
	serveBin  string
	manifest  string // FNV-64a of the generated corpus's provenance.json
}

// outcomeSet is what a workload run hands back to main.
type outcomeSet struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
	problems  []string
	record    map[string]any
}

func newOutcomeSet() *outcomeSet {
	return &outcomeSet{e2e: map[string]float64{}, layers: map[string]float64{}, record: map[string]any{}}
}

var workloads = map[string]func(*env, *outcomeSet) error{
	"study":       runStudyWorkload,
	"serve-index": runServeWorkload,
	"ingest":      runIngestWorkload,
}

func main() {
	workload := flag.String("workload", "", "workload: study, serve-index or ingest")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	work := flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory (emptied first)")
	serveBin := flag.String("serve-bin", filepath.Join(".bench_build", "bin", "ogdpserve"), "ogdpserve binary")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown --workload %q (want study, serve-index or ingest)", *workload)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	e := &env{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		nproc:    runtime.NumCPU(),
		work:     *work,
		serveBin: *serveBin,
	}
	if err := prepare(e); err != nil {
		fatalf("%v", err)
	}
	o := newOutcomeSet()
	start := time.Now()
	steal0, total0 := hostCPU()
	if err := run(e, o); err != nil {
		fatalf("%s: %v", e.workload, err)
	}
	if steal1, total1 := hostCPU(); total1 > total0 {
		// Time the host gave other tenants while this run wanted the
		// CPU; a run with much of it measured the host, not the program.
		o.record["host_steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	if err := os.RemoveAll(e.work); err != nil {
		fatalf("clean %s: %v", e.work, err)
	}
	o.record["wall_s"] = secs(time.Since(start))

	metrics, err := selectMetrics(e.trace, o)
	if err != nil {
		fatalf("%v", err)
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "benchmark: CHECK FAILED: %s\n", p)
	}
	rec := runRecord(e)
	for k, v := range o.record {
		rec[k] = v
	}
	printJSON(map[string]any{"run_record": rec})
	printJSON(map[string]any{
		"correct":   len(o.problems) == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
	if len(o.problems) > 0 {
		os.Exit(1)
	}
}

// prepare empties the scratch directory and writes the corpus into it.
func prepare(e *env) error {
	if _, err := os.Stat(e.serveBin); err != nil {
		return fmt.Errorf("ogdpserve binary: %w", err)
	}
	if err := os.RemoveAll(e.work); err != nil {
		return err
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	e.corpusDir = filepath.Join(e.work, "corpus")
	prof, ok := gen.ProfileByName(corpusPortal)
	if !ok {
		return fmt.Errorf("unknown portal %s", corpusPortal)
	}
	if _, err := gen.SaveCorpus(e.corpusDir, gen.Generate(prof, corpusScale, corpusSeed)); err != nil {
		return fmt.Errorf("save corpus: %w", err)
	}
	manifest, err := os.ReadFile(filepath.Join(e.corpusDir, gen.ProvenanceFile))
	if err != nil {
		return err
	}
	h := fnv.New64a()
	h.Write(manifest)
	e.manifest = fmt.Sprintf("%016x", h.Sum64())
	resetPeakRSS()
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// selectMetrics picks the declared metric set for the run's mode and
// refuses a run that did not measure every declared metric.
func selectMetrics(trace bool, o *outcomeSet) (map[string]metricValue, error) {
	defs, got := endToEnd, o.e2e
	if trace {
		defs, got = perLayer, o.layers
	}
	out := map[string]metricValue{}
	var missing []string
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return nil, errors.New("metrics not measured: " + strings.Join(missing, ", "))
	}
	return out, nil
}

// runRecord is what makes a run reproducible: the code, the machine,
// the inputs, and a hash of the resolved workload configuration.
func runRecord(e *env) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	cfg := resolvedConfig(e)
	blob, _ := json.Marshal(cfg) // maps marshal with sorted keys
	h := fnv.New64a()
	h.Write(blob)
	return map[string]any{
		"commit":      commit,
		"nproc":       e.nproc,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"portal":      corpusPortal,
		"scale":       corpusScale,
		"corpus_seed": corpusSeed,
		"corpus_fnv":  e.manifest,
		"seed":        e.seed,
		"config":      cfg,
		"config_hash": fmt.Sprintf("%016x", h.Sum64()),
	}
}

// resolvedConfig is every setting that shapes the workload's inputs.
func resolvedConfig(e *env) map[string]any {
	cfg := map[string]any{
		"workload":    e.workload,
		"seed":        e.seed,
		"seconds":     secs(e.seconds),
		"trace":       e.trace,
		"connections": e.nproc,
		"workers":     e.nproc,
	}
	switch e.workload {
	case "serve-index":
		cfg["mix"] = indexMix
		cfg["ref_rate_rps"] = refRate
		cfg["warm_up_s"] = secs(warmUp)
		cfg["hard_stop_grace_s"] = secs(hardStopGrace)
		cfg["client_timeout_s"] = secs(clientTimeout)
		cfg["k"] = queryK
	case "ingest":
		cfg["delta"] = deltaShape
		cfg["reads"] = readSetSize
	case "study":
		cfg["study"] = "ogdpreport -dir options: funnel, sensitivity, extensions; checked against Workers=1"
	}
	return cfg
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
