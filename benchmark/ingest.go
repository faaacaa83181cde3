package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ogdp/internal/ingest"
	"ogdp/internal/parallel"
	"ogdp/internal/query"
)

// deltaShape is the size of every generated delta: the ROADMAP's
// five-table delta, as one add, three updates and one delete, so the
// corpus keeps its size however many deltas a run applies.
var deltaShape = struct {
	Added, Updated, Deleted int
}{1, 3, 1}

// readSetSize is how many reads (a quarter each of join, search,
// union and profile) are answered after every delta.
const readSetSize = 24

// deltaStep is one delta the generator derived from the seed: new
// CSV bodies for added and updated tables, and the names to delete.
type deltaStep struct {
	Write  map[string][]byte // table file name -> new CSV body
	Delete []string
}

// deltaGen derives the delta sequence from the seed. It works on the
// snapshot's CSV bytes only: the benchmark is the writer a real
// publisher would be, and the program sees nothing but changed files.
type deltaGen struct {
	rng       *rand.Rand
	protected map[string]bool // read-set tables: never updated or deleted
	next      int
}

func newDeltaGen(seed int64, protected map[string]bool) *deltaGen {
	return &deltaGen{rng: rand.New(rand.NewSource(seed*7_919 + 17)), protected: protected}
}

// nextDelta draws the next delta over the snapshot's current tables
// (names, sorted) and their bodies (read through body).
func (g *deltaGen) nextDelta(names []string, body func(string) ([]byte, error)) (deltaStep, error) {
	g.next++
	d := deltaStep{Write: map[string][]byte{}}
	var free []string
	for _, n := range names {
		if !g.protected[n] {
			free = append(free, n)
		}
	}
	need := deltaShape.Updated + deltaShape.Deleted
	if len(free) < need {
		return d, fmt.Errorf("only %d unprotected tables, a delta needs %d", len(free), need)
	}
	g.rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	for _, name := range free[:deltaShape.Updated] {
		b, err := body(name)
		if err != nil {
			return d, err
		}
		if d.Write[name], err = g.revise(b); err != nil {
			return d, fmt.Errorf("revise %s: %w", name, err)
		}
	}
	d.Delete = append(d.Delete, free[deltaShape.Updated:need]...)
	for i := 0; i < deltaShape.Added; i++ {
		src := names[g.rng.Intn(len(names))]
		b, err := body(src)
		if err != nil {
			return d, err
		}
		name := fmt.Sprintf("zz-delta-%d-%d-%s", g.next, i, src)
		if d.Write[name], err = g.derive(b); err != nil {
			return d, fmt.Errorf("derive from %s: %w", src, err)
		}
	}
	return d, nil
}

func readCSV(b []byte) ([][]string, error) {
	r := csv.NewReader(bytes.NewReader(b))
	r.FieldsPerRecord = -1
	return r.ReadAll()
}

func writeCSV(recs [][]string) ([]byte, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.WriteAll(recs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// revise is an update: one existing cell is rewritten and two rows,
// copies of existing rows with one cell changed, are appended.
func (g *deltaGen) revise(b []byte) ([]byte, error) {
	recs, err := readCSV(b)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 || len(recs[0]) == 0 {
		return nil, fmt.Errorf("no header")
	}
	width := len(recs[0])
	mark := fmt.Sprintf("~u%d", g.next)
	if len(recs) > 1 {
		r, c := 1+g.rng.Intn(len(recs)-1), g.rng.Intn(width)
		if c < len(recs[r]) {
			recs[r][c] += mark
		}
	}
	for i := 0; i < 2; i++ {
		row := make([]string, width)
		if len(recs) > 1 {
			copy(row, recs[1+g.rng.Intn(len(recs)-1)])
		}
		c := g.rng.Intn(width)
		row[c] += fmt.Sprintf("%s.%d", mark, i)
		recs = append(recs, row)
	}
	return writeCSV(recs)
}

// derive is an add: the first half (at least one row) of an existing
// table, with one column's values made new, so the added table shares
// some values with the corpus and its other columns join as before.
func (g *deltaGen) derive(b []byte) ([]byte, error) {
	recs, err := readCSV(b)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 || len(recs[0]) == 0 {
		return nil, fmt.Errorf("no header")
	}
	keep := 1 + (len(recs)-1+1)/2
	if keep > len(recs) {
		keep = len(recs)
	}
	recs = recs[:keep]
	c := g.rng.Intn(len(recs[0]))
	for r := 1; r < len(recs); r++ {
		if c < len(recs[r]) {
			recs[r][c] += fmt.Sprintf("~a%d", g.next)
		}
	}
	return writeCSV(recs)
}

// snapshot is the publisher's directory of current table CSVs; every
// *.csv in it is the new truth ingest.Detect compares against.
type snapshot struct{ dir string }

// newSnapshot copies the corpus's CSVs into dir.
func newSnapshot(corpusDir, dir string) (*snapshot, error) {
	if err := copyDir(corpusDir, dir, ".csv"); err != nil {
		return nil, err
	}
	return &snapshot{dir: dir}, nil
}

// copyDir copies the regular files of src whose names end in suffix
// into a new directory dst.
func copyDir(src, dst, suffix string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() || !strings.HasSuffix(ent.Name(), suffix) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (s *snapshot) names() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, ent := range ents {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), ".csv") {
			out = append(out, ent.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

func (s *snapshot) body(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.dir, name))
}

func (s *snapshot) apply(d deltaStep) error {
	for _, name := range sortedKeys(d.Write) {
		if err := os.WriteFile(filepath.Join(s.dir, name), d.Write[name], 0o644); err != nil {
			return err
		}
	}
	for _, name := range d.Delete {
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
			return err
		}
	}
	return nil
}

// readSet draws the fixed reads answered after every delta: a quarter
// each of join, search, union and profile, over the tables each
// endpoint accepts.
func readSet(seed int64, svc *query.Service) []request {
	rng := rand.New(rand.NewSource(seed*104_729 + 3))
	targets := eligibleTargets(inventoryOf(svc), svc)
	var out []request
	for i := 0; i < readSetSize; i++ {
		kind := readKinds[i%len(readKinds)]
		pool := targets[kind]
		out = append(out, request{Kind: kind, Table: pool[rng.Intn(len(pool))]})
	}
	return out
}

// readKinds are the index-backed endpoints the ingest checks ask.
var readKinds = []string{"join", "search", "union", "profile"}

// compareServices checks a patched service against a from-scratch
// rebuild over the same directory: the same content hash and table
// set, and the same answer on every endpoint in readKinds for every
// table that endpoint accepts, so a table the deltas added or rewrote
// is asked about whether or not the read set names it. The questions
// are fanned out over workers.
func compareServices(patched, rebuilt *query.Service, workers int) []string {
	var problems []string
	if patched.Hash() != rebuilt.Hash() {
		problems = append(problems, fmt.Sprintf("patched service hash %s != rebuild %s", patched.HashString(), rebuilt.HashString()))
	}
	names := func(s *query.Service) string {
		var ns []string
		for _, t := range s.Tables() {
			ns = append(ns, t.Name)
		}
		sort.Strings(ns)
		return strings.Join(ns, "\n")
	}
	if names(patched) != names(rebuilt) || patched.NumIndexed() != rebuilt.NumIndexed() {
		problems = append(problems, fmt.Sprintf("patched service and rebuild differ in table names or counts: %d tables / %d indexed columns, rebuild %d / %d",
			patched.NumTables(), patched.NumIndexed(), rebuilt.NumTables(), rebuilt.NumIndexed()))
	}
	targets := eligibleTargets(inventoryOf(rebuilt), rebuilt)
	var reqs []request
	for _, kind := range readKinds {
		for _, t := range targets[kind] {
			reqs = append(reqs, request{Kind: kind, Table: t})
		}
	}
	bad := make([]string, len(reqs))
	ctx := context.Background()
	parallel.Must(parallel.ForEach(ctx, len(reqs), workers, func(i int) {
		q := reqs[i].queryRequest()
		want, werr := rebuilt.Do(ctx, q)
		got, gerr := patched.Do(ctx, q)
		if werr != nil || gerr != nil || got != want {
			bad[i] = fmt.Sprintf("%s: patched service and rebuild disagree (patched err %v, rebuild err %v)", reqs[i].path(), gerr, werr)
		}
	}))
	for _, b := range bad {
		if b != "" {
			problems = append(problems, b)
		}
	}
	return problems
}

// deltaTiming is one delta's time split by stage.
type deltaTiming struct {
	detect, apply, applyDelta, total time.Duration
	// cpu is this process's CPU time over the three stages.
	cpu          time.Duration
	parsed       int
	bytesWritten int64
}

// applyOne takes one snapshot change to a patched service:
// ingest.Detect, then ingest.Apply to the corpus directory, then
// Service.ApplyDelta. The written-bytes count (a stat per changed
// table) is taken only when counted is set.
func applyOne(corpusDir, snapDir string, svc *query.Service, counted bool) (deltaTiming, error) {
	var dt deltaTiming
	c0 := selfCPU()
	t0 := time.Now()
	plan, err := ingest.Detect(corpusDir, snapDir)
	if err != nil {
		return dt, err
	}
	t1 := time.Now()
	if err := ingest.Apply(corpusDir, plan); err != nil {
		return dt, err
	}
	t2 := time.Now()
	if err := svc.ApplyDelta(ingest.QueryDelta(plan)); err != nil {
		return dt, fmt.Errorf("apply delta: %w", err)
	}
	t3 := time.Now()
	dt.cpu = selfCPU() - c0
	dt.detect, dt.apply, dt.applyDelta, dt.total = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	dt.parsed = len(plan.Added) + len(plan.Updated)
	if counted {
		for _, chs := range [][]ingest.Change{plan.Added, plan.Updated} {
			for _, ch := range chs {
				dt.bytesWritten += int64(len(ch.Body))
				if st, err := os.Stat(filepath.Join(corpusDir, ch.Name+".col")); err == nil {
					dt.bytesWritten += st.Size()
				}
			}
		}
	}
	return dt, nil
}

// ingestRun is what an ingest loop measured.
type ingestRun struct {
	deltas   []deltaTiming
	reads    int
	failed   int
	rebuild  time.Duration
	rssMB    float64
	problems []string
}

// runDeltas applies deltas derived from the seed to svc (built over
// corpusDir) until budget has passed and at least minDeltas were
// applied, answering the read set after each; then it rebuilds a
// service from scratch over the patched directory and checks it
// against the patched service (compareServices, which asks every
// read and more).
func runDeltas(e *env, svc *query.Service, budget time.Duration, minDeltas int, counted bool) (*ingestRun, error) {
	// The deltas go to a copy, so the shared corpus stays as generated
	// for whatever runs after this.
	dir, err := os.MkdirTemp(e.work, "ingest-")
	if err != nil {
		return nil, err
	}
	corpusDir := filepath.Join(dir, "corpus")
	if err := copyDir(e.corpusDir, corpusDir, ""); err != nil {
		return nil, err
	}
	snap, err := newSnapshot(corpusDir, filepath.Join(dir, "snapshot"))
	if err != nil {
		return nil, err
	}
	reads := readSet(e.seed, svc)
	protected := map[string]bool{}
	for _, r := range reads {
		protected[r.Table] = true
	}
	gen := newDeltaGen(e.seed, protected)
	r := &ingestRun{}
	start := time.Now()
	for len(r.deltas) < minDeltas || time.Since(start) < budget {
		names, err := snap.names()
		if err != nil {
			return nil, err
		}
		d, err := gen.nextDelta(names, snap.body)
		if err != nil {
			return nil, err
		}
		if err := snap.apply(d); err != nil {
			return nil, err
		}
		dt, err := applyOne(corpusDir, snap.dir, svc, counted)
		if err != nil {
			return nil, err
		}
		r.deltas = append(r.deltas, dt)
		for _, rq := range reads {
			r.reads++
			if _, err := svc.Do(context.Background(), rq.queryRequest()); err != nil {
				r.failed++
				r.problems = append(r.problems, fmt.Sprintf("read %s after delta %d: %v", rq.path(), len(r.deltas), err))
			}
		}
	}
	r.rssMB = peakRSSMB(0)

	plan, err := ingest.Detect(corpusDir, snap.dir)
	if err != nil {
		return nil, err
	}
	if !plan.Empty() {
		r.problems = append(r.problems, "corpus differs from the snapshot after the last delta: "+plan.Summary())
	}
	t0 := time.Now()
	rb, err := buildService(e, corpusDir, nil)
	if err != nil {
		return nil, err
	}
	r.rebuild = time.Since(t0)
	r.problems = append(r.problems, compareServices(svc, rb, e.nproc)...)
	return r, nil
}

// runIngestWorkload: setupReps timed set-ups (load + query.New), then the
// delta loop for the run's seconds, then the rebuild check.
func runIngestWorkload(e *env, o *outcomeSet) error {
	var setups []float64
	var svc *query.Service
	for i := 0; i < setupReps; i++ {
		svc = nil // so the collection frees the previous build
		runtime.GC()
		t0 := time.Now()
		s, err := buildService(e, e.corpusDir, nil)
		if err != nil {
			return err
		}
		setups = append(setups, secs(time.Since(t0)))
		svc = s
	}
	o.record["corpus_hash"] = svc.HashString()
	r, err := runDeltas(e, svc, e.seconds, 10, e.trace)
	if err != nil {
		return err
	}
	o.problems = append(o.problems, r.problems...)
	var total, cpu []float64
	for _, d := range r.deltas {
		total = append(total, ms(d.total))
		cpu = append(cpu, ms(d.cpu))
	}
	lat := summarize(total)
	p50 := spanMedian(total, deltaP50Spans)
	cpuMS := spanMedian(cpu, deltaP50Spans)
	tail := spanTail(total, deltaTailSpans)
	o.e2e["setup_s"] = medianOf(setups)
	o.e2e["cpu_ms"] = cpuMS
	o.e2e["peak_rss_mb"] = r.rssMB
	o.attempted = len(r.deltas) + r.reads
	o.failed = r.failed
	o.record["setups_s"] = setups
	o.record["delta_ms"] = lat
	o.record["p50_ms"] = p50
	o.record["tail_ms"] = tail
	o.record["deltas"] = len(r.deltas)
	o.record["rebuild_s"] = secs(r.rebuild)
	if e.trace {
		ingestLayers(r, o.layers)
		o.layers["trace.setup_s"] = o.e2e["setup_s"]
		o.layers["trace.p50_ms"] = p50
		o.layers["trace.cpu_ms"] = cpuMS
		o.layers["workload.tail_ms"] = tail
		o.layers["trace.peak_rss_mb"] = r.rssMB
		return sweep(e, o, "ingest")
	}
	return nil
}

// ingestLayers reports the per-stage medians of a staged delta loop.
func ingestLayers(r *ingestRun, layers map[string]float64) {
	var det, app, qd, parsed, written []float64
	for _, d := range r.deltas {
		det = append(det, ms(d.detect))
		app = append(app, ms(d.apply))
		qd = append(qd, ms(d.applyDelta))
		parsed = append(parsed, float64(d.parsed))
		written = append(written, float64(d.bytesWritten))
	}
	layers["ingest.detect_ms"] = medianOf(det)
	layers["ingest.apply_ms"] = medianOf(app)
	layers["query.apply_delta_ms"] = medianOf(qd)
	layers["ingest.tables_parsed"] = medianOf(parsed)
	layers["ingest.bytes_written"] = medianOf(written)
	layers["ingest.rebuild_s"] = secs(r.rebuild)
}
