package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"ogdp/internal/corpus"
	"ogdp/internal/diskcorpus"
	"ogdp/internal/fd"
	"ogdp/internal/obs"
	"ogdp/internal/parallel"
	"ogdp/internal/query"
	"ogdp/internal/search"
	"ogdp/internal/union"
)

// perLayer are the metrics of a --trace 1 run, reported by every
// workload; LAYERS.md maps each to the end-to-end metric it should
// move. Request kinds use the endpoint names (search = /search).
var perLayer = []metricDef{
	{"diskcorpus.load_s", "s"},
	{"colstore.tables_encoded", "count"},
	{"diskcorpus.skips", "count"},
	{"table.profiles_s", "s"},
	{"table.distinct_values", "count"},
	{"search.build_s", "s"},
	{"search.indexed_columns", "count"},
	{"union.find_s", "s"},
	{"query.new_s", "s"},
	{"query.new_allocs", "count"},
	{"query.new_alloc_mb", "MB"},
	{"query.parts_ratio", "ratio"},
	{"query.do_p50_ms.join", "ms"},
	{"query.do_p50_ms.search", "ms"},
	{"query.do_p50_ms.union", "ms"},
	{"query.do_p50_ms.profile", "ms"},
	{"query.do_p50_ms.fd", "ms"},
	{"query.do_tail_ms.join", "ms"},
	{"query.do_tail_ms.search", "ms"},
	{"query.do_tail_ms.union", "ms"},
	{"query.do_tail_ms.profile", "ms"},
	{"query.do_tail_ms.fd", "ms"},
	{"search.candidates_per_query", "count"},
	{"search.verified_per_query", "count"},
	{"search.verify_ratio", "ratio"},
	{"fd.discover_p50_ms", "ms"},
	{"fd.discover_max_ms", "ms"},
	{"fd.cardinalities", "count"},
	{"serve.mean_ms.join", "ms"},
	{"serve.mean_ms.search", "ms"},
	{"serve.mean_ms.union", "ms"},
	{"serve.mean_ms.profile", "ms"},
	{"serve.rejected", "count"},
	{"serve.cache_hits", "count"},
	{"serve.capacity_rps", "1/s"},
	{"serve.join_tail_ms", "ms"},
	{"serve.search_tail_ms", "ms"},
	{"loadgen.lag_ms", "ms"},
	{"loadgen.conn_wait_ms", "ms"},
	{"core.precompute_s", "s"},
	{"core.profile_s", "s"},
	{"core.keys_fd_s", "s"},
	{"core.join_s", "s"},
	{"core.union_s", "s"},
	{"core.extensions_s", "s"},
	{"ckan.funnel_s", "s"},
	{"report.render_s", "s"},
	{"core.workers1_s", "s"},
	{"core.sections_ratio", "ratio"},
	{"parallel.speedup", "ratio"},
	{"ingest.detect_ms", "ms"},
	{"ingest.apply_ms", "ms"},
	{"query.apply_delta_ms", "ms"},
	{"ingest.tables_parsed", "count"},
	{"ingest.bytes_written", "bytes"},
	{"ingest.rebuild_s", "s"},
	{"trace.setup_s", "s"},
	{"trace.p50_ms", "ms"},
	{"trace.cpu_ms", "ms"},
	{"workload.tail_ms", "ms"},
	{"trace.peak_rss_mb", "MB"},
}

// buildService loads the corpus in dir and builds a query service over it
// the way ogdpserve does, with Workers = nproc.
func buildService(e *env, dir string, reg *obs.Registry) (*query.Service, error) {
	src, err := diskcorpus.LoadStudy(dir)
	if err != nil {
		return nil, fmt.Errorf("load corpus: %w", err)
	}
	return query.New(src, query.Options{Workers: e.nproc, Registry: reg}), nil
}

// sweep is the traced run's layer pass: every layer the workload's own
// traced run (own) did not already measure, each timed around calls
// into its public functions. The ingest pass patches the sweep's
// service, so it runs last.
func sweep(e *env, o *outcomeSet, own string) error {
	reg := obs.NewRegistry()
	svc, err := buildLayers(e, reg, o)
	if err != nil {
		return err
	}
	requestLayers(e, svc, reg, o.layers)
	if err := fdLayers(e, svc, o.layers); err != nil {
		return err
	}
	if own != "study" {
		src, _, _, err := loadTimed(e.corpusDir, 1)
		if err != nil {
			return err
		}
		par := runStudy(src, e.nproc, true)
		src1, _, _, err := loadTimed(e.corpusDir, 1)
		if err != nil {
			return err
		}
		seq := runStudy(src1, 1, true)
		if !bytes.Equal(par.report, seq.report) {
			o.problems = append(o.problems, fmt.Sprintf("study report at Workers=%d differs from Workers=1", e.nproc))
		}
		if err := studyLayers(seq, par.studyD, o); err != nil {
			return err
		}
	}
	if own != "serve" {
		r, err := runServe(e, svc, 1, shortServe, true)
		if err != nil {
			return err
		}
		o.problems = append(o.problems, r.problems...)
		serveLayers(r, o.layers)
	}
	if own != "ingest" {
		r, err := runDeltas(e, svc, 0, sweepDeltas, true)
		if err != nil {
			return err
		}
		o.problems = append(o.problems, r.problems...)
		ingestLayers(r, o.layers)
	}
	return nil
}

// Sizes of the sweep's short serve run and delta loop, used when the
// workload itself does not exercise those layers.
const (
	shortServe  = 4 * time.Second
	sweepDeltas = 5
)

// partsTolerance bounds how far profiles + search build + union may
// fall from query.New's time. The gap is what query.New does besides
// them (name index, dataset categories, the content hash).
const partsTolerance = 0.2

// buildReps is how many times buildLayers builds the service each way.
// It reports medians: one sub-second build moves by a fifth from one
// repetition to the next on a shared machine. Three keep the traced
// ingest run, the longest, well inside its time limit.
const buildReps = 3

// buildLayers times the service build layer by layer on one load and
// query.New whole on another, buildReps times, and checks that the
// median parts reconcile with the median whole. The last query.New
// carries reg and is returned.
func buildLayers(e *env, reg *obs.Registry, o *outcomeSet) (*query.Service, error) {
	var loads, profs, builds, unions, news []float64
	var svc *query.Service
	for rep := 0; rep < buildReps; rep++ {
		t0 := time.Now()
		src, skips, err := diskcorpus.LoadStudyNotes(e.corpusDir)
		if err != nil {
			return nil, fmt.Errorf("load corpus: %w", err)
		}
		loads = append(loads, secs(time.Since(t0)))
		tables := corpus.Tables(src)
		o.layers["diskcorpus.skips"] = float64(len(skips))
		// Every skip is a table that did not come from its colstore
		// sidecar (a fallback to the CSV, or a file not loaded at all).
		o.layers["colstore.tables_encoded"] = float64(len(tables) - len(skips))

		// Both sides of the reconciliation start from a collected heap.
		runtime.GC()
		t1 := time.Now()
		parallel.Must(parallel.ForEach(context.Background(), len(tables), e.nproc, func(i int) {
			tables[i].Profiles()
		}))
		profs = append(profs, secs(time.Since(t1)))
		distinct := 0
		for _, t := range tables {
			for c := range t.Cols {
				distinct += t.Profile(c).Distinct
			}
		}
		o.layers["table.distinct_values"] = float64(distinct)

		cat := map[string]string{}
		for _, d := range src.DatasetMetas() {
			cat[d.ID] = d.Category
		}
		metas := make([]search.TableMeta, len(tables))
		for i, m := range src.TableMetas() {
			metas[i] = search.TableMeta{DatasetID: m.DatasetID, Category: cat[m.DatasetID]}
		}
		t2 := time.Now()
		eng := search.NewWithOptions(tables, search.Options{MinUnique: search.MinUniqueDefault, Meta: metas})
		builds = append(builds, secs(time.Since(t2)))
		t3 := time.Now()
		union.Find(tables)
		unions = append(unions, secs(time.Since(t3)))

		src2, err := diskcorpus.LoadStudy(e.corpusDir)
		if err != nil {
			return nil, fmt.Errorf("load corpus: %w", err)
		}
		var opts query.Options
		opts.Workers = e.nproc
		if rep == buildReps-1 {
			opts.Registry = reg
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t4 := time.Now()
		svc = query.New(src2, opts)
		news = append(news, secs(time.Since(t4)))
		runtime.ReadMemStats(&m1)
		o.layers["query.new_allocs"] = float64(m1.Mallocs - m0.Mallocs)
		o.layers["query.new_alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		o.layers["search.indexed_columns"] = float64(eng.NumIndexed())
		if eng.NumIndexed() != svc.NumIndexed() {
			o.problems = append(o.problems, fmt.Sprintf("layer-built engine indexes %d columns, query.New %d", eng.NumIndexed(), svc.NumIndexed()))
		}
	}
	o.layers["diskcorpus.load_s"] = medianOf(loads)
	o.layers["table.profiles_s"] = medianOf(profs)
	o.layers["search.build_s"] = medianOf(builds)
	o.layers["union.find_s"] = medianOf(unions)
	o.layers["query.new_s"] = medianOf(news)
	ratio := (medianOf(profs) + medianOf(builds) + medianOf(unions)) / medianOf(news)
	o.layers["query.parts_ratio"] = ratio
	if !reconciles(ratio, partsTolerance) {
		o.problems = append(o.problems, fmt.Sprintf("profiles + search build + union cover %.3f of query.New (tolerance %.2f)", ratio, partsTolerance))
	}
	return svc, nil
}

// inventoryOf is the /tables inventory of an in-process service.
func inventoryOf(svc *query.Service) inventory {
	var inv inventory
	inv.Corpus = svc.HashString()
	for _, t := range svc.Tables() {
		inv.Tables = append(inv.Tables, struct {
			Name string   `json:"name"`
			Cols []string `json:"cols"`
		}{t.Name, t.Cols})
	}
	return inv
}

// requestLayers runs Service.Do in process, one call at a time, over
// the request sequence serve-index sends at the reference rate, then
// /fd once on every table it accepts (the multi-second outlier
// included), and reads the search engine's candidate and verification
// counters.
func requestLayers(e *env, svc *query.Service, reg *obs.Registry, layers map[string]float64) {
	targets := eligibleTargets(inventoryOf(svc), svc)
	reqs := schedule(e.seed, 0, refRate, e.seconds, indexMix, targets)
	for _, name := range targets["fd"] {
		reqs = append(reqs, request{Kind: "fd", Table: name})
	}
	byKind := map[string][]float64{}
	for _, r := range reqs {
		t0 := time.Now()
		if _, err := svc.Do(context.Background(), r.queryRequest()); err == nil {
			byKind[r.Kind] = append(byKind[r.Kind], ms(time.Since(t0)))
		}
	}
	for _, k := range endpointKinds {
		s := summarize(byKind[k])
		layers["query.do_p50_ms."+k] = s.P50
		layers["query.do_tail_ms."+k] = s.Tail
	}
	snap := reg.Snapshot()
	sum := func(name string) float64 {
		v := 0.0
		for _, m := range snap.Metrics {
			if m.Name == name {
				v += m.Value
			}
		}
		return v
	}
	q, c, v := sum("ogdp_search_rank_queries_total"), sum("ogdp_search_rank_candidates_total"), sum("ogdp_search_rank_verified_total")
	if q > 0 {
		layers["search.candidates_per_query"] = c / q
		layers["search.verified_per_query"] = v / q
	}
	if c > 0 {
		layers["search.verify_ratio"] = v / c
	}
}

// fdLayers times fd.DiscoverCost on every table /fd accepts, fanned
// out over nproc workers, and sums its deterministic work count.
func fdLayers(e *env, svc *query.Service, layers map[string]float64) error {
	var names []string
	for _, t := range svc.Tables() {
		if len(t.Cols) <= fd.MaxColumns {
			names = append(names, t.Name)
		}
	}
	src, err := diskcorpus.LoadStudy(e.corpusDir)
	if err != nil {
		return fmt.Errorf("load corpus: %w", err)
	}
	tables := corpus.Tables(src)
	byName := map[string]int{}
	for i, t := range tables {
		byName[t.Name] = i
	}
	took := make([]float64, len(names))
	var cards atomic.Int64
	parallel.Must(parallel.ForEach(context.Background(), len(names), e.nproc, func(i int) {
		t := tables[byName[names[i]]]
		t0 := time.Now()
		_, cost := fd.DiscoverCost(t, fd.MaxLHS)
		took[i] = ms(time.Since(t0))
		cards.Add(int64(cost.Cardinalities))
	}))
	s := summarize(took)
	layers["fd.discover_p50_ms"] = s.P50
	layers["fd.discover_max_ms"] = s.Max
	layers["fd.cardinalities"] = float64(cards.Load())
	return nil
}
