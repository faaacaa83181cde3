package main

import (
	"bytes"
	"fmt"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ogdp/internal/core"
	"ogdp/internal/corpus"
	"ogdp/internal/diskcorpus"
	"ogdp/internal/obs"
	"ogdp/internal/report"
)

// studyOptions are the options ogdpreport -dir runs the study with on
// this corpus: its default seed, which is the corpus's generation seed,
// and the CKAN funnel, the 0.7 sensitivity pass and the extensions on.
// The study's sampling seed is not the workload seed: the study's work
// depends on it (seed 4 ran 15 % slower than seed 1 over three
// alternating pairs), and the workload measures one fixed study.
func studyOptions(workers int) core.Options {
	return core.Options{
		Scale:       corpusScale,
		Seed:        corpusSeed,
		Compress:    true,
		FetchFunnel: true,
		Sensitivity: true,
		Extensions:  true,
		Workers:     workers,
	}
}

// studyRun is one study + render over a freshly loaded corpus.
type studyRun struct {
	report  []byte
	studyD  time.Duration // study + render
	renderD time.Duration
	trace   *obs.Span
}

// runStudy loads dir and runs the single-portal study at the given
// worker count, then renders the report as ogdpreport does (minus its
// timing line). With traced set the study runs under a timed span
// tree, which is the only difference from the untraced run.
func runStudy(src corpus.Source, workers int, traced bool) studyRun {
	opts := studyOptions(workers)
	var r studyRun
	if traced {
		r.trace = obs.NewTimedTrace("study", time.Now)
		opts.Trace, opts.Clock = r.trace, time.Now
	}
	t0 := time.Now()
	res := &core.StudyResult{Options: opts, Portals: []core.PortalResult{core.RunPortal(src, opts)}}
	t1 := time.Now()
	var buf bytes.Buffer
	report.All(&buf, res)
	report.Summary(&buf, res)
	r.renderD = time.Since(t1)
	r.studyD = time.Since(t0)
	r.report = buf.Bytes()
	r.trace.End()
	return r
}

// loadTimed loads the corpus n times and returns the last source with
// every load's duration.
func loadTimed(dir string, n int) (corpus.Source, []float64, []diskcorpus.Skip, error) {
	var src corpus.Source
	var skips []diskcorpus.Skip
	var took []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		s, sk, err := diskcorpus.LoadStudyNotes(dir)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("load corpus: %w", err)
		}
		took = append(took, secs(time.Since(t0)))
		src, skips = s, sk
	}
	return src, took, skips, nil
}

// minStudyReps is the fewest studies a run makes at Workers = nproc;
// it makes more while the run's seconds have not passed. cpu_ms is the
// median of their CPU times. One study takes ~10 s on the baseline
// machine, so a run that timed a single one took whatever the host did
// in those seconds whole.
const minStudyReps = 3

// runStudyWorkload: setupReps timed corpus loads (setup), the study at
// Workers = nproc (the measured operation) at least minStudyReps times,
// each on a fresh load, then the check that every report is
// byte-identical to a Workers=1 run on a fresh load.
//
// peak_rss_mb is the first study's: colstore's mappings stay in the
// process after a load, so every reload adds the corpus's touched
// pages to the resident set of the studies after it.
func runStudyWorkload(e *env, o *outcomeSet) error {
	src, loads, skips, err := loadTimed(e.corpusDir, setupReps)
	if err != nil {
		return err
	}
	if len(skips) > 0 {
		o.problems = append(o.problems, fmt.Sprintf("corpus load skipped %d files: %v", len(skips), skips[0]))
	}
	var reports [][]byte
	var walls, cpus []float64
	var rss float64
	start := time.Now()
	for len(reports) < minStudyReps || time.Since(start) < e.seconds {
		if len(reports) > 0 {
			src = nil // so the collection frees the previous load
			if src, _, _, err = loadTimed(e.corpusDir, 1); err != nil {
				return err
			}
		}
		resetPeakRSS()
		c0 := selfCPU()
		run := runStudy(src, e.nproc, e.trace)
		cpus = append(cpus, ms(selfCPU()-c0))
		walls = append(walls, ms(run.studyD))
		if len(reports) == 0 {
			rss = peakRSSMB(0)
		}
		reports = append(reports, run.report)
	}
	src = nil

	src1, _, _, err := loadTimed(e.corpusDir, 1)
	if err != nil {
		return err
	}
	seq := runStudy(src1, 1, e.trace)
	o.attempted = len(reports)
	for i, rep := range reports {
		if !bytes.Equal(rep, seq.report) {
			o.failed++
			o.problems = append(o.problems, fmt.Sprintf("study %d's report at Workers=%d differs from Workers=1 (%d vs %d bytes)",
				i+1, e.nproc, len(rep), len(seq.report)))
		}
	}
	studyMS, cpuMS := medianOf(walls), medianOf(cpus)
	o.e2e["setup_s"] = medianOf(loads)
	o.e2e["cpu_ms"] = cpuMS
	o.e2e["peak_rss_mb"] = rss
	o.record["loads_s"] = loads
	o.record["p50_ms"] = studyMS
	o.record["studies_ms"] = walls
	o.record["studies_cpu_ms"] = cpus
	o.record["study_workers1_s"] = secs(seq.studyD)
	o.record["report_bytes"] = len(seq.report)
	if e.trace {
		o.layers["trace.setup_s"] = o.e2e["setup_s"]
		o.layers["trace.p50_ms"] = studyMS
		o.layers["trace.cpu_ms"] = cpuMS
		o.layers["workload.tail_ms"] = summarize(walls).Tail
		o.layers["trace.peak_rss_mb"] = rss
		if err := studyLayers(seq, time.Duration(studyMS*float64(time.Millisecond)), o); err != nil {
			return err
		}
		return sweep(e, o, "study")
	}
	return nil
}

// studySections are the section spans core.RunPortal opens under its
// portal span, in the order a Workers=1 run executes them, with the
// metric each one feeds.
var studySections = []struct{ span, metric string }{
	{"profile", "core.profile_s"},
	{"keys+fd", "core.keys_fd_s"},
	{"join", "core.join_s"},
	{"union", "core.union_s"},
}

// sectionsTolerance bounds how far the Workers=1 parts (precompute,
// sections, extensions, render) may fall from the Workers=1 study time
// taken by the benchmark's own clock.
const sectionsTolerance = 0.05

// studyLayers derives per-section times from a Workers=1 traced run
// and reports the parallel speedup against the Workers=nproc study
// time. core.RunPortal opens all four section spans before it runs the
// sections, so each span's wall runs from that common start to the
// section's end; at Workers=1 the sections run one after another in
// span order, so a section's own time is its wall minus the previous
// section's. The portal span's time not covered by its children is
// the extensions pass, which has no span of its own.
func studyLayers(seq studyRun, parallelD time.Duration, o *outcomeSet) error {
	walls, err := spanWalls(seq.trace)
	if err != nil {
		return err
	}
	get := func(span string) (float64, error) {
		w, ok := walls[span]
		if !ok {
			return 0, fmt.Errorf("study trace has no %q span", span)
		}
		return w, nil
	}
	portal, err := get("portal:" + corpusPortal)
	if err != nil {
		return err
	}
	pre, err := get("precompute")
	if err != nil {
		return err
	}
	o.layers["core.precompute_s"] = pre
	sum, prev := pre, 0.0
	for _, s := range studySections {
		w, err := get(s.span)
		if err != nil {
			return err
		}
		o.layers[s.metric] = w - prev
		sum += w - prev
		prev = w
	}
	ext := portal - sum
	o.layers["core.extensions_s"] = ext
	sum += ext
	o.layers["ckan.funnel_s"] = walls["funnel"]
	o.layers["report.render_s"] = secs(seq.renderD)
	sum += secs(seq.renderD)
	o.layers["core.workers1_s"] = secs(seq.studyD)
	ratio := sum / secs(seq.studyD)
	o.layers["core.sections_ratio"] = ratio
	o.layers["parallel.speedup"] = secs(seq.studyD) / secs(parallelD)
	if !reconciles(ratio, sectionsTolerance) {
		o.problems = append(o.problems, fmt.Sprintf("Workers=1 sections + render cover %.3f of the study time (tolerance %.2f)", ratio, sectionsTolerance))
	}
	return nil
}

// reconciles reports whether parts/whole is within tol of 1.
func reconciles(ratio, tol float64) bool { return ratio >= 1-tol && ratio <= 1+tol }

var spanLine = regexp.MustCompile(`([^\s─├└│]+) \[wall=([0-9.]+)s`)

// spanWalls reads every span's wall time (seconds) from a timed span
// tree's rendering, keyed by span name; nested spans with the same
// name keep the first.
func spanWalls(root *obs.Span) (map[string]float64, error) {
	var buf bytes.Buffer
	root.WriteTree(&buf)
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		m := spanLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("span %s: %w", m[1], err)
		}
		if _, dup := out[m[1]]; !dup {
			out[m[1]] = v
		}
	}
	return out, nil
}
