package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ogdp/internal/gen"
	"ogdp/internal/obs"
)

// fakeStudyTrace builds the span tree core.RunPortal records at
// Workers=1, on a clock the test advances: the four section spans open
// together and the sections then run one after another.
func fakeStudyTrace() *obs.Span {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	tick := func(d time.Duration) { now = now.Add(d) }
	root := obs.NewTimedTrace("study", clock)
	portal := root.Child("portal:" + corpusPortal)
	pre := portal.Child("precompute")
	tick(time.Second)
	pre.End()
	prof, keys, join, union := portal.Child("profile"), portal.Child("keys+fd"), portal.Child("join"), portal.Child("union")
	funnel := prof.Child("funnel")
	tick(500 * time.Millisecond)
	funnel.End()
	tick(1500 * time.Millisecond)
	prof.End()
	tick(4 * time.Second)
	keys.End()
	tick(time.Second)
	join.End()
	tick(500 * time.Millisecond)
	union.End()
	tick(2 * time.Second) // extensions: no span of their own
	portal.End()
	root.End()
	return root
}

func TestStudySectionsReconcile(t *testing.T) {
	seq := studyRun{trace: fakeStudyTrace(), renderD: 100 * time.Millisecond, studyD: 10600 * time.Millisecond}
	o := newOutcomeSet()
	if err := studyLayers(seq, 5300*time.Millisecond, o); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"core.precompute_s":   1,
		"core.profile_s":      2,
		"core.keys_fd_s":      4,
		"core.join_s":         1,
		"core.union_s":        0.5,
		"core.extensions_s":   2,
		"ckan.funnel_s":       0.5,
		"report.render_s":     0.1,
		"core.workers1_s":     10.6,
		"core.sections_ratio": 1,
		"parallel.speedup":    2,
	}
	for k, v := range want {
		if got := o.layers[k]; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
	if len(o.problems) != 0 {
		t.Errorf("problems: %v", o.problems)
	}

	// A study time the spans do not account for fails the check.
	seq.studyD = 20 * time.Second
	o = newOutcomeSet()
	if err := studyLayers(seq, 5300*time.Millisecond, o); err != nil {
		t.Fatal(err)
	}
	if len(o.problems) != 1 || !strings.Contains(o.problems[0], "sections") {
		t.Errorf("unreconciled study time not reported: %v", o.problems)
	}
}

// The traced run's query.New parts (profiles, search build, union)
// add up to query.New's own time within partsTolerance. Timing on a
// shared machine can stall once, so the check gets three attempts.
func TestBuildPartsReconcileWithQueryNew(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a generated corpus")
	}
	dir := filepath.Join(t.TempDir(), "corpus")
	if _, err := gen.SaveCorpus(dir, gen.Generate(gen.CA(), 0.25, 1)); err != nil {
		t.Fatal(err)
	}
	e := &env{corpusDir: dir, nproc: 2}
	var last *outcomeSet
	for attempt := 0; attempt < 3; attempt++ {
		o := newOutcomeSet()
		svc, err := buildLayers(e, obs.NewRegistry(), o)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"diskcorpus.load_s", "table.profiles_s", "search.build_s", "union.find_s", "query.new_s", "query.new_allocs"} {
			if o.layers[k] <= 0 {
				t.Fatalf("%s = %v, want > 0", k, o.layers[k])
			}
		}
		if o.layers["search.indexed_columns"] != float64(svc.NumIndexed()) || o.layers["diskcorpus.skips"] != 0 {
			t.Fatalf("layer counts disagree with the service: %v", o.layers)
		}
		last = o
		if len(o.problems) == 0 && reconciles(o.layers["query.parts_ratio"], partsTolerance) {
			return
		}
	}
	t.Fatalf("parts never reconciled with query.New: ratio %v, problems %v", last.layers["query.parts_ratio"], last.problems)
}
