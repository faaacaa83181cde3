package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ogdp/internal/gen"
	"ogdp/internal/ingest"
)

// fakeSnapshot is an in-memory table set for driving deltaGen.
type fakeSnapshot map[string][]byte

func newFakeSnapshot() fakeSnapshot {
	s := fakeSnapshot{}
	for i := 0; i < 12; i++ {
		s[fmt.Sprintf("t%02d.csv", i)] = []byte(fmt.Sprintf("id,name,v\n1,a%d,x\n2,b%d,y\n3,c%d,z\n", i, i, i))
	}
	return s
}

func (s fakeSnapshot) names() []string {
	var out []string
	for n := range s {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (s fakeSnapshot) body(name string) ([]byte, error) {
	b, ok := s[name]
	if !ok {
		return nil, fmt.Errorf("no table %s", name)
	}
	return b, nil
}

func (s fakeSnapshot) apply(d deltaStep) {
	for n, b := range d.Write {
		s[n] = b
	}
	for _, n := range d.Delete {
		delete(s, n)
	}
}

// deltaSequence draws n deltas from seed, applying each to a fresh
// fake snapshot, and returns them.
func deltaSequence(t *testing.T, seed int64, n int, protected map[string]bool) []deltaStep {
	t.Helper()
	snap := newFakeSnapshot()
	g := newDeltaGen(seed, protected)
	var out []deltaStep
	for i := 0; i < n; i++ {
		d, err := g.nextDelta(snap.names(), snap.body)
		if err != nil {
			t.Fatal(err)
		}
		snap.apply(d)
		out = append(out, d)
	}
	return out
}

func TestDeltaSequenceIsSeeded(t *testing.T) {
	a := deltaSequence(t, 5, 6, nil)
	b := deltaSequence(t, 5, 6, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different delta sequences")
	}
	if c := deltaSequence(t, 6, 6, nil); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same delta sequence")
	}
}

func TestDeltaShapeAndProtection(t *testing.T) {
	protected := map[string]bool{"t00.csv": true, "t01.csv": true}
	snap := newFakeSnapshot()
	g := newDeltaGen(9, protected)
	for i := 0; i < 8; i++ {
		names := snap.names()
		d, err := g.nextDelta(names, snap.body)
		if err != nil {
			t.Fatal(err)
		}
		exists := map[string]bool{}
		for _, n := range names {
			exists[n] = true
		}
		added, updated := 0, 0
		for n, b := range d.Write {
			if protected[n] {
				t.Errorf("delta %d rewrites protected table %s", i, n)
			}
			if exists[n] {
				updated++
			} else {
				added++
			}
			if _, err := readCSV(b); err != nil {
				t.Errorf("delta %d writes unparsable %s: %v", i, n, err)
			}
			if old, ok := snap[n]; ok && string(old) == string(b) {
				t.Errorf("delta %d updates %s without changing it", i, n)
			}
		}
		for _, n := range d.Delete {
			if protected[n] || !exists[n] || d.Write[n] != nil {
				t.Errorf("delta %d deletes %s (protected, missing, or also written)", i, n)
			}
		}
		if added != deltaShape.Added || updated != deltaShape.Updated || len(d.Delete) != deltaShape.Deleted {
			t.Errorf("delta %d: %d added, %d updated, %d deleted; want %+v", i, added, updated, len(d.Delete), deltaShape)
		}
		snap.apply(d)
	}
}

// A patch that leaves one table's update out is caught by
// compareServices' reads of that table, not only by the content hash;
// the right patch of the same delta passes.
func TestCompareServicesCatchesWrongPatch(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a generated corpus")
	}
	dir := filepath.Join(t.TempDir(), "corpus")
	if _, err := gen.SaveCorpus(dir, gen.Generate(gen.CA(), 0.1, 1)); err != nil {
		t.Fatal(err)
	}
	e := &env{nproc: 2}
	right, err := buildService(e, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := buildService(e, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := newSnapshot(dir, filepath.Join(t.TempDir(), "snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	names, err := snap.names()
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDeltaGen(3, nil).nextDelta(names, snap.body)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.apply(d); err != nil {
		t.Fatal(err)
	}
	plan, err := ingest.Detect(dir, snap.dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ingest.Apply(dir, plan); err != nil {
		t.Fatal(err)
	}
	if err := right.ApplyDelta(ingest.QueryDelta(plan)); err != nil {
		t.Fatal(err)
	}
	bad := ingest.QueryDelta(plan)
	missed := bad.Updated[0].Table.Name
	bad.Updated = bad.Updated[1:]
	if err := wrong.ApplyDelta(bad); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := buildService(e, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := compareServices(right, rebuilt, 2); len(p) > 0 {
		t.Fatalf("the right patch was flagged: %v", p)
	}
	problems := compareServices(wrong, rebuilt, 2)
	want := request{Kind: "profile", Table: missed}.path() + ":"
	for _, p := range problems {
		if strings.HasPrefix(p, want) {
			return
		}
	}
	t.Fatalf("a patch missing the update of %s was not caught by its /profile read: %v", missed, problems)
}
