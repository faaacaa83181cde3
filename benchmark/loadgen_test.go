package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

func testTargets() map[string][]string {
	t := map[string][]string{}
	for _, n := range []string{"a.csv", "b.csv", "c.csv", "d.csv", "e.csv"} {
		for _, k := range endpointKinds {
			t[k] = append(t[k], n)
		}
	}
	return t
}

var testMix = []kindWeight{{"join", 2}, {"search", 2}, {"union", 2}, {"profile", 2}, {"fd", 1}}

func TestScheduleIsSeeded(t *testing.T) {
	tg := testTargets()
	a := schedule(7, 0, 200, 2*time.Second, testMix, tg)
	b := schedule(7, 0, 200, 2*time.Second, testMix, tg)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different schedules (%d vs %d requests)", len(a), len(b))
	}
	if c := schedule(8, 0, 200, 2*time.Second, testMix, tg); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if c := schedule(7, 1, 200, 2*time.Second, testMix, tg); reflect.DeepEqual(a, c) {
		t.Fatal("different steps gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i].Due < a[i-1].Due || a[i].Due >= 2*time.Second {
			t.Fatalf("request %d due %v out of order or past the step", i, a[i].Due)
		}
	}
}

// Every kind draws its tables without replacement, so each table comes
// up once per pass.
func TestScheduleWalksTargets(t *testing.T) {
	tg := testTargets()
	reqs := schedule(3, 0, 500, 4*time.Second, testMix, tg)
	seen := map[string][]string{}
	for _, r := range reqs {
		seen[r.Kind] = append(seen[r.Kind], r.Table)
	}
	for kind, tables := range seen {
		n := len(tg[kind])
		for pass := 0; (pass+1)*n <= len(tables); pass++ {
			got := map[string]bool{}
			for _, tb := range tables[pass*n : (pass+1)*n] {
				got[tb] = true
			}
			if len(got) != n {
				t.Errorf("%s pass %d covers %d of %d tables", kind, pass, len(got), n)
			}
		}
	}
	if len(seen["fd"]) < len(tg["fd"]) {
		t.Fatalf("only %d /fd requests, want a full pass", len(seen["fd"]))
	}
}

// failServer answers by table name: ok, 429, 503, or (slow) after a
// delay.
func failServer(delay time.Duration) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("table") {
		case "busy":
			w.WriteHeader(http.StatusTooManyRequests)
		case "down":
			w.WriteHeader(http.StatusServiceUnavailable)
		case "slow":
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
			}
		}
		w.Write([]byte("body"))
	}))
}

func TestFailureAccounting(t *testing.T) {
	srv := failServer(2 * time.Second)
	defer srv.Close()
	reqs := []request{
		{Due: 0, Kind: "profile", Table: "ok"},
		{Due: time.Millisecond, Kind: "profile", Table: "busy"},
		{Due: 2 * time.Millisecond, Kind: "profile", Table: "down"},
		{Due: 3 * time.Millisecond, Kind: "profile", Table: "slow"},
	}
	// Client timeout: the slow request outlives the client's bound.
	d := newGenerator(srv.URL, 2, 100*time.Millisecond)
	defer d.close()
	res := d.run(reqs, 10*time.Second)
	want := []string{failNone, failRejected, failStatus, failTimeout}
	var tl tally
	for i, o := range res.Outcomes {
		if o.Fail != want[i] {
			t.Errorf("request %s: class %q, want %q", reqs[i].Table, o.Fail, want[i])
		}
		tl.add(o)
	}
	if tl.Attempted != 4 || tl.Failed != 3 || tl.ByClass[failRejected] != 1 || tl.ByClass[failStatus] != 1 || tl.ByClass[failTimeout] != 1 {
		t.Errorf("tally = %+v", tl)
	}
	if res.Outcomes[0].Body != "body" {
		t.Errorf("ok body = %q", res.Outcomes[0].Body)
	}
	if lat := res.latencies(ofKind("profile")); lat[3] < 100 {
		t.Errorf("timed-out request latency %.1f ms, want at least the 100 ms timeout", lat[3])
	}
}

func TestHardStopCutsStragglers(t *testing.T) {
	srv := failServer(5 * time.Second)
	defer srv.Close()
	// One connection: the first slow request holds it, so the second is
	// still queued and the first still in flight at the hard stop.
	d := newGenerator(srv.URL, 1, 30*time.Second)
	defer d.close()
	reqs := []request{
		{Due: 0, Kind: "profile", Table: "slow"},
		{Due: time.Millisecond, Kind: "profile", Table: "slow"},
	}
	start := time.Now()
	res := d.run(reqs, 200*time.Millisecond)
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("step waited %v for stragglers past its 200ms hard stop", took)
	}
	for i, o := range res.Outcomes {
		if o.Fail != failCut {
			t.Errorf("request %d: class %q, want %q", i, o.Fail, failCut)
		}
		if o.Latency < 150*time.Millisecond {
			t.Errorf("request %d: latency %v, want it charged up to the hard stop", i, o.Latency)
		}
	}
}

// Open loop: a request due while the only connection is busy waits for
// it, and that wait counts in its latency, timed from its due time.
func TestLatencyRunsFromDueTime(t *testing.T) {
	srv := failServer(300 * time.Millisecond)
	defer srv.Close()
	d := newGenerator(srv.URL, 1, 5*time.Second)
	defer d.close()
	reqs := []request{
		{Due: 0, Kind: "profile", Table: "slow"},
		{Due: 10 * time.Millisecond, Kind: "profile", Table: "ok"},
	}
	res := d.run(reqs, 5*time.Second)
	for i, o := range res.Outcomes {
		if o.Fail != failNone {
			t.Fatalf("request %d failed: %s", i, o.Fail)
		}
	}
	second := res.Outcomes[1]
	if second.ConnWait < 250*time.Millisecond || second.Latency < second.ConnWait {
		t.Errorf("queued request: conn wait %v, latency %v; want both to cover the ~290ms it was held", second.ConnWait, second.Latency)
	}
}
