package ckan

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ogdp/internal/obs"
)

// fastClient returns a client tuned for fault tests: near-zero
// backoff so retries are exercised without slowing the suite.
func fastClient(base string, workers, retries int) *Client {
	c := NewClient(base)
	c.Workers = workers
	c.Retries = retries
	c.Backoff = time.Microsecond
	c.Seed = 42
	return c
}

// faultPortal is testPortal scaled out to enough datasets that the
// worker pool actually interleaves requests.
func faultPortal() *Portal {
	p := testPortal()
	for i := 0; i < 10; i++ {
		body := []byte(fmt.Sprintf("id,city,rank\n%d,Kitchener,%d\n%d,Guelph,%d\n", i, i+1, i+10, i+2))
		p.Datasets = append(p.Datasets, &Dataset{
			ID:        fmt.Sprintf("ds-extra-%02d", i),
			Title:     fmt.Sprintf("Extra %d", i),
			Published: time.Date(2019, time.Month(i%12+1), 3, 0, 0, 0, 0, time.UTC),
			Resources: []*Resource{
				{ID: fmt.Sprintf("rx-%02d", i), Name: "extra.csv", Format: "csv",
					URL: fmt.Sprintf("/download/rx-%02d", i), Body: body},
			},
		})
	}
	return p
}

// normalized strips the retry accounting and ledger, leaving the pure
// funnel for comparisons between faulted and fault-free runs (retry
// counts legitimately differ; the funnel must not).
func normalized(s FunnelStats) FunnelStats {
	s.Retries = 0
	s.TransientFailures = 0
	s.Failures = nil
	return s
}

// TestFetchAllRecoversFromTransientFaults: every endpoint fails its
// first two attempts at every request; with a retry budget of three,
// the crawl must reproduce the fault-free funnel and tables exactly.
func TestFetchAllRecoversFromTransientFaults(t *testing.T) {
	s := NewServer(faultPortal())
	srv := httptest.NewServer(s)
	defer srv.Close()

	wantTables, wantStats, err := fastClient(srv.URL, 4, -1).FetchAll()
	if err != nil {
		t.Fatal(err)
	}

	fail2 := FaultSpec{FailFirst: 2}
	s.InjectFaults(Faults{Seed: 1, PackageList: fail2, PackageShow: fail2, Download: fail2})
	gotTables, gotStats, err := fastClient(srv.URL, 4, 3).FetchAll()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(gotTables, wantTables) {
		t.Errorf("tables differ from the fault-free run: %d vs %d", len(gotTables), len(wantTables))
	}
	if got, want := normalized(gotStats), normalized(wantStats); !reflect.DeepEqual(got, want) {
		t.Errorf("funnel differs:\nfaulted    %+v\nfault-free %+v", got, want)
	}
	if gotStats.Retries == 0 || gotStats.TransientFailures == 0 {
		t.Errorf("no retries recorded under FailFirst faults: %+v", gotStats)
	}
	if wantStats.Retries != 0 {
		t.Errorf("fault-free run recorded retries: %+v", wantStats)
	}
}

// TestFetchAllDeterministicAcrossWorkersUnderFaults is the acceptance
// criterion: against a portal injecting ~30% transient faults, the
// crawl is byte-identical for Workers=1 and Workers=8 — including the
// retry counters and the failure ledger — and, with enough retry
// budget, identical to the fault-free funnel.
func TestFetchAllDeterministicAcrossWorkersUnderFaults(t *testing.T) {
	s := NewServer(faultPortal())
	srv := httptest.NewServer(s)
	defer srv.Close()

	faults := Faults{
		Seed:        99,
		PackageList: FaultSpec{Rate500: 0.3},
		PackageShow: FaultSpec{Rate500: 0.3},
		Download:    FaultSpec{Rate500: 0.3, TruncateRate: 0.15},
	}

	s.InjectFaults(faults)
	t1, s1, err := fastClient(srv.URL, 1, 6).FetchAll()
	if err != nil {
		t.Fatal(err)
	}
	s.InjectFaults(faults) // reset attempt counters: identical schedule
	t8, s8, err := fastClient(srv.URL, 8, 6).FetchAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t1, t8) {
		t.Errorf("tables differ across worker counts: %d vs %d", len(t1), len(t8))
	}
	if !reflect.DeepEqual(s1, s8) {
		t.Errorf("stats differ across worker counts:\nW=1 %+v\nW=8 %+v", s1, s8)
	}
	if s1.Retries == 0 {
		t.Error("a 30% fault rate should force retries")
	}

	s.InjectFaults(Faults{})
	t0, s0, err := fastClient(srv.URL, 4, -1).FetchAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t1, t0) {
		t.Errorf("retries did not recover the fault-free tables: %d vs %d", len(t1), len(t0))
	}
	if got, want := normalized(s1), normalized(s0); !reflect.DeepEqual(got, want) {
		t.Errorf("retries did not recover the fault-free funnel:\nfaulted    %+v\nfault-free %+v", got, want)
	}
}

// TestServerFaultInjectionFailFirst checks the server-side schedule
// directly: two 500s, then the real response.
func TestServerFaultInjectionFailFirst(t *testing.T) {
	s := NewServer(testPortal())
	srv := httptest.NewServer(s)
	defer srv.Close()
	s.InjectFaults(Faults{PackageList: FaultSpec{FailFirst: 2}})

	want := []int{500, 500, 200, 200}
	for i, w := range want {
		resp, err := http.Get(srv.URL + "/api/3/action/package_list")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != w {
			t.Errorf("attempt %d: status %d, want %d", i+1, resp.StatusCode, w)
		}
	}
	// Other endpoints are unaffected.
	resp, err := http.Get(srv.URL + "/download/r-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("download with no faults: status %d", resp.StatusCode)
	}
}

// TestServerFaultInjectionTruncates checks that a truncated download
// surfaces as a body-read error on the client side.
func TestServerFaultInjectionTruncates(t *testing.T) {
	s := NewServer(testPortal())
	srv := httptest.NewServer(s)
	defer srv.Close()
	s.InjectFaults(Faults{Download: FaultSpec{TruncateRate: 1}})

	resp, err := http.Get(srv.URL + "/download/r-1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err == nil {
		t.Error("reading a truncated body should fail")
	}
}

// TestClientDateVariantsAndFormatCase covers the metadata quirks of
// real portals: RFC3339 and fractional-second creation dates, and
// mixed-case format spellings.
func TestClientDateVariantsAndFormatCase(t *testing.T) {
	show := map[string]string{
		"ds-z": `{"success": true, "result": {"id": "ds-z", "title": "Zoned",
			"metadata_created": "2020-05-01T10:00:00Z",
			"resources": [{"id": "rz", "name": "z.csv", "format": "csv", "url": "/dl/t"}]}}`,
		"ds-f": `{"success": true, "result": {"id": "ds-f", "title": "Fractional",
			"metadata_created": "2021-01-02T03:04:05.123456",
			"resources": [{"id": "rf", "name": "f.csv", "format": " Csv ", "url": "/dl/t"}]}}`,
		"ds-b": `{"success": true, "result": {"id": "ds-b", "title": "Bad date",
			"metadata_created": "yesterday",
			"resources": [{"id": "rb", "name": "b.csv", "format": "CSV", "url": "/dl/t"}]}}`,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/3/action/package_list", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"success": true, "result": ["ds-z", "ds-f", "ds-b"]}`))
	})
	mux.HandleFunc("/api/3/action/package_show", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(show[r.URL.Query().Get("id")]))
	})
	mux.HandleFunc("/dl/t", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("a,b\n1,2\n"))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	client := fastClient(srv.URL, 1, -1)
	tables, stats, err := client.FetchAll()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tables != 3 || stats.Readable != 3 {
		t.Fatalf("mixed-case formats dropped: %+v", stats)
	}
	if stats.UnparsedDates != 1 {
		t.Errorf("UnparsedDates = %d, want 1", stats.UnparsedDates)
	}
	byDS := map[string]time.Time{}
	for _, ft := range tables {
		byDS[ft.DatasetID] = ft.Published
	}
	if byDS["ds-z"].Year() != 2020 || byDS["ds-z"].Hour() != 10 {
		t.Errorf("RFC3339 date = %v", byDS["ds-z"])
	}
	if byDS["ds-f"].Year() != 2021 || byDS["ds-f"].Nanosecond() == 0 {
		t.Errorf("fractional date = %v", byDS["ds-f"])
	}
	if !byDS["ds-b"].IsZero() {
		t.Errorf("unparseable date should stay zero, got %v", byDS["ds-b"])
	}
}

// TestZeroValueClientHasTimeout: the zero-value Client must never
// fall back to the timeout-less http.DefaultClient.
func TestZeroValueClientHasTimeout(t *testing.T) {
	var c Client
	hc := c.httpClient()
	if hc == http.DefaultClient {
		t.Fatal("zero-value Client uses http.DefaultClient")
	}
	if hc.Timeout <= 0 {
		t.Errorf("default transport timeout = %v, want > 0", hc.Timeout)
	}
}

// TestFetchAllContextCanceled: a canceled context stops the crawl
// promptly with the context error, not a hang or a panic.
func TestFetchAllContextCanceled(t *testing.T) {
	srv := httptest.NewServer(NewServer(testPortal()))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := fastClient(srv.URL, 2, 3).FetchAllContext(ctx)
	if err == nil {
		t.Fatal("want an error from a canceled context")
	}
	if !strings.Contains(err.Error(), "context canceled") {
		t.Errorf("err = %v, want context cancellation", err)
	}
}

// TestFunnelMatchesFetchAll checks that Funnel is FetchAllContext
// without the tables: under the same fault schedule it returns the
// same stats (failure ledger included) and records the same metrics
// and span items and bytes.
func TestFunnelMatchesFetchAll(t *testing.T) {
	s := NewServer(faultPortal())
	srv := httptest.NewServer(s)
	defer srv.Close()
	faults := Faults{
		Seed:        7,
		PackageShow: FaultSpec{Rate500: 0.3},
		Download:    FaultSpec{Rate500: 0.3, TruncateRate: 0.15},
	}
	run := func(funnel bool) (FunnelStats, string, string) {
		s.InjectFaults(faults) // reset attempt counters: identical schedule
		c := fastClient(srv.URL, 4, 2)
		c.Metrics = obs.NewRegistry()
		c.Trace = obs.NewTrace("fetch")
		var st FunnelStats
		var err error
		if funnel {
			st, err = c.Funnel(context.Background())
		} else {
			var tables []*FetchedTable
			tables, st, err = c.FetchAll()
			if len(tables) != st.Readable {
				t.Errorf("FetchAll returned %d tables, stats say %d readable", len(tables), st.Readable)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		var metrics, tree strings.Builder
		c.Metrics.Snapshot().WriteText(&metrics)
		c.Trace.WriteTree(&tree)
		return st, metrics.String(), tree.String()
	}
	wantStats, wantMetrics, wantTree := run(false)
	gotStats, gotMetrics, gotTree := run(true)
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Errorf("stats differ:\nFunnel   %+v\nFetchAll %+v", gotStats, wantStats)
	}
	if gotMetrics != wantMetrics {
		t.Errorf("metrics differ:\nFunnel:\n%s\nFetchAll:\n%s", gotMetrics, wantMetrics)
	}
	if gotTree != wantTree {
		t.Errorf("span trees differ:\nFunnel:\n%s\nFetchAll:\n%s", gotTree, wantTree)
	}
	if wantStats.TooWide == 0 || len(wantStats.Failures) == 0 || wantStats.Readable == 0 {
		t.Errorf("fixture should exercise wide, failed and readable outcomes: %+v", wantStats)
	}
	if !strings.Contains(wantTree, "bytes=") {
		t.Errorf("span tree records no download bytes:\n%s", wantTree)
	}
}
