package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"ogdp/internal/query"
)

// Endpoint kinds the generator issues. "search" is the /search
// endpoint (query.KindRank); the rest share their query kind's name.
var endpointKinds = []string{"join", "search", "union", "profile", "fd"}

// kindWeight is one entry of a traffic mix.
type kindWeight struct {
	Kind   string `json:"kind"`
	Weight int    `json:"weight"`
}

// request is one scheduled query: when it is due (offset from the
// step start), which endpoint, and which table.
type request struct {
	Due   time.Duration
	Kind  string
	Table string
}

// queryK is the k parameter of /join, /search and /union requests
// (ogdploadgen's default).
const queryK = 5

// path is the request's URL path and query string.
func (r request) path() string {
	v := url.Values{"table": {r.Table}}
	if r.Kind == "join" || r.Kind == "search" || r.Kind == "union" {
		v.Set("k", fmt.Sprint(queryK))
	}
	return "/" + r.Kind + "?" + v.Encode()
}

// queryRequest is the in-process query.Service spelling of r.
func (r request) queryRequest() query.Request {
	kind := r.Kind
	if kind == "search" {
		kind = query.KindRank
	}
	q := query.Request{Kind: kind, Table: r.Table}
	if r.Kind == "join" || r.Kind == "search" || r.Kind == "union" {
		q.K = queryK
	}
	return q.Normalize()
}

// schedule draws one step's open-loop arrivals: Poisson arrivals
// at rate per second over dur, each request's kind drawn from the mix
// weights. Each kind's tables are drawn without replacement — a walk
// over a seeded permutation of its targets, redrawn when exhausted —
// so every table is asked about equally often and the few expensive
// ones weigh the same in every run; a kind drawn at least as often as
// it has targets asks about every one of them. The same (seed, step)
// always gives the same schedule.
func schedule(seed int64, step int, rate float64, dur time.Duration, mix []kindWeight, targets map[string][]string) []request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(step)))
	var picks []string
	for _, kw := range mix {
		if len(targets[kw.Kind]) == 0 {
			continue
		}
		for i := 0; i < kw.Weight; i++ {
			picks = append(picks, kw.Kind)
		}
	}
	if len(picks) == 0 || rate <= 0 {
		return nil
	}
	walks := map[string][]int{}
	var out []request
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		kind := picks[rng.Intn(len(picks))]
		tables := targets[kind]
		if len(walks[kind]) == 0 {
			walks[kind] = rng.Perm(len(tables))
		}
		table := tables[walks[kind][0]]
		walks[kind] = walks[kind][1:]
		out = append(out, request{Due: due, Kind: kind, Table: table})
	}
}

// Failure classes of one request. Anything but a 200 is a failure;
// 429 (refused by admission) is kept apart from other statuses.
const (
	failNone      = ""
	failTransport = "transport"
	failRejected  = "429"
	failStatus    = "status"
	failTimeout   = "client_timeout"
	failCut       = "hard_stop"
)

// outcome is what happened to one scheduled request. Times are offsets
// from the step start.
type outcome struct {
	Status int
	Fail   string
	// Lag is how late the generator queued the request after it was
	// due; ConnWait how long it then waited for a free connection.
	Lag, ConnWait time.Duration
	// Latency runs from the due time to the end of the response (or to
	// the failure, or to the hard stop for a cut-off straggler).
	Latency time.Duration
	Body    string
	Corpus  string
	Cache   string
}

// classify maps a response status or transport error to a failure
// class; hardStopped reports whether the step's hard stop had fired.
func classify(status int, err error, hardStopped bool) string {
	switch {
	case err != nil && hardStopped:
		return failCut
	case err != nil && errors.Is(err, context.DeadlineExceeded):
		return failTimeout
	case err != nil:
		var ue *url.Error
		if errors.As(err, &ue) && ue.Timeout() {
			return failTimeout
		}
		return failTransport
	case status == http.StatusOK:
		return failNone
	case status == http.StatusTooManyRequests:
		return failRejected
	default:
		return failStatus
	}
}

// stepResult is one step's outcomes, parallel to its schedule.
type stepResult struct {
	Reqs     []request
	Outcomes []outcome
	// Elapsed is the wall time from the step start until every request
	// finished or the hard stop fired.
	Elapsed time.Duration
}

// generator issues schedules against one server over a fixed set of
// keep-alive connections: one client per connection, each allowed a
// single connection to the host.
type generator struct {
	base    string
	clients []*http.Client
}

func newGenerator(base string, conns int, timeout time.Duration) *generator {
	d := &generator{base: base}
	for i := 0; i < conns; i++ {
		d.clients = append(d.clients, &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			},
		})
	}
	return d
}

// close drops the idle keep-alive connections.
func (d *generator) close() {
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
}

// run issues reqs open-loop: each request is queued at its due time
// whether or not earlier ones have finished, and the connections take
// queued requests in due order. At hardStop after the step start every
// request still queued or in flight is cut off and counted as a
// straggler; the step does not wait for it.
func (d *generator) run(reqs []request, hardStop time.Duration) stepResult {
	outs := make([]outcome, len(reqs))
	queued := make([]time.Duration, len(reqs))
	started := make([]bool, len(reqs))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	stop := time.AfterFunc(hardStop, cancel)
	defer stop.Stop()

	// Buffered to len(reqs): the dispatcher never blocks, so a busy
	// connection delays a request (ConnWait) but never the generator.
	queue := make(chan int, len(reqs))
	var wg sync.WaitGroup
	for _, c := range d.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case i, ok := <-queue:
					if !ok {
						return
					}
					started[i] = true
					d.issue(ctx, c, start, reqs[i], queued[i], &outs[i])
				}
			}
		}(c)
	}

	timer := time.NewTimer(0)
	<-timer.C
dispatch:
	for i, r := range reqs {
		if wait := r.Due - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		}
		queued[i] = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	elapsed := time.Since(start)
	for i := range outs {
		if !started[i] {
			outs[i] = outcome{Fail: failCut, Latency: hardStop - reqs[i].Due}
		}
	}
	return stepResult{Reqs: reqs, Outcomes: outs, Elapsed: elapsed}
}

// issue sends one request and records its outcome.
func (d *generator) issue(ctx context.Context, c *http.Client, start time.Time, r request, queuedAt time.Duration, o *outcome) {
	o.Lag = queuedAt - r.Due
	if o.Lag < 0 {
		o.Lag = 0
	}
	o.ConnWait = time.Since(start) - queuedAt
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+r.path(), nil)
	if err != nil {
		o.Fail = failTransport
		return
	}
	resp, err := c.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		o.Status = resp.StatusCode
		o.Corpus = resp.Header.Get("X-Ogdp-Corpus")
		o.Cache = resp.Header.Get("X-Ogdp-Cache")
	}
	o.Latency = time.Since(start) - r.Due
	o.Fail = classify(o.Status, err, ctx.Err() != nil)
	if o.Fail == failNone {
		o.Body = string(body)
	}
}

// tally counts a step's attempts and failures by class.
type tally struct {
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	ByClass   map[string]int `json:"by_class,omitempty"`
}

func (t *tally) add(o outcome) {
	t.Attempted++
	if o.Fail == failNone {
		return
	}
	t.Failed++
	if t.ByClass == nil {
		t.ByClass = map[string]int{}
	}
	t.ByClass[o.Fail]++
}

// latencies returns the step's latencies in milliseconds for requests
// whose kind keep accepts. Failed requests keep the latency at which
// they failed, so a failure counts against the tail.
func (s stepResult) latencies(keep func(kind string) bool) []float64 {
	var out []float64
	for i, o := range s.Outcomes {
		if keep(s.Reqs[i].Kind) {
			out = append(out, ms(o.Latency))
		}
	}
	return out
}

// anyKind and ofKind select the requests latencies reports.
func anyKind(string) bool { return true }

func ofKind(kind string) func(string) bool { return func(k string) bool { return k == kind } }
