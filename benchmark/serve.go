package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ogdp/internal/fd"
	"ogdp/internal/parallel"
	"ogdp/internal/query"
)

// indexMix is serve-index's traffic: requests spread evenly over the
// four index-backed endpoints.
var indexMix = []kindWeight{{"join", 2}, {"search", 2}, {"union", 2}, {"profile", 2}}

// The serve load. The reference step runs open-loop at refRate for the
// run's seconds and carries the end-to-end latencies. refRate is an
// eighth of ogdpserve's closed-loop capacity under this traffic on the
// 2-CPU machine the baseline was taken on (serve.capacity_rps, measured
// by every traced run; see LAYERS.md). At a quarter, queueing behind
// the slow /search requests amplified the machine's own noise: the
// tail's median moved by 1.3x between two ten-run sets of the same
// code.
const (
	refRate = 500.0
	// capacityWindow is how long the traced run drives ogdpserve
	// closed-loop (every connection sends its next request as soon as
	// the last one is answered) to measure serve.capacity_rps.
	capacityWindow = 5 * time.Second
	// capacityDraw is the arrival rate of the schedule the capacity
	// step draws its requests from: more than the step can answer, so
	// it never runs out.
	capacityDraw = 10_000.0
	// hardStopGrace is how long after its arrival window a step waits
	// for stragglers: hundreds of times the reference tail, so a
	// healthy run cuts nothing off, while a request pushed past it by a
	// stall counts as a failure.
	hardStopGrace = 5 * time.Second
	// clientTimeout bounds one request end to end.
	clientTimeout = 30 * time.Second
	// warmUp is the untimed traffic at the reference rate that precedes
	// the reference step.
	warmUp = 2 * time.Second
)

// server is one running ogdpserve process.
type server struct {
	cmd     *exec.Cmd
	log     *os.File
	base    string
	stopped bool
}

var serveAddrRE = regexp.MustCompile(`serving corpus [0-9a-f]+ on (http://\S+)`)

// startServer spawns ogdpserve over dir with the result cache off and
// returns once /healthz answers 200, with the time that took.
func startServer(bin, dir, logPath string) (*server, time.Duration, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, "-dir", dir, "-addr", "127.0.0.1:0", "-cache", "-1")
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies without stopping it, the server goes too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, log: logf}
	deadline := t0.Add(30 * time.Second)
	hc := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		if s.base == "" {
			data, err := os.ReadFile(logPath)
			if err != nil {
				s.stop()
				return nil, 0, err
			}
			if m := serveAddrRE.FindSubmatch(data); m != nil {
				s.base = string(m[1])
			}
		}
		if s.base != "" {
			resp, err := hc.Get(s.base + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, time.Since(t0), nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	data, _ := os.ReadFile(logPath)
	return nil, 0, fmt.Errorf("ogdpserve did not become ready: %s", strings.TrimSpace(string(data)))
}

// stop sends SIGTERM (ogdpserve drains and exits) and waits; a server
// that does not exit within 20 s is killed.
func (s *server) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	defer s.log.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := time.AfterFunc(20*time.Second, func() { _ = s.cmd.Process.Kill() })
	defer done.Stop()
	err := s.cmd.Wait()
	// ogdpserve installs its drain handler just after it starts
	// answering, so a SIGTERM sent to a server that has only just become
	// ready can still end it by the default action. That is a stop too.
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	if err != nil {
		return fmt.Errorf("ogdpserve exit: %w", err)
	}
	return nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// getJSON fetches base+path and decodes it into v.
func getJSON(base, path string, v any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// inventory is the part of /tables the generator needs.
type inventory struct {
	Corpus string `json:"corpus_hash"`
	Tables []struct {
		Name string   `json:"name"`
		Cols []string `json:"cols"`
	} `json:"tables"`
}

// eligibleTargets derives each endpoint's table pool from /tables and
// the endpoints' eligibility rules, without probing the server: /join
// needs a join-eligible column (the service's PickColumn rule, answered
// by the in-process reference service), /fd at most fd.MaxColumns
// columns; /search, /union and /profile accept every table.
func eligibleTargets(inv inventory, ref *query.Service) map[string][]string {
	t := map[string][]string{}
	for _, tb := range inv.Tables {
		t["search"] = append(t["search"], tb.Name)
		t["union"] = append(t["union"], tb.Name)
		t["profile"] = append(t["profile"], tb.Name)
		if ti := ref.TableIndex(tb.Name); ti >= 0 {
			if _, err := ref.PickColumn(ti, ""); err == nil {
				t["join"] = append(t["join"], tb.Name)
			}
		}
		if len(tb.Cols) <= fd.MaxColumns {
			t["fd"] = append(t["fd"], tb.Name)
		}
	}
	return t
}

// promValue reads one series from a Prometheus text exposition; labels
// is the exact label block ("" for none).
func promValue(text, name, labels string) float64 {
	prefix := name + labels + " "
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

func scrapeMetrics(base string) (string, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return "", fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("scrape /metrics: %w", err)
	}
	return string(b), nil
}

// serveRun is everything one serve workload run measured.
type serveRun struct {
	setups   []float64 // seconds, spawn -> first /healthz 200
	ref      stepResult
	cpu      time.Duration // ogdpserve's CPU time over the reference step
	capacity float64       // answered requests per second, closed loop; 0 if not measured
	rssMB    float64
	metrics  string // /metrics after the load
	corpus   string
	targets  map[string][]string
	problems []string
}

// runServe runs a serve workload: nSetups server spawns (the last one
// serves), a warm-up, the reference step of refDur, a /metrics scrape,
// with capacity set the closed-loop capacity step, and the output
// checks against ref, an in-process service over the same corpus.
func runServe(e *env, ref *query.Service, nSetups int, refDur time.Duration, capacity bool) (*serveRun, error) {
	r := &serveRun{}
	var srv *server
	for i := 0; i < nSetups; i++ {
		s, took, err := startServer(e.serveBin, e.corpusDir, filepath.Join(e.work, fmt.Sprintf("ogdpserve-%d.log", i)))
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, secs(took))
		if i < nSetups-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv = s
	}
	defer srv.stop()

	var inv inventory
	if err := getJSON(srv.base, "/tables", &inv); err != nil {
		return nil, err
	}
	r.corpus = inv.Corpus
	if inv.Corpus != ref.HashString() {
		r.problems = append(r.problems, fmt.Sprintf("/tables corpus %s != in-process %s", inv.Corpus, ref.HashString()))
	}
	r.targets = eligibleTargets(inv, ref)

	d := newGenerator(srv.base, e.nproc, clientTimeout)
	defer d.close()
	// Warm-up: connections, the server's heap and lazy per-table state
	// settle before anything is timed.
	warm := schedule(e.seed, 99, refRate, warmUp, indexMix, r.targets)
	d.run(warm, warmUp+hardStopGrace)

	cpu0 := procCPU(srv.pid())
	r.ref = d.run(schedule(e.seed, 0, refRate, refDur, indexMix, r.targets), refDur+hardStopGrace)
	r.cpu = procCPU(srv.pid()) - cpu0
	var err error
	if r.metrics, err = scrapeMetrics(srv.base); err != nil {
		return nil, err
	}
	checked := []stepResult{r.ref}
	if capacity {
		reqs := schedule(e.seed, 1, capacityDraw, capacityWindow, indexMix, r.targets)
		for i := range reqs {
			reqs[i].Due = 0
		}
		res := d.run(reqs, capacityWindow)
		answered := 0
		for _, oc := range res.Outcomes {
			if oc.Fail == failNone {
				answered++
			}
		}
		r.capacity = float64(answered) / secs(res.Elapsed)
		checked = append(checked, res)
	}
	r.rssMB = peakRSSMB(srv.pid())
	if err := srv.stop(); err != nil {
		return nil, err
	}
	r.problems = append(r.problems, checkBodies(ref, checked, e.nproc)...)
	if hits := promValue(r.metrics, "ogdp_serve_cache_hits_total", ""); hits > 0 {
		r.problems = append(r.problems, fmt.Sprintf("ogdp_serve_cache_hits_total = %v with the cache off", hits))
	}
	return r, nil
}

// checkBodies compares every distinct successful (kind, table, params)
// response body with the in-process service's answer to the same
// question, once each, outside the timed window. It also checks that
// every 200 named the expected corpus and was not a cache hit.
func checkBodies(ref *query.Service, steps []stepResult, workers int) []string {
	var problems []string
	seen := map[string]bool{}
	type item struct {
		req  request
		body string
	}
	var items []item
	for _, st := range steps {
		for i, o := range st.Outcomes {
			if o.Fail != failNone {
				continue
			}
			if o.Corpus != ref.HashString() || o.Cache != "miss" {
				problems = append(problems, fmt.Sprintf("%s: corpus %q cache %q", st.Reqs[i].path(), o.Corpus, o.Cache))
			}
			k := st.Reqs[i].queryRequest().Key()
			if !seen[k] {
				seen[k] = true
				items = append(items, item{st.Reqs[i], o.Body})
			}
		}
	}
	bad := make([]string, len(items))
	parallel.Must(parallel.ForEach(context.Background(), len(items), workers, func(i int) {
		want, err := ref.Do(context.Background(), items[i].req.queryRequest())
		switch {
		case err != nil:
			bad[i] = fmt.Sprintf("%s: server answered 200, in-process service: %v", items[i].req.path(), err)
		case want != items[i].body:
			bad[i] = fmt.Sprintf("%s: body differs from the in-process service", items[i].req.path())
		}
	}))
	for _, b := range bad {
		if b != "" {
			problems = append(problems, b)
		}
	}
	return problems
}

// runServeWorkload is serve-index: setupReps timed ogdpserve start-ups,
// then the reference step against the last one (and, traced, the
// capacity step).
func runServeWorkload(e *env, o *outcomeSet) error {
	ref, err := buildService(e, e.corpusDir, nil)
	if err != nil {
		return err
	}
	r, err := runServe(e, ref, setupReps, e.seconds, e.trace)
	if err != nil {
		return err
	}
	o.problems = append(o.problems, r.problems...)
	lats := r.ref.latencies(anyKind)
	p50 := spanMedian(lats, serveP50Spans)
	tail := spanTail(lats, serveTailSpans)
	var all tally
	for _, oc := range r.ref.Outcomes {
		all.add(oc)
	}
	o.attempted, o.failed = all.Attempted, all.Failed
	if all.Failed == all.Attempted {
		return fmt.Errorf("no request of the reference step was answered")
	}
	cpu := ms(r.cpu) / float64(all.Attempted-all.Failed)
	o.e2e["setup_s"] = medianOf(r.setups)
	o.e2e["cpu_ms"] = cpu
	o.e2e["peak_rss_mb"] = r.rssMB
	o.record["setups_s"] = r.setups
	o.record["reference"] = stepRecordOf(r.ref)
	o.record["p50_ms"] = p50
	o.record["tail_ms"] = tail
	o.record["targets"] = targetCounts(r.targets)
	if r.capacity > 0 {
		o.record["capacity_rps"] = r.capacity
	}
	o.record["corpus_hash"] = r.corpus
	if e.trace {
		serveLayers(r, o.layers)
		o.layers["trace.setup_s"] = o.e2e["setup_s"]
		o.layers["trace.p50_ms"] = p50
		o.layers["trace.cpu_ms"] = cpu
		o.layers["workload.tail_ms"] = tail
		o.layers["trace.peak_rss_mb"] = r.rssMB
		return sweep(e, o, "serve")
	}
	return nil
}

// serveLayers derives the serve- and generator-side layer metrics of
// a serve run: server-side mean time per endpoint from the
// ogdp_serve_request_seconds histogram, admission and cache counters,
// and how late and how connection-starved the generator ran at the
// reference rate.
func serveLayers(r *serveRun, layers map[string]float64) {
	for _, ep := range []string{"join", "search", "union", "profile"} {
		lbl := `{endpoint="/` + ep + `"}`
		sum := promValue(r.metrics, "ogdp_serve_request_seconds_sum", lbl)
		n := promValue(r.metrics, "ogdp_serve_request_seconds_count", lbl)
		if n > 0 {
			layers["serve.mean_ms."+ep] = 1000 * sum / n
		}
	}
	layers["serve.rejected"] = promValue(r.metrics, "ogdp_serve_rejected_total", "")
	layers["serve.cache_hits"] = promValue(r.metrics, "ogdp_serve_cache_hits_total", "")
	layers["serve.capacity_rps"] = r.capacity
	layers["serve.join_tail_ms"] = summarize(r.ref.latencies(ofKind("join"))).Tail
	layers["serve.search_tail_ms"] = summarize(r.ref.latencies(ofKind("search"))).Tail
	var lag, wait []float64
	for _, oc := range r.ref.Outcomes {
		lag = append(lag, ms(oc.Lag))
		wait = append(wait, ms(oc.ConnWait))
	}
	layers["loadgen.lag_ms"] = summarize(lag).Tail
	layers["loadgen.conn_wait_ms"] = summarize(wait).Mean
}

// stepRecord is the reference step in the run record.
type stepRecord struct {
	Latency   summary            `json:"latency_ms"`
	Requests  tally              `json:"requests"`
	ElapsedS  float64            `json:"elapsed_s"`
	LagTailMS float64            `json:"lag_tail_ms"`
	WaitMean  float64            `json:"conn_wait_mean_ms"`
	PerKind   map[string]summary `json:"per_kind"`
}

func stepRecordOf(st stepResult) stepRecord {
	rec := stepRecord{Latency: summarize(st.latencies(anyKind)), ElapsedS: secs(st.Elapsed), PerKind: map[string]summary{}}
	var lag, wait []float64
	for i, oc := range st.Outcomes {
		rec.Requests.add(oc)
		lag = append(lag, ms(oc.Lag))
		wait = append(wait, ms(oc.ConnWait))
		k := st.Reqs[i].Kind
		if _, ok := rec.PerKind[k]; !ok {
			rec.PerKind[k] = summarize(st.latencies(ofKind(k)))
		}
	}
	rec.LagTailMS = summarize(lag).Tail
	rec.WaitMean = summarize(wait).Mean
	return rec
}

func targetCounts(t map[string][]string) map[string]int {
	out := map[string]int{}
	for _, k := range sortedKeys(t) {
		out[k] = len(t[k])
	}
	return out
}
