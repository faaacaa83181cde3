package main

import (
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is the tail rule: a reported tail percentile must have at
// least this many samples above it, so one slow sample never is the
// percentile by itself.
const minBeyond = 10

// summary is a latency distribution reduced to the two numbers the
// benchmark reports, with the sample count and the percentile the tail
// rule allowed.
type summary struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	Tail  float64 `json:"tail"`
	TailQ float64 `json:"tail_q"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
}

// summarize reduces samples (any unit) to median, tail and max. The
// tail is p99, or the highest percentile with at least minBeyond
// samples beyond it when the sample is too small for p99; with no
// percentile that qualifies (n <= minBeyond) the tail is the maximum.
func summarize(samples []float64) summary {
	n := len(samples)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	idx, q := tailIndex(n)
	return summary{
		N:     n,
		P50:   median(s),
		Tail:  s[idx],
		TailQ: q,
		Max:   s[n-1],
		Mean:  sum / float64(n),
	}
}

// Span counts for spanTail and spanMedian. A burst of noise from
// outside the program then moves the spans it falls in, not the run's
// figure. The serve run's tail has ten spans: over four paired runs of
// each, its tail moved less from run to run with ten spans than with
// five, and each span still holds ~1,000 requests at the reference
// rate over a 20 s run. Its median has thirty, two thirds of a second
// each: the host's steal bursts seen while tuning lasted 5-10 s, so one
// covers a fraction of the spans, not half of them. The ingest run
// keeps five spans for its tail, so that a span holds tens of deltas,
// and fifteen for its median, ten deltas each over a 20 s run.
const (
	serveTailSpans = 10
	serveP50Spans  = 30
	deltaTailSpans = 5
	deltaP50Spans  = 15
)

// overSpans is the median, over spans consecutive equal spans of
// samples (in the order they were taken), of stat applied to each
// span. Fewer samples than spans give stat of the whole.
func overSpans(samples []float64, spans int, stat func([]float64) float64) float64 {
	n := len(samples)
	if n < spans {
		return stat(samples)
	}
	var per []float64
	for s := 0; s < spans; s++ {
		per = append(per, stat(samples[s*n/spans:(s+1)*n/spans]))
	}
	return medianOf(per)
}

// spanTail is the median over spans of each span's tail (summarize's
// rule).
func spanTail(samples []float64, spans int) float64 {
	return overSpans(samples, spans, func(s []float64) float64 { return summarize(s).Tail })
}

// spanMedian is the median over spans of each span's median.
func spanMedian(samples []float64, spans int) float64 {
	return overSpans(samples, spans, medianOf)
}

// tailIndex is the index (into n ascending samples) of the reported
// tail and the percentile it stands for. The p99 index is the
// nearest-rank ceil(0.99n)-1; it is lowered until minBeyond samples
// lie beyond it.
func tailIndex(n int) (int, float64) {
	if n <= minBeyond {
		return n - 1, 1
	}
	idx := int(math.Ceil(0.99*float64(n))) - 1
	if lim := n - 1 - minBeyond; idx > lim {
		idx = lim
	}
	return idx, float64(idx+1) / float64(n)
}

// median of an ascending slice (mean of the middle pair for even n).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func secs(d time.Duration) float64 { return d.Seconds() }

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// peak-RSS counter for this process, so a later peakRSSMB measures the
// work that follows and not the corpus generation before it.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// Best effort: without clear_refs (non-Linux) the peak covers the
	// whole process lifetime, which only overstates it.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// hostCPU reads the machine-wide steal and total CPU time, in clock
// ticks, from /proc/stat; both are 0 where it cannot be read.
func hostCPU() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB reads VmHWM (peak resident set) of a process in MiB; pid 0
// means this process.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// selfCPU is this process's user + system CPU time so far. Linux
// charges a task only the time it ran, not the time the host gave
// other tenants (steal), so CPU time holds still where wall time does
// not.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux platform Go supports).
const clockTick = 10 * time.Millisecond

// procCPU is another process's user + system CPU time so far, all
// threads, from /proc/<pid>/stat; 0 where it cannot be read.
func procCPU(pid int) time.Duration {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// The command name (field 2) is parenthesized and may hold spaces;
	// the fields after it start at field 3 (state), so utime (14) and
	// stime (15) are at 11 and 12.
	i := strings.LastIndexByte(string(data), ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0
	}
	return time.Duration(ut+st) * clockTick
}
