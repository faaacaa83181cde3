package main

import (
	"math"
	"os"
	"testing"
	"time"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 50, 100, 999, 1000, 1011, 5000, 7000} {
		idx, q := tailIndex(n)
		if beyond := n - 1 - idx; beyond < minBeyond {
			t.Errorf("n=%d: tail index %d leaves %d samples beyond, want >= %d", n, idx, beyond, minBeyond)
		}
		if p99 := int(math.Ceil(0.99*float64(n))) - 1; idx > p99 {
			t.Errorf("n=%d: tail index %d (q %.4f) above the p99 rank %d", n, idx, q, p99)
		}
	}
	// Large samples get p99 itself (nearest rank).
	if idx, _ := tailIndex(5000); idx != 4949 {
		t.Errorf("n=5000: tail index %d, want 4949 (p99)", idx)
	}
	// Small samples get the highest percentile with ten beyond.
	if idx, _ := tailIndex(100); idx != 89 {
		t.Errorf("n=100: tail index %d, want 89", idx)
	}
	// With no percentile that qualifies, the tail is the maximum.
	for _, n := range []int{1, 5, 10} {
		if idx, q := tailIndex(n); idx != n-1 || q != 1 {
			t.Errorf("n=%d: tail index %d q %v, want the maximum", n, idx, q)
		}
	}
}

// A burst confined to one span moves that span's tail, not the median
// of the span tails.
func TestSpanTailIgnoresOneBurst(t *testing.T) {
	var xs []float64
	for i := 0; i < 500; i++ {
		xs = append(xs, 1+float64(i%50)/100) // 1.00 .. 1.49
	}
	calm := spanTail(xs, 5)
	for i := 100; i < 200; i++ {
		xs[i] = 50
	}
	if got := spanTail(xs, 5); got != calm {
		t.Errorf("span tail with one noisy span = %v, want the calm %v", got, calm)
	}
	if whole := summarize(xs).Tail; whole != 50 {
		t.Errorf("whole-run tail = %v, want the burst (50)", whole)
	}
	if one := spanTail([]float64{3}, 5); one != 3 {
		t.Errorf("spanTail of one sample = %v", one)
	}
}

// A burst that slows a third of the run moves the whole-run median but
// not the median of the span medians.
func TestSpanMedianIgnoresBursts(t *testing.T) {
	var xs []float64
	for i := 0; i < 3000; i++ {
		xs = append(xs, 1+float64(i%10)/100) // 1.00 .. 1.09
	}
	calm := spanMedian(xs, 30)
	if whole := medianOf(xs); calm != whole {
		t.Errorf("span median of a calm run = %v, want the whole-run median %v", calm, whole)
	}
	for i := 500; i < 1500; i++ {
		xs[i] *= 2
	}
	if got := spanMedian(xs, 30); got != calm {
		t.Errorf("span median with a third of the run slowed = %v, want the calm %v", got, calm)
	}
	if whole := medianOf(xs); whole <= calm {
		t.Errorf("whole-run median = %v, want it moved above the calm %v by the burst", whole, calm)
	}
	if one := spanMedian([]float64{3, 1}, 30); one != 2 {
		t.Errorf("spanMedian of two samples = %v, want their median", one)
	}
}

func TestSummarize(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	s := summarize(xs)
	if s.N != 100 || s.P50 != 50.5 || s.Tail != 90 || s.Max != 100 || s.Mean != 50.5 {
		t.Errorf("summarize(1..100) = %+v", s)
	}
	if one := summarize([]float64{7}); one.P50 != 7 || one.Tail != 7 {
		t.Errorf("summarize([7]) = %+v", one)
	}
	if (summarize(nil) != summary{}) {
		t.Errorf("summarize(nil) is not zero")
	}
}

// procCPU (ogdpserve's clock) and selfCPU (the benchmark's) read the
// same kernel counter, so for this process they agree to the tick.
func TestProcCPUMatchesSelfCPU(t *testing.T) {
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
	}
	self, proc := selfCPU(), procCPU(os.Getpid())
	if self < 100*time.Millisecond {
		t.Fatalf("selfCPU after 200 ms of spinning = %v", self)
	}
	if d := self - proc; d < -3*clockTick || d > 3*clockTick {
		t.Errorf("procCPU = %v, selfCPU = %v: more than three ticks apart", proc, self)
	}
	if got := procCPU(-1); got != 0 {
		t.Errorf("procCPU of no process = %v, want 0", got)
	}
}
