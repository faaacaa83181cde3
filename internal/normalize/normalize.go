// Package normalize decomposes tables with non-trivial functional
// dependencies into Boyce-Codd normal form, reproducing the paper's
// §4.3 analysis: the textbook BCNF algorithm, picking one remaining
// non-trivial FD X → A uniformly at random, splitting the table into
// T1 = X ∪ A and T2 = X ∪ (attr(T) \ A), and recursing until every
// sub-table is in BCNF. The package also measures the decomposition's
// effect on uniqueness scores (Table 5).
package normalize

import (
	"math/rand"

	"ogdp/internal/fd"
	"ogdp/internal/stats"
	"ogdp/internal/table"
)

// Result describes one BCNF decomposition.
type Result struct {
	// Original is the input table.
	Original *table.Table
	// Tables is the final decomposition; a single entry means the
	// original was already in BCNF.
	Tables []*table.Table
	// Steps is the number of decomposition steps performed.
	Steps int
	// originalCols maps final sub-table columns back to the original
	// column indices, parallel to Tables.
	originalCols [][]int
}

// InBCNF reports whether the original table was already in BCNF (with
// respect to FDs of bounded LHS size).
func (r *Result) InBCNF() bool { return len(r.Tables) == 1 && r.Steps == 0 }

// maxDepth caps the recursion as a safety net; the textbook algorithm
// terminates on its own because both sub-tables are strictly narrower.
const maxDepth = 64

// Decompose runs the BCNF decomposition of t using FDs with
// |LHS| ≤ maxLHS. fds must be t's own minimal non-trivial FDs, as
// fd.Discover(t, maxLHS) returns them, so a caller that has already
// discovered them does not pay for discovery twice; sub-tables are
// discovered here. The rng drives the uniformly random FD choice of
// the paper's methodology; it must not be nil.
func Decompose(t *table.Table, fds []fd.FD, maxLHS int, rng *rand.Rand) *Result {
	res := &Result{Original: t}
	allCols := make([]int, t.NumCols())
	for i := range allCols {
		allCols[i] = i
	}
	type work struct {
		t    *table.Table
		orig []int // orig[i]: original column index of column i
	}
	stack := []work{{t: t, orig: allCols}}
	for depth := 0; len(stack) > 0 && depth < maxDepth; depth++ {
		var next []work
		for _, w := range stack {
			found := fds // the root's, at depth 0
			if depth > 0 {
				found = fd.Discover(w.t, maxLHS)
			}
			if len(found) == 0 {
				res.Tables = append(res.Tables, w.t)
				res.originalCols = append(res.originalCols, w.orig)
				continue
			}
			chosen := found[rng.Intn(len(found))]
			t1, t2, o1, o2 := split(w.t, w.orig, chosen)
			res.Steps++
			next = append(next, work{t: t1, orig: o1}, work{t: t2, orig: o2})
		}
		stack = next
	}
	// Flush anything left if the safety cap was hit.
	for _, w := range stack {
		res.Tables = append(res.Tables, w.t)
		res.originalCols = append(res.originalCols, w.orig)
	}
	return res
}

// split applies one decomposition step for FD X → A:
// T1 = π_{X∪A}(T) and T2 = π_{X∪(attr\A)}(T), both deduplicated.
func split(t *table.Table, orig []int, f fd.FD) (t1, t2 *table.Table, o1, o2 []int) {
	var cols1, cols2 []int
	cols1 = append(cols1, f.LHS...)
	cols1 = append(cols1, f.RHS)
	for c := 0; c < t.NumCols(); c++ {
		if c != f.RHS {
			cols2 = append(cols2, c)
		}
	}
	t1 = dedupe(t.Project(cols1))
	t2 = dedupe(t.Project(cols2))
	for _, c := range cols1 {
		o1 = append(o1, orig[c])
	}
	for _, c := range cols2 {
		o2 = append(o2, orig[c])
	}
	return t1, t2, o1, o2
}

// dedupe returns a copy of t with duplicate rows removed (projection
// semantics). Rows are grouped by their canonical-code hashes and kept
// in first-seen order.
func dedupe(t *table.Table) *table.Table {
	n := t.NumRows()
	hashes := t.RowHashes(allIndices(t.NumCols()))
	seen := make(map[uint64]struct{}, n)
	keep := make([]int, 0, n/2+1)
	for r := 0; r < n; r++ {
		if _, ok := seen[hashes[r]]; ok {
			continue
		}
		seen[hashes[r]] = struct{}{}
		keep = append(keep, r)
	}
	return t.SelectRows(keep)
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// UniquenessGain computes the paper's "avg uniqueness score increase
// for unrepeated columns": for every original column that appears in
// exactly one final sub-table, the ratio of its uniqueness score after
// decomposition to its score before, averaged. Returns 1 when the
// table was already in BCNF or no column qualifies.
func (r *Result) UniquenessGain() float64 {
	if r.InBCNF() {
		return 1
	}
	// Count appearances of each original column across sub-tables.
	appear := make(map[int]int)
	where := make(map[int][2]int) // original col -> (table idx, col idx)
	for ti, cols := range r.originalCols {
		for ci, oc := range cols {
			appear[oc]++
			where[oc] = [2]int{ti, ci}
		}
	}
	var sum float64
	var n int
	for oc, cnt := range appear {
		if cnt != 1 {
			continue // repeated column (an FD LHS): excluded by the paper
		}
		before := r.Original.Profile(oc).Uniqueness()
		if stats.ApproxEq(before, 0) {
			continue
		}
		loc := where[oc]
		after := r.Tables[loc[0]].Profile(loc[1]).Uniqueness()
		sum += after / before
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}
