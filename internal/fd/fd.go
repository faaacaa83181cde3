// Package fd discovers minimal non-trivial functional dependencies,
// reproducing the paper's §4.2 analysis. The main engine implements
// the FUN algorithm of Novelli & Cicchetti ("FUN: An efficient
// algorithm for mining functional and embedded dependencies", ICDT
// 2001): a levelwise exploration of *free sets* driven entirely by
// cardinality (count-distinct) comparisons:
//
//   - X → A holds iff |π_X(T)| = |π_{X∪A}(T)|,
//   - an attribute set X is free iff no proper subset has the same
//     cardinality; free sets are downward closed, and every minimal FD
//     has a free left-hand side, so only free sets are expanded.
//
// Following the paper, an FD X → A is trivial when A ∈ X or X is a
// (super)key, and discovery is bounded at |LHS| ≤ 4 (MaxLHS).
//
// Cardinalities are exact and come from stripped partitions (the
// representation TANE uses, Huhtala et al. 1999) over the table's
// canonical code streams, not from hashing rows: the engine keeps the
// partition of each free set it expands, built by refining its
// parent's partition (the set minus its highest attribute) with one
// column, and counts |π_{X∪A}| as the distinct codes of A inside each
// class of X, with a generation-stamped array over A's code space.
// Only two lattice levels of partitions are held at a time. The FUN,
// TANE, naive and approximate (g3) engines all count through this one
// kernel (partition.go).
package fd

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"ogdp/internal/table"
)

// MaxLHS is the paper's bound on the left-hand-side size.
const MaxLHS = 4

// MaxColumns is the widest table Discover accepts; the levelwise
// lattice is exponential in the column count, and the paper
// restricts the FD analysis to tables with at most 20 columns.
const MaxColumns = 64

// FD is a functional dependency LHS → RHS with a single right-hand
// attribute. Attributes are column indices. A nil/empty LHS means the
// RHS column is constant (determined by the empty set).
type FD struct {
	LHS []int
	RHS int
}

// String renders the FD with column indices, e.g. "[0 2] -> 3".
func (f FD) String() string {
	parts := make([]string, len(f.LHS))
	for i, a := range f.LHS {
		parts[i] = fmt.Sprint(a)
	}
	return "{" + strings.Join(parts, ",") + "} -> " + fmt.Sprint(f.RHS)
}

// Format renders the FD with column names from t.
func (f FD) Format(t *table.Table) string {
	parts := make([]string, len(f.LHS))
	for i, a := range f.LHS {
		parts[i] = t.Cols[a]
	}
	return strings.Join(parts, ", ") + " -> " + t.Cols[f.RHS]
}

// attrset is a bitmask over column indices (< MaxColumns).
type attrset uint64

func (s attrset) has(a int) bool        { return s&(1<<uint(a)) != 0 }
func (s attrset) with(a int) attrset    { return s | 1<<uint(a) }
func (s attrset) without(a int) attrset { return s &^ (1 << uint(a)) }
func (s attrset) size() int {
	n := 0
	for s != 0 {
		s &= s - 1
		n++
	}
	return n
}

func (s attrset) members(nCols int) []int {
	var out []int
	for a := 0; a < nCols; a++ {
		if s.has(a) {
			out = append(out, a)
		}
	}
	return out
}

func setOf(attrs []int) attrset {
	var s attrset
	for _, a := range attrs {
		s = s.with(a)
	}
	return s
}

// engine runs the lattice search over the table's shared canonical
// code streams (table.CanonCodes): per column, every null spelling is
// code 0 and distinct non-null values are dense codes. Cardinalities
// of attribute sets come from stripped partitions (partition.go)
// refined one column at a time; the code streams are shared with every
// other analysis layer, so the engine's own memory is its cardinality
// cache, the partitions it holds and O(code space) scratch arrays.
type engine struct {
	nRows     int
	nCols     int
	codes     [][]uint32 // codes[c]: canonical code stream of column c
	codeSizes []int      // code-space size per column (distinct incl. the null code)
	cards     map[attrset]int

	parts   map[attrset]*partition // held partitions (see keep)
	free    []*partition           // released partition buffers, reused by keep
	scratch [2]partition           // build's ping-pong buffers
	// Per-code scratch over the widest code space: stamp[v] is the
	// generation of the class that last saw code v, count[v] its rows
	// in that class, pos[v] its next slot in a refined partition.
	stamp []uint32
	count []int32
	pos   []int32
	gen   uint32
}

func newEngine(t *table.Table) *engine {
	e := &engine{
		nRows:     t.NumRows(),
		nCols:     t.NumCols(),
		codes:     make([][]uint32, t.NumCols()),
		codeSizes: make([]int, t.NumCols()),
		cards:     make(map[attrset]int),
		parts:     make(map[attrset]*partition),
	}
	width := 0
	for c := 0; c < e.nCols; c++ {
		e.codes[c], e.codeSizes[c] = t.CanonCodes(c)
		width = max(width, e.codeSizes[c])
	}
	e.stamp = make([]uint32, width)
	e.count = make([]int32, width)
	e.pos = make([]int32, width)
	return e
}

// card returns the number of distinct tuples in the projection onto s,
// caching results across the lattice exploration. A multi-column set
// is counted from the smallest held partition of s minus one
// attribute, or from a partition built from scratch when none is held.
func (e *engine) card(s attrset) int {
	if s == 0 {
		if e.nRows > 0 {
			return 1
		}
		return 0
	}
	if n, ok := e.cards[s]; ok {
		return n
	}
	var n int
	if s.size() == 1 {
		// Single columns read straight off the encoding: the canon code
		// space is dense, so the distinct count is its size, minus the
		// null bucket when no row uses it.
		c := highest(s)
		n = e.codeSizes[c] - 1
		for _, code := range e.codes[c] {
			if code == 0 { // a null row: the null bucket is populated
				n++
				break
			}
		}
	} else {
		var best *partition
		bestA := -1
		for rest := s; rest != 0; rest &= rest - 1 {
			a := bits.TrailingZeros64(uint64(rest))
			if p := e.parts[s.without(a)]; p != nil && (best == nil || len(p.rows) < len(best.rows)) {
				best, bestA = p, a
			}
		}
		if best == nil {
			bestA = highest(s)
			best = e.build(s.without(bestA))
		}
		n = e.countWith(best, bestA)
	}
	e.cards[s] = n
	return n
}

// Discover returns all minimal non-trivial FDs of t with |LHS| ≤
// maxLHS (pass fd.MaxLHS for the paper's setting). Tables wider than
// MaxColumns or with no rows yield no FDs. Constant columns are
// reported as FDs with an empty LHS.
func Discover(t *table.Table, maxLHS int) []FD {
	fds, _ := DiscoverCost(t, maxLHS)
	return fds
}

// Cost summarizes the work one Discover call performed, for the
// observability layer. Both counts derive only from the table's
// contents and maxLHS, so they are deterministic.
type Cost struct {
	// Cardinalities is the number of distinct count-distinct
	// computations the FUN lattice exploration evaluated (cache
	// misses of the projection-cardinality cache).
	Cardinalities int
	// FDs is the number of minimal non-trivial FDs found.
	FDs int
}

// DiscoverCost is Discover plus the work counters the search accrued.
func DiscoverCost(t *table.Table, maxLHS int) ([]FD, Cost) {
	if t.NumCols() == 0 || t.NumCols() > MaxColumns || t.NumRows() == 0 || maxLHS < 1 {
		return nil, Cost{}
	}
	e := newEngine(t)
	fds := e.discover(maxLHS, false)
	return fds, Cost{Cardinalities: len(e.cards), FDs: len(fds)}
}

// HasNontrivialFD reports whether t has at least one non-trivial FD
// with |LHS| ≤ maxLHS, short-circuiting on the first hit.
func HasNontrivialFD(t *table.Table, maxLHS int) bool {
	if t.NumCols() == 0 || t.NumCols() > MaxColumns || t.NumRows() == 0 || maxLHS < 1 {
		return false
	}
	e := newEngine(t)
	return len(e.discover(maxLHS, true)) > 0
}

// discover runs the FUN levelwise search. With firstOnly it returns as
// soon as one FD is found.
func (e *engine) discover(maxLHS int, firstOnly bool) []FD {
	var fds []FD
	// minimalFor[a] holds emitted LHS sets per RHS, for minimality checks.
	minimalFor := make([][]attrset, e.nCols)

	emit := func(lhs attrset, rhs int) {
		for _, prev := range minimalFor[rhs] {
			if prev&lhs == prev { // prev ⊆ lhs: not minimal
				return
			}
		}
		minimalFor[rhs] = append(minimalFor[rhs], lhs)
		fds = append(fds, FD{LHS: lhs.members(e.nCols), RHS: rhs})
	}

	nTotal := e.nRows

	// Level 0: the empty set determines constant columns.
	for a := 0; a < e.nCols; a++ {
		if e.card(attrset(0).with(a)) == 1 && nTotal > 1 {
			emit(0, a)
			if firstOnly && len(fds) > 0 {
				return fds
			}
		}
	}

	// Level 1 free sets: non-constant, non-duplicate-cardinality is not
	// required at level 1 beyond excluding constants (card == card(∅)).
	level := make([]attrset, 0, e.nCols)
	free := make(map[attrset]bool, e.nCols*2)
	for a := 0; a < e.nCols; a++ {
		s := attrset(0).with(a)
		if e.card(s) > 1 || nTotal <= 1 {
			level = append(level, s)
			free[s] = true
		}
	}

	var prev []attrset // the previous level, whose partitions this one refines
	for size := 1; size <= maxLHS && len(level) > 0; size++ {
		// Emit FDs from this level's free sets. Each non-key X's
		// partition refines its parent's, and every |π_{X∪A}| is then
		// counted from X's partition.
		for _, x := range level {
			cx := e.card(x)
			if cx == nTotal {
				continue // X is a (super)key: all its FDs are trivial per the paper
			}
			e.keep(x)
			for a := 0; a < e.nCols; a++ {
				if x.has(a) {
					continue
				}
				if e.card(x.with(a)) == cx {
					emit(x, a)
					if firstOnly && len(fds) > 0 {
						return fds
					}
				}
			}
			if size == maxLHS {
				e.drop(x) // no next level refines it
			}
		}
		if size == maxLHS {
			break
		}
		for _, x := range prev {
			e.drop(x)
		}
		// Generate the next level of free sets.
		next := make([]attrset, 0, len(level))
		seen := make(map[attrset]bool, len(level)*2)
		for _, x := range level {
			cx := e.card(x)
			if cx == nTotal {
				continue // supersets of keys are never free
			}
			for a := 0; a < e.nCols; a++ {
				if x.has(a) {
					continue
				}
				cand := x.with(a)
				if seen[cand] {
					continue
				}
				seen[cand] = true
				if isFree(e, free, cand, e.nCols) {
					free[cand] = true
					next = append(next, cand)
				}
			}
		}
		// Hold only the partitions the next level refines: each set's
		// parent is the set without its highest attribute.
		parents := make(map[attrset]bool, len(next))
		for _, x := range next {
			parents[x.without(highest(x))] = true
		}
		for _, x := range level {
			if !parents[x] {
				e.drop(x)
			}
		}
		prev, level = level, next
	}

	sortFDs(fds)
	return fds
}

// isFree reports whether cand is a free set: every proper subset one
// level down must itself be free and have strictly smaller cardinality.
func isFree(e *engine, free map[attrset]bool, cand attrset, nCols int) bool {
	cCand := e.card(cand)
	for a := 0; a < nCols; a++ {
		if !cand.has(a) {
			continue
		}
		sub := cand.without(a)
		if !free[sub] {
			return false
		}
		if e.card(sub) >= cCand {
			return false
		}
	}
	return true
}

func sortFDs(fds []FD) {
	sort.Slice(fds, func(i, j int) bool {
		a, b := fds[i], fds[j]
		if len(a.LHS) != len(b.LHS) {
			return len(a.LHS) < len(b.LHS)
		}
		for k := range a.LHS {
			if a.LHS[k] != b.LHS[k] {
				return a.LHS[k] < b.LHS[k]
			}
		}
		return a.RHS < b.RHS
	})
}

// SimpleFDs filters fds to those with a single-attribute LHS, the
// City → Province style dependencies the paper reports separately in
// Table 5.
func SimpleFDs(fds []FD) []FD {
	var out []FD
	for _, f := range fds {
		if len(f.LHS) == 1 {
			out = append(out, f)
		}
	}
	return out
}

// Holds verifies an FD directly against the table, treating all null
// spellings as one value (the canonical-code convention). Intended for
// tests and spot checks.
func Holds(t *table.Table, f FD) bool {
	n := t.NumRows()
	if n == 0 {
		return true
	}
	lhs := make([][]uint32, len(f.LHS))
	for i, c := range f.LHS {
		lhs[i], _ = t.CanonCodes(c)
	}
	rhs, _ := t.CanonCodes(f.RHS)
	seen := make(map[string]uint32)
	var key []byte
	for r := 0; r < n; r++ {
		key = key[:0]
		for _, col := range lhs {
			v := col[r]
			key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		if prev, ok := seen[string(key)]; ok {
			if prev != rhs[r] {
				return false
			}
		} else {
			seen[string(key)] = rhs[r]
		}
	}
	return true
}
