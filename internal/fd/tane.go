package fd

import (
	"ogdp/internal/table"
)

// DiscoverTANE finds the same minimal non-trivial FDs as Discover
// using the TANE algorithm (Huhtala, Kärkkäinen, Porkka, Toivonen,
// 1999): levelwise search over attribute sets with stripped-partition
// products for validity checking and C⁺ candidate sets for pruning.
// The paper's related work (§7, via [31]) notes any exact algorithm is
// interchangeable for its analysis; this implementation exists to
// demonstrate that and to serve as a second engine in the FD-algorithm
// ablation bench.
func DiscoverTANE(t *table.Table, maxLHS int) []FD {
	nCols := t.NumCols()
	nRows := t.NumRows()
	if nCols == 0 || nCols > MaxColumns || nRows == 0 || maxLHS < 1 {
		return nil
	}
	e := newEngine(t)

	full := attrset(0)
	for a := 0; a < nCols; a++ {
		full = full.with(a)
	}

	var fds []FD
	emit := func(lhs attrset, rhs int) {
		fds = append(fds, FD{LHS: lhs.members(nCols), RHS: rhs})
	}

	// Level 1: single attributes; C+(X) starts as the full schema.
	// Validity tests compare partition errors e(X) = nRows − |π_X|, so
	// X \ A → A holds iff |π_{X\A}| = |π_X|; the engine counts both from
	// stripped partitions, each level's refined from the previous one's
	// (TANE's partition product with a single attribute).
	cplus := map[attrset]attrset{}
	var level []attrset
	cplus[0] = full
	for a := 0; a < nCols; a++ {
		level = append(level, attrset(0).with(a))
	}

	// The empty set's partition has one class of all rows; ∅ → A holds
	// iff A is constant. Handle it directly (TANE's level-1 special
	// case) so constant columns are reported with an empty LHS.
	constant := func(a int) bool { return nRows > 1 && e.card(attrset(0).with(a)) == 1 }
	for a := 0; a < nCols; a++ {
		if constant(a) {
			emit(0, a)
			// A is constant: no minimal FD with A on the LHS side adds
			// information, and X → A is non-minimal for any X ≠ ∅.
		}
	}

	computeCplus := func(x attrset) attrset {
		c := full
		for a := 0; a < nCols; a++ {
			if !x.has(a) {
				continue
			}
			sub, ok := cplus[x.without(a)]
			if !ok {
				return 0
			}
			c &= sub
		}
		return c
	}

	var prev []attrset // the previous level's pruned sets, whose partitions are held
	for size := 1; size <= maxLHS+1 && len(level) > 0; size++ {
		// Compute dependencies for this level.
		for _, x := range level {
			cplus[x] = computeCplus(x)
			cand := cplus[x] & x
			for a := 0; a < nCols; a++ {
				if !cand.has(a) {
					continue
				}
				lhs := x.without(a)
				if e.card(lhs) == e.card(x) {
					// lhs → a is a valid minimal FD; suppress the paper's
					// trivial cases: constant columns were handled at ∅,
					// and superkey LHSs are trivial.
					lhsIsSuperkey := lhs == 0 || e.card(lhs) == nRows
					if !lhsIsSuperkey && !constant(a) && lhs.size() <= maxLHS {
						emit(lhs, a)
					}
					cplus[x] = cplus[x].without(a)
					// Remove R \ X from C+(X).
					cplus[x] &= x
				}
			}
		}
		// Prune.
		var pruned []attrset
		for _, x := range level {
			if cplus[x] == 0 {
				continue
			}
			if e.card(x) == nRows {
				// X is a (super)key: TANE would emit its dependents as
				// trivial FDs; the paper excludes them, so just prune.
				continue
			}
			pruned = append(pruned, x)
		}
		if size >= maxLHS+1 {
			break
		}
		// Hold the survivors' partitions for the next level's counts,
		// then release the level they were refined from.
		for _, x := range pruned {
			e.keep(x)
		}
		for _, x := range prev {
			e.drop(x)
		}
		// Generate the next level by prefix join.
		prev, level = pruned, generateNextLevel(pruned, nCols)
	}

	// Deduplicate and sort: C+ pruning already guarantees minimality,
	// but emissions can arrive in any order.
	sortFDs(fds)
	return dedupeFDs(fds)
}

func dedupeFDs(fds []FD) []FD {
	var out []FD
	seen := map[string]bool{}
	for _, f := range fds {
		k := f.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, f)
	}
	return out
}

// generateNextLevel joins same-size sets sharing all but their last
// attribute (apriori prefix join) and keeps candidates whose every
// subset survived pruning.
func generateNextLevel(level []attrset, nCols int) []attrset {
	inLevel := map[attrset]bool{}
	for _, x := range level {
		inLevel[x] = true
	}
	seen := map[attrset]bool{}
	var next []attrset
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			u := level[i] | level[j]
			if u.size() != level[i].size()+1 {
				continue
			}
			if seen[u] {
				continue
			}
			seen[u] = true
			ok := true
			for a := 0; a < nCols; a++ {
				if u.has(a) && !inLevel[u.without(a)] {
					ok = false
					break
				}
			}
			if ok {
				next = append(next, u)
			}
		}
	}
	return next
}
