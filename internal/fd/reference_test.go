package fd

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"ogdp/internal/table"
	"ogdp/internal/values"
)

// The reference below shares nothing with the engine's kernel: it
// counts distinct tuples over raw cell strings with a map[string],
// treating every null spelling as one value (values.IsNull), the way
// Holds checks an FD. FUN, naive and TANE all count through the
// engine's stripped partitions, so agreeing with one another cannot
// catch a kernel bug; agreeing with this reference can.

// refKey appends row r's projection onto cols to key, length-prefixing
// each non-null cell so no two tuples share an encoding.
func refKey(key []byte, t *table.Table, cols []int, r int) []byte {
	for _, c := range cols {
		v := t.Value(c, r)
		if values.IsNull(v) {
			key = append(key, 0)
			continue
		}
		key = append(key, 1)
		key = binary.AppendUvarint(key, uint64(len(v)))
		key = append(key, v...)
	}
	return key
}

// refCard is |π_s(t)|: the number of distinct tuples of t over s.
func refCard(t *table.Table, s attrset) int {
	cols := s.members(t.NumCols())
	seen := make(map[string]struct{})
	var key []byte
	for r := 0; r < t.NumRows(); r++ {
		key = refKey(key[:0], t, cols, r)
		seen[string(key)] = struct{}{}
	}
	return len(seen)
}

// refG3 is the g3 error of X → a: the fraction of rows outside the
// most frequent a value of their X group.
func refG3(t *table.Table, x attrset, a int) float64 {
	n := t.NumRows()
	if n == 0 {
		return 0
	}
	cols := x.members(t.NumCols())
	groups := make(map[string]map[string]int)
	var key, val []byte
	for r := 0; r < n; r++ {
		key = refKey(key[:0], t, cols, r)
		val = refKey(val[:0], t, []int{a}, r)
		g := groups[string(key)]
		if g == nil {
			g = make(map[string]int)
			groups[string(key)] = g
		}
		g[string(val)]++
	}
	keep := 0
	for _, g := range groups {
		best := 0
		for _, k := range g {
			if k > best {
				best = k
			}
		}
		keep += best
	}
	return float64(n-keep) / float64(n)
}

// refDiscover lists the minimal non-trivial FDs of t with |LHS| ≤
// maxLHS straight from the definitions: X → A holds iff
// |π_X| = |π_{X∪A}|; it is trivial when X is a (super)key (the empty
// set is a key of a one-row table, so a constant is reported as
// ∅ → A only from two rows on); it is minimal when no proper subset
// of X determines A.
func refDiscover(t *table.Table, maxLHS int) []FD {
	nCols, nRows := t.NumCols(), t.NumRows()
	if nCols == 0 || nRows == 0 || maxLHS < 1 {
		return nil
	}
	cards := map[attrset]int{}
	card := func(s attrset) int {
		n, ok := cards[s]
		if !ok {
			n = refCard(t, s)
			cards[s] = n
		}
		return n
	}
	holds := func(x attrset, a int) bool { return card(x) == card(x.with(a)) }
	var out []FD
	for x := attrset(0); x < 1<<uint(nCols); x++ {
		if x.size() > maxLHS || card(x) == nRows {
			continue
		}
		for a := 0; a < nCols; a++ {
			if x.has(a) || !holds(x, a) {
				continue
			}
			minimal := true
			for y := (x - 1) & x; x != 0; y = (y - 1) & x { // proper subsets of x
				if holds(y, a) {
					minimal = false
					break
				}
				if y == 0 {
					break
				}
			}
			if minimal {
				out = append(out, FD{LHS: x.members(nCols), RHS: a})
			}
		}
	}
	sortFDs(out)
	return out
}

// nullSpellings are null cells the tables below mix in; the engine
// must treat all of them as one value.
var nullSpellings = []string{"", " ", "NULL", "n/a", "-", "...", "NaN"}

// randomTable draws a table whose cells are small integers or, with
// probability nullRate, a random null spelling.
func randomTable(rng *rand.Rand, nRows, nCols, domain int, nullRate float64) *table.Table {
	cols := make([]string, nCols)
	for c := range cols {
		cols[c] = fmt.Sprintf("c%d", c)
	}
	rows := make([][]string, nRows)
	for r := range rows {
		rows[r] = make([]string, nCols)
		for c := range rows[r] {
			if rng.Float64() < nullRate {
				rows[r][c] = nullSpellings[rng.Intn(len(nullSpellings))]
			} else {
				rows[r][c] = strconv.Itoa(rng.Intn(domain))
			}
		}
	}
	return table.FromRows("t", cols, rows)
}

// checkAgainstReference compares every engine, and every cardinality
// the FUN search computed, with the reference.
func checkAgainstReference(t *testing.T, tb *table.Table, maxLHS int) {
	t.Helper()
	want := fdStrings(refDiscover(tb, maxLHS))
	for _, eng := range []struct {
		name string
		run  func(*table.Table, int) []FD
	}{{"FUN", Discover}, {"naive", DiscoverNaive}, {"TANE", DiscoverTANE}} {
		if got := fdStrings(eng.run(tb, maxLHS)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (maxLHS %d) = %v, reference %v\nrows: %v", eng.name, maxLHS, got, want, tableRows(tb))
		}
	}
	if got := HasNontrivialFD(tb, maxLHS); got != (len(want) > 0) {
		t.Fatalf("HasNontrivialFD = %v with reference FDs %v\nrows: %v", got, want, tableRows(tb))
	}
	if tb.NumRows() == 0 {
		return
	}
	// The cardinalities FUN computed, most of them counted from held
	// partitions, and every set's counted from scratch.
	e := newEngine(tb)
	e.discover(maxLHS, false)
	for s, n := range e.cards {
		if ref := refCard(tb, s); n != ref {
			t.Fatalf("FUN card(%v) = %d, reference %d\nrows: %v", s.members(tb.NumCols()), n, ref, tableRows(tb))
		}
	}
	for s := attrset(0); s < 1<<uint(tb.NumCols()); s++ {
		if n, ref := newEngine(tb).card(s), refCard(tb, s); n != ref {
			t.Fatalf("card(%v) = %d, reference %d\nrows: %v", s.members(tb.NumCols()), n, ref, tableRows(tb))
		}
		for a := 0; a < tb.NumCols(); a++ {
			f := FD{LHS: s.members(tb.NumCols()), RHS: a}
			if got, ref := G3Error(tb, f), refG3(tb, s, a); got != ref { //lint:allow(floatcmp) both divide the same integer counts
				t.Fatalf("G3Error(%v) = %v, reference %v\nrows: %v", f, got, ref, tableRows(tb))
			}
		}
	}
}

func tableRows(tb *table.Table) [][]string {
	out := make([][]string, tb.NumRows())
	for r := range out {
		out[r] = tb.Row(r)
	}
	return out
}

func TestDiscoverAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		nCols := 1 + rng.Intn(6)
		nRows := rng.Intn(41)
		domain := 1 + rng.Intn(6)
		nullRate := []float64{0, 0.1, 0.4}[rng.Intn(3)]
		tb := randomTable(rng, nRows, nCols, domain, nullRate)
		checkAgainstReference(t, tb, 1+rng.Intn(4))
	}
}

// TestDiscoverAgainstReferenceLarger exercises long partition classes
// and deep refinement chains on a few wider, taller tables.
func TestDiscoverAgainstReferenceLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 6; trial++ {
		tb := randomTable(rng, 200+rng.Intn(300), 7, 2+rng.Intn(6), 0.15)
		checkAgainstReference(t, tb, MaxLHS)
	}
}

// FuzzDiscover decodes bytes into a tiny table (≤ 6 columns, ≤ 40
// rows, with nulls) and checks every engine against the reference.
func FuzzDiscover(f *testing.F) {
	f.Add([]byte{3, 10, 2, 0, 1, 2, 0, 1, 3, 8, 9, 16, 0, 1, 2})
	f.Add([]byte{6, 40, 4, 7, 7, 7, 0, 8, 16, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nCols := 1 + int(data[0])%6
		nRows := int(data[1]) % 41
		maxLHS := 1 + int(data[2])%4
		cells := data[3:]
		cols := make([]string, nCols)
		for c := range cols {
			cols[c] = fmt.Sprintf("c%d", c)
		}
		rows := make([][]string, nRows)
		for r := range rows {
			rows[r] = make([]string, nCols)
			for c := range rows[r] {
				var b byte
				if i := r*nCols + c; i < len(cells) {
					b = cells[i]
				}
				if b%8 == 0 {
					rows[r][c] = nullSpellings[int(b/8)%len(nullSpellings)]
				} else {
					rows[r][c] = strconv.Itoa(int(b % 5))
				}
			}
		}
		checkAgainstReference(t, table.FromRows("fuzz", cols, rows), maxLHS)
	})
}
