package fd

import "math/bits"

// partition is a stripped partition of a table's rows under equality
// on an attribute set X (Huhtala et al., TANE, 1999): only the
// equivalence classes with at least two rows are stored, flat. Class i
// is rows[bounds[i]:bounds[i+1]]; rows in no class are singletons, so
// |π_X| = nRows − len(rows) + len(bounds) − 1. Classes are in first-seen
// order and rows ascend within a class, so a partition is a pure
// function of the table and X.
type partition struct {
	rows   []int32
	bounds []int32 // class starts plus a trailing len(rows)
}

// reset empties p, making room for up to n rows without reallocating
// when its buffers are already that large.
func (p *partition) reset(n int) {
	if cap(p.rows) < n {
		p.rows = make([]int32, 0, n)
	}
	p.rows = p.rows[:0]
	p.bounds = append(p.bounds[:0], 0)
}

// grow appends a class of k rows to p and returns its first index.
func (p *partition) grow(k int32) int32 {
	start := int32(len(p.rows))
	p.rows = p.rows[:start+k]
	p.bounds = append(p.bounds, start+k)
	return start
}

// nextStamp returns a fresh generation for the stamp array. A class
// marks the codes it has seen with its generation, so no array is
// cleared between classes; the array is cleared only when the 32-bit
// generation wraps.
func (e *engine) nextStamp() uint32 {
	e.gen++
	if e.gen == 0 {
		clear(e.stamp)
		e.gen = 1
	}
	return e.gen
}

// refine writes the stripped partition of X ∪ {c} into dst, given X's
// partition p: each class of p splits by c's code, and the parts
// with one row become singletons.
func (e *engine) refine(p *partition, c int, dst *partition) {
	codes := e.codes[c]
	dst.reset(len(p.rows))
	for i := 1; i < len(p.bounds); i++ {
		cls := p.rows[p.bounds[i-1]:p.bounds[i]]
		if len(cls) == 2 {
			if codes[cls[0]] == codes[cls[1]] {
				copy(dst.rows[dst.grow(2):], cls)
			}
			continue
		}
		g := e.nextStamp()
		for _, r := range cls {
			v := codes[r]
			if e.stamp[v] != g {
				e.stamp[v] = g
				e.count[v] = 0
			}
			e.count[v]++
		}
		for _, r := range cls {
			v := codes[r]
			switch k := e.count[v]; {
			case k >= 2:
				e.pos[v] = dst.grow(k)
				e.count[v] = -1
			case k == 1:
				continue
			}
			dst.rows[e.pos[v]] = r
			e.pos[v]++
		}
	}
}

// countWith returns |π_{X∪{c}}| from X's partition p: singletons of X
// stay singletons, and each class contributes its number of distinct
// codes of c.
func (e *engine) countWith(p *partition, c int) int {
	codes := e.codes[c]
	n := e.nRows - len(p.rows)
	for i := 1; i < len(p.bounds); i++ {
		cls := p.rows[p.bounds[i-1]:p.bounds[i]]
		if len(cls) == 2 {
			n++
			if codes[cls[0]] != codes[cls[1]] {
				n++
			}
			continue
		}
		g := e.nextStamp()
		for _, r := range cls {
			if v := codes[r]; e.stamp[v] != g {
				e.stamp[v] = g
				n++
			}
		}
	}
	return n
}

// keepWith returns how many rows survive when X → c is made exact by
// deleting rows: singletons of X all stay, and each class keeps the
// rows carrying its most frequent code of c.
func (e *engine) keepWith(p *partition, c int) int {
	codes := e.codes[c]
	keep := e.nRows - len(p.rows)
	for i := 1; i < len(p.bounds); i++ {
		g := e.nextStamp()
		best := int32(0)
		for _, r := range p.rows[p.bounds[i-1]:p.bounds[i]] {
			v := codes[r]
			if e.stamp[v] != g {
				e.stamp[v] = g
				e.count[v] = 0
			}
			if e.count[v]++; e.count[v] > best {
				best = e.count[v]
			}
		}
		keep += int(best)
	}
	return keep
}

// build returns the partition of x computed from scratch: all rows in
// one class, refined by each attribute of x in turn. The result lives
// in a scratch buffer valid until the next build.
func (e *engine) build(x attrset) *partition {
	cur, alt := &e.scratch[0], &e.scratch[1]
	cur.reset(e.nRows)
	if e.nRows >= 2 {
		cur.grow(int32(e.nRows))
		for r := range cur.rows {
			cur.rows[r] = int32(r)
		}
	}
	for rest := x; rest != 0; rest &= rest - 1 {
		e.refine(cur, bits.TrailingZeros64(uint64(rest)), alt)
		cur, alt = alt, cur
	}
	return cur
}

// keep builds and holds the partition of x, refining the held
// partition of its parent (x without its highest attribute), or
// building it from scratch when the parent is not held. A levelwise
// search keeps the sets it will expand and drops each level once the
// next one is built, so at most two levels are held at a time.
func (e *engine) keep(x attrset) {
	var dst *partition
	if n := len(e.free); n > 0 {
		dst, e.free = e.free[n-1], e.free[:n-1]
	} else {
		dst = new(partition)
	}
	top := highest(x)
	p := e.parts[x.without(top)]
	if p == nil {
		p = e.build(x.without(top))
	}
	e.refine(p, top, dst)
	e.parts[x] = dst
}

// drop releases x's held partition, recycling its buffers.
func (e *engine) drop(x attrset) {
	if p := e.parts[x]; p != nil {
		delete(e.parts, x)
		e.free = append(e.free, p)
	}
}

// highest returns the highest attribute of a non-empty set.
func highest(s attrset) int { return bits.Len64(uint64(s)) - 1 }
