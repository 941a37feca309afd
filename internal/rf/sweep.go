package rf

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// SweepPlan is the set-descent form of one configuration sweep: a
// compiled forest evaluated on a fixed set of rows that share a feature
// prefix. Features [0, prefix) are the same in every row and arrive per
// sweep (the kernel's counters); features [prefix, NumFeatures) are
// fixed per row and known when the plan is built (the configuration
// suffix of every point in a decision space).
//
// Rather than descending every row through every tree, SweepInto
// descends each tree once, over the set of rows still on the current
// path:
//
//   - a split on a prefix feature moves the whole set with one key
//     comparison;
//   - a split on a suffix feature sends each row to the side its own
//     key selects, descending into both children only when both
//     receive rows;
//   - a leaf adds its value to every row of the set.
//
// Prefix splits never change the set, only where it goes, so the set
// that reaches a node depends on the suffix splits above it alone: it
// is fixed per (forest, rows) and NewSweepPlan computes it once, as
// bitsets cut row by row with the same keyed comparisons. The plan
// keeps one word per node — for a suffix split, which children any row
// reaches; for a leaf, where its row list starts in a deduplicated pool
// of row indices — so a sweep does no set arithmetic at all: it follows
// prefix splits, forks at live suffix splits, and adds each reached
// leaf's value to the rows on its list.
//
// Bit-exactness. Every comparison is the same keyed comparison
// (keyOf(x) <= threshKey(t)) the other compiled kernels perform, so each
// row reaches exactly the leaf it reaches in the tree walk. Trees run in
// index order and each row receives exactly one leaf value per tree, so
// its sum is built by the tree walk's additions in the tree walk's
// order, followed by the same single division. SweepInto is therefore
// bit-identical to Predict, PredictBatchKeysInto and Forest.Predict on
// every row, NaN, ±Inf and ±0 included.
//
//mpclint:immutable one plan per (model, space) is shared lock-free by every concurrent sweep of that space; any post-construction write is a data race
type SweepPlan struct {
	c        *CompiledForest
	prefix   int      // shared-prefix width
	rows     int      // rows per sweep (output slots)
	node     []uint32 // per pool node: live children (suffix split) or row-list offset (leaf)
	lists    []uint16 // deduplicated leaf row lists: a length, then that many row indices
	stackLen int      // stack entries SweepInto needs
}

// maxSweepRows bounds a plan's rows so a row index and a list length
// fit the uint16 row lists; the largest hw.Space has 35,840
// configurations.
const maxSweepRows = 1<<16 - 1

// Live-children codes of a suffix split in SweepPlan.node. A split
// neither of whose children any row reaches is itself never reached.
const (
	liveLeft  = 1
	liveRight = 2
	liveBoth  = liveLeft | liveRight
)

// NewSweepPlan builds the set-descent plan for sweeping c over rows
// rows that share a prefix of the given width: suffix holds each row's
// remaining NumFeatures()-prefix feature values, row-major. The plan
// holds no reference to suffix. It panics on a shape mismatch or more
// than 65,535 rows.
func (c *CompiledForest) NewSweepPlan(prefix, rows int, suffix []float64) *SweepPlan {
	if prefix < 0 || prefix > c.nFeat {
		panic(fmt.Sprintf("rf: sweep prefix of %d features, compiled for %d", prefix, c.nFeat))
	}
	width := c.nFeat - prefix
	if rows < 0 || rows > maxSweepRows || len(suffix) != rows*width {
		panic(fmt.Sprintf("rf: sweep suffix of %d values is not %d rows of %d features", len(suffix), rows, width))
	}
	p := &SweepPlan{
		c:      c,
		prefix: prefix,
		rows:   rows,
		node:   make([]uint32, len(c.nodes)),
	}
	maxDepth := int32(0)
	for _, d := range c.depths {
		maxDepth = max(maxDepth, d)
	}
	// At most one pending right sibling per level, plus the root.
	p.stackLen = int(maxDepth) + 1
	if rows == 0 {
		return p
	}

	keys := make([]uint64, len(suffix))
	KeysInto(keys, suffix)
	words := (rows + 63) / 64
	full := make([]uint64, words)
	for r := 0; r < rows; r++ {
		full[r>>6] |= 1 << (r & 63)
	}
	// halves[d] holds the left and right row sets split at depth d; a
	// node's halves stay intact while its subtree, one level deeper,
	// reuses the next pair.
	halves := make([]uint64, 2*words*int(maxDepth+1))
	index := make(map[string]uint32)
	buf := make([]byte, 8*words)
	// visit records what the plan needs at node i, at depth d, reached
	// by the non-empty row set set.
	var visit func(i int32, d int, set []uint64)
	visit = func(i int32, d int, set []uint64) {
		n := &c.nodes[i]
		if n.left == i { // leaf: intern its row list
			for w, x := range set {
				binary.LittleEndian.PutUint64(buf[8*w:], x)
			}
			k, ok := index[string(buf)]
			if !ok {
				k = uint32(len(p.lists))
				index[string(buf)] = k
				p.lists = append(p.lists, 0)
				for w, x := range set {
					for ; x != 0; x &= x - 1 {
						p.lists = append(p.lists, uint16(w<<6|bits.TrailingZeros64(x)))
					}
				}
				p.lists[k] = uint16(len(p.lists) - int(k) - 1)
			}
			p.node[i] = k
			return
		}
		f := int(n.feat)
		if f < prefix {
			visit(n.left, d+1, set)
			visit(n.left+1, d+1, set)
			return
		}
		left := halves[2*d*words : (2*d+1)*words]
		right := halves[(2*d+1)*words : (2*d+2)*words]
		var inL, inR uint64
		for w, x := range set {
			left[w] = 0
			for y := x; y != 0; y &= y - 1 {
				r := w<<6 | bits.TrailingZeros64(y)
				if keys[r*width+f-prefix] <= n.tkey {
					left[w] |= 1 << (r & 63)
				}
			}
			right[w] = x &^ left[w]
			inL |= left[w]
			inR |= right[w]
		}
		if inL != 0 {
			p.node[i] |= liveLeft
			visit(n.left, d+1, left)
		}
		if inR != 0 {
			p.node[i] |= liveRight
			visit(n.left+1, d+1, right)
		}
	}
	for _, root := range c.roots {
		visit(root, 0, full)
	}
	return p
}

// Rows returns the number of rows one sweep evaluates.
func (p *SweepPlan) Rows() int { return p.rows }

// StackLen returns the stack length SweepInto needs.
func (p *SweepPlan) StackLen() int { return p.stackLen }

// SweepInto evaluates the plan's forest on every row — prefix followed
// by the row's suffix — writing one estimate per row into dst
// (len Rows()) and returning it. stack is caller-owned scratch of at
// least StackLen() entries, so concurrent sweeps through one shared plan
// need only private dst and stack. Bit-identical to Predict on each
// assembled row (see SweepPlan). It panics on a shape mismatch.
//
//mpclint:hotpath pinned at 0 allocs/op by TestSweepZeroAlloc
func (p *SweepPlan) SweepInto(dst, prefix []float64, stack []int32) []float64 {
	c := p.c
	if len(prefix) != p.prefix {
		panic(fmt.Sprintf("rf: SweepInto prefix of %d features, plan shares %d", len(prefix), p.prefix))
	}
	if len(dst) != p.rows {
		panic(fmt.Sprintf("rf: SweepInto dst holds %d rows, plan has %d", len(dst), p.rows))
	}
	if len(stack) < p.stackLen {
		panic(fmt.Sprintf("rf: SweepInto stack of %d entries, plan needs %d", len(stack), p.stackLen))
	}
	for r := range dst {
		dst[r] = 0
	}
	if p.rows == 0 {
		return dst
	}
	var kp [maxCompiledFeatures]uint64
	for i, v := range prefix {
		kp[i] = keyOf(v)
	}
	nodes, info, lists := c.nodes, p.node, p.lists
	// stack holds the right siblings still to visit; the working node
	// is i.
	for _, root := range c.roots {
		stack[0] = root
		for sp := 1; sp > 0; {
			sp--
			i := stack[sp]
			for {
				n := &nodes[i]
				if n.left == i { // leaf
					v := c.leafVal[i]
					k := int(info[i])
					for _, r := range lists[k+1 : k+1+int(lists[k])] {
						dst[r] += v
					}
					break
				}
				f := int(n.feat)
				if f < p.prefix {
					_, b := bits.Sub64(n.tkey, kp[f], 0)
					i = n.left + int32(b)
					continue
				}
				switch info[i] {
				case liveBoth:
					stack[sp] = n.left + 1
					sp++
					i = n.left
				case liveLeft:
					i = n.left
				default:
					i = n.left + 1
				}
			}
		}
	}
	div := float64(c.nTrees)
	for r := range dst {
		dst[r] /= div
	}
	return dst
}
