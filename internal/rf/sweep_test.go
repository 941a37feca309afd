package rf

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// assembleRow writes prefix followed by suffix row r into x.
func assembleRow(x, prefix, suffix []float64, r int) {
	w := len(x) - len(prefix)
	copy(x, prefix)
	copy(x[len(prefix):], suffix[r*w:(r+1)*w])
}

// checkSweep sweeps c over (prefix, suffix) and requires every row to
// be bit-identical to the keyed batch kernel and to the tree walk on the
// assembled row.
func checkSweep(t *testing.T, name string, f *Forest, c *CompiledForest, prefix []float64, rows int, suffix []float64) {
	t.Helper()
	p := c.NewSweepPlan(len(prefix), rows, suffix)
	got := p.SweepInto(make([]float64, rows), prefix, make([]int32, p.StackLen()))
	d := c.NumFeatures()
	flat := make([]float64, rows*d)
	for r := 0; r < rows; r++ {
		assembleRow(flat[r*d:(r+1)*d], prefix, suffix, r)
	}
	keys := make([]uint64, len(flat))
	KeysInto(keys, flat)
	keyed := c.PredictBatchKeysInto(make([]float64, rows), keys)
	for r := 0; r < rows; r++ {
		want := f.Predict(flat[r*d : (r+1)*d])
		if !bitsEqual(got[r], want) || !bitsEqual(keyed[r], want) {
			t.Fatalf("%s row %d of %d: sweep %v (bits %#x), keyed batch %v, tree-walk %v (bits %#x)",
				name, r, rows, got[r], math.Float64bits(got[r]), keyed[r], want, math.Float64bits(want))
		}
	}
}

// chainTreeOn is chainTree with every split on feature feat.
func chainTreeOn(depth int, leafBase float64, feat int) tree {
	tr := chainTree(depth, leafBase)
	for i := range tr.Nodes {
		if tr.Nodes[i].Feature >= 0 {
			tr.Nodes[i].Feature = feat
		}
	}
	return tr
}

// sweepSpecial are the adversarial values a keyed comparison could
// mis-handle, plus ordinary negatives and zeros.
var sweepSpecial = []float64{0, math.Copysign(0, -1), -1, -2.5, 0.5, 1, math.NaN(), math.Inf(1), math.Inf(-1), 5e-324}

// gridSuffix lays out rows configurations of a knob grid over width
// suffix columns: knob k of row r is digit k of r in base radix, and
// column j reads knob j%knobs through a per-column value table, so
// columns repeat values (and some duplicate each other) the way a
// decision space's frequency, voltage and bandwidth features do.
func gridSuffix(rows, width, knobs, radix int, vals func(col, level int) float64) []float64 {
	s := make([]float64, 0, rows*width)
	for r := 0; r < rows; r++ {
		for j := 0; j < width; j++ {
			level := r
			for k := 0; k < j%knobs; k++ {
				level /= radix
			}
			s = append(s, vals(j, level%radix))
		}
	}
	return s
}

// TestSweepEquivalenceProperty drives the set-descent sweep through the
// shapes a decision space can take — one row, rows straddling the
// 64-bit set word (63, 64, 65), a single varying knob, a permuted knob
// order and a 336-row default-space-sized grid — over trained forests,
// single-leaf trees and uneven skewed spines, with prefixes of ordinary,
// negative, zero, NaN and ±Inf counters. Every row must be bit-identical
// to the keyed batch kernel and to the tree walk.
func TestSweepEquivalenceProperty(t *testing.T) {
	const d = 6
	forests := map[string]*Forest{}
	X, y := makeDataset(300, d, 0.05, 3, func(x []float64) float64 { return x[0]*x[4] - x[2] + x[5] })
	for _, nt := range []int{1, 9} {
		f, err := Train(X, y, Config{NumTrees: nt, MaxDepth: 9, MinLeaf: 1, NumThresh: 10, SampleFrac: 1.0, Seed: int64(nt), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		forests[fmt.Sprintf("trained-%d", nt)] = f
	}
	uneven := &Forest{nFeatures: d}
	for i := 0; i < 11; i++ {
		switch i % 4 {
		case 0:
			uneven.trees = append(uneven.trees, tree{Nodes: []node{{Feature: -1, Thresh: 0.25 * float64(i+1)}}})
		default:
			uneven.trees = append(uneven.trees, chainTreeOn(3*i%14+1, float64(i), i%d))
		}
	}
	forests["uneven"] = uneven
	forests["single-leaf"] = &Forest{nFeatures: d, trees: []tree{
		{Nodes: []node{{Feature: -1, Thresh: 1.5}}},
		{Nodes: []node{{Feature: -1, Thresh: -0.75}}},
	}}

	levels := func(col, level int) float64 { return float64(level)/3 + 0.1*float64(col%2) - 0.5 }
	spaces := []struct {
		name   string
		prefix int
		rows   int
		suffix func(w int) []float64
	}{
		{"size-1", 3, 1, func(w int) []float64 { return gridSuffix(1, w, 3, 4, levels) }},
		{"size-63", 3, 63, func(w int) []float64 { return gridSuffix(63, w, 3, 4, levels) }},
		{"size-64", 3, 64, func(w int) []float64 { return gridSuffix(64, w, 3, 4, levels) }},
		{"size-65", 2, 65, func(w int) []float64 { return gridSuffix(65, w, 4, 3, levels) }},
		{"single-knob", 3, 7, func(w int) []float64 { return gridSuffix(7, w, 1, 7, levels) }},
		{"permuted-knobs", 3, 48, func(w int) []float64 {
			// The same grid with its knobs enumerated in reverse order.
			return gridSuffix(48, w, 3, 4, func(col, level int) float64 { return levels(w-1-col, level) })
		}},
		{"default-sized", 2, 336, func(w int) []float64 { return gridSuffix(336, w, 4, 7, levels) }},
		{"special-suffix", 3, 70, func(w int) []float64 {
			return gridSuffix(70, w, 3, len(sweepSpecial), func(col, level int) float64 { return sweepSpecial[level] })
		}},
		{"no-prefix", 0, 40, func(w int) []float64 { return gridSuffix(40, w, 3, 5, levels) }},
		{"all-prefix", d, 5, func(w int) []float64 { return nil }},
	}
	rng := rand.New(rand.NewSource(17))
	for fname, f := range forests {
		c := compileOrFatal(t, f)
		for _, sp := range spaces {
			suffix := sp.suffix(d - sp.prefix)
			for trial := 0; trial < 6; trial++ {
				prefix := make([]float64, sp.prefix)
				for i := range prefix {
					if trial%2 == 1 {
						prefix[i] = sweepSpecial[rng.Intn(len(sweepSpecial))]
					} else {
						prefix[i] = rng.Float64()*3 - 1
					}
				}
				checkSweep(t, fmt.Sprintf("%s/%s/trial %d", fname, sp.name, trial), f, c, prefix, sp.rows, suffix)
			}
		}
	}
}

// TestSweepEmptyAndPanics pins the zero-row plan and the shape checks.
func TestSweepEmptyAndPanics(t *testing.T) {
	c := compileOrFatal(t, fuzzForest(t)) // 3 features
	p := c.NewSweepPlan(1, 0, nil)
	if out := p.SweepInto([]float64{}, []float64{0.5}, make([]int32, p.StackLen())); len(out) != 0 {
		t.Fatalf("zero-row sweep returned %v", out)
	}
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("prefix wider than the forest", func() { c.NewSweepPlan(4, 1, nil) })
	expectPanic("ragged suffix", func() { c.NewSweepPlan(1, 2, make([]float64, 3)) })
	expectPanic("rows beyond the uint16 row lists", func() { c.NewSweepPlan(3, maxSweepRows+1, nil) })
	p = c.NewSweepPlan(1, 2, make([]float64, 4))
	stack := make([]int32, p.StackLen())
	expectPanic("wrong prefix width", func() { p.SweepInto(make([]float64, 2), nil, stack) })
	expectPanic("wrong dst size", func() { p.SweepInto(make([]float64, 3), []float64{0}, stack) })
	expectPanic("short stack", func() { p.SweepInto(make([]float64, 2), []float64{0}, stack[:len(stack)-1]) })
}

// sweepFixture is a default-space-shaped sweep for the allocation and
// concurrency pins: 14 features, an 8-feature shared prefix, 336 rows.
func sweepFixture(t *testing.T) (*Forest, *SweepPlan, []float64) {
	t.Helper()
	X, y := makeDataset(400, 14, 0.05, 5, func(x []float64) float64 { return x[0]*x[9] - x[13] + x[3] })
	f, err := Train(X, y, Config{NumTrees: 12, MaxDepth: 10, MinLeaf: 2, NumThresh: 12, SampleFrac: 1.0, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	suffix := gridSuffix(336, 6, 4, 7, func(col, level int) float64 { return float64(level)/7 + 0.03*float64(col) })
	return f, compileOrFatal(t, f).NewSweepPlan(8, 336, suffix), suffix
}

// TestSweepZeroAlloc pins SweepInto at zero allocations per sweep: the
// plan is built once, and dst, prefix and stack are caller-owned.
func TestSweepZeroAlloc(t *testing.T) {
	_, p, _ := sweepFixture(t)
	dst := make([]float64, p.Rows())
	stack := make([]int32, p.StackLen())
	prefix := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	if allocs := testing.AllocsPerRun(200, func() { p.SweepInto(dst, prefix, stack) }); allocs != 0 {
		t.Fatalf("SweepPlan.SweepInto allocates %v times per call, want 0", allocs)
	}
}

// TestSweepConcurrentSharedPlan sweeps one shared plan from eight
// goroutines at once, each with its own prefixes, dst and stack — the
// serving pattern, where every session sweeps through the model's one
// plan per space. Every row must match the tree walk; under -race this
// pins the plan as read-only.
func TestSweepConcurrentSharedPlan(t *testing.T) {
	f, p, suffix := sweepFixture(t)
	const goroutines, sweeps = 8, 12
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			dst := make([]float64, p.Rows())
			stack := make([]int32, p.StackLen())
			prefix := make([]float64, 8)
			row := make([]float64, 14)
			for s := 0; s < sweeps; s++ {
				for i := range prefix {
					prefix[i] = rng.Float64()
				}
				p.SweepInto(dst, prefix, stack)
				for r := range dst {
					assembleRow(row, prefix, suffix, r)
					if want := f.Predict(row); !bitsEqual(dst[r], want) {
						errs[g] = fmt.Errorf("goroutine %d sweep %d row %d: sweep %v != tree-walk %v", g, s, r, dst[r], want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzSweepEquivalence fuzzes the counter prefix and the space shape —
// prefix width, row count and the suffix value pool — against the tree
// walk. Raw bytes decode 8 at a time into float64 values (any bit
// pattern: NaNs, infinities, denormals); the first prefix-width values
// are the shared prefix and the rest form the pool the suffix grid
// draws its levels from.
func FuzzSweepEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5), uint8(2), uint8(63), []byte("0123456789abcdef0123456789abcdef"))
	f.Add(int64(9), uint8(8), uint8(6), uint8(0), uint8(64), []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff})
	f.Add(int64(-4), uint8(1), uint8(7), uint8(4), uint8(65), []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, nTrees, depth, prefixW, nRows uint8, raw []byte) {
		const d = 4
		nt := int(nTrees)%10 + 1
		dp := int(depth)%8 + 1
		pw := int(prefixW) % (d + 1)
		rows := int(nRows)%200 + 1
		X, y := makeDataset(40, d, 0.05, seed, func(x []float64) float64 { return x[0] - x[3]*x[1] })
		forest, err := Train(X, y, Config{NumTrees: nt, MaxDepth: dp, MinLeaf: 1,
			NumThresh: 4, SampleFrac: 1.0, Seed: seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		c, err := forest.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) == 0 {
			raw = []byte{0}
		}
		vals := make([]float64, pw+1+len(raw)/8)
		for i := range vals {
			var b [8]byte
			for j := range b {
				b[j] = raw[(i*8+j)%len(raw)]
			}
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		prefix, pool := vals[:pw], vals[pw:]
		suffix := gridSuffix(rows, d-pw, 2, len(pool)+2, func(col, level int) float64 {
			if level < len(pool) {
				return pool[level]
			}
			return float64(level) * 0.3 // ordinary in-range levels beside the fuzzed ones
		})
		checkSweep(t, "fuzz", forest, c, prefix, rows, suffix)
	})
}
