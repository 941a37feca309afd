package rf

// Paired kernel benchmarks for the compiled forest engines, each against
// the reference tree walk. Scalar pairs run with one fixed input row
// (the predictor-friendly best case for branchy descent: every
// data-dependent branch repeats, so the tree walk speculates perfectly)
// and cycling over 64 distinct rows (the serving regime — every
// decision carries fresh counters, so branchy descent pays
// misprediction flushes while the predicated kernels are
// input-oblivious). Batch benchmarks evaluate one 336-row matrix; the
// Sweep pair evaluates one 336-row configuration sweep whose rows share
// an eight-feature prefix, row-blocked (keyed batch) against set
// descent (SweepPlan).
//
// The "kernels" and "sweep" sections of BENCH_rf.json are recorded from:
//
//	go test ./internal/rf -run '^$' -bench '^BenchmarkCompiled|^BenchmarkSweep' -benchmem

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// benchForest mirrors the shared fixture's shape: 40 trees, depth 14,
// 14 features.
func benchForest(tb testing.TB) *Forest {
	tb.Helper()
	benchForestOnce.Do(func() { benchForestVal, benchForestErr = trainBenchForest() })
	if benchForestErr != nil {
		tb.Fatal(benchForestErr)
	}
	return benchForestVal
}

var (
	benchForestOnce sync.Once
	benchForestVal  *Forest
	benchForestErr  error
)

func trainBenchForest() (*Forest, error) {
	X, y := makeDataset(3000, 14, 0.05, 42, func(x []float64) float64 {
		return x[0]*x[1] - 3*x[13] + math.Sin(4*x[7])*x[2]
	})
	return Train(X, y, Config{NumTrees: 40, MaxDepth: 14, MinLeaf: 2,
		MaxFeatures: 7, NumThresh: 24, SampleFrac: 1.0, Seed: 42, Workers: 1})
}

func benchInputs(n int) [][]float64 {
	rng := rand.New(rand.NewSource(77))
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, 14)
		for j := range x {
			x[j] = (rng.Float64() - 0.5) * 4
		}
		xs[i] = x
	}
	return xs
}

func BenchmarkCompiledScalarTreeWalk(b *testing.B) {
	f := benchForest(b)
	x := benchInputs(1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Predict(x)
	}
}

func BenchmarkCompiledScalarBranchless(b *testing.B) {
	c := compileOrFatal(b, benchForest(b))
	x := benchInputs(1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Predict(x)
	}
}

func BenchmarkCompiledScalarTreeWalkVaried(b *testing.B) {
	f := benchForest(b)
	xs := benchInputs(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Predict(xs[i&63])
	}
}

func BenchmarkCompiledScalarBranchlessVaried(b *testing.B) {
	c := compileOrFatal(b, benchForest(b))
	xs := benchInputs(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Predict(xs[i&63])
	}
}

// benchMatrix builds a 336-row flat matrix, the default decision-space
// sweep size.
func benchMatrix() []float64 {
	rng := rand.New(rand.NewSource(3))
	flat := make([]float64, 336*14)
	for i := range flat {
		flat[i] = (rng.Float64() - 0.5) * 4
	}
	return flat
}

func BenchmarkCompiledBatchTreeWalk(b *testing.B) {
	f := benchForest(b)
	flat := benchMatrix()
	dst := make([]float64, len(flat)/14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range dst {
			dst[r] = f.Predict(flat[r*14 : (r+1)*14])
		}
	}
}

func BenchmarkCompiledBatchInterleaved(b *testing.B) {
	c := compileOrFatal(b, benchForest(b))
	flat := benchMatrix()
	dst := make([]float64, len(flat)/14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PredictBatchInto(dst, flat)
	}
}

func BenchmarkCompiledBatchInterleavedKeys(b *testing.B) {
	c := compileOrFatal(b, benchForest(b))
	flat := benchMatrix()
	keys := make([]uint64, len(flat))
	KeysInto(keys, flat)
	dst := make([]float64, len(flat)/14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PredictBatchKeysInto(dst, keys)
	}
}

// benchSweepPrefix is the shared-prefix width of the sweep pair: the
// eight counter features of the predictor's rows.
const benchSweepPrefix = 8

// benchSweepSuffix lays out the configuration suffix of a 336-row sweep
// shaped like the default decision space: a 7 × 4 × 3 × 4 grid of four
// knobs spread over six columns, a handful of distinct values each, in
// the forest's [0, 1) training range.
func benchSweepSuffix() []float64 {
	var s []float64
	for cpu := 0; cpu < 7; cpu++ {
		for nb := 0; nb < 4; nb++ {
			for gpu := 0; gpu < 3; gpu++ {
				for cu := 0; cu < 4; cu++ {
					g, n := float64(gpu)/3, float64(nb)/4
					s = append(s, g, max(g, n)+0.1, float64(cu)/4, n, 0.9*n+0.05, float64(cpu)/7)
				}
			}
		}
	}
	return s
}

// benchSweepPrefixes draws 64 distinct counter prefixes: every served
// sweep carries a fresh kernel's counters.
func benchSweepPrefixes() [][]float64 {
	rng := rand.New(rand.NewSource(91))
	ps := make([][]float64, 64)
	for i := range ps {
		ps[i] = make([]float64, benchSweepPrefix)
		for j := range ps[i] {
			ps[i][j] = rng.Float64()
		}
	}
	return ps
}

// BenchmarkSweepKeyedBatch is the row-blocked baseline for one sweep:
// the counter prefix keyed and patched into every pre-keyed row, then
// PredictBatchKeysInto descends all 336 rows through every tree.
func BenchmarkSweepKeyedBatch(b *testing.B) {
	c := compileOrFatal(b, benchForest(b))
	suffix := benchSweepSuffix()
	const d, w = 14, 14 - benchSweepPrefix
	rows := len(suffix) / w
	keys := make([]uint64, rows*d)
	for r := 0; r < rows; r++ {
		KeysInto(keys[r*d+benchSweepPrefix:(r+1)*d], suffix[r*w:(r+1)*w])
	}
	prefixes := benchSweepPrefixes()
	dst := make([]float64, rows)
	var kp [benchSweepPrefix]uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KeysInto(kp[:], prefixes[i&63])
		for r := 0; r < rows; r++ {
			copy(keys[r*d:r*d+benchSweepPrefix], kp[:])
		}
		c.PredictBatchKeysInto(dst, keys)
	}
}

// BenchmarkSweepSetDescent is the same sweep through the set-descent
// kernel: each tree descended once over the bitset of rows on the path.
func BenchmarkSweepSetDescent(b *testing.B) {
	c := compileOrFatal(b, benchForest(b))
	suffix := benchSweepSuffix()
	p := c.NewSweepPlan(benchSweepPrefix, len(suffix)/(14-benchSweepPrefix), suffix)
	prefixes := benchSweepPrefixes()
	dst := make([]float64, p.Rows())
	stack := make([]int32, p.StackLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SweepInto(dst, prefixes[i&63], stack)
	}
}

// BenchmarkSweepSetDescentUnshared runs set descent where it does not
// belong: rows that share no prefix and change on every call, as the
// fused cross-session batch's stacked requests do. Such rows need a new
// plan per call, so each op builds one over the 336 distinct rows of
// benchMatrix and sweeps it once. Its row-blocked twin is
// BenchmarkCompiledBatchInterleavedKeys over the same matrix.
func BenchmarkSweepSetDescentUnshared(b *testing.B) {
	c := compileOrFatal(b, benchForest(b))
	flat := benchMatrix()
	rows := len(flat) / 14
	dst := make([]float64, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := c.NewSweepPlan(0, rows, flat)
		p.SweepInto(dst, nil, make([]int32, p.StackLen()))
	}
}
