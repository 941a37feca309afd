package predict

import (
	"fmt"
	"math"
	"sync"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/rf"
	"mpcdvfs/internal/telemetry"
)

// SpaceEvaluator is the optional batched extension of Model: a model
// that can evaluate one kernel at every configuration of a space in a
// single call. PredictSpace fills dst (which must hold space.Size()
// estimates) in hw.Space.At order and returns true, or returns false —
// touching nothing — when the batched path is unavailable (compiled
// inference disabled, or a wrapper in the stack that must see every
// per-configuration call, like the LRU prediction cache).
//
// The contract is strict bit-exactness: dst[i] must equal
// PredictKernel(cs, space.At(i)) bit for bit, so callers may use either
// path interchangeably without perturbing replays. The optimizer's
// exhaustive sweep type-asserts for this interface and falls back to
// scalar evaluation when the assertion or the call fails.
type SpaceEvaluator interface {
	PredictSpace(cs counters.Set, space hw.Space, dst []Estimate) bool
}

// TracedSpaceEvaluator is the trace-aware extension of SpaceEvaluator:
// the batched sweep additionally reports where its time goes — row
// featurization vs. forest evaluation — as child spans of the caller's
// active trace. The SpaceEvaluator contract is unchanged: tracing is
// read-only with respect to predictions, so PredictSpaceTraced fills
// dst with exactly the bytes PredictSpace would (tc may be nil or
// unsampled, in which case the span calls are no-ops).
type TracedSpaceEvaluator interface {
	SpaceEvaluator
	PredictSpaceTraced(cs counters.Set, space hw.Space, dst []Estimate, tc *telemetry.Context) bool
}

// spaceArena is one batched-sweep workspace: the two forest output
// vectors and the set-descent scratch stack. Everything that depends on
// the space itself lives in the pool's immutable sweep plans, so an
// arena carries no space-specific contents — only space-sized buffers.
type spaceArena struct {
	tOut  []float64 // time-forest outputs, one per configuration
	pOut  []float64 // power-forest outputs, one per configuration
	stack []int32   // SweepInto scratch, shared by both forests in turn
}

// arenaPool is the per-(model, space) sweep state: one immutable
// rf.SweepPlan per forest, built once when the pool is installed and
// shared lock-free by every concurrent sweep, plus a sync.Pool of
// private workspaces so batched sweeps from many sessions scale with
// cores instead of serializing. The pool is space-keyed as a whole — a
// model asked to sweep a different space installs a fresh pool (see
// RandomForest.arenaFor); mixed-space workloads therefore rebuild plans
// but never evaluate against a foreign space.
type arenaPool struct {
	space        hw.Space
	tPlan, pPlan *rf.SweepPlan
	pool         sync.Pool // of *spaceArena sized for space
}

// newArenaPool builds the sweep plans for a space: each configuration's
// six suffix features are filled by the same patchConfig the scalar
// path uses (identical expressions, identical values), in At order, and
// folded into each forest's plan behind the shared counter prefix.
func newArenaPool(space hw.Space, tc, pc *rf.CompiledForest) *arenaPool {
	n := space.Size()
	suffix := make([]float64, 0, n*numConfigFeatures)
	var row [numRFFeatures]float64
	space.ForEach(func(c hw.Config) {
		patchConfig(row[:], c)
		suffix = append(suffix, row[counters.NumCounters:]...)
	})
	return &arenaPool{
		space: space,
		tPlan: tc.NewSweepPlan(counters.NumCounters, n, suffix),
		pPlan: pc.NewSweepPlan(counters.NumCounters, n, suffix),
	}
}

// get returns a workspace for p.space, reporting whether it was pooled
// (true) or freshly built (false).
func (p *arenaPool) get() (*spaceArena, bool) {
	if a, ok := p.pool.Get().(*spaceArena); ok {
		return a, true
	}
	n := p.tPlan.Rows()
	return &spaceArena{
		tOut:  make([]float64, n),
		pOut:  make([]float64, n),
		stack: make([]int32, max(p.tPlan.StackLen(), p.pPlan.StackLen())),
	}, false
}

// arenaInstr mirrors pool traffic into a metrics registry.
type arenaInstr struct {
	hit, miss *metrics.Counter
}

// arenaFor returns the model's arena pool for space, building its sweep
// plans and installing it when none exists or the cached pool was built
// for a different space. The install races benignly: a loser keeps
// using the pool it created (correct, just unshared for that one sweep).
func (m *RandomForest) arenaFor(space hw.Space) *arenaPool {
	ap := m.arenas.Load()
	if ap != nil && ap.space.Equal(space) {
		return ap
	}
	fresh := newArenaPool(space, m.timeCompiled, m.powerCompiled)
	m.arenas.CompareAndSwap(ap, fresh)
	if cur := m.arenas.Load(); cur != nil && cur.space.Equal(space) {
		return cur
	}
	return fresh
}

// ArenaPoolStats returns the cumulative batched-sweep arena pool
// traffic: sweeps served by a pooled arena (hits) and sweeps that had
// to build one (misses, including every first sweep after a space
// change). The steady-state hit rate of a concurrent server is the
// fraction of sweeps that allocated nothing.
func (m *RandomForest) ArenaPoolStats() (hits, misses uint64) {
	return m.arenaHits.Load(), m.arenaMisses.Load()
}

// InstrumentArenaPool mirrors the arena pool counters into reg as
// mpcdvfs_predict_arena_events_total{event="hit"|"miss"} from now on
// (earlier traffic is reported once as a baseline on the first event).
func (m *RandomForest) InstrumentArenaPool(reg *metrics.Registry) {
	events := reg.Counter("mpcdvfs_predict_arena_events_total",
		"Batched-sweep arena pool requests by outcome (hit = reused a pooled arena, miss = built one).",
		"event")
	m.arenaInstr.Store(&arenaInstr{hit: events.With("hit"), miss: events.With("miss")})
}

// countArena records one pool outcome in the stats and their optional
// metrics mirror.
func (m *RandomForest) countArena(hit bool) {
	if hit {
		m.arenaHits.Add(1)
	} else {
		m.arenaMisses.Add(1)
	}
	if in := m.arenaInstr.Load(); in != nil {
		if hit {
			in.hit.Inc()
		} else {
			in.miss.Inc()
		}
	}
}

// PredictSpace implements SpaceEvaluator with one set-descent sweep per
// forest: the kernel's counter prefix is computed once, each compiled
// forest descends every tree once over the bitset of configurations
// still on the path (rf.SweepPlan), and each estimate is assembled with
// exactly the scalar path's final operations (math.Exp(t)·insts, p).
// Returns false — leaving dst untouched — when compiled inference is
// disabled (SetCompiled(false)).
//
// PredictSpace is safe for concurrent use: the sweep plans are
// immutable and each call borrows a private arena from the model's
// pool, so concurrent sweeps (one per serving session) proceed without
// serializing on any lock. Arenas hold only outputs and scratch, so
// which one serves a sweep is unobservable.
//
//mpclint:hotpath warm sweep pinned at 0 allocs/op by TestPredictSpaceZeroAllocSteadyState
func (m *RandomForest) PredictSpace(cs counters.Set, space hw.Space, dst []Estimate) bool {
	return m.predictSpace(cs, space, dst, nil)
}

// PredictSpaceTraced implements TracedSpaceEvaluator: the same sweep
// with featurize and forest-eval child spans attached to tc.
//
//mpclint:hotpath warm sweep pinned at 0 allocs/op by TestPredictSpaceZeroAllocSteadyState; spans add nothing when unsampled
func (m *RandomForest) PredictSpaceTraced(cs counters.Set, space hw.Space, dst []Estimate, tc *telemetry.Context) bool {
	return m.predictSpace(cs, space, dst, tc)
}

// predictSpace is the shared batched sweep: the traced and untraced
// entry points differ only in whether span bookkeeping runs — every
// value written to dst is computed identically.
//
//mpclint:hotpath warm sweep pinned at 0 allocs/op by TestPredictSpaceZeroAllocSteadyState; arena-miss slow paths carry reasoned suppressions
func (m *RandomForest) predictSpace(cs counters.Set, space hw.Space, dst []Estimate, tc *telemetry.Context) bool {
	if m.treeWalk || m.timeCompiled == nil {
		return false
	}
	n := space.Size()
	if len(dst) != n {
		panic(fmt.Sprintf("predict: PredictSpace dst holds %d estimates, space has %d configurations", len(dst), n))
	}
	if n == 0 {
		return true
	}
	sp := tc.Start(telemetry.SpanFeaturize)
	var prefix [counters.NumCounters]float64
	counterPrefix(prefix[:], cs)
	//mpclint:ignore hotpath-alloc pool and plan install is a once-per-space slow path; warm sweeps load the existing pool, pinned by TestPredictSpaceZeroAllocSteadyState
	ap := m.arenaFor(space)
	//mpclint:ignore hotpath-alloc arena build is the pool-miss slow path; warm sweeps reuse a pooled arena, pinned by TestPredictSpaceZeroAllocSteadyState
	a, pooled := ap.get()
	m.countArena(pooled)
	sp.End()
	sp = tc.Start(telemetry.SpanForestEval)
	ap.tPlan.SweepInto(a.tOut, prefix[:], a.stack)
	ap.pPlan.SweepInto(a.pOut, prefix[:], a.stack)
	insts := instsOf(cs)
	for r := 0; r < n; r++ {
		dst[r] = Estimate{TimeMS: math.Exp(a.tOut[r]) * insts, GPUPowerW: a.pOut[r]}
	}
	sp.End()
	ap.pool.Put(a)
	return true
}

// Compile-time interface checks for the batched path.
var (
	_ SpaceEvaluator       = (*RandomForest)(nil)
	_ SpaceEvaluator       = (*Calibrated)(nil)
	_ TracedSpaceEvaluator = (*RandomForest)(nil)
	_ TracedSpaceEvaluator = (*Calibrated)(nil)
)
