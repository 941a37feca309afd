package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/obs"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/serve"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/telemetry"
)

// The traced phase measures each layer from outside, by wrapping the
// public boundary between it and the layer above:
//
//	client engine ─ clientProbe ─ serve.Client ─ HTTP ─ middleware ─ serve.Server
//	  ─ policyProbe ─ policy.MPC (core inside) ─ modelProbe ─ predict.RandomForest (rf inside)
//
// steady-mpc has no client or server: the engine calls policyProbe
// directly. Every probe records into one layerAcc; all of its fields
// are atomic because served sessions, their server-side owner
// goroutines and the HTTP handlers record concurrently.

// stat is a count and a total duration.
type stat struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (s *stat) add(d time.Duration) {
	s.n.Add(1)
	s.ns.Add(int64(d))
}

// Capture caps for the forest replays. A sweep keys one 336-row block and
// runs both forests over it while it is hot in cache; a batch pass that
// cycled through many more blocks would stream their keys from memory.
const (
	maxScalarRows = 4096
	maxSpaceSets  = 16
)

// scalarRow is one captured PredictKernel input.
type scalarRow struct {
	cs  counters.Set
	cfg hw.Config
}

// layerAcc accumulates one traced phase.
type layerAcc struct {
	// Client side of the served path.
	rtt        stat // /v1/decide round trips (OnDecideLatency)
	open       stat // /v1/session via Client.Begin
	observeRTT stat // /v1/observe via Client.Observe
	closeRTT   stat // /v1/session/close via Client.Close
	retries429 atomic.Int64

	// HTTP middleware around serve.Server.Handler.
	requests      atomic.Int64
	badStatus     atomic.Int64 // responses other than 200 and 429
	handlerDecide stat

	// Policy boundary (server side, or local on steady-mpc).
	begin     stat
	decide    stat
	observe   stat
	predInDec atomic.Int64 // predictor ns spent inside Decide calls
	horizon   atomic.Int64 // Σ Decision.Horizon
	fallbacks atomic.Int64
	evals     atomic.Int64
	iters     atomic.Int64

	// Predictor boundary, counted inside Decide only.
	kernel stat
	space  stat

	// Engine: Σ Engine.Run wall time and Σ time in the policy calls the
	// engine made, whichever policy it drove.
	engineNS     atomic.Int64
	enginePolicy atomic.Int64

	mu         sync.Mutex
	scalarRows []scalarRow
	spaceSets  []counters.Set
}

func (a *layerAcc) captureScalar(cs counters.Set, c hw.Config) {
	a.mu.Lock()
	if len(a.scalarRows) < maxScalarRows {
		a.scalarRows = append(a.scalarRows, scalarRow{cs, c})
	}
	a.mu.Unlock()
}

func (a *layerAcc) captureSpace(cs counters.Set) {
	a.mu.Lock()
	if len(a.spaceSets) < maxSpaceSets {
		a.spaceSets = append(a.spaceSets, cs)
	}
	a.mu.Unlock()
}

// middleware wraps serve.Server.Handler: it counts requests, times
// /v1/decide handlers and counts responses that are neither 200 nor a
// 429 backpressure answer.
func (a *layerAcc) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r)
		d := time.Since(start)
		a.requests.Add(1)
		if sw.status != http.StatusOK && sw.status != http.StatusTooManyRequests {
			a.badStatus.Add(1)
		}
		if r.URL.Path == "/v1/decide" {
			a.handlerDecide.add(d)
		}
	})
}

// statusWriter remembers the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// clientProbe is the client-side sim.Policy decorator around
// serve.Client: the engine drives it exactly as it drives the bare
// client.
type clientProbe struct {
	c   *serve.Client
	acc *layerAcc
}

func (p *clientProbe) Name() string { return p.c.Name() }

func (p *clientProbe) Begin(info sim.RunInfo) {
	start := time.Now()
	p.c.Begin(info)
	d := time.Since(start)
	p.acc.open.add(d)
	p.acc.enginePolicy.Add(int64(d))
}

func (p *clientProbe) Decide(i int) sim.Decision {
	start := time.Now()
	dec := p.c.Decide(i)
	p.acc.enginePolicy.Add(int64(time.Since(start)))
	return dec
}

func (p *clientProbe) Observe(o sim.Observation) {
	start := time.Now()
	p.c.Observe(o)
	d := time.Since(start)
	p.acc.observeRTT.add(d)
	p.acc.enginePolicy.Add(int64(d))
}

// policyProbe is the sim.Policy decorator around one MPC instance. On
// the server it comes from the serve.Config.NewPolicy factory; on
// steady-mpc the engine calls it directly (outer = true), so its time
// also counts as the engine's policy time.
type policyProbe struct {
	inner sim.Policy
	model *modelProbe
	acc   *layerAcc
	outer bool
	// pendingNS is the NewPolicy cost, charged to the first Begin.
	pendingNS int64
}

func (p *policyProbe) Name() string { return p.inner.Name() }

// SetTraceContext forwards the server's trace context, as the bare
// policy would receive it.
func (p *policyProbe) SetTraceContext(tc *telemetry.Context) {
	if tr, ok := p.inner.(telemetry.Traceable); ok {
		tr.SetTraceContext(tc)
	}
}

// SetObserver forwards the engine's observer, as the bare policy would
// receive it.
func (p *policyProbe) SetObserver(o obs.Observer) {
	if in, ok := p.inner.(obs.Instrumentable); ok {
		in.SetObserver(o)
	}
}

func (p *policyProbe) Begin(info sim.RunInfo) {
	start := time.Now()
	p.inner.Begin(info)
	d := time.Since(start)
	p.acc.begin.add(d + time.Duration(p.pendingNS))
	p.pendingNS = 0
	if p.outer {
		p.acc.enginePolicy.Add(int64(d))
	}
}

func (p *policyProbe) Decide(i int) sim.Decision {
	m := p.model
	m.inDecide.Store(true)
	m.predNS.Store(0)
	start := time.Now()
	dec := p.inner.Decide(i)
	d := time.Since(start)
	m.inDecide.Store(false)
	a := p.acc
	a.decide.add(d)
	a.predInDec.Add(m.predNS.Load())
	a.horizon.Add(int64(dec.Horizon))
	a.evals.Add(int64(dec.Evals))
	a.iters.Add(int64(dec.SearchIters))
	if dec.Fallback != "" {
		a.fallbacks.Add(1)
	}
	if p.outer {
		a.enginePolicy.Add(int64(d))
	}
	return dec
}

func (p *policyProbe) Observe(o sim.Observation) {
	start := time.Now()
	p.inner.Observe(o)
	d := time.Since(start)
	p.acc.observe.add(d)
	if p.outer {
		p.acc.enginePolicy.Add(int64(d))
	}
}

// modelProbe is the predict.Model decorator under one policy. It also
// implements predict.SpaceEvaluator, forwarding to the wrapped model's
// batched sweep, so the optimizer still takes the batched path. Calls
// are timed and captured only inside Decide; the calibration feedback
// call in Observe passes straight through.
type modelProbe struct {
	inner    predict.Model
	se       predict.SpaceEvaluator // nil when the wrapped model has no batched path
	acc      *layerAcc
	inDecide atomic.Bool
	predNS   atomic.Int64 // predictor time inside the current Decide
}

func newModelProbe(m predict.Model, acc *layerAcc) *modelProbe {
	se, _ := m.(predict.SpaceEvaluator)
	return &modelProbe{inner: m, se: se, acc: acc}
}

func (m *modelProbe) Name() string { return m.inner.Name() }

func (m *modelProbe) PredictKernel(cs counters.Set, c hw.Config) predict.Estimate {
	if !m.inDecide.Load() {
		return m.inner.PredictKernel(cs, c)
	}
	start := time.Now()
	e := m.inner.PredictKernel(cs, c)
	d := time.Since(start)
	m.predNS.Add(int64(d))
	m.acc.kernel.add(d)
	m.acc.captureScalar(cs, c)
	return e
}

func (m *modelProbe) PredictSpace(cs counters.Set, space hw.Space, dst []predict.Estimate) bool {
	if m.se == nil {
		return false
	}
	if !m.inDecide.Load() {
		return m.se.PredictSpace(cs, space, dst)
	}
	start := time.Now()
	ok := m.se.PredictSpace(cs, space, dst)
	d := time.Since(start)
	if ok {
		m.predNS.Add(int64(d))
		m.acc.space.add(d)
		m.acc.captureSpace(cs)
	}
	return ok
}

var (
	_ predict.SpaceEvaluator = (*modelProbe)(nil)
	_ telemetry.Traceable    = (*policyProbe)(nil)
	_ obs.Instrumentable     = (*policyProbe)(nil)
)
