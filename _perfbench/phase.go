package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"mpcdvfs/internal/obs"
	"mpcdvfs/internal/par"
	"mpcdvfs/internal/serve"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/telemetry"
)

// outcome is what one replay leaves behind: its simulated result against
// the baseline and a fingerprint of its full decision stream.
type outcome struct {
	app       string
	decisions int
	failed    bool
	savings   float64 // energy savings vs Turbo Core, %
	speedup   float64
	miss      bool   // slower than the Eq. 1 target throughput
	hash      uint64 // every kernel record of the run
}

func summarize(rp replay, res *sim.Result) outcome {
	c := sim.Compare(res, rp.base)
	h := newHasher()
	for _, r := range res.Records {
		h.str(r.Kernel)
		h.u64(uint64(r.Config.CPU), uint64(r.Config.NB), uint64(r.Config.GPU), uint64(r.Config.CUs), uint64(r.Evals))
		h.float(r.TimeMS)
		h.float(r.OverheadMS)
		h.float(r.GPUEnergyMJ)
		h.float(r.CPUEnergyMJ)
		h.float(r.OverheadEnergyMJ)
	}
	return outcome{
		app:       rp.app.Name,
		decisions: len(res.Records),
		savings:   c.EnergySavingsPct,
		speedup:   c.Speedup,
		miss:      res.Throughput() < rp.target.Throughput(),
		hash:      h.sum(),
	}
}

// hasher is an FNV-1a fingerprint over values.
type hasher struct {
	h   hash.Hash64
	buf [8]byte
}

func newHasher() *hasher { return &hasher{h: fnv.New64a()} }

func (h *hasher) sum() uint64 { return h.h.Sum64() }

func (h *hasher) u64(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(h.buf[:], v)
		_, _ = h.h.Write(h.buf[:]) // hash writes never fail
	}
}

func (h *hasher) float(v float64) { h.u64(math.Float64bits(v)) }

func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	_, _ = h.h.Write([]byte(s)) // hash writes never fail
}

// roundStat is one timed round's wall time, process CPU time and work,
// with the host-speed probe's mean ns per descent around it.
type roundStat struct {
	wall, cpu time.Duration
	decisions int
	probeNS   float64
}

// phase is one pass over the schedule: every round, timed.
type phase struct {
	rounds    []roundStat
	outcomes  [][]outcome       // per round, per replay
	latencies [][]time.Duration // per round, every decision
	// Runtime counters over the rounds (forced collections excluded).
	allocBytes uint64
	gcCycles   uint32
	heapMB     float64 // live heap after a forced GC at the end
}

func (p *phase) decisions() int {
	n := 0
	for _, r := range p.rounds {
		n += r.decisions
	}
	return n
}

func (p *phase) failedDecisions() int {
	n := 0
	for _, os := range p.outcomes {
		for _, o := range os {
			if o.failed {
				n += o.decisions
			}
		}
	}
	return n
}

// medianRound returns the median over rounds of f.
func (p *phase) medianRound(f func(roundStat) float64) float64 {
	xs := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		xs[i] = f(r)
	}
	return median(xs)
}

// probeNS returns the median over rounds of the host-speed probe.
func (p *phase) probeNS() float64 {
	return p.medianRound(func(r roundStat) float64 { return r.probeNS })
}

// latencyMS returns the median over rounds of each round's q-quantile
// decision latency, in milliseconds at reference host speed.
func (p *phase) latencyMS(q float64) float64 {
	xs := make([]float64, len(p.latencies))
	for i, ds := range p.latencies {
		ms := make([]float64, len(ds))
		for j, d := range ds {
			ms[j] = float64(d) / float64(time.Millisecond)
		}
		xs[i] = atRef(quantile(ms, q), p.rounds[i].probeNS)
	}
	return median(xs)
}

// meanLatencyUS returns the raw mean decision latency over every round,
// in microseconds.
func (p *phase) meanLatencyUS() float64 {
	var sum time.Duration
	n := 0
	for _, ds := range p.latencies {
		for _, d := range ds {
			sum += d
		}
		n += len(ds)
	}
	return float64(sum) / 1e3 / float64(max(n, 1))
}

// throughput returns decisions per second at reference host speed,
// median over rounds.
func (p *phase) throughput() float64 {
	return p.medianRound(func(r roundStat) float64 {
		return float64(r.decisions) / atRef(r.wall.Seconds(), r.probeNS)
	})
}

// cpuPerDecisionUS returns process CPU µs per decision at reference host
// speed, median over rounds.
func (p *phase) cpuPerDecisionUS() float64 {
	return p.medianRound(func(r roundStat) float64 {
		return atRef(float64(r.cpu)/1e3/float64(r.decisions), r.probeNS)
	})
}

// runPhase replays the given rounds of the schedule. With acc set it runs the
// traced variant: the served path through a probed server and client
// probes, steady-mpc through policies built on model probes. A forced GC
// precedes every round and follows the last; the host-speed probe runs
// right before and right after every round.
func (e *env) runPhase(rounds [][]replay, acc *layerAcc) (*phase, error) {
	srv := e.srv
	mpcs := e.steadyPolicies()
	if acc != nil {
		var err error
		if srv, mpcs, err = e.tracedTargets(acc); err != nil {
			return nil, err
		}
		if srv != nil {
			defer srv.close()
		}
	}
	p := &phase{outcomes: make([][]outcome, len(rounds))}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for r, reps := range rounds {
		runtime.GC()
		before := e.probe.nsPerDescent()
		cpu0 := cpuTime()
		start := time.Now()
		var rs roundResult
		var err error
		var lat []time.Duration
		if srv != nil {
			rs = e.servedRound(srv, reps, acc, &lat)
		} else {
			rs, err = e.steadyRound(mpcs, reps, acc, &lat)
		}
		wall := time.Since(start)
		cpu := cpuTime() - cpu0
		after := e.probe.nsPerDescent()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		p.outcomes[r] = rs.outcomes
		p.latencies = append(p.latencies, lat)
		p.rounds = append(p.rounds, roundStat{wall: wall, cpu: cpu, decisions: rs.decisions, probeNS: (before + after) / 2})
	}
	runtime.ReadMemStats(&ms1)
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	// One forced collection per round ran inside the window.
	p.gcCycles = ms1.NumGC - ms0.NumGC - uint32(len(rounds))
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	p.heapMB = float64(ms1.HeapAlloc) / (1 << 20)
	return p, nil
}

// roundResult is the work one round did.
type roundResult struct {
	outcomes  []outcome
	decisions int
	retries   int
}

// servedRound replays reps through the closed-loop sessions: each
// session takes the next replay, runs the whole app through its own
// serve.Client (a fresh server session per replay, as clients do today),
// closes it, and takes the next. Latencies of every /v1/decide round
// trip, including any 429 retry wait, are appended to lat when it is
// non-nil.
func (e *env) servedRound(srv *server, reps []replay, acc *layerAcc, lat *[]time.Duration) roundResult {
	out := make([]outcome, len(reps))
	lats := make([][]time.Duration, len(reps))
	retries := make([]int, len(reps))
	par.ForEach(sessions, len(reps), func(i int) {
		rp := reps[i]
		c := serve.NewClient(srv.ts.URL)
		c.OnDecideLatency = func(d time.Duration) {
			lats[i] = append(lats[i], d)
			if acc != nil {
				acc.rtt.add(d)
			}
		}
		var pol sim.Policy = c
		if acc != nil {
			pol = &clientProbe{c: c, acc: acc}
		}
		start := time.Now()
		res, err := e.sys.Run(rp.app, pol, rp.target, true)
		if acc != nil {
			acc.engineNS.Add(int64(time.Since(start)))
		}
		start = time.Now()
		cerr := c.Close()
		if acc != nil {
			acc.closeRTT.add(time.Since(start))
		}
		retries[i] = c.Retries429
		if err == nil {
			err = cerr
		}
		if err != nil {
			out[i] = outcome{app: rp.app.Name, decisions: rp.app.Len(), failed: true}
			return
		}
		out[i] = summarize(rp, res)
	})
	rr := roundResult{outcomes: out}
	for i, o := range out {
		if lat != nil {
			*lat = append(*lat, lats[i]...)
		}
		rr.retries += retries[i]
		rr.decisions += o.decisions
	}
	if acc != nil {
		acc.retries429.Add(int64(rr.retries))
	}
	return rr
}

// steadyPolicies returns steady-mpc's profiled policies (nil on served
// workloads).
func (e *env) steadyPolicies() map[string]sim.Policy {
	if e.mpc == nil {
		return nil
	}
	out := make(map[string]sim.Policy, len(e.mpc))
	for name, m := range e.mpc {
		out[name] = m
	}
	return out
}

// tracedTargets builds what a traced phase drives: for served workloads
// a second server whose handler, policies and models are probed; for
// steady-mpc a fresh MPC per app on a probed model, profiled and brought
// to the state the untraced MPCs had when their timed phase began.
func (e *env) tracedTargets(acc *layerAcc) (*server, map[string]sim.Policy, error) {
	if e.mpc == nil {
		srv, err := startServer(e.sys, e.model, acc)
		return srv, nil, err
	}
	out := make(map[string]sim.Policy, len(e.apps))
	for name, rp := range e.apps {
		mp := newModelProbe(e.model, acc)
		m := e.sys.NewMPC(mp)
		if _, err := e.sys.Run(rp.app, m, rp.target, true); err != nil {
			return nil, nil, fmt.Errorf("profile %s: %w", name, err)
		}
		out[name] = &policyProbe{inner: m, model: mp, acc: acc, outer: true}
	}
	return nil, out, nil
}

// steadyRound replays reps in process on one goroutine, each app on its
// own steady-state MPC (firstRun = false). lat receives the wall time of
// every Policy.Decide call.
func (e *env) steadyRound(pols map[string]sim.Policy, reps []replay, acc *layerAcc, lat *[]time.Duration) (roundResult, error) {
	rr := roundResult{outcomes: make([]outcome, len(reps))}
	for i, rp := range reps {
		t := &timedPolicy{Policy: pols[rp.app.Name], lat: lat}
		start := time.Now()
		res, err := e.sys.Run(rp.app, t, rp.target, false)
		if acc != nil {
			acc.engineNS.Add(int64(time.Since(start)))
		}
		if err != nil {
			return rr, fmt.Errorf("replay %s: %w", rp.app.Name, err)
		}
		rr.outcomes[i] = summarize(rp, res)
		rr.decisions += len(res.Records)
	}
	return rr, nil
}

// timedPolicy records the wall time of every Decide call of a local
// policy, and forwards the engine's observer and trace context to it.
type timedPolicy struct {
	sim.Policy
	lat *[]time.Duration
}

func (t *timedPolicy) SetObserver(o obs.Observer) {
	if in, ok := t.Policy.(obs.Instrumentable); ok {
		in.SetObserver(o)
	}
}

func (t *timedPolicy) SetTraceContext(tc *telemetry.Context) {
	if tr, ok := t.Policy.(telemetry.Traceable); ok {
		tr.SetTraceContext(tc)
	}
}

func (t *timedPolicy) Decide(i int) sim.Decision {
	start := time.Now()
	d := t.Policy.Decide(i)
	*t.lat = append(*t.lat, time.Since(start))
	return d
}
