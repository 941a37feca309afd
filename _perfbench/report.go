package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/par"
)

// result is one benchmark run: the correctness verdict, the work
// attempted, and both metric sets (perLayer only when traced).
type result struct {
	correct   bool
	attempted int
	failed    int
	endToEnd  map[string]metric
	perLayer  map[string]metric
}

// benchmark sets up cfg.setups times (keeping the last), runs the
// untraced timed phase, checks correctness outside it and, when traced,
// runs the traced phase and replays the forests. Progress and check
// results go to log.
func benchmark(cfg config, traced bool, log io.Writer) (*result, error) {
	probe := newHostSpeedProbe()
	var e *env
	var times []setupTimes
	var prints []uint64
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.close()
		}
		var t setupTimes
		var err error
		before := probe.nsPerDescent()
		if e, t, err = setUp(cfg, probe); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		t.probeNS = (before + probe.nsPerDescent()) / 2
		times = append(times, t)
		prints = append(prints, modelFingerprint(e.model))
	}
	defer e.close()
	fmt.Fprintf(log, "workload %s seed %d: %d rounds, %d setups\n", cfg.workload, cfg.seed, cfg.rounds, cfg.setups)

	plain, err := e.runPhase(e.rounds, nil)
	if err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	logRounds(log, "untraced", plain)
	chk := &checks{log: log}
	for i := range prints {
		chk.expect(prints[i] == prints[0], "set-up %d trained a different model", i)
	}
	checkOutcomes(chk, plain)
	e.checkParity(chk, plain)

	res := &result{
		attempted: plain.decisions(),
		failed:    plain.failedDecisions(),
		endToEnd:  e.endToEnd(plain, times),
	}
	for name, m := range res.endToEnd {
		chk.expect(!math.IsNaN(m.Value) && !math.IsInf(m.Value, 0), "metric %s is not finite", name)
	}

	if traced {
		acc := &layerAcc{}
		tp, err := e.runPhase(e.rounds[:cfg.tracedRounds], acc)
		if err != nil {
			return nil, fmt.Errorf("traced phase: %w", err)
		}
		logRounds(log, "traced", tp)
		checkOutcomes(chk, tp)
		chk.expect(acc.badStatus.Load() == 0, "%d protocol errors in the traced phase", acc.badStatus.Load())
		same := true
		for r := range tp.outcomes {
			for i := range tp.outcomes[r] {
				same = same && plain.outcomes[r][i].hash == tp.outcomes[r][i].hash
			}
		}
		// With the untraced phase checked for parity, this carries the
		// check over to the traced one.
		chk.expect(same, "traced decisions differ from untraced ones")
		before := probe.nsPerDescent()
		rr, err := replayForests(e.model, acc, cfg.rfRows)
		if err != nil {
			return nil, err
		}
		rr.probeNS = (before + probe.nsPerDescent()) / 2
		res.attempted += tp.decisions()
		res.failed += tp.failedDecisions()
		res.perLayer = e.perLayer(plain, tp, acc, rr, times)
		printBudget(log, res.perLayer)
	}
	res.correct = chk.ok()
	return res, nil
}

// logRounds writes one line per timed round.
func logRounds(w io.Writer, name string, p *phase) {
	for i, r := range p.rounds {
		fmt.Fprintf(w, "%s round %d: %d decisions in %.3f s, raw %.1f decisions/s, %.1f us CPU per decision, host probe %.1f ns\n",
			name, i, r.decisions, r.wall.Seconds(), float64(r.decisions)/r.wall.Seconds(), float64(r.cpu)/1e3/float64(r.decisions), r.probeNS)
	}
}

// checks collects failed correctness checks.
type checks struct {
	log    io.Writer
	failed int
}

func (c *checks) expect(ok bool, format string, args ...any) {
	if !ok {
		c.failed++
		fmt.Fprintf(c.log, "CHECK FAILED: "+format+"\n", args...)
	}
}

func (c *checks) ok() bool { return c.failed == 0 }

// maxParityApps caps the local replays of the served parity check.
const maxParityApps = 64

// checkOutcomes verifies a phase's outputs outside its timing: no
// failed decision and every simulated number finite.
func checkOutcomes(chk *checks, p *phase) {
	chk.expect(p.failedDecisions() == 0, "%d failed decisions", p.failedDecisions())
	for _, os := range p.outcomes {
		for _, o := range os {
			for _, v := range []float64{o.savings, o.speedup} {
				chk.expect(o.failed || !math.IsNaN(v) && !math.IsInf(v, 0), "app %s: simulated metric is not finite", o.app)
			}
		}
	}
}

// checkParity verifies, on served workloads, that every served decision
// stream equals a local in-process replay of the same app with the same
// model (the server's byte-identity contract). It checks once per
// distinct app, or an even sample of maxParityApps apps when there are
// more (served-cold).
func (e *env) checkParity(chk *checks, p *phase) {
	if e.srv == nil {
		return
	}
	served := make(map[string]uint64)
	var names []string // in schedule order
	for _, os := range p.outcomes {
		for _, o := range os {
			if h, ok := served[o.app]; ok {
				chk.expect(o.failed || h == o.hash, "app %s: served decision streams differ between sessions", o.app)
			} else if !o.failed {
				served[o.app] = o.hash
				names = append(names, o.app)
			}
		}
	}
	if len(names) > maxParityApps {
		// served-cold: every replay is a new app; check an even sample.
		sample := make([]string, maxParityApps)
		for i := range sample {
			sample[i] = names[i*len(names)/maxParityApps]
		}
		names = sample
	}
	local := make([]uint64, len(names))
	errs := make([]error, len(names))
	par.ForEach(sessions, len(names), func(i int) {
		rp := e.apps[names[i]]
		res, err := e.sys.Run(rp.app, e.sys.NewMPC(e.model), rp.target, true)
		if err != nil {
			errs[i] = err
			return
		}
		local[i] = summarize(rp, res).hash
	})
	for i, name := range names {
		chk.expect(errs[i] == nil, "local replay of %s: %v", name, errs[i])
		chk.expect(local[i] == served[name], "app %s: served decisions differ from a local replay", name)
	}
}

// endToEnd assembles the untraced metrics.
func (e *env) endToEnd(p *phase, times []setupTimes) map[string]metric {
	var savings, speedup, misses float64
	n := 0
	for _, os := range p.outcomes {
		for _, o := range os {
			if o.failed {
				continue
			}
			savings += o.savings
			speedup += o.speedup
			if o.miss {
				misses++
			}
			n++
		}
	}
	nf := float64(max(n, 1))
	return map[string]metric{
		"throughput_dps":      {p.throughput(), "1/s"},
		"decide_p50_ms":       {p.latencyMS(0.50), "ms"},
		"decide_p99_ms":       {p.latencyMS(0.99), "ms"},
		"cpu_us_per_decision": {p.cpuPerDecisionUS(), "us"},
		"energy_savings_pct":  {savings / nf, "%"},
		"speedup":             {speedup / nf, "x"},
		"target_miss_pct":     {100 * misses / nf, "%"},
		"setup_s":             {medianSetup(times, setupTimes.total), "s"},
		"live_heap_mb":        {p.heapMB, "MiB"},
	}
}

// medianSetup returns the median over set-ups of a set-up duration, in
// seconds at reference host speed.
func medianSetup(times []setupTimes, f func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(times))
	for i, t := range times {
		xs[i] = atRef(f(t).Seconds(), t.probeNS)
	}
	return median(xs)
}

// perLayer assembles the traced metrics. Means are per decision unless
// the name says otherwise; layers a workload does not exercise report 0.
// Times are at reference host speed: traced ones scaled by the traced
// phase's probe, untraced ones by the untraced phase's, the forest replay
// by the probe around it.
func (e *env) perLayer(plain, tp *phase, a *layerAcc, rr rfReplay, times []setupTimes) map[string]metric {
	dec := float64(max(a.decide.n.Load(), 1))
	probe := tp.probeNS()
	// us turns a traced total in ns into µs per n at reference speed.
	us := func(ns int64, n float64) float64 { return atRef(float64(ns)/1e3/n, probe) }
	mean := func(s *stat) float64 { return us(s.ns.Load(), float64(max(s.n.Load(), 1))) }

	decideUS := us(a.decide.ns.Load(), dec)
	predUS := us(a.predInDec.Load(), dec)
	selfUS := decideUS - predUS

	// The budgets: traced parts that sum to traced totals, set against
	// the untraced end-to-end figure, so the residual is whatever the
	// layer numbers do not account for in what an untraced caller sees.
	// The served chain: RTT = transport + handler self + policy decide.
	// The policy: decide = self + predictor. On served workloads the
	// untraced decide time of the server's policy is not observable from
	// outside, so its budget starts from the untraced RTT less the traced
	// transport and handler self, and the two residuals coincide.
	plainUS := atRef(plain.meanLatencyUS(), plain.probeNS())
	rtt, handler, transport, hself, resid := 0.0, 0.0, 0.0, 0.0, 0.0
	policyTotal := plainUS
	if e.srv != nil {
		rtt = us(a.rtt.ns.Load(), dec)
		handler = us(a.handlerDecide.ns.Load(), dec)
		transport = rtt - handler
		hself = handler - decideUS
		policyTotal = plainUS - transport - hself
		resid = plainUS - transport - hself - decideUS
	}
	batchNS := atRef(rr.batchNSPerRow, rr.probeNS)
	space := mean(&a.space)
	featurizeSelf := 0.0
	if a.space.n.Load() > 0 {
		featurizeSelf = space - float64(hw.DefaultSpace().Size())*batchNS/1e3
	}
	setup := func(f func(setupTimes) time.Duration) metric { return metric{medianSetup(times, f), "s"} }
	return map[string]metric{
		"serve.decide_rtt_us":         {rtt, "us"},
		"serve.decide_handler_us":     {handler, "us"},
		"serve.transport_us":          {transport, "us"},
		"serve.handler_self_us":       {hself, "us"},
		"serve.budget_residual_us":    {resid, "us"},
		"serve.observe_rtt_us":        {mean(&a.observeRTT), "us"},
		"serve.session_open_us":       {mean(&a.open), "us"},
		"serve.session_close_us":      {mean(&a.closeRTT), "us"},
		"serve.requests_per_decision": {float64(a.requests.Load()) / dec, "count"},
		"serve.retries_429":           {float64(a.retries429.Load()), "count"},

		"policy.begin_us":           {mean(&a.begin), "us"},
		"policy.decide_us":          {decideUS, "us"},
		"policy.observe_us":         {mean(&a.observe), "us"},
		"policy.predictor_us":       {predUS, "us"},
		"policy.self_us":            {selfUS, "us"},
		"policy.budget_residual_us": {policyTotal - selfUS - predUS, "us"},
		"policy.horizon_mean":       {float64(a.horizon.Load()) / dec, "count"},
		"policy.fallbacks":          {float64(a.fallbacks.Load()), "count"},

		"core.evals_per_decision":        {float64(a.evals.Load()) / dec, "count"},
		"core.search_iters_per_decision": {float64(a.iters.Load()) / dec, "count"},

		"predict.kernel_calls_per_decision": {float64(a.kernel.n.Load()) / dec, "count"},
		"predict.kernel_ns":                 {1e3 * mean(&a.kernel), "ns"},
		"predict.space_calls_per_decision":  {float64(a.space.n.Load()) / dec, "count"},
		"predict.space_us":                  {space, "us"},
		"predict.featurize_self_us":         {featurizeSelf, "us"},

		"rf.scalar_ns_per_row": {atRef(rr.scalarNSPerRow, rr.probeNS), "ns"},
		"rf.batch_ns_per_row":  {batchNS, "ns"},
		"rf.nodes":             {float64(rr.nodes), "count"},

		"sim.self_us_per_decision": {us(a.engineNS.Load()-a.enginePolicy.Load(), dec), "us"},

		"setup.train_s":    setup(func(t setupTimes) time.Duration { return t.train }),
		"setup.baseline_s": setup(func(t setupTimes) time.Duration { return t.baseline }),
		"setup.server_s":   setup(func(t setupTimes) time.Duration { return t.server }),
		"setup.warmup_s":   setup(func(t setupTimes) time.Duration { return t.warmup }),

		"runtime.alloc_kb_per_decision": {float64(plain.allocBytes) / 1024 / float64(max(plain.decisions(), 1)), "KiB"},
		"runtime.gc_cycles":             {float64(plain.gcCycles), "count"},
		"host.probe_ns":                 {plain.probeNS(), "ns"},
		"trace.overhead_pct":            {100 * (plain.throughput()/tp.throughput() - 1), "%"},
	}
}

// printBudget writes the two latency budgets as sums: the untraced
// end-to-end figure equals the traced parts plus the residual.
func printBudget(w io.Writer, m map[string]metric) {
	v := func(k string) float64 { return m[k].Value }
	if v("serve.requests_per_decision") > 0 {
		parts := v("serve.transport_us") + v("serve.handler_self_us") + v("policy.decide_us")
		fmt.Fprintf(w, "budget serve:  untraced rtt %.2f us = transport %.2f + handler_self %.2f + policy.decide %.2f + residual %.2f (traced rtt %.2f)\n",
			parts+v("serve.budget_residual_us"), v("serve.transport_us"), v("serve.handler_self_us"), v("policy.decide_us"), v("serve.budget_residual_us"), v("serve.decide_rtt_us"))
	}
	parts := v("policy.self_us") + v("policy.predictor_us")
	fmt.Fprintf(w, "budget policy: untraced decide %.2f us = self %.2f + predictor %.2f + residual %.2f (traced decide %.2f)\n",
		parts+v("policy.budget_residual_us"), v("policy.self_us"), v("policy.predictor_us"), v("policy.budget_residual_us"), v("policy.decide_us"))
}
