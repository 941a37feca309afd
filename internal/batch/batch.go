// Package batch is the cross-session decision batching layer: an
// epoch-based coordinator that fuses concurrently-arriving exhaustive
// sweep requests (one per in-flight /v1/decide) into a single
// mega-batch compiled-forest evaluation, in the phase-switching style
// of ddtxn's coordinator — collect for a bounded window, execute the
// fused batch, scatter results, repeat.
//
// The contract is strict bit-exactness: a fused sweep returns every
// request exactly the bytes its direct (unbatched) PredictSpace call
// would have produced. This holds because rf.PredictBatchKeysInto
// accumulates each row's leaf values independently — trees outermost,
// one accumulator per row, one division at the end — so fusing N
// request matrices into one never changes any row's summation order,
// and it and the direct path's set-descent sweep both return the tree
// walk's bits on every row;
// the predict.FusedPlan stages each request with the exact featurize
// sequence of the direct path; and the session-side predict.RemoteSweep
// reapplies per-session calibration after unparking. Any failure mode
// (saturation, shutdown, unservable model/space) declines the request
// and the session runs its direct path, so batching is a pure execution
// -venue change, never a behavioral one.
package batch

import (
	"sync"
	"time"

	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/predict"
)

// Defaults for Config zero values.
const (
	// DefaultWindow bounds how long an epoch waits for co-arriving
	// requests after its first: long enough to catch sweeps submitted
	// within one decision's service time, short enough to stay
	// invisible next to a multi-hundred-µs fused evaluation.
	DefaultWindow = 150 * time.Microsecond
	// DefaultMaxFuse bounds the requests fused into one evaluation —
	// the FusedKeys slot capacity, sized so the fused matrix stays
	// cache-resident.
	DefaultMaxFuse = 16
)

// Config parameterizes a Coordinator.
type Config struct {
	// Window is the epoch collect phase's max wait (0 = DefaultWindow).
	Window time.Duration
	// MaxFuse is the max requests fused per evaluation (0 = DefaultMaxFuse).
	MaxFuse int
	// Queue is the submission channel depth; submits beyond it are
	// rejected and fall back to the direct path (0 = 2*MaxFuse).
	Queue int
	// Metrics, when non-nil, receives the mpcdvfs_batch_* series.
	Metrics *metrics.Registry
}

// Stats is a point-in-time snapshot of coordinator traffic for
// /debug/mpc.
type Stats struct {
	Epochs   uint64 `json:"epochs"`   // fused evaluations run
	Fused    uint64 `json:"fused"`    // requests served by a fused evaluation
	Declined uint64 `json:"declined"` // accepted but unservable (model/space without a batched path)
	Rejected uint64 `json:"rejected"` // submits refused (queue full or stopped)
	MaxFuse  int    `json:"max_fuse"`
	WindowUS int64  `json:"window_us"`
}

// plan pairs a FusedPlan with the epoch scatter scratch for its group.
type plan struct {
	p    *predict.FusedPlan
	dsts [][]predict.Estimate
}

// Coordinator owns the epoch loop. Sessions submit through Submit (the
// predict.SweepSubmit the serving layer wires into each policy) and
// park on their request's Done channel; the loop collects, fuses,
// executes and signals. One goroutine runs the loop; Submit and Stop
// are safe for concurrent use.
type Coordinator struct {
	window  time.Duration
	maxFuse int

	mu     sync.Mutex
	closed bool
	q      chan *predict.SweepRequest
	done   chan struct{}

	// plans is a small most-recently-used cache of fused plans, keyed
	// by (model, space) via FusedPlan.Serves — loop-goroutine-only.
	plans []*plan
	reqs  []*predict.SweepRequest
	group []*predict.SweepRequest

	epochs   *metrics.Counter
	fused    *metrics.Counter
	declined *metrics.Counter
	rejected *metrics.Counter
	epochReq *metrics.Histogram
	waitUS   *metrics.Histogram

	nEpochs   uint64
	nFused    uint64
	nDeclined uint64
	nRejected uint64
}

// New starts a coordinator with its epoch loop running.
func New(cfg Config) *Coordinator {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MaxFuse <= 0 {
		cfg.MaxFuse = DefaultMaxFuse
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 2 * cfg.MaxFuse
	}
	c := &Coordinator{
		window:  cfg.Window,
		maxFuse: cfg.MaxFuse,
		q:       make(chan *predict.SweepRequest, cfg.Queue),
		done:    make(chan struct{}),
		reqs:    make([]*predict.SweepRequest, 0, cfg.MaxFuse),
		group:   make([]*predict.SweepRequest, 0, cfg.MaxFuse),
	}
	if reg := cfg.Metrics; reg != nil {
		c.epochs = reg.Counter("mpcdvfs_batch_epochs_total",
			"Fused mega-batch evaluations the batch coordinator ran (one per epoch with at least one servable request).").With()
		requests := reg.Counter("mpcdvfs_batch_requests_total",
			"Sweep requests by outcome: fused into a mega-batch, declined (no batched path for the request's model/space), or rejected at submit (queue full or coordinator stopped).",
			"outcome")
		c.fused = requests.With("fused")
		c.declined = requests.With("declined")
		c.rejected = requests.With("rejected")
		c.epochReq = reg.Histogram("mpcdvfs_batch_epoch_requests",
			"Requests collected per epoch — the fuse width the evaluation actually ran at.",
			[]float64{1, 2, 4, 8, 16, 32, 64}).With()
		c.waitUS = reg.Histogram("mpcdvfs_batch_wait_us",
			"Per-request wait from submission to fused evaluation start, in microseconds.",
			metrics.ExponentialBuckets(10, 2, 12)).With()
	}
	// The coordinator is a singleton epoch loop, not per-work-item
	// fan-out: one long-lived goroutine serving every session for the
	// process lifetime, stopped by Stop. internal/par's bounded pools
	// model N-way data parallelism and fit neither the lifetime nor
	// the channel-select shape of this loop.
	//mpclint:ignore pooled-concurrency singleton epoch loop with process lifetime, joined by Stop via the done channel; not data-parallel fan-out
	go c.loop()
	return c
}

// Submit implements predict.SweepSubmit: hand one sweep request to the
// epoch loop. It never blocks — a full queue or a stopped coordinator
// returns false and the caller runs its direct path. On true, the loop
// sends exactly one value on req.Done after stamping req.OK.
func (c *Coordinator) Submit(req *predict.SweepRequest) bool {
	req.Submitted = time.Now()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.reject()
		return false
	}
	select {
	case c.q <- req:
		c.mu.Unlock()
		return true
	default:
		c.mu.Unlock()
		c.reject()
		return false
	}
}

// Stop shuts the coordinator down and waits for the epoch loop to
// drain: every request accepted before Stop still completes (a closed
// channel delivers its buffered requests before reporting closed), so
// no parked session is ever stranded. Idempotent.
func (c *Coordinator) Stop() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.q)
	}
	c.mu.Unlock()
	<-c.done
}

// Stats snapshots coordinator traffic. Counters are maintained by the
// loop goroutine and submit path; reads are monotonic-enough for
// debugging (no torn struct — each field is read once).
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Epochs:   c.nEpochs,
		Fused:    c.nFused,
		Declined: c.nDeclined,
		Rejected: c.nRejected,
		MaxFuse:  c.maxFuse,
		WindowUS: int64(c.window / time.Microsecond),
	}
}

func (c *Coordinator) reject() {
	c.mu.Lock()
	c.nRejected++
	c.mu.Unlock()
	if c.rejected != nil {
		c.rejected.Inc()
	}
}

// loop is the phase-switching epoch loop: block for the first request,
// collect co-arrivals for at most the window (or until maxFuse), run
// the fused epoch, repeat until the queue closes and drains.
func (c *Coordinator) loop() {
	defer close(c.done)
	timer := time.NewTimer(c.window)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		first, ok := <-c.q
		if !ok {
			return
		}
		c.reqs = append(c.reqs[:0], first)
		c.collect(timer)
		c.runEpoch()
	}
}

// collect fills c.reqs up to maxFuse, waiting at most the window for
// stragglers. A closed queue ends collection early (buffered requests
// still drain into this or subsequent epochs).
func (c *Coordinator) collect(timer *time.Timer) {
	timer.Reset(c.window)
	defer func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}()
	for len(c.reqs) < c.maxFuse {
		select {
		case req, ok := <-c.q:
			if !ok {
				return
			}
			c.reqs = append(c.reqs, req)
		case <-timer.C:
			return
		}
	}
}

// runEpoch groups the collected requests by (model, space), fuses each
// group through its plan, and signals every request. Requests without a
// servable plan are declined (OK=false) and their sessions fall back to
// the direct path.
func (c *Coordinator) runEpoch() {
	reqs := c.reqs
	c.observeEpoch(len(reqs))
	for len(reqs) > 0 {
		lead := reqs[0]
		group := c.group[:0]
		rest := reqs[:0]
		for _, r := range reqs {
			if len(group) < c.maxFuse && r.Model == lead.Model && r.Space.Equal(lead.Space) {
				group = append(group, r)
			} else {
				rest = append(rest, r)
			}
		}
		c.runGroup(group)
		reqs = rest
	}
	c.reqs = c.reqs[:0]
}

// runGroup stages and executes one (model, space) group through its
// fused plan, stamps the epoch timing into each request, and unparks
// the submitters. After a request's Done send the coordinator never
// touches it again.
func (c *Coordinator) runGroup(group []*predict.SweepRequest) {
	pl := c.planFor(group[0])
	if pl == nil {
		c.decline(group)
		return
	}
	for i, r := range group {
		pl.p.Stage(i, r.CS)
		pl.dsts[i] = r.Dst
	}
	t0 := time.Now()
	pl.p.Execute(len(group), pl.dsts)
	evalNS := time.Since(t0).Nanoseconds()
	c.mu.Lock()
	c.nEpochs++
	c.nFused += uint64(len(group))
	c.mu.Unlock()
	if c.epochs != nil {
		c.epochs.Inc()
		c.fused.Add(float64(len(group)))
	}
	for i, r := range group {
		pl.dsts[i] = nil
		if c.waitUS != nil {
			c.waitUS.Observe(float64(t0.Sub(r.Submitted)) / float64(time.Microsecond))
		}
		r.EvalStart = t0
		r.EvalNS = evalNS
		r.OK = true
		r.Done <- struct{}{}
	}
}

// decline signals a group the coordinator cannot serve; each session
// falls back to its direct path.
func (c *Coordinator) decline(group []*predict.SweepRequest) {
	c.mu.Lock()
	c.nDeclined += uint64(len(group))
	c.mu.Unlock()
	for _, r := range group {
		if c.declined != nil {
			c.declined.Inc()
		}
		r.OK = false
		r.Done <- struct{}{}
	}
}

// observeEpoch records the epoch's fuse width.
func (c *Coordinator) observeEpoch(n int) {
	if c.epochReq != nil {
		c.epochReq.Observe(float64(n))
	}
}

// planFor returns the cached plan serving req's (model, space),
// building and caching one on miss (move-to-front, small bound — the
// steady state is one or two live model generations over one space).
func (c *Coordinator) planFor(req *predict.SweepRequest) *plan {
	for i, pl := range c.plans {
		if pl.p.Serves(req.Model, req.Space) {
			if i > 0 {
				copy(c.plans[1:i+1], c.plans[:i])
				c.plans[0] = pl
			}
			return pl
		}
	}
	fp := predict.NewFusedPlan(req.Model, req.Space, c.maxFuse)
	if fp == nil {
		return nil
	}
	pl := &plan{p: fp, dsts: make([][]predict.Estimate, c.maxFuse)}
	const maxPlans = 4
	if len(c.plans) < maxPlans {
		c.plans = append(c.plans, nil)
	}
	copy(c.plans[1:], c.plans)
	c.plans[0] = pl
	return pl
}
