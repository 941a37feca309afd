package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"mpcdvfs"
	"mpcdvfs/internal/cli"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/par"
	"mpcdvfs/internal/policy"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/serve"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/telemetry"
)

// env is everything one set-up builds: the trained model, the seeded
// schedule with its baselines, and, per workload, the decision server
// or the profiled steady-state policies.
type env struct {
	cfg    config
	probe  *hostSpeedProbe
	model  *predict.RandomForest
	sys    *mpcdvfs.System
	rounds [][]replay
	apps   map[string]replay // every distinct app of the schedule

	srv *server                // served workloads
	mpc map[string]*policy.MPC // steady-mpc: one profiled MPC per app
}

// setupTimes is one set-up's wall time by phase, with the host-speed
// probe's mean ns per descent around it (filled in by the caller).
type setupTimes struct {
	train, baseline, server, warmup time.Duration
	probeNS                         float64
}

func (t setupTimes) total() time.Duration { return t.train + t.baseline + t.server + t.warmup }

// setUp trains the model, builds the schedule and baselines, starts the
// server (served workloads) and warms up: served workloads replay one
// app per session, steady-mpc profiles every app's MPC (its first run).
func setUp(cfg config, probe *hostSpeedProbe) (*env, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	opt := predict.DefaultTrainOptions(modelSeed)
	opt.NumKernels = cfg.trainKernels
	opt.Workers = 1
	model, err := predict.TrainRandomForest(opt)
	if err != nil {
		return nil, t, fmt.Errorf("train: %w", err)
	}
	t.train = time.Since(start)

	start = time.Now()
	e := &env{cfg: cfg, probe: probe, model: model, sys: mpcdvfs.NewSystem()}
	e.rounds, e.apps, err = schedule(cfg, e.sys)
	if err != nil {
		return nil, t, err
	}
	t.baseline = time.Since(start)

	if cfg.workload == steadyMPC {
		start = time.Now()
		e.mpc = make(map[string]*policy.MPC, len(e.apps))
		for name, rp := range e.apps {
			m := e.sys.NewMPC(model)
			if _, err := e.sys.Run(rp.app, m, rp.target, true); err != nil {
				return nil, t, fmt.Errorf("profile %s: %w", name, err)
			}
			e.mpc[name] = m
		}
		t.warmup = time.Since(start)
		return e, t, nil
	}

	start = time.Now()
	e.srv, err = startServer(e.sys, model, nil)
	if err != nil {
		return nil, t, err
	}
	t.server = time.Since(start)

	start = time.Now()
	warm := make([]replay, sessions)
	for i := range warm {
		warm[i] = e.rounds[0][i%len(e.rounds[0])]
	}
	for _, o := range e.servedRound(e.srv, warm, nil, nil).outcomes {
		if o.failed {
			e.srv.close()
			return nil, t, fmt.Errorf("warm-up: served replay of %s failed", o.app)
		}
	}
	t.warmup = time.Since(start)
	return e, t, nil
}

// close stops the env's server, if it has one.
func (e *env) close() {
	if e.srv != nil {
		e.srv.close()
	}
}

// modelFingerprint hashes the model's estimates at a fixed probe, so
// repeated set-ups can be checked to train the same model.
func modelFingerprint(m predict.Model) uint64 {
	h := newHasher()
	for _, app := range mpcdvfs.Benchmarks() {
		for _, c := range []hw.Config{hw.FailSafe(), hw.MaxPerf()} {
			est := m.PredictKernel(app.Kernels[0].Counters(), c)
			h.float(est.TimeMS)
			h.float(est.GPUPowerW)
		}
	}
	return h.sum()
}

// server is a self-hosted decision server on loopback HTTP.
type server struct {
	decider *serve.Server
	ts      *httptest.Server
}

func (s *server) close() {
	s.decider.Shutdown()
	s.ts.Close()
}

// startServer builds the decision server exactly as cmd/mpcserve does by
// default: one metrics registry, a telemetry hub with sampling off, the
// default MPC policy per session, and no batching, prediction cache or
// continuous learning. With acc set, the traced variant wraps the
// handler in acc's middleware and every session's policy and model in
// probes; the server is otherwise identical.
func startServer(sys *mpcdvfs.System, model *predict.RandomForest, acc *layerAcc) (*server, error) {
	reg := metrics.New()
	par.Instrument(reg)
	hub := telemetry.NewHub(telemetry.Options{Sample: 0})
	hub.Instrument(reg)
	newPolicy := func(m predict.Model) sim.Policy { return sys.NewMPC(m) }
	if acc != nil {
		newPolicy = func(m predict.Model) sim.Policy {
			start := time.Now()
			mp := newModelProbe(m, acc)
			p := &policyProbe{inner: sys.NewMPC(mp), model: mp, acc: acc}
			p.pendingNS = int64(time.Since(start))
			return p
		}
	}
	decider, err := serve.New(serve.Config{
		Model:      model,
		Tag:        fmt.Sprintf("trained seed=%d", modelSeed),
		NewPolicy:  newPolicy,
		QueueDepth: serve.DefaultQueueDepth,
		Telemetry:  hub,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	decider.Instrument(reg)
	model.InstrumentArenaPool(reg)

	var h http.Handler = decider.Handler()
	if acc != nil {
		h = acc.middleware(h)
	}
	mux := cli.NewObsMux(reg)
	for _, p := range []string{"/v1/", "/reload", "/debug/mpc", "/debug/models", "/debug/trace"} {
		mux.Handle(p, h)
	}
	return &server{decider: decider, ts: httptest.NewServer(mux)}, nil
}
