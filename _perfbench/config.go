package main

import (
	"fmt"
	"math/rand"

	"mpcdvfs"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/workload"
)

// Workload names.
const (
	servedZipf = "served-zipf"
	servedCold = "served-cold"
	steadyMPC  = "steady-mpc"
)

var workloadNames = []string{servedZipf, servedCold, steadyMPC}

func knownWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// modelSeed trains the predictor. It is fixed so that the workload seed
// reaches only the generated inputs, never the model.
const modelSeed = 1

// zipfS is the app-popularity skew of served-zipf.
const zipfS = 1.2

// sessions is the number of closed-loop client sessions on the served
// workloads: two per CPU of the 2-CPU host the benchmark was sized on,
// so both CPUs always have a decision queued. At one per CPU the
// per-round p50 flipped between two modes (about 0.9 and 1.7 ms) as the
// host's second CPU came and went.
const sessions = 4

// coldKernels and coldPool shape served-cold's random apps: 24 kernel
// invocations drawn from 6 random kernels, close to the suite's sizes.
const coldKernels, coldPool = 24, 6

// secondsPerRound is the nominal length of one timed round on a 2-CPU
// host; --seconds / secondsPerRound fixes the round count, so a run's
// work depends only on its arguments, never on how fast the host is.
const secondsPerRound = 2

// config sizes one benchmark run. Every count is fixed work.
type config struct {
	workload string
	seed     int64
	// rounds is the number of timed rounds; wall-clock metrics are the
	// median over rounds. The traced phase replays the first
	// tracedRounds of them: enough decisions for the layer means, while
	// the untraced phase keeps the rounds the wall-clock medians need.
	rounds, tracedRounds int
	// setups is how many times set-up runs; setup_s is the median.
	setups int
	// trainKernels is the training population (the full model uses
	// 150; 20 keeps set-up at a few seconds with the same forest shape).
	trainKernels int
	// roundDecisions is the work of one round: a round ends at the
	// first replay boundary at or past it.
	roundDecisions int
	// rfRows is the minimum number of rows each forest replay times.
	rfRows int
}

// newConfig returns the full-size configuration for a run.
func newConfig(wl string, seed int64, seconds int) config {
	rounds := max(3, (seconds+secondsPerRound-1)/secondsPerRound)
	c := config{
		workload:       wl,
		seed:           seed,
		rounds:         rounds,
		tracedRounds:   max(2, rounds/4),
		setups:         3,
		trainKernels:   20,
		roundDecisions: 3200,
		rfRows:         200000,
	}
	if wl == steadyMPC {
		c.roundDecisions = 24000
	}
	return c
}

// shortConfig is a small configuration for the package's own tests.
func shortConfig(wl string, seed int64) config {
	c := newConfig(wl, seed, 1)
	c.rounds, c.tracedRounds, c.setups, c.trainKernels, c.rfRows = 2, 2, 1, 3, 2000
	c.roundDecisions = 150
	if wl == steadyMPC {
		c.roundDecisions = 600
	}
	return c
}

// replay is one application run of the timed phase, against its Turbo
// Core baseline.
type replay struct {
	app    *workload.App
	base   *sim.Result
	target sim.Target
}

// schedule builds each round's replays from the workload seed, and
// returns them with every distinct app's replay by app name. Baselines
// are computed once per distinct app, as part of set-up.
func schedule(cfg config, sys *mpcdvfs.System) ([][]replay, map[string]replay, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	known := make(map[string]replay)
	get := func(app *workload.App) (replay, error) {
		if r, ok := known[app.Name]; ok {
			return r, nil
		}
		base, target, err := sys.Baseline(app)
		if err != nil {
			return replay{}, fmt.Errorf("baseline %s: %w", app.Name, err)
		}
		r := replay{app: app, base: base, target: target}
		known[app.Name] = r
		return r, nil
	}

	var next func(round, i int) *workload.App
	switch cfg.workload {
	case servedZipf:
		apps := workload.Benchmarks()
		z := rand.NewZipf(rng, zipfS, 1, uint64(len(apps)-1))
		next = func(int, int) *workload.App { return &apps[z.Uint64()] }
	case servedCold:
		next = func(round, i int) *workload.App {
			app := workload.RandomApp(fmt.Sprintf("cold-%d-%d", round, i), rng, coldPool, coldKernels)
			return &app
		}
	case steadyMPC:
		// Round-robin over the suite in a seeded order; the stream runs
		// on across round boundaries, so the seed also decides which
		// apps the last, partial pass replays.
		apps := workload.Benchmarks()
		order := rng.Perm(len(apps))
		pos := 0
		next = func(int, int) *workload.App {
			a := &apps[order[pos%len(order)]]
			pos++
			return a
		}
	default:
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}

	rounds := make([][]replay, cfg.rounds)
	for r := range rounds {
		decisions := 0
		for i := 0; decisions < cfg.roundDecisions; i++ {
			rp, err := get(next(r, i))
			if err != nil {
				return nil, nil, err
			}
			rounds[r] = append(rounds[r], rp)
			decisions += rp.app.Len()
		}
	}
	return rounds, known, nil
}
