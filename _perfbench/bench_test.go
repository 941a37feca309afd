package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// exactEndToEnd are the simulated end-to-end metrics: functions of the
// model and the seeded inputs only, never of timing.
var exactEndToEnd = []string{"energy_savings_pct", "speedup", "target_miss_pct"}

// exactPerLayer are the per-layer counts, which the fixed work of a run
// determines exactly.
var exactPerLayer = []string{
	"policy.horizon_mean", "policy.fallbacks",
	"core.evals_per_decision", "core.search_iters_per_decision",
	"predict.kernel_calls_per_decision", "predict.space_calls_per_decision",
	"serve.requests_per_decision", "serve.retries_429", "rf.nodes",
}

// spec is the part of BENCHMARK.json the test checks against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDeterminism runs every workload twice with one seed and once with
// another, traced, so both metric sets are produced. The exact metrics
// must repeat under the same seed and change under the other, which
// proves the seed reaches the generated inputs; every named metric must
// be present with its unit. -short runs a small configuration.
func TestDeterminism(t *testing.T) {
	s := loadSpec(t)
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			cfg := func(seed int64) config {
				if testing.Short() {
					return shortConfig(wl, seed)
				}
				return newConfig(wl, seed, 10)
			}
			runs := make([]*result, 3)
			for i, seed := range []int64{1, 1, 2} {
				res, err := benchmark(cfg(seed), true, io.Discard)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.correct || res.failed != 0 || res.attempted < 1 {
					t.Fatalf("seed %d: correct=%v attempted=%d failed=%d", seed, res.correct, res.attempted, res.failed)
				}
				runs[i] = res
			}

			for _, m := range s.EndToEnd {
				checkPresent(t, runs[0].endToEnd, m.Name, m.Unit)
			}
			for _, m := range s.PerLayer {
				checkPresent(t, runs[0].perLayer, m.Name, m.Unit)
			}

			changed := false
			for _, name := range exactEndToEnd {
				a, b, c := runs[0].endToEnd[name].Value, runs[1].endToEnd[name].Value, runs[2].endToEnd[name].Value
				if a != b {
					t.Errorf("%s: %v then %v under the same seed", name, a, b)
				}
				changed = changed || a != c
			}
			if !changed {
				t.Errorf("no exact metric changed under another seed: %v", exactEndToEnd)
			}
			for _, name := range exactPerLayer {
				if a, b := runs[0].perLayer[name].Value, runs[1].perLayer[name].Value; a != b {
					t.Errorf("%s: %v then %v under the same seed", name, a, b)
				}
			}
		})
	}
}

func checkPresent(t *testing.T, ms map[string]metric, name, unit string) {
	t.Helper()
	m, ok := ms[name]
	if !ok {
		t.Errorf("metric %s missing", name)
		return
	}
	if m.Unit != unit {
		t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
	}
}

// TestRejectsBadArguments checks that a bad invocation fails without
// printing a result.
func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", servedZipf, "--trace", "2"},
		{"--workload", servedZipf, "--seconds", "0"},
		{"--bogus"},
	} {
		var out strings.Builder
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
