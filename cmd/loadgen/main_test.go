package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mpcdvfs/internal/serve"
	"mpcdvfs/internal/telemetry"
)

// TestPhaseAttributionPerMode runs a traced, batched A/B sweep with a
// GOMAXPROCS sweep in front of it and checks that every level of every
// mode is charged exactly its own spans: with every decision traced,
// each level's decide-span count equals the decisions that level made,
// and a direct level (coordinator gate down) carries no batch spans.
func TestPhaseAttributionPerMode(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	o := options{
		appName:      "Spmv",
		levelsFlag:   "2",
		cpusFlag:     "1,2",
		replays:      1,
		polName:      "mpc",
		seed:         3,
		queueDepth:   serve.DefaultQueueDepth,
		traceSample:  1,
		batch:        true,
		out:          out,
		trainKernels: 12,
	}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	var levels []levelReport
	for _, e := range rep.CPUSweep {
		levels = append(levels, e.Levels...)
	}
	// Two GOMAXPROCS settings × one session level × direct and batched.
	if len(levels) != 4 {
		t.Fatalf("report holds %d cpu-sweep levels, want 4", len(levels))
	}
	for i, lr := range levels {
		if lr.Decisions == 0 {
			t.Fatalf("level %d made no decisions", i)
		}
		if got := lr.Phases[telemetry.SpanDecide].Count; got != lr.Decisions {
			t.Errorf("level %d (batched=%v): %d decide spans for %d decisions", i, lr.Batched, got, lr.Decisions)
		}
		if lr.Batched {
			continue
		}
		for _, name := range []string{telemetry.SpanBatchWait, telemetry.SpanBatchEval} {
			if n := lr.Phases[name].Count; n != 0 {
				t.Errorf("direct level %d charged %d %s spans", i, n, name)
			}
		}
	}
}
