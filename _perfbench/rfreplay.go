package main

import (
	"fmt"
	"math"
	"time"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/rf"
)

// rfReplay is the cost of the compiled forests alone, measured by
// replaying rows the traced phase captured at the predictor boundary
// straight into rf.CompiledForest. A row is one configuration estimate:
// one time-forest and one power-forest evaluation.
type rfReplay struct {
	scalarNSPerRow float64 // CompiledForest.Predict, one row at a time
	batchNSPerRow  float64 // PredictBatchKeysInto over 336-row blocks
	nodes          int     // both forests
	probeNS        float64 // host-speed probe around the replay
}

// featuresInto writes the predictor's feature row for (cs, c): the
// log-compressed counters, then the configuration features. It must
// match predict's own featurization bit for bit; replayForests checks
// that it does against the model's estimates.
func featuresInto(x []float64, cs counters.Set, c hw.Config) {
	for i, v := range cs {
		x[i] = math.Log1p(math.Max(0, v))
	}
	n := counters.NumCounters
	x[n+0] = c.GPU.FreqGHz()
	x[n+1] = c.RailVoltage()
	x[n+2] = float64(c.CUs)
	x[n+3] = c.NB.FreqGHz()
	x[n+4] = c.NB.MemBWGBs()
	x[n+5] = predict.CPUPowerW(c.CPU)
}

// numFeatures is the predictor's row width.
const numFeatures = counters.NumCounters + 6

func instsOf(cs counters.Set) float64 {
	if insts := cs[counters.VALUInsts] * cs[counters.GlobalWorkSize]; insts > 0 {
		return insts
	}
	return 1
}

// estimateOf turns raw forest outputs into the model's estimate.
func estimateOf(cs counters.Set, t, p float64) predict.Estimate {
	return predict.Estimate{TimeMS: math.Exp(t) * instsOf(cs), GPUPowerW: p}
}

// replayForests times the captured rows through the compiled forests,
// each kernel until at least minRows rows ran, and reports the median
// over passes. Scalar rows are the captured PredictKernel inputs; a
// workload that made none (every served decision is a batched sweep)
// replays its captured sweeps one configuration at a time instead. Batch
// blocks are the captured PredictSpace inputs, or the counter sets of
// the scalar rows when no sweep was captured. Before timing, every
// replayed row is checked against the model's own estimate.
func replayForests(model *predict.RandomForest, acc *layerAcc, minRows int) (rfReplay, error) {
	tf, pf := model.CompiledForests()
	if tf == nil || pf == nil {
		return rfReplay{}, fmt.Errorf("rf replay: model has no compiled forests")
	}
	space := hw.DefaultSpace()
	cfgs := space.Configs()

	acc.mu.Lock()
	rows := append([]scalarRow(nil), acc.scalarRows...)
	sets := append([]counters.Set(nil), acc.spaceSets...)
	acc.mu.Unlock()
	if len(rows) == 0 {
		for _, cs := range sets {
			for _, c := range cfgs {
				if len(rows) == maxScalarRows {
					break
				}
				rows = append(rows, scalarRow{cs, c})
			}
		}
	}
	if len(sets) == 0 {
		seen := make(map[counters.Set]bool)
		for _, r := range rows {
			if !seen[r.cs] {
				seen[r.cs] = true
				sets = append(sets, r.cs)
			}
		}
	}
	sets = sets[:min(len(sets), maxSpaceSets)]
	if len(rows) == 0 || len(sets) == 0 {
		return rfReplay{}, fmt.Errorf("rf replay: the traced phase captured no predictor inputs")
	}

	// Scalar rows, checked against PredictKernel.
	X := make([]float64, len(rows)*numFeatures)
	for i, r := range rows {
		x := X[i*numFeatures : (i+1)*numFeatures]
		featuresInto(x, r.cs, r.cfg)
		got := estimateOf(r.cs, tf.Predict(x), pf.Predict(x))
		if want := model.PredictKernel(r.cs, r.cfg); got != want {
			return rfReplay{}, fmt.Errorf("rf replay: row %d estimate %+v, model says %+v", i, got, want)
		}
	}
	var sink float64
	scalar := timePasses(len(rows), minRows, func() {
		for i := range rows {
			x := X[i*numFeatures : (i+1)*numFeatures]
			sink += tf.Predict(x) + pf.Predict(x)
		}
	})

	// 336-row blocks, keyed once as the model's sweep arena keys them,
	// checked against PredictSpace.
	n := len(cfgs)
	keys := make([][]uint64, len(sets))
	tOut, pOut := make([]float64, n), make([]float64, n)
	want := make([]predict.Estimate, n)
	row := make([]float64, numFeatures)
	for s, cs := range sets {
		keys[s] = make([]uint64, n*numFeatures)
		for i, c := range cfgs {
			featuresInto(row, cs, c)
			rf.KeysInto(keys[s][i*numFeatures:(i+1)*numFeatures], row)
		}
		tf.PredictBatchKeysInto(tOut, keys[s])
		pf.PredictBatchKeysInto(pOut, keys[s])
		if !model.PredictSpace(cs, space, want) {
			return rfReplay{}, fmt.Errorf("rf replay: model declined a batched sweep")
		}
		for i := range want {
			if got := estimateOf(cs, tOut[i], pOut[i]); got != want[i] {
				return rfReplay{}, fmt.Errorf("rf replay: sweep %d row %d estimate %+v, model says %+v", s, i, got, want[i])
			}
		}
	}
	batch := timePasses(len(sets)*n, minRows, func() {
		for s := range keys {
			tf.PredictBatchKeysInto(tOut, keys[s])
			pf.PredictBatchKeysInto(pOut, keys[s])
			sink += tOut[0] + pOut[n-1]
		}
	})
	if math.IsNaN(sink) {
		return rfReplay{}, fmt.Errorf("rf replay: forests returned NaN")
	}
	return rfReplay{
		scalarNSPerRow: scalar,
		batchNSPerRow:  batch,
		nodes:          tf.NumNodes() + pf.NumNodes(),
	}, nil
}

// timePasses runs pass (rowsPerPass rows each) until at least minRows
// rows ran, in at least five passes, and returns the median ns per row
// over passes.
func timePasses(rowsPerPass, minRows int, pass func()) float64 {
	passes := max(5, (minRows+rowsPerPass-1)/rowsPerPass)
	per := make([]float64, passes)
	for i := range per {
		start := time.Now()
		pass()
		per[i] = float64(time.Since(start).Nanoseconds()) / float64(rowsPerPass)
	}
	return median(per)
}
