package main

import (
	"math/rand"
	"time"
)

// The host this benchmark was sized on is a shared 2-CPU VM whose speed
// drifts by ±30% over minutes: the process CPU time of a decision drifts
// with it, so neither wall nor CPU time is steady across runs. Every
// wall- and CPU-time metric is therefore divided by the host's speed,
// measured next to it by a fixed probe that shares no code with the
// program: a walk down a synthetic decision tree, the same kind of
// memory-latency-bound work as the forest descents that dominate a
// decision. A time is reported as it would read on a host where the
// probe takes refProbeNS per descent; the raw figures are logged.

// refProbeNS is the probe's ns per descent on the reference host (the
// 2-CPU VM when quiet). It is a fixed constant, so normalized metrics
// stay comparable across runs and commits.
const refProbeNS = 150.0

// probeNode is one node of the probe tree; a negative left child marks
// a leaf.
type probeNode struct {
	thr         float64
	feat        int32
	left, right int32
}

// hostSpeedProbe is the fixed probe workload: a complete binary tree of
// 2^18 nodes in breadth-first order (6 MiB, so deep levels miss the
// caches) and 4096 feature rows descended 40 times.
type hostSpeedProbe struct {
	tree []probeNode
	rows [][8]float64
	sink float64
}

func newHostSpeedProbe() *hostSpeedProbe {
	rng := rand.New(rand.NewSource(7))
	const n = 1 << 18
	p := &hostSpeedProbe{tree: make([]probeNode, n), rows: make([][8]float64, 4096)}
	for i := range p.tree {
		l, r := int32(2*i+1), int32(2*i+2)
		if int(r) >= n {
			l, r = -1, -1
		}
		p.tree[i] = probeNode{thr: rng.Float64(), feat: int32(rng.Intn(8)), left: l, right: r}
	}
	for i := range p.rows {
		for j := range p.rows[i] {
			p.rows[i][j] = rng.Float64()
		}
	}
	return p
}

// nsPerDescent runs the probe once (about 25 ms on the reference host)
// and returns its ns per descent.
func (p *hostSpeedProbe) nsPerDescent() float64 {
	start := time.Now()
	n := 0
	for rep := 0; rep < 40; rep++ {
		for _, x := range p.rows {
			i := int32(0)
			for p.tree[i].left >= 0 {
				nd := &p.tree[i]
				if x[nd.feat] < nd.thr {
					i = nd.left
				} else {
					i = nd.right
				}
			}
			p.sink += p.tree[i].thr
			n++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// atRef scales a time measured while the probe took probeNS to the
// reference host.
func atRef(t, probeNS float64) float64 { return t * refProbeNS / probeNS }
