package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/ranging"
	"repro/internal/shapes"
)

// batchSpec describes a batch workload: how its networks are deployed and
// measured, the detection config each op runs, and the independently
// configured engine its output check compares against.
type batchSpec struct {
	// networks is how many networks a run deploys; each deployment is
	// one set-up, and ops cycle over the networks.
	networks int
	deploy   func(nodes float64) (*netgen.Network, error)
	// errFrac is the uniform additive ranging error as a fraction of the
	// radio range; 0 runs on true coordinates without a measurement.
	errFrac float64
	// surfaces adds mesh.BuildAllContext to the op.
	surfaces bool
	cfg      core.Config
	ref      core.Config
}

// batchMDS is the paper's headline experiment: the Fig. 1 network under
// 20 % ranging error, detected on local MDS frames. The check engine is
// the sharded path with two shards.
var batchMDS = batchSpec{
	networks: 3,
	deploy:   scenarioDeploy(eval.Fig1),
	errFrac:  0.2,
	surfaces: true,
	ref:      core.Config{Shards: 2},
}

// batchTrue is the Fig. 8 network (two holes, three boundary groups) on
// true coordinates through the default unsharded engine. The check engine
// is the sharded path with two shards.
var batchTrue = batchSpec{
	networks: 3,
	deploy:   scenarioDeploy(eval.Fig8),
	surfaces: true,
	ref:      core.Config{Shards: 2},
}

// batchSharded is a ball deployment at the sharded-engine bench density,
// detected with 16 spatial shards. The check engine is the unsharded
// pipeline. Its op leaves out surface construction: the ball's one
// 7000-node group takes three times as long to mesh as to detect, and that
// time moves by a third with the node order, which would bury the shard
// engine this workload exists to measure.
var batchSharded = batchSpec{
	networks: 3,
	deploy:   ballDeploy,
	cfg:      core.Config{Shards: 16},
	ref:      core.Config{},
}

func runBatchMDS(ctx context.Context, rc runConfig) (*outcome, error) {
	return runBatch(ctx, rc, batchMDS)
}

func runBatchTrue(ctx context.Context, rc runConfig) (*outcome, error) {
	return runBatch(ctx, rc, batchTrue)
}

func runBatchSharded(ctx context.Context, rc runConfig) (*outcome, error) {
	return runBatch(ctx, rc, batchSharded)
}

// netSeed derives the seed of a run's i-th input from the run seed.
func netSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// scenarioDeploy deploys one of the paper's scenarios with its own fixed
// seed, so every run sees the paper's network (scaled down when nodes < 1).
func scenarioDeploy(mk func() eval.Scenario) func(float64) (*netgen.Network, error) {
	return func(nodes float64) (*netgen.Network, error) {
		s := mk()
		if nodes < 1 {
			s = s.Scaled(nodes)
		}
		return s.Generate()
	}
}

// Ball deployment at the density of the sharded-engine bench fixture
// (100 000 nodes in a radius-20 ball, expected degree 14): the radio range
// is set analytically, and the ball radius shrinks with the node count so
// the density stays fixed. The deployment seed is the fixture's.
const (
	ballNodes      = 30_000
	ballRefNodes   = 100_000
	ballRefRadius  = 20.0
	ballDegree     = 14.0
	ballSurfaceDiv = 5 // one node in five sits on the surface
	ballSeed       = 2026
)

func ballDeploy(nodes float64) (*netgen.Network, error) {
	n := int(ballNodes * nodes)
	bigR := ballRefRadius * math.Cbrt(float64(n)/ballRefNodes)
	return netgen.Generate(netgen.Config{
		Shape:         shapes.NewBall(geom.Zero, bigR),
		SurfaceNodes:  n / ballSurfaceDiv,
		InteriorNodes: n - n/ballSurfaceDiv,
		Radius:        ballRefRadius * math.Cbrt(ballDegree/ballRefNodes),
		Seed:          ballSeed,
	})
}

// relabel returns net with its node IDs shuffled by a seeded permutation:
// the same deployment, presented to the program in another order.
func relabel(net *netgen.Network, seed int64) (*netgen.Network, error) {
	perm := relabelPerm(seed, net.Len())
	nodes := make([]netgen.Node, len(perm))
	for i, old := range perm {
		nodes[i] = net.Nodes[old]
	}
	return netgen.Assemble(nodes, net.Radius)
}

// relabelPerm is relabel's permutation: new node i is old node perm[i].
func relabelPerm(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// deployInput is one set-up: deploy the workload's network, then relabel
// it under the input's seed.
func deployInput(deploy func(float64) (*netgen.Network, error), seed int64, nodes float64) (*netgen.Network, error) {
	net, err := deploy(nodes)
	if err != nil {
		return nil, err
	}
	return relabel(net, seed)
}

// batchInput is one deployed network and everything measured on it.
type batchInput struct {
	net   *netgen.Network
	meas  *netgen.Measurement
	truth []bool

	// first is the first op's result; every later op on this network must
	// reproduce it, and the output check compares it with the reference
	// engine.
	first *core.Result
	cls   metrics.Classification

	opS, detectS    []float64 // untraced op timings
	tracedOpS       []float64
	layers          []map[string]float64 // per traced op
	allocMB, allocs []float64            // per untraced op, traced runs only
}

// runBatch runs one batch workload: deploy the networks (set-up), time
// detect + surfaces + classify ops over them for the run's duration, then
// check every op's output.
func runBatch(ctx context.Context, rc runConfig, spec batchSpec) (*outcome, error) {
	inputs := make([]*batchInput, spec.networks)
	var setupS, genS, measS []float64
	for i := range inputs {
		t0 := time.Now()
		net, err := deployInput(spec.deploy, netSeed(rc.seed, i), rc.nodes)
		if err != nil {
			return nil, fmt.Errorf("deploy network %d: %w", i, err)
		}
		genS = append(genS, sinceS(t0))
		in := &batchInput{net: net, truth: net.TrueBoundary()}
		if spec.errFrac > 0 {
			t1 := time.Now()
			in.meas = net.Measure(ranging.UniformAdditive{Fraction: spec.errFrac}, netSeed(rc.seed, i))
			measS = append(measS, sinceS(t1))
		}
		setupS = append(setupS, sinceS(t0))
		inputs[i] = in
	}

	out := &outcome{metrics: map[string]float64{}, notes: map[string]any{}}
	minOps := len(inputs)
	if rc.trace {
		minOps *= 2
	}
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	for op := 0; op < minOps || time.Now().Before(deadline); op++ {
		in := inputs[op%len(inputs)]
		// Traced runs alternate whole cycles over the networks between
		// untraced and traced ops, so both see every network.
		traced := rc.trace && (op/len(inputs))%2 == 1
		out.attempted++
		if err := batchOp(ctx, spec, in, traced, rc.trace); err != nil {
			out.failed++
			out.checkErr = firstErr(out.checkErr, err)
		}
	}
	rss := maxRSSMB()

	// Output checks, outside every timed region: the reference engine on
	// each network must reproduce the verdicts and groups the ops served.
	for i, in := range inputs {
		if in.first == nil {
			continue
		}
		if rc.corrupt {
			in.first.Boundary[0] = !in.first.Boundary[0]
		}
		ref, err := core.DetectContext(ctx, nil, in.net, in.meas, spec.ref)
		if err != nil {
			return nil, fmt.Errorf("reference detect on network %d: %w", i, err)
		}
		if err := compareResults(in.first, ref); err != nil {
			out.failed++
			out.checkErr = firstErr(out.checkErr, fmt.Errorf("network %d vs reference engine: %w", i, err))
		}
	}

	out.notes["networks"] = len(inputs)
	out.notes["nodes"] = inputs[0].net.Len()
	if !rc.trace {
		batchEndToEnd(out, inputs, setupS, rss)
		return out, nil
	}
	batchPerLayer(ctx, out, spec, inputs, genS, measS)
	return out, nil
}

// batchOp runs and times one op on one network. A traced op records spans
// and counters into an obs.Mem; an untraced op of a traced run records
// detection allocations instead.
func batchOp(ctx context.Context, spec batchSpec, in *batchInput, traced, traceRun bool) error {
	var mem *obs.Mem
	var o obs.Observer
	if traced {
		mem = &obs.Mem{}
		o = mem
	}
	var ms0, ms1 runtime.MemStats
	countAllocs := traceRun && !traced
	if countAllocs {
		runtime.ReadMemStats(&ms0)
	}

	t0 := time.Now()
	res, err := core.DetectContext(ctx, o, in.net, in.meas, spec.cfg)
	if err != nil {
		return fmt.Errorf("detect: %w", err)
	}
	detectS := sinceS(t0)
	if countAllocs {
		runtime.ReadMemStats(&ms1)
	}
	var meshS float64
	if spec.surfaces {
		t1 := time.Now()
		if _, err := mesh.BuildAllContext(ctx, o, in.net.G, res.Groups, mesh.Config{K: 3}); err != nil {
			return fmt.Errorf("mesh: %w", err)
		}
		meshS = sinceS(t1)
	}
	t2 := time.Now()
	cls, err := metrics.Classify(in.truth, res.Boundary)
	if err != nil {
		return fmt.Errorf("classify: %w", err)
	}
	opS := detectS + meshS + sinceS(t2)

	switch {
	case traced:
		in.tracedOpS = append(in.tracedOpS, opS)
		l := detectLayers(mem)
		mergeInto(l, meshLayers(mem))
		in.layers = append(in.layers, l)
	default:
		in.opS = append(in.opS, opS)
		in.detectS = append(in.detectS, detectS)
	}
	if countAllocs {
		in.allocMB = append(in.allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		in.allocs = append(in.allocs, float64(ms1.Mallocs-ms0.Mallocs))
	}

	if in.first == nil {
		in.first, in.cls = res, cls
		return nil
	}
	if err := compareResults(res, in.first); err != nil {
		return fmt.Errorf("op diverged from the first op on its network: %w", err)
	}
	return nil
}

// batchEndToEnd fills the end-to-end metrics of an untraced batch run.
// Timings are each network's median, averaged over the networks.
func batchEndToEnd(out *outcome, inputs []*batchInput, setupS []float64, rss float64) {
	var ops, det [][]float64
	var cls metrics.Classification
	for _, in := range inputs {
		ops = append(ops, in.opS)
		det = append(det, in.detectS)
		cls = addClassification(cls, in.cls)
	}
	m := out.metrics
	m["setup_s"] = median(setupS)
	m["pipeline_s"] = meanOfMedians(ops)
	m["precision"] = cls.Precision()
	m["recall"] = cls.Recall()
	m["update_p50_ms"] = ms(meanOfMedians(det))
	m["max_rss_mb"] = rss
}

// addClassification sums two confusion counts.
func addClassification(a, b metrics.Classification) metrics.Classification {
	a.Nodes += b.Nodes
	a.TrueBoundary += b.TrueBoundary
	a.Found += b.Found
	a.Correct += b.Correct
	a.Mistaken += b.Mistaken
	a.Missing += b.Missing
	return a
}

// meanOfMedians averages the medians of each sample list.
func meanOfMedians(lists [][]float64) float64 {
	meds := make([]float64, 0, len(lists))
	for _, xs := range lists {
		if len(xs) > 0 {
			meds = append(meds, median(slices.Clone(xs)))
		}
	}
	return meanOf(meds)
}

// batchPerLayer fills the per-layer metrics of a traced batch run.
func batchPerLayer(ctx context.Context, out *outcome, spec batchSpec, inputs []*batchInput, genS, measS []float64) {
	m := out.metrics
	m["netgen.generate_s"] = median(genS)
	m["netgen.measure_s"] = median(measS)

	perNet := make([]map[string]float64, 0, len(inputs))
	var traced, untraced, allocMB, allocs, rmsd [][]float64
	for _, in := range inputs {
		if len(in.layers) > 0 {
			perNet = append(perNet, medianByKey(in.layers))
		}
		traced = append(traced, in.tracedOpS)
		untraced = append(untraced, in.opS)
		allocMB = append(allocMB, in.allocMB)
		allocs = append(allocs, in.allocs)
		if in.first != nil && in.first.CoordError != nil {
			rmsd = append(rmsd, []float64{meanOf(in.first.CoordError) / in.net.Radius})
		}
	}
	for k := range perNet[0] {
		var xs []float64
		for _, p := range perNet {
			xs = append(xs, p[k])
		}
		m[k] = meanOf(xs)
	}
	m["mds.frame_rmsd"] = meanOfMedians(rmsd)
	m["core.detect.alloc_mb"] = meanOfMedians(allocMB)
	m["core.detect.allocs"] = meanOfMedians(allocs)
	if u := meanOfMedians(untraced); u > 0 {
		m["trace_overhead"] = meanOfMedians(traced)/u - 1
	}
	if out.attempted > 0 {
		m["failed_frac"] = float64(out.failed) / float64(out.attempted)
	}

	// Parallel efficiency of the sharded engine: one detection at a
	// single worker against the run's median at GOMAXPROCS workers.
	if spec.cfg.Shards > 1 && len(inputs[0].detectS) > 0 {
		cfg := spec.cfg
		cfg.Workers = 1
		t0 := time.Now()
		if _, err := core.DetectContext(ctx, nil, inputs[0].net, inputs[0].meas, cfg); err == nil {
			one := sinceS(t0)
			many := median(slices.Clone(inputs[0].detectS))
			m["par.efficiency"] = one / (float64(runtime.GOMAXPROCS(0)) * many)
		}
	}
}

// compareResults reports the first difference between two detection
// results' boundary verdicts and groups.
func compareResults(got, want *core.Result) error {
	if len(got.Boundary) != len(want.Boundary) {
		return fmt.Errorf("%d verdicts, want %d", len(got.Boundary), len(want.Boundary))
	}
	for i := range want.Boundary {
		if got.Boundary[i] != want.Boundary[i] {
			return fmt.Errorf("node %d boundary verdict %v, want %v", i, got.Boundary[i], want.Boundary[i])
		}
	}
	if len(got.Groups) != len(want.Groups) {
		return fmt.Errorf("%d groups, want %d", len(got.Groups), len(want.Groups))
	}
	for g := range want.Groups {
		if !slices.Equal(got.Groups[g], want.Groups[g]) {
			return fmt.Errorf("group %d differs", g)
		}
	}
	return nil
}

func firstErr(have, err error) error {
	if have != nil {
		return have
	}
	return err
}
