package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mds"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/sim"
)

// CoordSource selects how each node obtains the local coordinates UBF
// consumes.
type CoordSource int

const (
	// CoordsMDS builds a local frame per node from measured one-hop
	// distances via MDS — Algorithm 1 step (I), the paper's default.
	CoordsMDS CoordSource = iota + 1
	// CoordsTrue uses ground-truth positions, the "all nodes have known
	// their coordinates" shortcut the paper allows; equivalent to
	// error-free ranging and used as the oracle ablation.
	CoordsTrue
)

// Scope selects how far a node's knowledge of other nodes reaches when it
// judges candidate balls empty.
type Scope int

const (
	// ScopeTwoHop judges emptiness against the two-hop neighborhood.
	// A candidate unit ball touching a node reaches out to 2r from it,
	// so this is the knowledge the paper's Lemma 1 / Theorem 1 analysis
	// assumes ("neighbors within 2r", Θ(ρ) nodes per ball). Under
	// CoordsMDS the two-hop positions are obtained by stitching each
	// neighbor's one-hop MDS frame onto the node's own frame via rigid
	// registration over their shared members (the MDS-MAP(P) patch
	// technique). One extra beacon exchange keeps this localized. This
	// is the pipeline default.
	ScopeTwoHop Scope = iota + 1
	// ScopeOneHop is Algorithm 1 verbatim: only the one-hop neighborhood
	// is known, so the outer half of every candidate ball is invisible.
	// This over-detects interior nodes in sparse pockets (the paper
	// leans on IFF to remove them); it is kept as an ablation.
	ScopeOneHop
)

// Config parameterizes the detection pipeline. The zero value selects the
// paper's defaults.
type Config struct {
	// BallRadiusFactor scales the unit-ball radius relative to the radio
	// range: r = BallRadiusFactor·(1+Epsilon)·R. The zero value means 1
	// (Definition 4's unit ball). Larger values detect only larger holes
	// (Sec. II-A3).
	BallRadiusFactor float64
	// Epsilon is Definition 4's arbitrarily small ε. Zero means 1e-9.
	Epsilon float64
	// InteriorTolerance is the strict-interior slack, relative to the
	// ball radius, below which a node counts as touching rather than
	// inside. Zero means 1e-9.
	InteriorTolerance float64

	// Coords selects the coordinate source. Zero means CoordsMDS when a
	// measurement is supplied to Detect and CoordsTrue otherwise.
	Coords CoordSource
	// Scope selects the emptiness-knowledge scope. Zero means
	// ScopeTwoHop.
	Scope Scope
	// MDS configures local-frame construction under CoordsMDS. A zero
	// SmacofIterations is upgraded to 40 refinement sweeps.
	MDS mds.Options
	// MinSharedForStitch is the minimum number of shared members needed
	// to register a neighbor's frame during two-hop stitching. Zero
	// means 4 (three points fix a rigid motion; one more adds
	// redundancy against noise).
	MinSharedForStitch int
	// MaxBorderline caps, under adaptive tolerances, how many
	// "possible occupants" (points inside a candidate ball's nominal
	// surface but within their own uncertainty band) an empty ball may
	// carry. The zero value disables the cap — experiments showed it
	// trades away far too much recall under heavy ranging noise — but
	// it remains available for precision-critical deployments. Negative
	// also disables; ignored under CoordsTrue.
	MaxBorderline int
	// AdaptiveTolFactor scales the node's locally observable coordinate
	// uncertainty into an additional strict-interior tolerance: under
	// noisy coordinates a node only counts as inside a candidate ball
	// when it is deeper than the local uncertainty. The uncertainty
	// estimate is the mean rigid-registration RMSD against the
	// neighbors' frames under ScopeTwoHop (inter-frame inconsistency),
	// falling back to the frame's own measured-distance residual
	// (mds.ResidualRMS) under ScopeOneHop. Zero means 1; negative
	// disables adaptation. Irrelevant under CoordsTrue, where the
	// uncertainty is zero. The default 0.5 balances missed boundary
	// nodes (tolerance too small: phantom stitched positions block
	// genuinely empty balls) against mistaken interior nodes (tolerance
	// too large:true occupants get discounted).
	AdaptiveTolFactor float64

	// IFFThreshold is θ: fragments with fewer boundary nodes within
	// IFFTTL hops are filtered. Zero means 20 (the icosahedron bound of
	// Sec. II-B). Negative disables IFF.
	IFFThreshold int
	// IFFTTL is T, the filtering flood's hop budget. Zero means 3.
	IFFTTL int
	// Async selects a protocol simulation of the flooding phases (IFF
	// and grouping) on the asynchronous kernel of internal/sim —
	// per-message random delays seeded by AsyncSeed. Without Async or
	// Faults the phases are evaluated by traversal (member BFS and
	// min-root union-find) and the synchronous protocols' exact message
	// counts are derived from it. Both protocols are delay-independent,
	// so the detection outcome is identical either way; the option exists
	// to demonstrate and test exactly that.
	Async     bool
	AsyncSeed int64

	// Faults, when enabled, selects a protocol simulation of the flooding
	// phases with injected message loss, duplication, delay, crashes and
	// partitions. The phases then run the acknowledged, retransmitting
	// protocol variants of internal/sim; with per-link loss capped at
	// Faults.MaxDropsPerLink and a RetransmitBudget at least that cap, the
	// detection outcome is provably identical to the fault-free run. Each
	// phase derives its own plan: IFF from Faults.Seed, grouping from
	// Faults.Seed+1.
	Faults sim.FaultConfig
	// RetransmitBudget is the maximum number of retransmissions per
	// unacknowledged packet under faults. Zero means 3; ignored without
	// an enabled fault plan.
	RetransmitBudget int

	// Workers bounds pipeline parallelism. Zero means GOMAXPROCS. The
	// result is independent of the worker count.
	Workers int

	// Shards, when above 1, cuts the node set into that many spatial
	// shards: the detection stages loop over one view per shard (its
	// owned nodes plus a bounded ghost halo) instead of the single
	// whole-network view, dispatching work per shard instead of per node.
	// The outcome is bit-identical to the unsharded run for every shard
	// and worker count. Work that models the protocol over the whole
	// network runs only with a single view, so a sharded run derives no
	// message counts: Async and Faults are ignored and the message/fault
	// counters of the Result stay zero. Zero or 1 selects the single
	// view. Requires a CapSharded detector.
	Shards int

	// Detector selects the registered detection algorithm by name; ""
	// selects DefaultDetector (the paper's UBF/IFF pipeline). See
	// RegisterDetector and DetectorNames for the registry.
	Detector string

	// EnclosureMargin parameterizes the sv-enclosure competitor: a node
	// is a boundary candidate when some direction's half-space, pushed
	// EnclosureMargin·R inward, contains none of its known neighbors.
	// Zero means 0.2; other detectors ignore it.
	EnclosureMargin float64
	// DegreeFraction parameterizes the degree-stats competitor: node i
	// is a candidate when deg(i) < DegreeFraction · (mean degree over
	// its two-hop neighborhood). Zero means 0.75; other detectors
	// ignore it.
	DegreeFraction float64
}

func (c Config) withDefaults(haveMeasurement bool) Config {
	if c.BallRadiusFactor == 0 {
		c.BallRadiusFactor = 1
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1e-9
	}
	if c.InteriorTolerance == 0 {
		c.InteriorTolerance = 1e-9
	}
	if c.Coords == 0 {
		if haveMeasurement {
			c.Coords = CoordsMDS
		} else {
			c.Coords = CoordsTrue
		}
	}
	if c.Scope == 0 {
		c.Scope = ScopeTwoHop
	}
	if c.MDS.SmacofIterations == 0 {
		c.MDS.SmacofIterations = 40
	}
	if c.MinSharedForStitch == 0 {
		c.MinSharedForStitch = 4
	}
	if c.AdaptiveTolFactor == 0 {
		c.AdaptiveTolFactor = 1
	}
	if c.MaxBorderline == 0 {
		c.MaxBorderline = -1
	}
	if c.IFFThreshold == 0 {
		c.IFFThreshold = 20
	}
	if c.IFFTTL == 0 {
		c.IFFTTL = 3
	}
	if c.RetransmitBudget == 0 {
		c.RetransmitBudget = 3
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.EnclosureMargin == 0 {
		c.EnclosureMargin = 0.2
	}
	if c.DegreeFraction == 0 {
		c.DegreeFraction = 0.75
	}
	return c
}

// Validate is the single validation choke point for detection configs:
// every CLI (via cli.Common), the boundaryd session API, and
// DetectContext itself call it, so a bad width or detector name fails
// identically at every seam. It checks only the fields whose invalid
// values used to be clamped or rejected far from their source; the
// remaining fields are defaulted and checked by the selected detector.
func (c Config) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("%w, got %d", ErrNegativeWorkers, c.Workers)
	}
	if c.Shards < 0 {
		return fmt.Errorf("%w, got %d", ErrNegativeShards, c.Shards)
	}
	if _, ok := LookupDetector(c.Detector); !ok {
		return fmt.Errorf("%w %q (valid: %s)", ErrUnknownDetector, c.Detector, detectorNameList())
	}
	return nil
}

// Result is the full outcome of boundary detection on a network.
type Result struct {
	// UBF marks nodes identified by Phase 1 (Unit Ball Fitting).
	UBF []bool
	// Boundary marks nodes surviving Phase 2 (IFF) — the final answer.
	Boundary []bool
	// FragmentSize holds each boundary candidate's IFF flood count (the
	// number of fellow candidates heard within IFFTTL hops, self
	// included).
	FragmentSize []int
	// GroupLabel assigns each final boundary node its boundary's label
	// (the smallest node ID on that boundary); sim.NoGroup elsewhere.
	GroupLabel []int
	// Groups lists the distinct boundaries, each as ascending node IDs.
	Groups [][]int
	// BallsTested and NodesChecked aggregate per-node UBF work for the
	// Theorem 1 complexity study.
	BallsTested  []int
	NodesChecked []int
	// CoordError records, under CoordsMDS, each node's one-hop frame
	// RMSD against true positions after rigid alignment (a localization
	// quality diagnostic); nil under CoordsTrue.
	CoordError []float64
	// IFFMessages and GroupingMessages count the packets exchanged by
	// the two flooding phases — the protocol's communication cost
	// (UBF itself sends nothing beyond the initial beacon exchanges).
	// On the default single-view path they are derived exactly from the
	// traversals that evaluate the phases (the synchronous protocols'
	// counts); under Async or Faults they are the simulated deliveries.
	// Sharded runs report zero.
	IFFMessages      int
	GroupingMessages int
	// CandidateMessages counts packets exchanged by a competitor
	// detector's candidate-selection phase (e.g. the sv-contour floods);
	// always zero for the paper pipeline, whose UBF phase sends nothing
	// beyond the beacon exchange.
	CandidateMessages int
	// FaultStats aggregates the fault layer's counters across both
	// flooding phases; zero when Config.Faults is disabled.
	FaultStats sim.FaultStats
}

// ErrNoNetwork is returned when Detect is called without a network.
var ErrNoNetwork = errors.New("core: network is required")

// ErrNeedMeasurement is returned when CoordsMDS is selected without a
// measurement.
var ErrNeedMeasurement = errors.New("core: CoordsMDS requires a measurement")

// ErrNegativeWorkers and ErrNegativeShards reject configurations that
// used to be clamped silently (negative Workers became GOMAXPROCS deep in
// the worker pool; negative Shards fell through to the unsharded path).
// A caller asking for a negative width is a caller with a bug — fail
// loudly at the config seam instead.
var (
	ErrNegativeWorkers = errors.New("core: Config.Workers must be >= 0 (0 = one per CPU)")
	ErrNegativeShards  = errors.New("core: Config.Shards must be >= 0 (<= 1 = unsharded)")
)

// frame is one node's local coordinate chart: its closed one-hop
// neighborhood (node first) embedded by MDS.
type frame struct {
	members  []int
	coords   []geom.Vec3
	residual float64 // RMS measured-vs-embedded distance residual
}

// Detect runs the full localized boundary-detection pipeline: local frames,
// Unit Ball Fitting, Isolated Fragment Filtering, and boundary grouping.
// meas may be nil when cfg.Coords is CoordsTrue.
//
// Deprecated: Detect is kept as a thin convenience wrapper for existing
// callers. New code should call DetectContext, which adds cancellation and
// observer injection; Detect is exactly
// DetectContext(context.Background(), nil, net, meas, cfg).
func Detect(net *netgen.Network, meas *netgen.Measurement, cfg Config) (*Result, error) {
	return DetectContext(context.Background(), nil, net, meas, cfg)
}

// DetectContext is Detect with cancellation and observation. ctx is
// checked between stages and inside the parallel per-node loops, so a
// cancelled run returns ctx.Err() promptly without partial results. o, when
// non-nil, receives span events for every stage (detect, frames, ubf, iff,
// grouping) plus typed counters (balls tested, grid cells probed, messages
// delivered/dropped/retransmitted, ...); a nil o adds no allocations and no
// measurable cost. Observation never changes the result: verdicts are
// bit-identical with tracing on or off.
//
// DetectContext is the detector dispatcher: cfg.Detector selects the
// registered algorithm ("" = the paper pipeline), and the call is a thin
// compatibility wrapper around Detector.DetectContext — for the paper
// detector its output is bit-identical to the pre-registry pipeline.
func DetectContext(ctx context.Context, o obs.Observer, net *netgen.Network, meas *netgen.Measurement, cfg Config) (*Result, error) {
	if net == nil {
		return nil, ErrNoNetwork
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	det, _ := LookupDetector(cfg.Detector) // Validate vouched for the name
	if cfg.Shards > 1 && !det.Caps().Has(CapSharded) {
		return nil, fmt.Errorf("core: detector %q does not support sharding (Config.Shards = %d)", det.Name(), cfg.Shards)
	}
	return det.DetectContext(ctx, o, net, meas, cfg)
}

// paperDetect is the paper's UBF/IFF pipeline and the only stage pipeline.
// PaperDetector delegates here. Its stages loop over the views of
// detectionViews: the whole network when unsharded, the spatial shards
// with their halos when cfg.Shards > 1 (see shard.go).
func paperDetect(ctx context.Context, o obs.Observer, net *netgen.Network, meas *netgen.Measurement, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(meas != nil)
	if cfg.Coords == CoordsMDS && meas == nil {
		return nil, ErrNeedMeasurement
	}
	if cfg.Coords != CoordsMDS && cfg.Coords != CoordsTrue {
		return nil, fmt.Errorf("core: unknown coordinate source %d", cfg.Coords)
	}
	if cfg.Scope != ScopeOneHop && cfg.Scope != ScopeTwoHop {
		return nil, fmt.Errorf("core: unknown scope %d", cfg.Scope)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	detectSpan := obs.Start(o, obs.StageDetect)
	defer detectSpan.End()

	tab := NewNodeTable(net, meas)
	n := tab.Len()
	obs.Add(o, obs.StageDetect, obs.CtrNodes, int64(n))
	res := &Result{
		UBF:          make([]bool, n),
		BallsTested:  make([]int, n),
		NodesChecked: make([]int, n),
	}
	radius := cfg.BallRadiusFactor * (1 + cfg.Epsilon) * tab.Radius
	tol := cfg.InteriorTolerance * radius
	views, err := detectionViews(ctx, o, tab, cfg)
	if err != nil {
		return nil, err
	}

	// Stage 1 (CoordsMDS only): every node builds its one-hop MDS frame.
	if cfg.Coords == CoordsMDS {
		if err := buildAllFrames(ctx, o, views, cfg, res); err != nil {
			return nil, err
		}
	}

	// Stage 2: Unit Ball Fitting per owned node. Each worker owns a
	// UBFScratch (grid, tolerance and ordering buffers) and an
	// assembleScratch, so the steady-state per-node cost allocates nothing
	// on the CoordsTrue path; the epoch-stamped buffers re-arm per node
	// regardless of the view size changing underneath them.
	ubfSpan := obs.Start(o, obs.StageUBF)
	scratch := make([]UBFScratch, cfg.Workers)
	asm := make([]assembleScratch, cfg.Workers)
	cellsProbed := make([]int64, cfg.Workers)
	err = forEachNode(ctx, views, 0, cfg.Workers, func(w, s, l int) error {
		v := views[s]
		coords, candidates, spreads := assembleKnowledge(&v.tab, cfg, v.frames, l, &asm[w])
		// Per-point tolerance: every known position is discounted by its
		// own locally observable uncertainty — the spread of the
		// independent estimates the consensus stitching collected for
		// it (zero under CoordsTrue).
		tolAt := uniformTol(tol)
		maxBorderline := -1
		if cfg.AdaptiveTolFactor > 0 && spreads != nil {
			factor := cfg.AdaptiveTolFactor
			tolAt = func(idx int) float64 {
				if a := factor * spreads[idx]; a > tol {
					return a
				}
				return tol
			}
			maxBorderline = cfg.MaxBorderline
		}
		r := scratch[w].Fit(coords, 0, candidates, radius, tolAt, maxBorderline)
		g := v.glob[l]
		res.UBF[g] = r.Boundary
		res.BallsTested[g] = r.BallsTested
		res.NodesChecked[g] = r.NodesChecked
		cellsProbed[w] += int64(r.CellsProbed)
		return nil
	})
	if o != nil {
		var balls, checked, cells, marked int64
		for i := range res.BallsTested {
			balls += int64(res.BallsTested[i])
			checked += int64(res.NodesChecked[i])
			if res.UBF[i] {
				marked++
			}
		}
		for _, c := range cellsProbed {
			cells += c
		}
		obs.Add(o, obs.StageUBF, obs.CtrBallsTested, balls)
		obs.Add(o, obs.StageUBF, obs.CtrNodesChecked, checked)
		obs.Add(o, obs.StageUBF, obs.CtrGridCells, cells)
		obs.Add(o, obs.StageUBF, obs.CtrUBFBoundary, marked)
		// Flight recorder: each marked node claims boundary status
		// (Sec. II-A), in ascending ID for a deterministic trace.
		for i, b := range res.UBF {
			if b {
				obs.NodeTransition(o, obs.StageUBF, obs.TransBoundaryClaim, i, 0)
			}
		}
	}
	ubfSpan.End()
	if err != nil {
		return nil, err
	}

	if err := filterAndGroup(ctx, o, net, tab.CSR, views, cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// filterAndGroup runs detection stages 3 and 4 — Isolated Fragment
// Filtering and boundary grouping — on the candidate set in res.UBF,
// filling Boundary, FragmentSize, GroupLabel, Groups and the message and
// fault counters. It is shared verbatim between the paper pipeline and
// the competitor detectors (their candidate phases replace UBF, the
// refinement tail is common), which is what keeps the paper path
// bit-identical and gives every detector the hardened fault/async
// protocol variants for free. cfg must already carry defaults.
//
// IFF counts fragments over csr, the global adjacency (one member BFS per
// owned candidate of each view, flood.go); grouping runs the min-root
// union-find over csr. With a single view the synchronous protocols' exact message
// counts are derived alongside, and Async or Faults select the protocol
// simulation in internal/sim instead; with several views neither runs.
func filterAndGroup(ctx context.Context, o obs.Observer, net *netgen.Network, csr *graph.CSR, views []*shardView, cfg Config, res *Result) error {
	n := len(res.UBF)
	simulate := len(views) == 1 && (cfg.Async || cfg.Faults.Enabled())

	// Stage 3: Isolated Fragment Filtering by TTL-bounded flooding.
	res.Boundary = make([]bool, n)
	iffSpan := obs.Start(o, obs.StageIFF)
	if cfg.IFFThreshold < 0 {
		copy(res.Boundary, res.UBF)
		res.FragmentSize = make([]int, n)
	} else {
		var counts []int
		var err error
		if simulate {
			counts, res.IFFMessages, err = simulateIFF(o, net, cfg, res)
		} else {
			var cost floodCost
			counts, cost, err = viewFragments(ctx, o, csr, views, res.UBF, cfg.IFFTTL, cfg.Workers)
			res.IFFMessages = cost.Messages
		}
		if err != nil {
			iffSpan.End()
			return fmt.Errorf("IFF flooding: %w", err)
		}
		res.FragmentSize = counts
		for i := range res.Boundary {
			res.Boundary[i] = res.UBF[i] && counts[i] >= cfg.IFFThreshold
			if res.UBF[i] && !res.Boundary[i] {
				// Flight recorder: IFF withdraws the claim; the value is
				// the fragment size that fell short of the threshold.
				obs.NodeTransition(o, obs.StageIFF, obs.TransIFFRescind, i, int64(counts[i]))
			}
		}
	}
	if o != nil {
		var final int64
		for _, b := range res.Boundary {
			if b {
				final++
			}
		}
		obs.Add(o, obs.StageIFF, obs.CtrBoundary, final)
	}
	iffSpan.End()
	if err := ctx.Err(); err != nil {
		return err
	}

	// Stage 4: grouping — boundary nodes of the same surface connect
	// through boundary nodes only (Sec. II-B).
	groupSpan := obs.Start(o, obs.StageGrouping)
	if simulate {
		var err error
		res.GroupLabel, res.GroupingMessages, err = simulateGrouping(o, net, cfg, res)
		if err != nil {
			groupSpan.End()
			return fmt.Errorf("grouping: %w", err)
		}
	} else {
		if len(views) == 1 {
			res.GroupingMessages = labelPropagation(o, csr, res.Boundary).Messages
		}
		res.GroupLabel = groupLabels(csr.Len(), res.Boundary, csr.Neighbors)
	}
	res.Groups = sim.Groups(res.GroupLabel)
	obs.Add(o, obs.StageGrouping, obs.CtrGroups, int64(len(res.Groups)))
	groupSpan.End()
	return nil
}

// simulateIFF runs the IFF flood on the asynchronous and/or fault-injecting
// simulator kernels, returning fragment sizes and packets delivered. The
// probe routes the kernels' flight-recorder events and aggregate counters
// (rounds, sent/delivered, fault totals) straight to the observer.
func simulateIFF(o obs.Observer, net *netgen.Network, cfg Config, res *Result) ([]int, int, error) {
	pr := sim.Probe{Obs: o, Stage: obs.StageIFF}
	if !cfg.Faults.Enabled() {
		counts, stats, err := sim.AsyncFloodCount(net.G, res.UBF, cfg.IFFTTL, cfg.AsyncSeed, pr)
		return counts, stats.Messages, err
	}
	// Each phase gets an independent plan; keep the configured seed for
	// IFF and derive the grouping one in simulateGrouping.
	plan := sim.NewFaultPlan(cfg.Faults, len(res.UBF))
	defer func() { res.FaultStats.Add(plan.Stats()) }()
	opt := sim.ReliableOptions{Budget: cfg.RetransmitBudget}
	if cfg.Async {
		counts, stats, err := sim.AsyncReliableFloodCount(net.G, res.UBF, cfg.IFFTTL, cfg.AsyncSeed, plan, opt, pr)
		return counts, stats.Messages, err
	}
	counts, stats, err := sim.ReliableFloodCount(net.G, res.UBF, cfg.IFFTTL, plan, opt, pr)
	return counts, stats.Messages, err
}

// simulateGrouping is simulateIFF's counterpart for label propagation,
// returning labels and packets delivered.
func simulateGrouping(o obs.Observer, net *netgen.Network, cfg Config, res *Result) ([]int, int, error) {
	pr := sim.Probe{Obs: o, Stage: obs.StageGrouping}
	if !cfg.Faults.Enabled() {
		label, stats, err := sim.AsyncLabelComponents(net.G, res.Boundary, cfg.AsyncSeed+1, pr)
		return label, stats.Messages, err
	}
	faults := cfg.Faults
	faults.Seed++
	plan := sim.NewFaultPlan(faults, len(res.Boundary))
	defer func() { res.FaultStats.Add(plan.Stats()) }()
	opt := sim.ReliableOptions{Budget: cfg.RetransmitBudget}
	if cfg.Async {
		label, stats, err := sim.AsyncReliableLabelComponents(net.G, res.Boundary, cfg.AsyncSeed+1, plan, opt, pr)
		return label, stats.Messages, err
	}
	label, stats, err := sim.ReliableLabelComponents(net.G, res.Boundary, plan, opt, pr)
	return label, stats.Messages, err
}

// buildAllFrames is detection stage 1, shared by the paper pipeline and
// the enclosure competitor: every view node whose frame an owned node can
// read builds its one-hop MDS frame into v.frames — the owned nodes, plus
// under ScopeTwoHop the depth-1 ghosts whose frames the two-hop stitch
// registers. A ghost's frame is recomputed identically by every view that
// holds it: MDS is deterministic in its inputs, and the monotone renaming
// keeps the inputs identical. res.CoordError records each owned node's
// frame RMSD against true positions. cfg must carry defaults.
//
// A view's frames share two slabs, members and coordinates: node l's
// closed neighborhood sits at offset RowOffset(l)+l, so workers fill
// disjoint ranges, and with one frameScratch per worker a frame costs no
// allocation.
func buildAllFrames(ctx context.Context, o obs.Observer, views []*shardView, cfg Config, res *Result) error {
	framesSpan := obs.Start(o, obs.StageFrames)
	defer framesSpan.End()
	res.CoordError = make([]float64, len(res.UBF))
	type slab struct {
		members []int
		coords  []geom.Vec3
	}
	slabs := make([]slab, len(views))
	for s, v := range views {
		if v != nil {
			n := v.tab.Len()
			v.frames = make([]frame, n)
			size := v.tab.CSR.RowOffset(n) + n
			slabs[s] = slab{members: make([]int, size), coords: make([]geom.Vec3, size)}
		}
	}
	maxDepth := int8(0)
	if cfg.Scope == ScopeTwoHop {
		maxDepth = 1
	}
	scratch := make([]frameScratch, cfg.Workers)
	return forEachNode(ctx, views, maxDepth, cfg.Workers, func(w, s, l int) error {
		v := views[s]
		fs := &scratch[w]
		lo, hi := v.tab.CSR.RowOffset(l)+l, v.tab.CSR.RowOffset(l+1)+l+1
		f, err := buildFrame(&v.tab, cfg, l, slabs[s].members[lo:lo:hi], slabs[s].coords[lo:hi:hi], fs)
		if err != nil {
			return fmt.Errorf("node %d frame: %w", v.glob[l], err)
		}
		v.frames[l] = f
		if v.depth[l] != 0 {
			return nil
		}
		truth := fs.truth[:0]
		for _, m := range f.members {
			truth = append(truth, v.tab.Pos[m])
		}
		fs.truth = truth
		if _, rmsd, aerr := geom.AlignRigid(f.coords, truth); aerr == nil {
			res.CoordError[v.glob[l]] = rmsd
		}
		return nil
	})
}

// frameScratch is one worker's reusable frame-building storage: the MDS
// workspace, the frame's measured-distance table and the true positions
// the CoordError alignment reads.
type frameScratch struct {
	mds    mds.Scratch
	meas   []float64 // meas[a*n+b]: measured length of arc members[a]→members[b]
	has    []bool    // has[a*n+b]: that arc exists
	sorted []int     // member indices in ascending node-ID order
	truth  []geom.Vec3
}

// buildFrame embeds node i's closed one-hop neighborhood from measured
// distances, appending the members to members and writing the coordinates
// into coords, which must have room for exactly the neighborhood.
func buildFrame(tab *NodeTable, cfg Config, i int, members []int, coords []geom.Vec3, fs *frameScratch) (frame, error) {
	members = closedNeighborhood(members, tab, i)
	n := len(members)
	fs.gatherMeas(tab, members)
	dist := func(a, b int) (float64, bool) {
		return fs.meas[a*n+b], fs.has[a*n+b]
	}
	coords, err := fs.mds.Localize(coords, n, dist, cfg.MDS)
	if err != nil {
		return frame{}, err
	}
	return frame{
		members:  members,
		coords:   coords,
		residual: mds.ResidualRMS(coords, dist),
	}, nil
}

// gatherMeas fills the measured-distance table of a frame's members (the
// node, then its ascending neighbors) by merging each member's ascending
// adjacency row against the members in ascending ID order. Entry a*n+b
// then holds tab.MeasLookup(members[a], members[b]) for a ≠ b — the
// measurement of that arc — which the direct lookup would find by one
// binary search per pair and query.
func (fs *frameScratch) gatherMeas(tab *NodeTable, members []int) {
	n := len(members)
	fs.meas = grow(fs.meas, n*n)
	fs.has = grow(fs.has, n*n)
	clear(fs.has)
	// The neighbors are ascending; the node itself slots in before the
	// first larger one.
	p := 1
	for p < n && members[p] < members[0] {
		p++
	}
	sorted := fs.sorted[:0]
	for k := 1; k < p; k++ {
		sorted = append(sorted, k)
	}
	sorted = append(sorted, 0)
	for k := p; k < n; k++ {
		sorted = append(sorted, k)
	}
	fs.sorted = sorted
	for a, m := range members {
		row, meas := tab.Neighbors(m), tab.MeasRow(m)
		if meas == nil {
			continue
		}
		for r, k := 0, 0; r < len(row) && k < n; {
			switch u, b := int(row[r]), sorted[k]; {
			case u < members[b]:
				r++
			case u > members[b]:
				k++
			default:
				fs.meas[a*n+b], fs.has[a*n+b] = meas[r], true
				r++
				k++
			}
		}
	}
}

// grow returns buf resliced to length n, reallocating only when its
// capacity is short. The contents are not cleared.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// assembleScratch holds one worker's reusable buffers for per-node
// knowledge assembly. Stage 2 assembles a fresh view for every node; with
// the buffers (and the stamp array replacing the two-hop dedup map) reused
// across nodes, the steady-state assembly allocates nothing.
type assembleScratch struct {
	members    []int
	candidates []int
	coords     []geom.Vec3
	spreads    []float64
	stamp      []int32 // stamp[u] == epoch ⟺ u already collected
	epoch      int32

	// Two-hop stitching state (CoordsMDS + ScopeTwoHop only): the collected
	// node order, a node-ID→slot map valid under the current epoch, the flat
	// estimate list with its per-slot bucket bounds, and the registration
	// point-pair buffers. Replaces the per-node map[int][]geom.Vec3 the
	// stitcher used to allocate, which dominated the UBF stage's allocation
	// profile.
	order  []int
	slotOf []int32
	ests   []stitchEst
	bucket []int32
	estBuf []geom.Vec3
	d2     []float64
	pair   []float64 // medoid's pairwise distances
	src    []geom.Vec3
	dst    []geom.Vec3
}

// stitchEst is one position estimate for the node occupying a stitch slot.
type stitchEst struct {
	slot int32
	pos  geom.Vec3
}

// visited returns the stamp array sized for n nodes under a fresh epoch, so
// membership resets in O(1) instead of clearing (or reallocating a map).
func (as *assembleScratch) visited(n int) []int32 {
	if len(as.stamp) < n {
		as.stamp = make([]int32, n)
		as.epoch = 0
	}
	as.epoch++
	if as.epoch == 0 { // epoch wrapped: clear once and restart
		for i := range as.stamp {
			as.stamp[i] = 0
		}
		as.epoch = 1
	}
	return as.stamp
}

// assembleKnowledge produces node i's view for the UBF test: coordinates
// with i first, the candidate indices (its one-hop neighbors), and each
// coordinate's uncertainty estimate (nil under CoordsTrue, meaning exact).
// Returned slices may alias as and are only valid until the next call with
// the same scratch.
func assembleKnowledge(tab *NodeTable, cfg Config, frames []frame, i int, as *assembleScratch) (coords []geom.Vec3, candidates []int, spreads []float64) {
	if cfg.Coords == CoordsTrue {
		coords, candidates = knownKnowledge(i, tab.Neighbors, tab.Pos, cfg.Scope, as)
		return coords, candidates, nil
	}
	candidates = as.oneHopCandidates(len(tab.Neighbors(i)))
	own := frames[i]
	if cfg.Scope == ScopeOneHop {
		spreads = as.spreads[:0]
		for range own.coords {
			spreads = append(spreads, own.residual)
		}
		as.spreads = spreads
		return own.coords, candidates, spreads
	}
	coords, spreads = stitchTwoHop(tab, cfg, frames, i, as)
	return coords, candidates, spreads
}

// oneHopCandidates returns the candidate indices of a node with deg
// one-hop neighbors: the coordinate layout puts the node first, then its
// one-hop neighbors.
func (as *assembleScratch) oneHopCandidates(deg int) []int {
	candidates := as.candidates[:0]
	for k := 0; k < deg; k++ {
		candidates = append(candidates, k+1)
	}
	as.candidates = candidates
	return candidates
}

// knownKnowledge is node i's UBF view under known coordinates: i, its
// one-hop neighbors ascending, then under ScopeTwoHop its two-hop
// neighbors in first-appearance order, each at its position in pos, which
// spans every ID the rows name. The batch pipeline passes a NodeTable's
// rows and the incremental engine its mutable rows, so the two assemble
// identical views.
func knownKnowledge(i int, neighbors func(int) []int32, pos []geom.Vec3, scope Scope, as *assembleScratch) (coords []geom.Vec3, candidates []int) {
	oneHop := neighbors(i)
	candidates = as.oneHopCandidates(len(oneHop))
	members := append(as.members[:0], i)
	for _, v := range oneHop {
		members = append(members, int(v))
	}
	if scope == ScopeTwoHop {
		stamp := as.visited(len(pos))
		e := as.epoch
		for _, m := range members {
			stamp[m] = e
		}
		for _, j := range oneHop {
			for _, u := range neighbors(int(j)) {
				if stamp[u] != e {
					stamp[u] = e
					members = append(members, int(u))
				}
			}
		}
	}
	as.members = members
	coords = as.coords[:0]
	for _, m := range members {
		coords = append(coords, pos[m])
	}
	as.coords = coords
	return coords, candidates
}

// stitchTwoHop extends node i's one-hop MDS frame with two-hop positions by
// rigidly registering each neighbor's frame onto i's own frame over their
// shared one-hop members, then fusing all available estimates per node:
//
//   - a one-hop member's position is its own-frame coordinate, but every
//     registered neighbor frame that also contains it contributes a
//     cross-check estimate;
//   - a two-hop node's position is the centroid of the estimates from the
//     neighbor frames that contain it.
//
// The per-point estimate spread (RMS deviation from the fused position) is
// returned alongside: it is the locally observable uncertainty of that
// coordinate. This catches the failure mode pure stress minimization
// cannot — a loosely-anchored member sitting in a zero-stress reflection —
// because independently-built frames disagree exactly there.
//
// Neighbors whose overlap is too small to register are skipped, as in a
// real deployment where a patch fails to align.
func stitchTwoHop(tab *NodeTable, cfg Config, frames []frame, i int, as *assembleScratch) ([]geom.Vec3, []float64) {
	own := frames[i]

	// Collect every estimate as a (slot, position) pair into one flat list;
	// slots are assigned in first-appearance order (own members first, then
	// two-hop nodes as registered frames surface them), so the slot order is
	// exactly the node order the map-based stitcher produced. The epoch
	// stamp marks which nodes hold a valid slot.
	stamp := as.visited(tab.Len())
	e := as.epoch
	if len(as.slotOf) < tab.Len() {
		as.slotOf = make([]int32, tab.Len())
	}
	slotOf := as.slotOf
	order := as.order[:0]
	ests := as.ests[:0]
	for k, m := range own.members {
		stamp[m] = e
		slotOf[m] = int32(len(order))
		order = append(order, m)
		ests = append(ests, stitchEst{slot: slotOf[m], pos: own.coords[k]})
	}
	nOwn := int32(len(own.members))
	for _, j := range tab.Neighbors(i) {
		fj := frames[j]
		src, dst := as.src[:0], as.dst[:0]
		for k, m := range fj.members {
			// m is one of i's own members iff it is stamped with a slot in
			// the own-member range: two-hop nodes added by earlier
			// neighbors sit at slots >= nOwn.
			if stamp[m] == e && slotOf[m] < nOwn {
				src = append(src, fj.coords[k])
				dst = append(dst, own.coords[slotOf[m]])
			}
		}
		as.src, as.dst = src, dst
		if len(src) < cfg.MinSharedForStitch {
			continue
		}
		tr, _, err := geom.AlignRigid(src, dst)
		if err != nil {
			continue
		}
		for k, m := range fj.members {
			if stamp[m] != e {
				stamp[m] = e
				slotOf[m] = int32(len(order))
				order = append(order, m)
			}
			ests = append(ests, stitchEst{slot: slotOf[m], pos: tr.Apply(fj.coords[k])})
		}
	}
	as.order, as.ests = order, ests

	// Stable counting sort of the estimates by slot: per-slot buckets in
	// arrival order, identical to the per-node append lists they replace.
	nSlots := len(order)
	if cap(as.bucket) < nSlots+1 {
		as.bucket = make([]int32, nSlots+1)
	}
	cnt := as.bucket[:nSlots+1]
	for k := range cnt {
		cnt[k] = 0
	}
	for _, es := range ests {
		cnt[es.slot+1]++
	}
	for s := 1; s <= nSlots; s++ {
		cnt[s] += cnt[s-1]
	}
	if cap(as.estBuf) < len(ests) {
		as.estBuf = make([]geom.Vec3, len(ests))
	}
	estBuf := as.estBuf[:len(ests)]
	for _, es := range ests {
		estBuf[cnt[es.slot]] = es.pos
		cnt[es.slot]++
	}
	// After the scatter cnt[s] is the end of bucket s.

	if cap(as.coords) < nSlots {
		as.coords = make([]geom.Vec3, nSlots)
	}
	if cap(as.spreads) < nSlots {
		as.spreads = make([]float64, nSlots)
	}
	coords := as.coords[:nSlots]
	spreads := as.spreads[:nSlots]
	lo := int32(0)
	for s := 0; s < nSlots; s++ {
		hi := cnt[s]
		bucket := estBuf[lo:hi]
		lo = hi
		// Fuse by medoid, not centroid: when a member sits in a
		// zero-stress reflection in one frame, its estimates form a
		// correct-majority cluster plus flipped outliers; the medoid
		// snaps to the majority (repairing the position), whereas a
		// centroid would land uselessly in between.
		center := medoid(bucket, &as.pair)
		coords[s] = center
		spreads[s] = clusterSpread(bucket, center, own.residual, &as.d2)
	}
	as.coords, as.spreads = coords, spreads
	return coords, spreads
}

// medoid returns the estimate minimizing the total distance to the others.
// Ties break toward the earliest estimate (the own-frame one for one-hop
// members), keeping fusion deterministic. Each pairwise distance is
// computed once into buf — Dist is bitwise symmetric — and each row is
// summed in index order, so the sums are bit for bit those of a direct
// all-pairs loop.
func medoid(ests []geom.Vec3, buf *[]float64) geom.Vec3 {
	m := len(ests)
	if m == 1 {
		return ests[0]
	}
	*buf = grow(*buf, m*m)
	d := *buf
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			v := ests[i].Dist(ests[j])
			d[i*m+j], d[j*m+i] = v, v
		}
	}
	best, bestSum := 0, math.Inf(1)
	for i := 0; i < m; i++ {
		var sum float64
		for _, v := range d[i*m : (i+1)*m] {
			sum += v
		}
		if sum < bestSum {
			best, bestSum = i, sum
		}
	}
	return ests[best]
}

// clusterSpread estimates a fused position's uncertainty as the RMS
// deviation of the nearer half of the estimates (the majority cluster),
// so that a single flipped outlier does not drown the signal; with no
// cross-check available it falls back to the frame residual.
func clusterSpread(ests []geom.Vec3, center geom.Vec3, fallback float64, buf *[]float64) float64 {
	if len(ests) <= 1 {
		return fallback
	}
	d2 := (*buf)[:0]
	for _, e := range ests {
		d2 = append(d2, e.Dist2(center))
	}
	*buf = d2
	// Insertion sort: the estimate count is bounded by the node degree, and
	// sorting in place on the reused buffer keeps the call allocation-free.
	for i := 1; i < len(d2); i++ {
		for j := i; j > 0 && d2[j] < d2[j-1]; j-- {
			d2[j], d2[j-1] = d2[j-1], d2[j]
		}
	}
	// Majority cluster: the nearest ceil(m/2) co-estimates (excluding
	// the zero self-distance at d2[0]).
	keep := (len(d2) + 1) / 2
	if keep < 2 {
		keep = 2
	}
	if keep > len(d2) {
		keep = len(d2)
	}
	var sum float64
	for _, v := range d2[1:keep] {
		sum += v
	}
	if keep <= 1 {
		return fallback
	}
	return math.Sqrt(sum / float64(keep-1))
}

// closedNeighborhood appends node i followed by its one-hop neighbors —
// the set Γ_i of Algorithm 1 — to dst.
func closedNeighborhood(dst []int, tab *NodeTable, i int) []int {
	dst = append(dst, i)
	for _, v := range tab.Neighbors(i) {
		dst = append(dst, int(v))
	}
	return dst
}
