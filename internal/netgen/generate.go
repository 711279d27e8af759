package netgen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/shapes"
)

// Config parameterizes network generation.
type Config struct {
	// Shape is the deployment solid. Required.
	Shape shapes.Shape
	// SurfaceNodes is the number of nodes sampled on the boundary
	// surfaces (ground-truth boundary nodes).
	SurfaceNodes int
	// InteriorNodes is the number of nodes sampled in the interior.
	InteriorNodes int
	// Radius is the radio transmission range. When zero, it is
	// auto-tuned so the average nodal degree matches TargetAvgDegree.
	Radius float64
	// TargetAvgDegree is the desired average degree when Radius is
	// auto-tuned. The paper's networks average 18.5.
	TargetAvgDegree float64
	// Seed makes generation reproducible.
	Seed int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Shape == nil {
		return errors.New("netgen: Shape is required")
	}
	if c.SurfaceNodes < 0 || c.InteriorNodes < 0 {
		return errors.New("netgen: node counts must be non-negative")
	}
	if c.SurfaceNodes+c.InteriorNodes == 0 {
		return errors.New("netgen: at least one node required")
	}
	if c.Radius < 0 {
		return errors.New("netgen: Radius must be non-negative")
	}
	if c.Radius == 0 && c.TargetAvgDegree <= 0 {
		return errors.New("netgen: TargetAvgDegree required when Radius is auto-tuned")
	}
	return nil
}

// Generate deploys a network per the configuration: SurfaceNodes points on
// the shape's boundary surfaces, InteriorNodes points in its interior,
// connected by the unit-ball radio model.
func Generate(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	nodes := make([]Node, 0, cfg.SurfaceNodes+cfg.InteriorNodes)
	for i := 0; i < cfg.SurfaceNodes; i++ {
		nodes = append(nodes, Node{ID: len(nodes), Pos: cfg.Shape.SampleSurface(rng), OnSurface: true})
	}
	interior, err := shapes.SampleInteriorN(rng, cfg.Shape, cfg.InteriorNodes)
	if err != nil {
		return nil, fmt.Errorf("interior sampling: %w", err)
	}
	for _, p := range interior {
		nodes = append(nodes, Node{ID: len(nodes), Pos: p})
	}

	positions := make([]geom.Vec3, len(nodes))
	for i, n := range nodes {
		positions[i] = n.Pos
	}

	radius := cfg.Radius
	if radius == 0 {
		radius, err = tuneRadius(positions, cfg.TargetAvgDegree, cfg.Shape.Bounds())
		if err != nil {
			return nil, err
		}
	}

	net := &Network{Nodes: nodes, Radius: radius}
	net.G, net.Dist = buildConnectivity(positions, radius)
	return net, nil
}

// buildConnectivity links every pair of nodes within radius
// (Dist2 <= radius²) and records the true link distances, with adjacency
// lists sorted by neighbor ID.
func buildConnectivity(positions []geom.Vec3, radius float64) (*graph.Graph, [][]float64) {
	g := graph.New(len(positions))
	var grid geom.PointGrid
	grid.Build(positions, radius)
	var buf []int32
	for i, p := range positions {
		buf = grid.AppendWithin(buf[:0], p, radius, i)
		slices.Sort(buf)
		row := make([]int, len(buf))
		for k, j := range buf {
			row[k] = int(j)
		}
		g.Adj[i] = row
	}
	dist := make([][]float64, len(positions))
	for i := range positions {
		dist[i] = make([]float64, len(g.Adj[i]))
		for k, j := range g.Adj[i] {
			dist[i][k] = positions[i].Dist(positions[j])
		}
	}
	return g, dist
}

// countPairs returns the number of unordered pairs of points within r —
// the edges buildConnectivity would link — without materializing
// adjacency, stopping as soon as the count reaches limit. It re-indexes the
// points into grid and reuses grid's and *buf's storage.
func countPairs(grid *geom.PointGrid, points []geom.Vec3, r float64, limit int, buf *[]int32) int {
	grid.Build(points, r)
	total := 0
	for i, p := range points {
		if total >= limit {
			break
		}
		*buf = grid.AppendWithin((*buf)[:0], p, r, i)
		for _, j := range *buf {
			if int(j) > i {
				total++
			}
		}
	}
	return total
}

// pairDist2 returns the squared distance of every unordered pair of points
// within r, ascending. Each value is the Dist2 that AppendWithin compares
// against r², so a pair lies within any r' <= r exactly when its value is
// <= r'².
func pairDist2(grid *geom.PointGrid, points []geom.Vec3, r float64, buf *[]int32) []float64 {
	grid.Build(points, r)
	var d2 []float64
	for i, p := range points {
		*buf = grid.AppendWithin((*buf)[:0], p, r, i)
		for _, j := range *buf {
			if int(j) > i {
				d2 = append(d2, points[j].Dist2(p))
			}
		}
	}
	slices.Sort(d2)
	return d2
}

// tuneRadius bisects for the radio range that achieves the target average
// degree: 48 halvings of [0, bounding-box diagonal], keeping the upper half
// whenever the probe's average degree 2·pairs/n falls short of the target.
// Average degree grows monotonically with the radius, so bisection
// converges, far past floating-point placement accuracy.
//
// A probe needs only its pass/miss decision, i.e. whether pairs(mid)
// reaches need, the smallest passing pair count. Until the first miss each
// probe counts pairs only up to need. At the first miss every later probe
// lies below the current hi, so the squared distances of the pairs within
// hi are collected once and sorted; a later probe passes exactly when the
// need-th smallest of them is within mid². The list holds the pairs within
// twice the first missing radius, about 8× the target edge count in a 3-D
// deployment of uniform density. The decisions, and hence the radius, are
// those of counting every probe in full.
func tuneRadius(positions []geom.Vec3, targetDegree float64, bounds geom.AABB) (float64, error) {
	n := len(positions)
	if n < 2 {
		return 0, errors.New("netgen: radius tuning needs at least two nodes")
	}
	if targetDegree >= float64(n-1) {
		return 0, fmt.Errorf("netgen: target degree %.1f unreachable with %d nodes", targetDegree, n)
	}
	lo := 0.0
	hi := bounds.Size().Norm() // the bounding-box diagonal connects everything
	if hi == 0 {
		return 0, errors.New("netgen: degenerate deployment bounds")
	}
	misses := func(pairs int) bool { return 2*float64(pairs)/float64(n) < targetDegree }
	need := int(math.Ceil(targetDegree * float64(n) / 2))
	for need > 0 && !misses(need-1) {
		need--
	}
	for misses(need) {
		need++
	}
	var grid geom.PointGrid
	var buf []int32
	var d2 []float64 // sorted pair distances² within hi, from the first miss on
	missed := false
	for iter := 0; iter < 48; iter++ {
		mid := (lo + hi) / 2
		var pass bool
		switch {
		case missed:
			pass = need <= len(d2) && d2[need-1] <= mid*mid
		case countPairs(&grid, positions, mid, need, &buf) >= need:
			pass = true
		default:
			d2, missed = pairDist2(&grid, positions, hi, &buf), true
		}
		if pass {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2, nil
}

// Assemble builds a Network from explicit node positions and a radio range,
// reconstructing connectivity and link distances. Node IDs are rewritten to
// their slice index. Deserializers and tests use this to reconstitute a
// network from stored positions.
func Assemble(nodes []Node, radius float64) (*Network, error) {
	if len(nodes) == 0 {
		return nil, errors.New("netgen: at least one node required")
	}
	if radius <= 0 {
		return nil, errors.New("netgen: radius must be positive")
	}
	owned := append([]Node(nil), nodes...)
	positions := make([]geom.Vec3, len(owned))
	for i := range owned {
		owned[i].ID = i
		positions[i] = owned[i].Pos
	}
	net := &Network{Nodes: owned, Radius: radius}
	net.G, net.Dist = buildConnectivity(positions, radius)
	return net, nil
}
