package netgen

import (
	"errors"
	"fmt"
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
// adjacency. It re-indexes the points into grid and reuses grid's and
// *buf's storage, so the radius tuner's bisection allocates once.
func countPairs(grid *geom.PointGrid, points []geom.Vec3, r float64, buf *[]int32) int {
	grid.Build(points, r)
	total := 0
	for i, p := range points {
		*buf = grid.AppendWithin((*buf)[:0], p, r, i)
		for _, j := range *buf {
			if int(j) > i {
				total++
			}
		}
	}
	return total
}

// tuneRadius binary-searches the radio range that achieves the target
// average degree. Average degree grows monotonically with the radius, so
// bisection converges; ~40 iterations give far better than floating-point
// placement accuracy.
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
	var grid geom.PointGrid
	var buf []int32
	avgDegree := func(r float64) float64 {
		if r <= 0 {
			return 0
		}
		return 2 * float64(countPairs(&grid, positions, r, &buf)) / float64(n)
	}
	for iter := 0; iter < 48; iter++ {
		mid := (lo + hi) / 2
		if avgDegree(mid) < targetDegree {
			lo = mid
		} else {
			hi = mid
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
