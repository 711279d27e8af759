package netgen

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/ranging"
	"repro/internal/shapes"
)

func testNetwork(t *testing.T, seed int64) *Network {
	t.Helper()
	net, err := Generate(Config{
		Shape:           shapes.NewBall(geom.Zero, 5),
		SurfaceNodes:    300,
		InteriorNodes:   700,
		TargetAvgDegree: 16,
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestGenerateValidation(t *testing.T) {
	ball := shapes.NewBall(geom.Zero, 1)
	cases := []Config{
		{},                              // no shape
		{Shape: ball},                   // no nodes
		{Shape: ball, SurfaceNodes: -1}, // negative count
		{Shape: ball, SurfaceNodes: 5, Radius: -1},
		{Shape: ball, SurfaceNodes: 5}, // radius 0 without target degree
	}
	for i, cfg := range cases {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestGenerateCountsAndGroundTruth(t *testing.T) {
	net := testNetwork(t, 1)
	if net.Len() != 1000 {
		t.Fatalf("Len = %d", net.Len())
	}
	surface := 0
	ball := shapes.NewBall(geom.Zero, 5)
	for _, n := range net.Nodes {
		if n.OnSurface {
			surface++
			if d := n.Pos.Dist(geom.Zero); math.Abs(d-5) > 1e-6 {
				t.Fatalf("surface node at radius %v", d)
			}
		}
		if !ball.Contains(n.Pos) {
			t.Fatalf("node %d outside shape", n.ID)
		}
	}
	if surface != 300 {
		t.Errorf("surface nodes = %d, want 300", surface)
	}
	mask := net.TrueBoundary()
	for i, n := range net.Nodes {
		if mask[i] != n.OnSurface {
			t.Fatal("TrueBoundary mask mismatch")
		}
	}
	if len(net.Positions()) != net.Len() {
		t.Error("Positions length mismatch")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := testNetwork(t, 42)
	b := testNetwork(t, 42)
	if a.Radius != b.Radius {
		t.Fatalf("radius differs: %v vs %v", a.Radius, b.Radius)
	}
	for i := range a.Nodes {
		if a.Nodes[i].Pos != b.Nodes[i].Pos {
			t.Fatalf("node %d position differs", i)
		}
	}
}

func TestConnectivityMatchesRadius(t *testing.T) {
	net := testNetwork(t, 2)
	pos := net.Positions()
	// Every listed edge must be within radius with the correct distance;
	// adjacency must be sorted and symmetric.
	for i, adj := range net.G.Adj {
		if !sort.IntsAreSorted(adj) {
			t.Fatalf("adjacency of %d not sorted", i)
		}
		for k, j := range adj {
			d := pos[i].Dist(pos[j])
			if d > net.Radius+1e-12 {
				t.Fatalf("edge (%d,%d) length %v exceeds radius %v", i, j, d, net.Radius)
			}
			if math.Abs(net.Dist[i][k]-d) > 1e-12 {
				t.Fatalf("Dist[%d][%d] = %v, want %v", i, k, net.Dist[i][k], d)
			}
			if _, ok := net.neighborIndex(j, i); !ok {
				t.Fatalf("edge (%d,%d) not symmetric", i, j)
			}
		}
	}
	// Spot-check completeness against brute force for a sample of nodes.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		i := rng.Intn(net.Len())
		count := 0
		for j := range pos {
			if j != i && pos[i].Dist(pos[j]) <= net.Radius {
				count++
			}
		}
		if count != len(net.G.Adj[i]) {
			t.Fatalf("node %d: %d neighbors listed, brute force %d", i, len(net.G.Adj[i]), count)
		}
	}
}

func TestRadiusTuningHitsTargetDegree(t *testing.T) {
	net := testNetwork(t, 3)
	avg := net.G.AvgDegree()
	if math.Abs(avg-16) > 1.0 {
		t.Errorf("avg degree = %v, want ≈ 16", avg)
	}
}

func TestFixedRadius(t *testing.T) {
	net, err := Generate(Config{
		Shape:         shapes.NewBall(geom.Zero, 5),
		SurfaceNodes:  100,
		InteriorNodes: 100,
		Radius:        2.5,
		Seed:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if net.Radius != 2.5 {
		t.Errorf("Radius = %v", net.Radius)
	}
}

func TestStats(t *testing.T) {
	net := testNetwork(t, 5)
	s := net.Stats()
	if s.Nodes != 1000 || s.SurfaceNodes != 300 {
		t.Errorf("counts: %+v", s)
	}
	if s.MinDegree > s.MaxDegree {
		t.Errorf("degree range inverted: %+v", s)
	}
	if math.Abs(s.AvgDegree-16) > 1.5 {
		t.Errorf("avg degree: %+v", s)
	}
	if s.Components < 1 || s.LargestComp == 0 {
		t.Errorf("components: %+v", s)
	}
	if s.String() == "" {
		t.Error("empty Stats string")
	}
}

func TestMeasureExactMatchesTrue(t *testing.T) {
	net := testNetwork(t, 6)
	m := net.Measure(ranging.Exact{}, 99)
	for i := range net.G.Adj {
		for k := range net.G.Adj[i] {
			if m.Dist[i][k] != net.Dist[i][k] {
				t.Fatalf("exact measurement differs at (%d,%d)", i, k)
			}
		}
	}
}

func TestMeasureSymmetricAndBounded(t *testing.T) {
	net := testNetwork(t, 7)
	m := net.Measure(ranging.UniformAdditive{Fraction: 0.3}, 100)
	for i := range net.G.Adj {
		for k, j := range net.G.Adj[i] {
			dij := m.Dist[i][k]
			dji, ok := m.Lookup(j, i)
			if !ok || dij != dji {
				t.Fatalf("asymmetric measurement (%d,%d): %v vs %v", i, j, dij, dji)
			}
			if math.Abs(dij-net.Dist[i][k]) > 0.3*net.Radius+1e-12 {
				t.Fatalf("measurement error out of bounds at (%d,%d)", i, j)
			}
		}
	}
}

func TestMeasurementLookup(t *testing.T) {
	net := testNetwork(t, 8)
	m := net.Measure(ranging.Exact{}, 0)
	if d, ok := m.Lookup(0, 0); !ok || d != 0 {
		t.Error("self lookup should be 0")
	}
	// Find a non-adjacent pair.
	adj := map[int]bool{}
	for _, j := range net.G.Adj[0] {
		adj[j] = true
	}
	for j := 1; j < net.Len(); j++ {
		if !adj[j] {
			if _, ok := m.Lookup(0, j); ok {
				t.Error("lookup of non-neighbor succeeded")
			}
			break
		}
	}
}

func TestMeasureDeterministicPerSeed(t *testing.T) {
	net := testNetwork(t, 10)
	m1 := net.Measure(ranging.UniformAdditive{Fraction: 0.5}, 7)
	m2 := net.Measure(ranging.UniformAdditive{Fraction: 0.5}, 7)
	m3 := net.Measure(ranging.UniformAdditive{Fraction: 0.5}, 8)
	same, diff := true, false
	for i := range m1.Dist {
		for k := range m1.Dist[i] {
			if m1.Dist[i][k] != m2.Dist[i][k] {
				same = false
			}
			if m1.Dist[i][k] != m3.Dist[i][k] {
				diff = true
			}
		}
	}
	if !same {
		t.Error("same seed produced different measurements")
	}
	if !diff {
		t.Error("different seeds produced identical measurements")
	}
}

// TestSpatialGridMatchesBruteForce: buildConnectivity's rows and the
// radius tuner's pair count and pair distance list, all answered by a
// geom.PointGrid, agree with an all-pairs scan under the same Dist2 <= r²
// predicate.
func TestSpatialGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := make([]geom.Vec3, 400)
	for i := range pts {
		pts[i] = geom.RandomInBox(rng, geom.NewAABB(geom.Zero, geom.V(4, 4, 4)))
	}
	var grid geom.PointGrid
	var buf []int32
	for _, radius := range []float64{0.35, 0.7, 1.3} {
		g, _ := buildConnectivity(pts, radius)
		var d2 []float64
		for i := range pts {
			var want []int
			for j := range pts {
				if j != i && pts[i].Dist2(pts[j]) <= radius*radius {
					want = append(want, j)
					if j > i {
						d2 = append(d2, pts[j].Dist2(pts[i]))
					}
				}
			}
			if !slices.Equal(g.Adj[i], want) {
				t.Fatalf("radius %v node %d: rows %v, brute force %v", radius, i, g.Adj[i], want)
			}
		}
		total := len(d2)
		if got := countPairs(&grid, pts, radius, math.MaxInt, &buf); got != total {
			t.Fatalf("radius %v: countPairs = %d, want %d", radius, got, total)
		}
		for _, limit := range []int{1, total / 2, total, total + 1} {
			if got := countPairs(&grid, pts, radius, limit, &buf); (got >= limit) != (total >= limit) || got > total {
				t.Fatalf("radius %v limit %d: countPairs = %d of %d", radius, limit, got, total)
			}
		}
		slices.Sort(d2)
		if got := pairDist2(&grid, pts, radius, &buf); !slices.Equal(got, d2) {
			t.Fatalf("radius %v: pairDist2 differs from the brute-force list", radius)
		}
	}
}

func TestTuneRadiusErrors(t *testing.T) {
	if _, err := tuneRadius([]geom.Vec3{{}}, 5, geom.NewAABB(geom.Zero, geom.V(1, 1, 1))); err == nil {
		t.Error("single node should fail")
	}
	pts := []geom.Vec3{{}, {X: 1}, {X: 2}}
	if _, err := tuneRadius(pts, 10, geom.NewAABB(geom.Zero, geom.V(2, 0, 0))); err == nil {
		t.Error("unreachable degree should fail")
	}
	same := []geom.Vec3{{}, {}}
	if _, err := tuneRadius(same, 1, geom.BoundingBox(same)); err == nil {
		t.Error("degenerate bounds should fail")
	}
}
