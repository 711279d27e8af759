package netgen_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/shapes"
)

// adjacencyHash is an FNV-1a hash of the adjacency rows, row lengths
// included.
func adjacencyHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int) {
		for k := range b {
			b[k] = byte(uint64(v) >> (8 * k))
		}
		h.Write(b[:])
	}
	for _, row := range g.Adj {
		put(len(row))
		for _, v := range row {
			put(v)
		}
	}
	return h.Sum64()
}

// checkTunedRadius fails unless net's tuned radius has the oracle's bits
// and net's adjacency equals the adjacency at the oracle's radius.
func checkTunedRadius(t *testing.T, label string, net *netgen.Network, target float64, bounds geom.AABB) {
	t.Helper()
	want := netgen.TuneRadiusByCounting(net.Positions(), target, bounds)
	if math.Float64bits(net.Radius) != math.Float64bits(want) {
		t.Fatalf("%s: radius %v (%#x), oracle %v (%#x)", label, net.Radius, math.Float64bits(net.Radius), want, math.Float64bits(want))
	}
	ref, err := netgen.Assemble(net.Nodes, want)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := adjacencyHash(net.G), adjacencyHash(ref.G); got != want {
		t.Fatalf("%s: adjacency hash %#x, oracle %#x", label, got, want)
	}
}

// TestTuneRadiusMatchesCountingOracle pins the radius tuner to the
// count-every-probe bisection, bit for bit, on the paper's figure
// deployments and on the inputs of TestTuneRadiusAccuracyProperty.
func TestTuneRadiusMatchesCountingOracle(t *testing.T) {
	for _, sc := range []eval.Scenario{eval.Fig1(), eval.Fig6(), eval.Fig7(), eval.Fig8(), eval.Fig9(), eval.Fig10()} {
		net, err := sc.Generate()
		if err != nil {
			t.Fatal(err)
		}
		shape, err := sc.MakeShape()
		if err != nil {
			t.Fatal(err)
		}
		checkTunedRadius(t, sc.Name, net, sc.TargetDegree, shape.Bounds())
	}
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 5; trial++ {
		target := 8 + rng.Float64()*20
		shape := shapes.NewBall(geom.Zero, 4)
		net, err := netgen.Generate(netgen.Config{
			Shape:           shape,
			SurfaceNodes:    150,
			InteriorNodes:   450,
			TargetAvgDegree: target,
			Seed:            int64(100 + trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		checkTunedRadius(t, fmt.Sprintf("accuracy-property/trial=%d", trial), net, target, shape.Bounds())
	}
}
