package core

// White-box tests of the sharded engine's internals: steady-state
// allocation behavior of the per-shard IFF traversal loop, halo-depth
// selection, a deep IFF TTL past the halo, and view compaction. (The
// byte-identical envelope determinism test lives in internal/cli — cli
// imports core for detector validation, so core's tests cannot import cli
// back.)

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/partition/shard"
	"repro/internal/ranging"
	"repro/internal/shapes"
)

func shardTestNet(t testing.TB) *netgen.Network {
	t.Helper()
	net, err := netgen.Generate(netgen.Config{
		Shape:           shapes.NewBall(geom.Zero, 3),
		SurfaceNodes:    200,
		InteriorNodes:   400,
		TargetAvgDegree: 14,
		Seed:            13,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestShardHaloDepth(t *testing.T) {
	base := Config{}.withDefaults(false)
	cases := []struct {
		name string
		mut  func(*Config)
		want int
	}{
		{"defaults (two-hop, ttl 3)", func(c *Config) {}, 2},
		{"one-hop scope", func(c *Config) { c.Scope = ScopeOneHop }, 1},
		{"iff off, two-hop", func(c *Config) { c.IFFThreshold = -1 }, 2},
		{"iff off, one-hop", func(c *Config) { c.IFFThreshold = -1; c.Scope = ScopeOneHop }, 1},
		{"short ttl", func(c *Config) { c.IFFTTL = 1 }, 2},
		{"deep ttl does not widen the halo", func(c *Config) { c.IFFTTL = 9 }, 2},
		{"deep ttl, one-hop", func(c *Config) { c.IFFTTL = 9; c.Scope = ScopeOneHop }, 1},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if got := shardHaloDepth(cfg); got != tc.want {
			t.Errorf("%s: depth %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestShardedDeepTTL floods far past the scope-deep halo: IFF runs over the
// global adjacency, so a sharded run must still return the unsharded bits,
// except the message counters, which a sharded run leaves at zero.
func TestShardedDeepTTL(t *testing.T) {
	net := shardTestNet(t)
	cfg := Config{IFFThreshold: 5, IFFTTL: 121}
	base, err := Detect(net, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.IFFMessages == 0 {
		t.Fatal("unsharded run reports zero IFF messages; the case floods nothing")
	}
	cfg.Shards = 4
	got, err := Detect(net, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, "deep-ttl", base, got, msgZero)
}

// TestShardedIFFSteadyStateAllocs pins the steady-state allocation count of
// the sharded IFF inner loop — one fragmentSize BFS over the global
// adjacency per owned member of each view, over a warm Scratch and the one
// global member set — at zero. The loop reuses one worker's scratch across
// every shard, so this also guards the epoch-stamp reset path of
// graph.Scratch under the engine's real access pattern.
func TestShardedIFFSteadyStateAllocs(t *testing.T) {
	net := shardTestNet(t)
	cfg := Config{}.withDefaults(false)
	tab := NewNodeTable(net, nil)
	shd, err := shard.Spatial(tab.Pos, 3)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Detect(net, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	depth := shardHaloDepth(cfg)
	var sc graph.Scratch
	local := newViewLookup(tab.Len())
	views := make([]*shardView, shd.K)
	for s := range views {
		if shd.OwnedCount(s) == 0 {
			continue
		}
		v, err := buildShardView(tab, shd, s, depth, &sc, local)
		if err != nil {
			t.Fatal(err)
		}
		views[s] = v
	}
	members := graph.NodeSetOf(base.UBF)
	iffPass := func() {
		for _, v := range views {
			if v == nil {
				continue
			}
			for _, l32 := range v.owned {
				g := int(v.glob[l32])
				if !base.UBF[g] {
					continue
				}
				_ = fragmentSize(tab.CSR, &sc, members, g, cfg.IFFTTL, nil)
			}
		}
	}
	iffPass() // warm every buffer to the network size
	if allocs := testing.AllocsPerRun(20, iffPass); allocs != 0 {
		t.Errorf("steady-state sharded IFF pass allocates %.1f per run, want 0", allocs)
	}
}

// TestBuildShardViewMatchesBruteForce checks view compaction against a
// map-based restriction of the global adjacency: for every view, each
// local row lists exactly the in-view neighbors of its global node in
// global row order, renamed, with the measured distances carried
// arc-parallel; glob is strictly ascending, so the renaming is monotone.
// One lookup serves every view, as in a worker, so a stale entry left by
// one shard would corrupt the next.
func TestBuildShardViewMatchesBruteForce(t *testing.T) {
	net := shardTestNet(t)
	for _, meas := range []*netgen.Measurement{nil, net.Measure(ranging.UniformAdditive{Fraction: 0.2}, 3)} {
		tab := NewNodeTable(net, meas)
		var sc graph.Scratch
		local := newViewLookup(tab.Len())
		for _, k := range []int{2, 4, 7} {
			shd, err := shard.Spatial(tab.Pos, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, depth := range []int{1, 2} {
				for s := 0; s < k; s++ {
					label := fmt.Sprintf("meas=%v/shards=%d/depth=%d/shard=%d", meas != nil, k, depth, s)
					v, err := buildShardView(tab, shd, s, depth, &sc, local)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					checkShardView(t, label, net, meas, shd.Owned[s], v)
				}
				for g, l := range local {
					if l != -1 {
						t.Fatalf("shards=%d/depth=%d: lookup entry %d left at %d", k, depth, g, l)
					}
				}
			}
		}
	}
}

// checkShardView diffs one view against the brute-force restriction of
// net (and meas, nil for none) to the view's nodes.
func checkShardView(t *testing.T, label string, net *netgen.Network, meas *netgen.Measurement, owned []int, v *shardView) {
	t.Helper()
	idx := make(map[int32]int32, len(v.glob))
	for l, g := range v.glob {
		if l > 0 && v.glob[l-1] >= g {
			t.Fatalf("%s: glob not strictly ascending at %d: %d after %d", label, l, g, v.glob[l-1])
		}
		idx[g] = int32(l)
	}
	var gotOwned []int
	for _, l := range v.owned {
		gotOwned = append(gotOwned, int(v.glob[l]))
	}
	if fmt.Sprint(gotOwned) != fmt.Sprint(owned) {
		t.Fatalf("%s: owned %v, want %v", label, gotOwned, owned)
	}
	if (meas != nil) != (v.tab.Meas != nil) {
		t.Fatalf("%s: view measurement present = %v, want %v", label, v.tab.Meas != nil, meas != nil)
	}
	for l, g := range v.glob {
		var wantRow []int32
		var wantMeas []float64
		for k, nb := range net.G.Adj[g] {
			if ln, ok := idx[int32(nb)]; ok {
				wantRow = append(wantRow, ln)
				if meas != nil {
					wantMeas = append(wantMeas, meas.Dist[g][k])
				}
			}
		}
		row := v.tab.Neighbors(l)
		if fmt.Sprint(row) != fmt.Sprint(wantRow) {
			t.Fatalf("%s: local row %d (global %d) = %v, want %v", label, l, g, row, wantRow)
		}
		if v.tab.Pos[l] != net.Nodes[g].Pos {
			t.Fatalf("%s: local node %d position %v, want %v", label, l, v.tab.Pos[l], net.Nodes[g].Pos)
		}
		if meas == nil {
			continue
		}
		mrow := v.tab.MeasRow(l)
		if len(mrow) != len(wantMeas) {
			t.Fatalf("%s: local row %d has %d measured arcs, want %d", label, l, len(mrow), len(wantMeas))
		}
		for k := range mrow {
			if math.Float64bits(mrow[k]) != math.Float64bits(wantMeas[k]) {
				t.Fatalf("%s: local arc %d/%d measured %v, want %v", label, l, k, mrow[k], wantMeas[k])
			}
		}
	}
}
