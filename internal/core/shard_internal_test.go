package core

// White-box tests of the sharded engine's internals: steady-state
// allocation behavior of the per-shard IFF traversal loop, halo-depth
// selection, and the deep-TTL fallback. (The byte-identical envelope
// determinism test lives in internal/cli — cli imports core for detector
// validation, so core's tests cannot import cli back.)

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/partition/shard"
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
		{"defaults (two-hop, ttl 3)", func(c *Config) {}, 3},
		{"one-hop scope still needs ttl", func(c *Config) { c.Scope = ScopeOneHop }, 3},
		{"iff off, two-hop", func(c *Config) { c.IFFThreshold = -1 }, 2},
		{"iff off, one-hop", func(c *Config) { c.IFFThreshold = -1; c.Scope = ScopeOneHop }, 1},
		{"short ttl bounded by scope", func(c *Config) { c.IFFTTL = 1 }, 2},
		{"deep ttl wins", func(c *Config) { c.IFFTTL = 9 }, 9},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if got := shardHaloDepth(cfg); got != tc.want {
			t.Errorf("%s: depth %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestShardedDeepTTLFallback drives the halo depth past maxShardHalo; the
// engine must fall back to the unsharded pipeline and still return the
// unsharded bits (message counters included — the fallback really runs the
// protocol).
func TestShardedDeepTTLFallback(t *testing.T) {
	net := shardTestNet(t)
	cfg := Config{IFFThreshold: 5, IFFTTL: maxShardHalo + 1}
	base, err := Detect(net, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 4
	got, err := Detect(net, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, "deep-ttl-fallback", base, got, msgEqual)
	if got.IFFMessages == 0 {
		t.Error("fallback run reports zero IFF messages; expected the message-passing path")
	}
}

// TestShardedIFFSteadyStateAllocs pins the steady-state allocation count of
// the sharded IFF inner loop — one fragmentSize BFS per owned member over a
// warm Scratch and member set — at zero. The loop reuses one worker's
// scratch across shards whose views differ in size, so this also guards
// the epoch-stamp reset path of graph.Scratch under the engine's real
// access pattern.
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
	views := make([]*shardView, shd.K)
	for s := range views {
		if shd.OwnedCount(s) == 0 {
			continue
		}
		v, err := buildShardView(tab, shd, s, depth, &sc)
		if err != nil {
			t.Fatal(err)
		}
		views[s] = v
	}
	var mset graph.NodeSet
	iffPass := func() {
		for _, v := range views {
			if v == nil {
				continue
			}
			mset.Reset(len(v.glob))
			for l, g := range v.glob {
				if base.UBF[g] {
					mset.Add(l)
				}
			}
			for _, l32 := range v.owned {
				if !base.UBF[v.glob[l32]] {
					continue
				}
				_ = fragmentSize(v.tab.CSR, &sc, &mset, int(l32), cfg.IFFTTL, nil)
			}
		}
	}
	iffPass() // warm every buffer to the largest view
	if allocs := testing.AllocsPerRun(20, iffPass); allocs != 0 {
		t.Errorf("steady-state sharded IFF pass allocates %.1f per run, want 0", allocs)
	}
}
