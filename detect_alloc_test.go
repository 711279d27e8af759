package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/ranging"
)

// detectAllocBound caps the allocations of one default Detect on the bench
// fixture (Fig. 1 at benchScale, 631 nodes, true coordinates, one worker).
// The traversal-evaluated flooding phases need a few hundred; simulating
// the IFF and grouping protocols costs about 51k, so the bound trips if the
// default path ever routes through the message simulator again.
const detectAllocBound = 1000

func TestDetectAllocsBounded(t *testing.T) {
	net, err := eval.Fig1().Scaled(benchScale).Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Workers: 1}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := core.Detect(net, nil, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Detect on %d nodes: %.0f allocs/op", net.Len(), allocs)
	if allocs > detectAllocBound {
		t.Errorf("Detect allocates %.0f times per op on the bench fixture, bound %d", allocs, detectAllocBound)
	}
}

// shardedAllocBound caps the allocations of one Shards: 4 Detect on the
// same fixture. The shard views and their tables need about 300; one
// allocation per node in any stage loop over the views would add 631 and
// trip the bound.
const shardedAllocBound = 600

func TestShardedDetectAllocsBounded(t *testing.T) {
	net, err := eval.Fig1().Scaled(benchScale).Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Workers: 1, Shards: 4}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := core.Detect(net, nil, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Detect with %d shards on %d nodes: %.0f allocs/op", cfg.Shards, net.Len(), allocs)
	if allocs > shardedAllocBound {
		t.Errorf("Detect with %d shards allocates %.0f times per op on the bench fixture, bound %d", cfg.Shards, allocs, shardedAllocBound)
	}
}

// mdsAllocBound caps the allocations of one Detect under local MDS frames
// on the same fixture (20 % uniform ranging error, one worker). Frames,
// their stitching and their MDS workspaces reuse per-worker scratch and
// per-view slabs, so the count does not grow with the node count; one
// allocation per node in the frames loop would add 631 and trip the bound.
const mdsAllocBound = 1000

func TestDetectMDSAllocsBounded(t *testing.T) {
	net, err := eval.Fig1().Scaled(benchScale).Generate()
	if err != nil {
		t.Fatal(err)
	}
	meas := net.Measure(ranging.UniformAdditive{Fraction: 0.2}, 1)
	cfg := core.Config{Workers: 1}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := core.Detect(net, meas, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("MDS Detect on %d nodes: %.0f allocs/op", net.Len(), allocs)
	if allocs > mdsAllocBound {
		t.Errorf("MDS Detect allocates %.0f times per op on the bench fixture, bound %d", allocs, mdsAllocBound)
	}
}
