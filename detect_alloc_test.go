package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
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
