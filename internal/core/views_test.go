package core

// Tests of the detection pipeline's view loop beyond result bits: a sharded
// run must tell an observer the same story as the unsharded run, plus its
// partition, minus the protocol rounds it does not model.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// floodFragments is viewFragments over a whole graph: the one-view case
// the flood kernel differential (flood_test.go) diffs against the
// simulator.
func floodFragments(ctx context.Context, o obs.Observer, c *graph.CSR, member []bool, ttl, workers int) ([]int, floodCost, error) {
	return viewFragments(ctx, o, c, wholeView(&NodeTable{CSR: c}), member, ttl, workers)
}

// verdictTransitions returns the UBF claims and IFF rescinds of a trace in
// arrival order.
func verdictTransitions(m *obs.Mem) []obs.Event {
	var out []obs.Event
	for _, e := range m.Events() {
		if e.Kind == obs.KindTransition && (e.Trans == obs.TransBoundaryClaim || e.Trans == obs.TransIFFRescind) {
			out = append(out, e)
		}
	}
	return out
}

// TestShardedObserverMatchesUnsharded: over the shard-differential worlds,
// a sharded run emits the unsharded run's UBF work counters, IFF boundary
// count, group count and claim/rescind transitions in the same order. On
// top of that it emits the partition span and counters, and no protocol
// round events; the unsharded run emits no partition span.
func TestShardedObserverMatchesUnsharded(t *testing.T) {
	if testing.Short() {
		t.Skip("observer differential is long")
	}
	// The worlds' two-hop neighborhoods sit below the UBF grid gate; force
	// the grid path so the probed-cell counter is compared, not zero. The
	// worlds' cached baselines are built first, under the default gate.
	worlds := shardWorlds(t)
	defer func(m int) { gridMinPoints = m }(gridMinPoints)
	gridMinPoints = 1
	same := []struct {
		stage obs.Stage
		ctr   obs.Counter
	}{
		{obs.StageUBF, obs.CtrBallsTested},
		{obs.StageUBF, obs.CtrNodesChecked},
		{obs.StageUBF, obs.CtrGridCells},
		{obs.StageUBF, obs.CtrUBFBoundary},
		{obs.StageIFF, obs.CtrBoundary},
		{obs.StageGrouping, obs.CtrGroups},
	}
	for _, w := range worlds {
		base := &obs.Mem{}
		if _, err := DetectContext(context.Background(), base, w.net, nil, Config{}); err != nil {
			t.Fatal(err)
		}
		if base.Spans(obs.StagePartition) != 0 || base.Total(obs.StagePartition, obs.CtrShards) != 0 {
			t.Fatalf("%s: unsharded run emits a partition span or counter", w.name)
		}
		if base.Rounds(obs.StageIFF) == 0 || base.Rounds(obs.StageGrouping) == 0 {
			t.Fatalf("%s: unsharded run emits no protocol rounds — the round check below is vacuous", w.name)
		}
		wantTrans := verdictTransitions(base)
		for _, shards := range []int{2, 4, 7} {
			label := fmt.Sprintf("%s/shards=%d", w.name, shards)
			m := &obs.Mem{}
			if _, err := DetectContext(context.Background(), m, w.net, nil, Config{Shards: shards, Workers: 2}); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for _, c := range same {
				want := base.Total(c.stage, c.ctr)
				if got := m.Total(c.stage, c.ctr); got != want {
					t.Errorf("%s: %s/%s = %d, unsharded %d", label, c.stage, c.ctr, got, want)
				}
				if want == 0 {
					t.Errorf("%s: %s/%s is zero — comparison is vacuous", label, c.stage, c.ctr)
				}
			}
			gotTrans := verdictTransitions(m)
			if len(gotTrans) != len(wantTrans) {
				t.Fatalf("%s: %d claim/rescind transitions, unsharded %d", label, len(gotTrans), len(wantTrans))
			}
			for i := range wantTrans {
				if gotTrans[i] != wantTrans[i] {
					t.Fatalf("%s: transition %d = %+v, unsharded %+v", label, i, gotTrans[i], wantTrans[i])
				}
			}
			if m.Spans(obs.StagePartition) != 1 {
				t.Errorf("%s: %d partition spans, want 1", label, m.Spans(obs.StagePartition))
			}
			if got := m.Total(obs.StagePartition, obs.CtrShards); got != int64(shards) {
				t.Errorf("%s: shards counter %d, want %d", label, got, shards)
			}
			if m.Total(obs.StagePartition, obs.CtrHaloNodes) == 0 {
				t.Errorf("%s: no halo nodes counted", label)
			}
			for _, e := range m.Events() {
				if e.Kind == obs.KindRoundBegin || e.Kind == obs.KindRoundEnd {
					t.Fatalf("%s: sharded run emits a round event %+v", label, e)
				}
			}
			if un := m.Unbalanced(); len(un) != 0 {
				t.Errorf("%s: unbalanced spans: %v", label, un)
			}
		}
	}
}
