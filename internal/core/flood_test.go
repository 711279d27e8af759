package core

// Differential suite for flood.go: the traversal kernels that evaluate IFF
// and grouping must reproduce the internal/sim protocol kernels exactly —
// fragment sizes, labels and groups, packet and round counts, and the full
// flight-recorder stream — on the same member masks.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/sim"
)

// checkIFFMatchesSim diffs floodFragments against sim.FloodCountStats on
// one member mask.
func checkIFFMatchesSim(t *testing.T, label string, g *graph.Graph, member []bool, ttl, workers int) {
	t.Helper()
	simObs := &obs.Mem{}
	wantCounts, want, err := sim.FloodCountStats(g, member, ttl, sim.Probe{Obs: simObs, Stage: obs.StageIFF})
	if err != nil {
		t.Fatalf("%s: sim IFF: %v", label, err)
	}
	csr := graph.NewCSR(g)
	gotObs := &obs.Mem{}
	counts, cost, err := floodFragments(context.Background(), gotObs, csr, member, ttl, workers)
	if err != nil {
		t.Fatalf("%s: IFF: %v", label, err)
	}
	if !reflect.DeepEqual(counts, wantCounts) {
		t.Fatalf("%s: fragment sizes differ from the simulator's", label)
	}
	if cost.Messages != want.Messages || cost.Rounds != want.Rounds {
		t.Fatalf("%s: IFF cost %d msgs / %d rounds, simulator %d / %d",
			label, cost.Messages, cost.Rounds, want.Messages, want.Rounds)
	}
	diffEvents(t, label+"/iff", gotObs.Events(), simObs.Events())

	plainCounts, plainCost, err := floodFragments(context.Background(), nil, csr, member, ttl, workers)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainCounts, counts) || plainCost != cost {
		t.Fatalf("%s: unobserved IFF differs from the observed run", label)
	}
}

// checkGroupingMatchesSim diffs groupLabels and labelPropagation against
// sim.LabelComponentsStats on one member mask.
func checkGroupingMatchesSim(t *testing.T, label string, g *graph.Graph, member []bool) {
	t.Helper()
	simObs := &obs.Mem{}
	wantLabels, want, err := sim.LabelComponentsStats(g, member, sim.Probe{Obs: simObs, Stage: obs.StageGrouping})
	if err != nil {
		t.Fatalf("%s: sim grouping: %v", label, err)
	}
	csr := graph.NewCSR(g)
	labels := groupLabels(csr.Len(), member, csr.Neighbors)
	if !reflect.DeepEqual(labels, wantLabels) {
		t.Fatalf("%s: group labels differ from the simulator's", label)
	}
	if !reflect.DeepEqual(sim.Groups(labels), sim.Groups(wantLabels)) {
		t.Fatalf("%s: groups differ from the simulator's", label)
	}
	gotObs := &obs.Mem{}
	cost := labelPropagation(gotObs, csr, member)
	if cost.Messages != want.Messages || cost.Rounds != want.Rounds {
		t.Fatalf("%s: grouping cost %d msgs / %d rounds, simulator %d / %d",
			label, cost.Messages, cost.Rounds, want.Messages, want.Rounds)
	}
	diffEvents(t, label+"/grouping", gotObs.Events(), simObs.Events())
	if plain := labelPropagation(nil, csr, member); plain != cost {
		t.Fatalf("%s: unobserved grouping cost %+v, observed %+v", label, plain, cost)
	}
}

// diffEvents requires two flight-recorder streams to be identical, event
// for event.
func diffEvents(t *testing.T, label string, got, want []obs.Event) {
	t.Helper()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d = %+v, simulator %+v", label, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, simulator %d", label, len(got), len(want))
	}
	if len(want) == 0 {
		t.Fatalf("%s: simulator recorded no events — comparison is vacuous", label)
	}
}

// checkDetectMatchesSim runs a detection and diffs its flooding phases
// against the simulator kernels on the detection's own masks: the Result's
// fragment sizes, boundary, labels, groups and message counters, then the
// kernels themselves.
func checkDetectMatchesSim(t *testing.T, label string, net *netgen.Network, cfg Config) {
	t.Helper()
	res, err := DetectContext(context.Background(), &obs.Mem{}, net, nil, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	full := cfg.withDefaults(false)
	if full.IFFThreshold < 0 {
		if res.IFFMessages != 0 {
			t.Fatalf("%s: disabled IFF counted %d messages", label, res.IFFMessages)
		}
		if !reflect.DeepEqual(res.Boundary, res.UBF) {
			t.Fatalf("%s: disabled IFF changed the candidate set", label)
		}
	} else {
		counts, stats, err := sim.FloodCountStats(net.G, res.UBF, full.IFFTTL, sim.Probe{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.FragmentSize, counts) || res.IFFMessages != stats.Messages {
			t.Fatalf("%s: IFF result (%d msgs) differs from the simulator (%d msgs)", label, res.IFFMessages, stats.Messages)
		}
		for i := range res.Boundary {
			if res.Boundary[i] != (res.UBF[i] && counts[i] >= full.IFFThreshold) {
				t.Fatalf("%s: Boundary[%d] disagrees with the simulated fragment size", label, i)
			}
		}
		checkIFFMatchesSim(t, label, net.G, res.UBF, full.IFFTTL, full.Workers)
	}
	labels, stats, err := sim.LabelComponentsStats(net.G, res.Boundary, sim.Probe{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.GroupLabel, labels) || !reflect.DeepEqual(res.Groups, sim.Groups(labels)) {
		t.Fatalf("%s: grouping differs from the simulator", label)
	}
	if res.GroupingMessages != stats.Messages {
		t.Fatalf("%s: grouping messages %d, simulator %d", label, res.GroupingMessages, stats.Messages)
	}
	checkGroupingMatchesSim(t, label, net.G, res.Boundary)
}

func TestFloodKernelsMatchSim(t *testing.T) {
	t.Run("shard-worlds", func(t *testing.T) {
		for _, w := range shardWorlds(t) {
			for _, ttl := range []int{1, 3} {
				for _, workers := range []int{1, 3} {
					checkDetectMatchesSim(t, fmt.Sprintf("%s/ttl=%d/workers=%d", w.name, ttl, workers),
						w.net, Config{IFFTTL: ttl, Workers: workers})
				}
			}
		}
	})
	t.Run("incremental-worlds", func(t *testing.T) {
		for _, w := range incWorlds(t) {
			checkDetectMatchesSim(t, w.name, w.net, Config{})
		}
	})
	t.Run("deep-ttl", func(t *testing.T) {
		// A TTL far past the sharded engine's scope-deep halo; a sharded
		// run must match this path (TestShardedDeepTTL).
		checkDetectMatchesSim(t, "deep-ttl", shardTestNet(t),
			Config{IFFThreshold: 5, IFFTTL: 121})
	})
	t.Run("iff-disabled", func(t *testing.T) {
		checkDetectMatchesSim(t, "iff-disabled", shardTestNet(t), Config{IFFThreshold: -1})
	})
	t.Run("detectors", func(t *testing.T) {
		// Every registered detector ends in filterAndGroup.
		net := shardTestNet(t)
		for _, name := range DetectorNames() {
			checkDetectMatchesSim(t, name, net, Config{Detector: name})
		}
	})
	t.Run("masks", func(t *testing.T) {
		net := shardTestNet(t)
		n := net.Len()
		empty := make([]bool, n)
		sparse := make([]bool, n) // mostly isolated members, a few short chains
		for i := range sparse {
			sparse[i] = i%7 == 0
		}
		for _, ttl := range []int{-1, 0, 1, 3} {
			checkIFFMatchesSim(t, fmt.Sprintf("empty/ttl=%d", ttl), net.G, empty, ttl, 2)
			checkIFFMatchesSim(t, fmt.Sprintf("sparse/ttl=%d", ttl), net.G, sparse, ttl, 2)
		}
		checkGroupingMatchesSim(t, "empty", net.G, empty)
		checkGroupingMatchesSim(t, "sparse", net.G, sparse)

		// A path cut in two by a non-member, a triangle, and an isolated
		// member.
		g := graph.New(11)
		for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {7, 8}, {8, 9}, {9, 7}} {
			g.AddEdge(e[0], e[1])
		}
		member := []bool{true, true, true, true, false, true, true, true, true, true, true}
		for _, ttl := range []int{1, 2, 5} {
			checkIFFMatchesSim(t, fmt.Sprintf("hand/ttl=%d", ttl), g, member, ttl, 1)
		}
		checkGroupingMatchesSim(t, "hand", g, member)
		isolated := make([]bool, 11)
		isolated[4], isolated[10] = true, true
		checkIFFMatchesSim(t, "isolated", g, isolated, 3, 1)
		checkGroupingMatchesSim(t, "isolated", g, isolated)
	})
}
