package core

// Detection views. Every stage of the detection pipeline — frames, UBF, IFF
// and grouping — loops over a list of shardViews. Unsharded detection is
// the one-view case: a single view over the whole NodeTable with the
// identity renaming, every node owned at depth 0, and no compaction. With
// Config.Shards > 1 the node set is cut into spatial shards
// (internal/partition over geom.PointGrid); each shard's view is a
// compacted struct-of-arrays table of its owned nodes plus a bounded ghost
// halo, and the per-node stages run shard-parallel over those views.
//
// Bit-identity between the two cases rests on three facts, spelled out
// here because every test in shard_differential_test.go enforces them:
//
//  1. Locality (the paper's Sec. II): a node's UBF verdict reads its
//     two-hop neighborhood at most (coordinates of the frames it stitches).
//     A view at halo depth D = scope hops (2 for two-hop knowledge, 1 for
//     one-hop) therefore contains every node an owned node's frames and
//     UBF dereference. IFF and grouping read the global adjacency, so
//     neither widens the halo.
//  2. Edge completeness: a view keeps exactly the global adjacency
//     restricted to its node set, so any edge whose endpoints are both in
//     the view survives compaction — and every node at view depth d < D has
//     its *entire* global row present (its neighbors sit at depth ≤ d+1).
//     Traversals that only expand nodes below the halo boundary behave
//     exactly as on the full graph.
//  3. Monotone renaming: view nodes are sorted by global ID, so local IDs
//     are an order-preserving relabeling. Every order the pipeline's
//     kernels depend on — adjacency scan order, two-hop first-appearance
//     order, MDS member order, grid insertion order — is preserved, and
//     with it every tie-break, work counter, and floating-point operation
//     sequence.
//
// IFF still dispatches per view — one member BFS per owned candidate — but
// the BFS runs over the global adjacency (flood.go), and grouping runs the
// min-root union-find over it. Work that models the protocol over the whole
// network runs only with a single view: the flooding phases' exact message
// and round counts (with their round events), and the Async/Faults protocol
// simulation. A sharded run reports zero messages and fault stats and
// ignores Async and Faults.

import (
	"context"
	"fmt"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition/shard"
)

// shardView is one detection view: struct-of-arrays tables over the view
// nodes (owned ∪ halo) with local contiguous IDs. The single view of an
// unsharded run is the whole network under the identity renaming.
type shardView struct {
	// tab holds the view-local adjacency, positions and measured
	// distances; node l of tab is global node glob[l].
	tab NodeTable
	// glob maps local to global IDs, ascending — the renaming is monotone.
	glob []int32
	// depth is each view node's hop distance from the owned set: 0 for
	// owned nodes, 1..D for ghosts.
	depth []int8
	// owned lists the local IDs the shard owns, ascending.
	owned []int32
	// frames are the per-local-node MDS charts (CoordsMDS only), built for
	// every node whose frame an owned node's stitch can read.
	frames []frame
}

// shardHaloDepth returns the ghost-halo depth a configuration needs: the
// emptiness-knowledge scope in hops.
func shardHaloDepth(cfg Config) int {
	if cfg.Scope == ScopeTwoHop {
		return 2
	}
	return 1
}

// buildShardView compacts shard s of the partition into local tables:
// view nodes ascending by global ID, adjacency filtered to the view,
// measured distances carried arc-parallel. local is the worker's
// network-sized global-to-local lookup, every entry -1 on entry and on
// return, so filtering an arc is one array read.
func buildShardView(tab *NodeTable, shd *shard.Sharding, s, depthHops int, sc *graph.Scratch, local []int32) (*shardView, error) {
	glob, depth := shd.ViewNodes(tab.CSR, s, depthHops, nil, sc)
	nv := len(glob)
	v := &shardView{glob: glob, depth: depth}

	arcs := 0
	for l, g := range glob {
		local[g] = int32(l)
		arcs += tab.CSR.Degree(int(g))
	}
	defer func() {
		for _, g := range glob {
			local[g] = -1
		}
	}()
	rowPtr := make([]int32, nv+1)
	col := make([]int32, 0, arcs)
	var measFlat []float64
	if tab.Meas != nil {
		measFlat = make([]float64, 0, arcs)
	}
	pos := make([]geom.Vec3, nv)
	for l := 0; l < nv; l++ {
		g := int(glob[l])
		pos[l] = tab.Pos[g]
		rowPtr[l] = int32(len(col))
		row := tab.CSR.Neighbors(g)
		mrow := tab.MeasRow(g)
		for k, nb := range row {
			at := local[nb]
			if at < 0 { // neighbor outside the view
				continue
			}
			col = append(col, at)
			if measFlat != nil {
				measFlat = append(measFlat, mrow[k])
			}
		}
	}
	rowPtr[nv] = int32(len(col))
	csr, err := graph.NewCSRFromParts(rowPtr, col)
	if err != nil {
		return nil, err
	}
	v.tab = NodeTable{CSR: csr, Pos: pos, Meas: measFlat, Radius: tab.Radius}
	for l, d := range depth {
		if d == 0 {
			v.owned = append(v.owned, int32(l))
		}
	}
	return v, nil
}

// newViewLookup returns a cleared global-to-local lookup for buildShardView.
func newViewLookup(n int) []int32 {
	local := make([]int32, n)
	for i := range local {
		local[i] = -1
	}
	return local
}

// wholeView is the single view of an unsharded run: the whole table under
// the identity renaming, every node owned at depth 0.
func wholeView(tab *NodeTable) []*shardView {
	n := tab.Len()
	glob := make([]int32, n)
	for i := range glob {
		glob[i] = int32(i)
	}
	return []*shardView{{tab: *tab, glob: glob, depth: make([]int8, n), owned: glob}}
}

// detectionViews returns the views a detection loops over: the spatial
// shards with their halos when cfg asks for more than one shard, the whole
// table otherwise. Only the sharded case runs under a StagePartition span.
// Empty shards (more shards than populated grid regions) stay nil, so a
// sharded run always has cfg.Shards views. Each worker keeps one
// network-sized lookup for buildShardView, reused across its shards.
func detectionViews(ctx context.Context, o obs.Observer, tab *NodeTable, cfg Config) ([]*shardView, error) {
	if cfg.Shards <= 1 {
		return wholeView(tab), nil
	}
	partSpan := obs.Start(o, obs.StagePartition)
	defer partSpan.End()
	shd, err := shard.Spatial(tab.Pos, cfg.Shards)
	if err != nil {
		return nil, err
	}
	views := make([]*shardView, cfg.Shards)
	scratch := make([]graph.Scratch, cfg.Workers)
	local := make([][]int32, cfg.Workers)
	err = par.For(cfg.Shards, cfg.Workers, func(w, s int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if shd.OwnedCount(s) == 0 {
			return nil
		}
		if local[w] == nil {
			local[w] = newViewLookup(tab.Len())
		}
		v, verr := buildShardView(tab, shd, s, shardHaloDepth(cfg), &scratch[w], local[w])
		if verr != nil {
			return fmt.Errorf("shard %d view: %w", s, verr)
		}
		views[s] = v
		return nil
	})
	var halo int64
	for _, v := range views {
		if v != nil {
			halo += int64(len(v.glob) - len(v.owned))
		}
	}
	obs.Add(o, obs.StagePartition, obs.CtrShards, int64(cfg.Shards))
	obs.Add(o, obs.StagePartition, obs.CtrHaloNodes, halo)
	if err != nil {
		return nil, err
	}
	return views, nil
}

// forEachNode calls fn(worker, s, l) for every node l of every view s at
// halo depth ≤ maxDepth (0 selects the owned nodes), checking ctx before
// each node. Work is dispatched per node when there is one view and per
// view when there are several: a par.For index costs about a microsecond,
// which per-node dispatch over many shards would pay once per view node,
// while a single view needs node granularity to use more than one worker.
func forEachNode(ctx context.Context, views []*shardView, maxDepth int8, workers int, fn func(w, s, l int) error) error {
	if len(views) == 1 {
		v := views[0]
		return par.For(len(v.glob), workers, func(w, l int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			if v.depth[l] > maxDepth {
				return nil
			}
			return fn(w, 0, l)
		})
	}
	return par.For(len(views), workers, func(w, s int) error {
		v := views[s]
		if v == nil {
			return nil
		}
		for l, d := range v.depth {
			if d > maxDepth {
				continue
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(w, s, l); err != nil {
				return err
			}
		}
		return nil
	})
}
