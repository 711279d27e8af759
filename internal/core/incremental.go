package core

// The incremental detection engine: a long-lived network state that absorbs
// join/leave/move/crash deltas (the paper's own motivating dynamic events,
// Sec. I) and repairs the detection result by recomputing only the dirty
// region around each change, instead of re-running the pipeline from
// scratch.
//
// Bit-identity with a full recompute over the active nodes rests on the
// same locality facts the sharded engine documents in shard.go, applied in
// Euclidean rather than hop terms (a hop spans at most the radio range R):
//
//  1. UBF locality: node u's verdict is a function of the positions of its
//     scope-hop neighborhood (members within scopeHops hops, so within
//     scopeHops·R of u). Only edges incident to the changed node c change,
//     so u's member set or member positions can change only when c is (or
//     was) within scopeHops·R of u. Dirtying every active node within that
//     Euclidean ball of the change's old and new positions therefore
//     covers every node whose verdict inputs changed; extra dirty nodes
//     recompute to the value they already had.
//  2. IFF locality: a member's fragment size counts members within IFFTTL
//     hops through members. It can change only through a membership flip
//     (a node within scopeHops·R of c, by fact 1) reachable within IFFTTL
//     member-hops (≤ IFFTTL·R), or through c's own edges. Both are within
//     (scopeHops+IFFTTL)·R of the change.
//  3. Stable IDs are a monotone renaming of the compacted active network:
//     node IDs are never reused or renumbered, and adjacency rows are kept
//     sorted ascending with exactly netgen's connectivity predicate
//     (Dist2 <= R², self excluded), so every scan order, tie-break and
//     floating-point operation sequence matches a from-scratch
//     DetectContext run over the active nodes. The differential suite in
//     incremental_differential_test.go enforces this after every delta.
//
// The dirty-ball radii carry a 1e-9 relative slack: hop counts bound the
// Euclidean distance exactly in real arithmetic, and the slack absorbs the
// rounding of the distance comparison for configurations sitting exactly
// on the bound. Enlarging the dirty set is always safe (fact 1).
//
// Like the sharded engine, the incremental engine evaluates the flooding
// phases by direct bounded traversal (IFF) and the shared min-root
// union-find (grouping), so Async and Faults have nothing to perturb and
// are ignored, and the message/fault counters of snapshots stay zero. The
// seeding run is an ordinary DetectContext, so it shares those kernels.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
)

// DeltaOp enumerates the dynamic network events the engine absorbs.
type DeltaOp uint8

const (
	// DeltaJoin deploys a new node at Delta.Pos; the engine assigns it
	// the next stable ID.
	DeltaJoin DeltaOp = iota + 1
	// DeltaLeave removes node Delta.Node (an announced departure).
	DeltaLeave
	// DeltaMove relocates node Delta.Node to Delta.Pos.
	DeltaMove
	// DeltaCrash removes node Delta.Node without announcement. The
	// direct-evaluation engine sees the same topology change as a leave;
	// the distinct op exists so callers and traces can tell the paper's
	// two departure events apart.
	DeltaCrash
)

// String implements fmt.Stringer; unknown ops print as "delta?".
func (op DeltaOp) String() string {
	switch op {
	case DeltaJoin:
		return "join"
	case DeltaLeave:
		return "leave"
	case DeltaMove:
		return "move"
	case DeltaCrash:
		return "crash"
	}
	return "delta?"
}

// DeltaOpFromString inverts DeltaOp.String; false when unknown.
func DeltaOpFromString(name string) (DeltaOp, bool) {
	switch name {
	case "join":
		return DeltaJoin, true
	case "leave":
		return DeltaLeave, true
	case "move":
		return DeltaMove, true
	case "crash":
		return DeltaCrash, true
	}
	return 0, false
}

// Delta is one dynamic event. Node is the stable ID of the affected node
// (ignored for joins); Pos is the new position (joins and moves only).
type Delta struct {
	Op   DeltaOp
	Node int
	Pos  geom.Vec3
}

// Errors of the incremental engine. Delta validation happens before any
// mutation, so a failed Apply with one of these leaves the state exactly
// as it was.
var (
	// ErrIncrementalCoords rejects configurations the incremental engine
	// cannot serve: it holds positions only (no measurement state), so the
	// coordinate source must resolve to CoordsTrue.
	ErrIncrementalCoords = errors.New("core: incremental engine requires CoordsTrue")
	// ErrUnknownDeltaOp rejects a Delta whose Op is not one of the four
	// events.
	ErrUnknownDeltaOp = errors.New("core: unknown delta op")
	// ErrNoSuchNode rejects a Delta targeting an ID that was never
	// assigned or is no longer active.
	ErrNoSuchNode = errors.New("core: delta targets no active node")
	// ErrBadPosition rejects joins and moves to non-finite coordinates.
	ErrBadPosition = errors.New("core: delta position must be finite")
)

// dirtySlack inflates the Euclidean dirty-ball radii so nodes sitting
// exactly on a hop-count bound are dirtied despite comparison rounding.
const dirtySlack = 1 + 1e-9

// Incremental holds one network's detection state across deltas. It is not
// safe for concurrent use; a server serializes Apply/Snapshot per session.
// After a mid-recompute error (context cancellation), the cached verdicts
// are stale and the engine must be discarded; per-delta validation errors
// (ErrNoSuchNode, ErrBadPosition, ErrUnknownDeltaOp) happen before any
// mutation and leave it fully usable.
type Incremental struct {
	cfg       Config  // validated, defaults applied
	radius    float64 // radio range R
	ballR     float64 // UBF candidate-ball radius
	tol       float64 // strict-interior tolerance (absolute)
	scopeHops int     // emptiness-knowledge reach in hops (1 or 2)

	pos    []geom.Vec3 // by stable ID, append-only
	active []bool
	adj    [][]int32 // active↔active edges, rows sorted ascending
	grid   incGrid   // active nodes, cell size R

	// Cached per-node detection state, by stable ID. Inactive nodes hold
	// false/zero everywhere.
	ubf      []bool
	boundary []bool
	frag     []int
	balls    []int
	checked  []int

	groupLabel []int
	groups     [][]int

	workers int
	scratch []incScratch
	dirtyA  []int32 // reusable UBF dirty list
	dirtyB  []int32 // reusable IFF dirty list
	stamp   []int32 // dirty-collection dedup stamps
	epoch   int32

	// Last delta's topology change, for downstream incremental consumers
	// (the mesh engine's cache invalidation): the affected node and every
	// peer whose edge to it appeared or disappeared. lastPeers is a
	// reusable buffer.
	lastNode  int
	lastPeers []int32
}

// incScratch is one worker's reusable recomputation state.
type incScratch struct {
	asm   assembleScratch
	ubf   UBFScratch
	queue []int32
	bfs   []int32 // BFS visited stamps
	bfsE  int32
}

// NewIncremental seeds an engine from a network: one full DetectContext
// run (honoring cfg.Shards) provides the initial caches.
func NewIncremental(net *netgen.Network, cfg Config) (*Incremental, error) {
	return NewIncrementalContext(context.Background(), nil, net, cfg)
}

// NewIncrementalContext is NewIncremental with cancellation and
// observation of the seeding run.
func NewIncrementalContext(ctx context.Context, o obs.Observer, net *netgen.Network, cfg Config) (*Incremental, error) {
	if net == nil {
		return nil, ErrNoNetwork
	}
	full := cfg.withDefaults(false)
	if full.Coords != CoordsTrue {
		return nil, ErrIncrementalCoords
	}
	if det, ok := LookupDetector(cfg.Detector); ok && !det.Caps().Has(CapIncremental) {
		return nil, fmt.Errorf("core: detector %q does not support incremental repair", det.Name())
	}
	res, err := DetectContext(ctx, o, net, nil, cfg)
	if err != nil {
		return nil, err
	}
	n := net.Len()
	inc := &Incremental{
		cfg:       full,
		radius:    net.Radius,
		ballR:     full.BallRadiusFactor * (1 + full.Epsilon) * net.Radius,
		scopeHops: 1,
		workers:   full.Workers,
	}
	inc.tol = full.InteriorTolerance * inc.ballR
	if full.Scope == ScopeTwoHop {
		inc.scopeHops = 2
	}
	inc.pos = net.Positions()
	inc.active = make([]bool, n)
	inc.adj = make([][]int32, n)
	for i := range inc.active {
		inc.active[i] = true
		row := net.G.Adj[i]
		r32 := make([]int32, len(row))
		for k, v := range row {
			r32[k] = int32(v)
		}
		inc.adj[i] = r32
	}
	inc.grid.init(net.Radius)
	for i, p := range inc.pos {
		inc.grid.insert(int32(i), p)
	}
	inc.ubf = append([]bool(nil), res.UBF...)
	inc.boundary = append([]bool(nil), res.Boundary...)
	inc.frag = append([]int(nil), res.FragmentSize...)
	inc.balls = append([]int(nil), res.BallsTested...)
	inc.checked = append([]int(nil), res.NodesChecked...)
	inc.groupLabel = append([]int(nil), res.GroupLabel...)
	inc.groups = res.Groups
	inc.scratch = make([]incScratch, inc.workers)
	inc.lastNode = -1
	return inc, nil
}

// Apply absorbs one delta and repairs the detection state. It returns the
// stable ID of the affected node — for joins, the freshly assigned one.
func (inc *Incremental) Apply(d Delta) (int, error) {
	return inc.ApplyContext(context.Background(), nil, d)
}

// ApplyContext is Apply with cancellation and observation: the repair runs
// under a StageIncremental span carrying the dirty-region counters.
func (inc *Incremental) ApplyContext(ctx context.Context, o obs.Observer, d Delta) (int, error) {
	span := obs.Start(o, obs.StageIncremental)
	defer span.End()

	var changed [2]geom.Vec3
	nch := 0
	id := d.Node
	switch d.Op {
	case DeltaJoin:
		if !finitePos(d.Pos) {
			return -1, fmt.Errorf("%w: join at %v", ErrBadPosition, d.Pos)
		}
		id = len(inc.pos)
		inc.pos = append(inc.pos, d.Pos)
		inc.active = append(inc.active, true)
		inc.adj = append(inc.adj, nil)
		inc.ubf = append(inc.ubf, false)
		inc.boundary = append(inc.boundary, false)
		inc.frag = append(inc.frag, 0)
		inc.balls = append(inc.balls, 0)
		inc.checked = append(inc.checked, 0)
		inc.grid.insert(int32(id), d.Pos)
		nbrs := inc.neighborsOf(d.Pos, int32(id))
		inc.adj[id] = nbrs
		for _, nb := range nbrs {
			inc.adj[nb] = insertSorted(inc.adj[nb], int32(id))
		}
		inc.lastNode = id
		inc.lastPeers = append(inc.lastPeers[:0], nbrs...)
		changed[0] = d.Pos
		nch = 1
	case DeltaLeave, DeltaCrash:
		if err := inc.checkTarget(id); err != nil {
			return -1, err
		}
		old := inc.pos[id]
		inc.lastNode = id
		inc.lastPeers = append(inc.lastPeers[:0], inc.adj[id]...)
		for _, nb := range inc.adj[id] {
			inc.adj[nb] = removeSorted(inc.adj[nb], int32(id))
		}
		inc.adj[id] = nil
		inc.active[id] = false
		inc.grid.remove(int32(id), old)
		inc.ubf[id] = false
		inc.boundary[id] = false
		inc.frag[id] = 0
		inc.balls[id] = 0
		inc.checked[id] = 0
		changed[0] = old
		nch = 1
	case DeltaMove:
		if err := inc.checkTarget(id); err != nil {
			return -1, err
		}
		if !finitePos(d.Pos) {
			return -1, fmt.Errorf("%w: move to %v", ErrBadPosition, d.Pos)
		}
		old := inc.pos[id]
		inc.grid.remove(int32(id), old)
		inc.grid.insert(int32(id), d.Pos)
		inc.pos[id] = d.Pos
		oldRow := inc.adj[id]
		newRow := inc.neighborsOf(d.Pos, int32(id))
		// Both rows are sorted; walk the symmetric difference to patch the
		// neighbors' rows, recording the peers whose edge actually changed.
		inc.lastNode = id
		inc.lastPeers = inc.lastPeers[:0]
		i, j := 0, 0
		for i < len(oldRow) || j < len(newRow) {
			switch {
			case j == len(newRow) || (i < len(oldRow) && oldRow[i] < newRow[j]):
				inc.adj[oldRow[i]] = removeSorted(inc.adj[oldRow[i]], int32(id))
				inc.lastPeers = append(inc.lastPeers, oldRow[i])
				i++
			case i == len(oldRow) || newRow[j] < oldRow[i]:
				inc.adj[newRow[j]] = insertSorted(inc.adj[newRow[j]], int32(id))
				inc.lastPeers = append(inc.lastPeers, newRow[j])
				j++
			default: // unchanged edge
				i++
				j++
			}
		}
		inc.adj[id] = newRow
		changed[0], changed[1] = old, d.Pos
		nch = 2
	default:
		return -1, fmt.Errorf("%w: %d", ErrUnknownDeltaOp, d.Op)
	}

	if err := inc.repair(ctx, o, changed[:nch]); err != nil {
		return -1, err
	}
	return id, nil
}

// repair recomputes the cached detection state around the changed
// positions: UBF over the scope-hop dirty ball, IFF over the
// (scope+TTL)-hop dirty ball, grouping globally.
func (inc *Incremental) repair(ctx context.Context, o obs.Observer, changed []geom.Vec3) error {
	ubfBound := float64(inc.scopeHops) * inc.radius * dirtySlack
	inc.dirtyA = inc.collectDirty(inc.dirtyA[:0], changed, ubfBound, false)
	ubfDirty := inc.dirtyA
	obs.Add(o, obs.StageIncremental, obs.CtrDirtyUBF, int64(len(ubfDirty)))

	err := par.For(len(ubfDirty), inc.workers, func(w, k int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		u := int(ubfDirty[k])
		r := inc.fitUBF(&inc.scratch[w], u)
		inc.ubf[u] = r.Boundary
		inc.balls[u] = r.BallsTested
		inc.checked[u] = r.NodesChecked
		return nil
	})
	if err != nil {
		return err
	}

	if inc.cfg.IFFThreshold < 0 {
		// IFF disabled: the boundary is the UBF verdict and fragment
		// sizes stay zero, as in the full pipeline.
		for _, u := range ubfDirty {
			inc.boundary[u] = inc.ubf[u]
		}
	} else {
		iffBound := float64(inc.scopeHops+inc.cfg.IFFTTL) * inc.radius * dirtySlack
		inc.dirtyB = inc.collectDirty(inc.dirtyB[:0], changed, iffBound, true)
		iffDirty := inc.dirtyB
		obs.Add(o, obs.StageIncremental, obs.CtrDirtyIFF, int64(len(iffDirty)))
		err := par.For(len(iffDirty), inc.workers, func(w, k int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			u := iffDirty[k]
			inc.frag[u] = inc.memberCount(&inc.scratch[w], u)
			return nil
		})
		if err != nil {
			return err
		}
		for _, u := range ubfDirty {
			if !inc.ubf[u] {
				inc.frag[u] = 0
				inc.boundary[u] = false
			}
		}
		// Every dirty member is in iffDirty (the UBF ball is inside the
		// IFF ball), so this settles the boundary for the whole dirty
		// region.
		for _, u := range iffDirty {
			inc.boundary[u] = inc.frag[u] >= inc.cfg.IFFThreshold
		}
	}

	inc.regroup()
	return nil
}

// fitUBF re-runs node u's Unit Ball Fitting against the current adjacency.
// The knowledge assembly mirrors assembleKnowledge's CoordsTrue branch in
// detect.go line for line (members = u, one-hop ascending, two-hop in
// first-appearance order; uniform tolerance; no borderline cap) — the
// differential suite enforces that the two stay in lockstep.
func (inc *Incremental) fitUBF(sc *incScratch, u int) UBFNodeResult {
	as := &sc.asm
	oneHop := inc.adj[u]
	candidates := as.candidates[:0]
	for k := range oneHop {
		candidates = append(candidates, k+1)
	}
	as.candidates = candidates
	members := append(as.members[:0], u)
	for _, v := range oneHop {
		members = append(members, int(v))
	}
	if inc.cfg.Scope == ScopeTwoHop {
		stamp := as.visited(len(inc.pos))
		e := as.epoch
		for _, m := range members {
			stamp[m] = e
		}
		for _, j := range oneHop {
			for _, w := range inc.adj[j] {
				if stamp[w] != e {
					stamp[w] = e
					members = append(members, int(w))
				}
			}
		}
	}
	as.members = members
	coords := as.coords[:0]
	for _, m := range members {
		coords = append(coords, inc.pos[m])
	}
	as.coords = coords
	return sc.ubf.Fit(coords, 0, candidates, inc.ballR, uniformTol(inc.tol), -1)
}

// memberCount is node u's IFF fragment size: the number of members (u
// included) within IFFTTL hops of u through member nodes only — the set of
// origins the flooding protocol delivers to u.
func (inc *Incremental) memberCount(sc *incScratch, src int32) int {
	n := len(inc.pos)
	if len(sc.bfs) < n {
		sc.bfs = make([]int32, n)
		sc.bfsE = 0
	}
	sc.bfsE++
	if sc.bfsE == 0 {
		for i := range sc.bfs {
			sc.bfs[i] = 0
		}
		sc.bfsE = 1
	}
	stamp, e := sc.bfs, sc.bfsE
	queue := append(sc.queue[:0], src)
	stamp[src] = e
	count := 1
	head := 0
	for depth := 0; depth < inc.cfg.IFFTTL; depth++ {
		tail := len(queue)
		if head == tail {
			break
		}
		for ; head < tail; head++ {
			for _, v := range inc.adj[queue[head]] {
				if inc.ubf[v] && stamp[v] != e {
					stamp[v] = e
					queue = append(queue, v)
					count++
				}
			}
		}
	}
	sc.queue = queue
	return count
}

// regroup rebuilds the boundary grouping from the current boundary mask
// with the shared min-root union-find (flood.go), so the labels match the
// propagation protocol bit for bit.
func (inc *Incremental) regroup() {
	inc.groupLabel = groupLabels(len(inc.pos), inc.boundary, inc.Neighbors)
	inc.groups = sim.Groups(inc.groupLabel)
}

// collectDirty gathers the active nodes within bound of any changed
// position, deduplicated, ascending. membersOnly restricts the result to
// current UBF members (for the IFF pass).
func (inc *Incremental) collectDirty(dst []int32, changed []geom.Vec3, bound float64, membersOnly bool) []int32 {
	n := len(inc.pos)
	if len(inc.stamp) < n {
		inc.stamp = make([]int32, n)
		inc.epoch = 0
	}
	inc.epoch++
	if inc.epoch == 0 {
		for i := range inc.stamp {
			inc.stamp[i] = 0
		}
		inc.epoch = 1
	}
	stamp, e := inc.stamp, inc.epoch
	for _, p := range changed {
		inc.grid.forNear(inc.pos, p, bound, func(id int32) {
			if stamp[id] == e {
				return
			}
			stamp[id] = e
			if membersOnly && !inc.ubf[id] {
				return
			}
			dst = append(dst, id)
		})
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
	return dst
}

// neighborsOf returns the active nodes within the radio range of p,
// excluding self, sorted ascending — exactly netgen's connectivity
// predicate (Dist2 <= R²) over the active set.
func (inc *Incremental) neighborsOf(p geom.Vec3, self int32) []int32 {
	var nbrs []int32
	inc.grid.forNear(inc.pos, p, inc.radius, func(id int32) {
		if id != self {
			nbrs = append(nbrs, id)
		}
	})
	sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
	return nbrs
}

func (inc *Incremental) checkTarget(id int) error {
	if id < 0 || id >= len(inc.pos) || !inc.active[id] {
		return fmt.Errorf("%w: %d", ErrNoSuchNode, id)
	}
	return nil
}

func finitePos(p geom.Vec3) bool {
	ok := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	return ok(p.X) && ok(p.Y) && ok(p.Z)
}

// Len returns the size of the stable ID space (departed nodes included).
func (inc *Incremental) Len() int { return len(inc.pos) }

// ActiveCount returns the number of currently deployed nodes.
func (inc *Incremental) ActiveCount() int {
	n := 0
	for _, a := range inc.active {
		if a {
			n++
		}
	}
	return n
}

// Radius returns the radio range.
func (inc *Incremental) Radius() float64 { return inc.radius }

// ActiveIDs returns the stable IDs of the deployed nodes, ascending.
func (inc *Incremental) ActiveIDs() []int {
	ids := make([]int, 0, len(inc.pos))
	for i, a := range inc.active {
		if a {
			ids = append(ids, i)
		}
	}
	return ids
}

// ActiveNodes returns the deployed nodes in stable-ID order, ready for
// netgen.Assemble — the compaction a full-recompute reference runs on.
func (inc *Incremental) ActiveNodes() []netgen.Node {
	nodes := make([]netgen.Node, 0, len(inc.pos))
	for i, a := range inc.active {
		if a {
			nodes = append(nodes, netgen.Node{ID: i, Pos: inc.pos[i]})
		}
	}
	return nodes
}

// BoundaryCount returns the number of final boundary nodes.
func (inc *Incremental) BoundaryCount() int {
	n := 0
	for _, b := range inc.boundary {
		if b {
			n++
		}
	}
	return n
}

// LastTopology reports the most recent successful delta's topology
// change: the affected stable ID and every peer whose edge to it appeared
// or disappeared (joins: the new node's neighbor row; departures: the old
// row; moves: the symmetric difference of the old and new rows, merged
// ascending). The peer slice is a reusable buffer — read-only and valid
// only until the next Apply. Before any delta it reports (-1, nil).
func (inc *Incremental) LastTopology() (node int, peers []int32) {
	return inc.lastNode, inc.lastPeers
}

// Neighbors returns node u's current adjacency row (stable IDs,
// ascending; nil for inactive nodes). The row aliases engine state —
// read-only and valid only until the next Apply. Together with Len it
// satisfies mesh.Topology, so the mesh engine can rebuild dirty surfaces
// straight off the live adjacency without a network assembly round-trip.
func (inc *Incremental) Neighbors(u int) []int32 { return inc.adj[u] }

// PositionAt returns the position of stable ID u (departed nodes keep
// their last position).
func (inc *Incremental) PositionAt(u int) geom.Vec3 { return inc.pos[u] }

// GroupsView returns the boundary groups without copying (stable IDs,
// ascending within each group). The slices alias engine state — read-only
// and valid only until the next Apply; use Groups for a durable copy.
func (inc *Incremental) GroupsView() [][]int { return inc.groups }

// Groups returns a deep copy of the boundary groups (stable IDs,
// ascending within each group).
func (inc *Incremental) Groups() [][]int {
	out := make([][]int, len(inc.groups))
	for i, g := range inc.groups {
		out[i] = append([]int(nil), g...)
	}
	return out
}

// Snapshot deep-copies the detection state over the stable ID space as a
// Result. Inactive IDs read as non-boundary with zero work counters; the
// message and fault counters are zero by construction (see the package
// comment on direct evaluation).
func (inc *Incremental) Snapshot() *Result {
	return &Result{
		UBF:          append([]bool(nil), inc.ubf...),
		Boundary:     append([]bool(nil), inc.boundary...),
		FragmentSize: append([]int(nil), inc.frag...),
		GroupLabel:   append([]int(nil), inc.groupLabel...),
		Groups:       inc.Groups(),
		BallsTested:  append([]int(nil), inc.balls...),
		NodesChecked: append([]int(nil), inc.checked...),
	}
}

// insertSorted adds v to an ascending row, keeping it sorted; no-op if
// already present.
func insertSorted(row []int32, v int32) []int32 {
	at := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	if at < len(row) && row[at] == v {
		return row
	}
	row = append(row, 0)
	copy(row[at+1:], row[at:])
	row[at] = v
	return row
}

// removeSorted deletes v from an ascending row; no-op if absent.
func removeSorted(row []int32, v int32) []int32 {
	at := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	if at == len(row) || row[at] != v {
		return row
	}
	return append(row[:at], row[at+1:]...)
}

// incGrid is a dynamic uniform hash grid over the active nodes, cell size
// equal to the radio range — the mutable counterpart of netgen's
// spatialGrid, answering range queries for connectivity updates and
// dirty-region collection.
type incGrid struct {
	cell  float64
	cells map[incCell][]int32
}

type incCell struct{ x, y, z int32 }

func (g *incGrid) init(cell float64) {
	g.cell = cell
	g.cells = make(map[incCell][]int32, 64)
}

func (g *incGrid) keyOf(p geom.Vec3) incCell {
	return incCell{
		x: int32(math.Floor(p.X / g.cell)),
		y: int32(math.Floor(p.Y / g.cell)),
		z: int32(math.Floor(p.Z / g.cell)),
	}
}

func (g *incGrid) insert(id int32, p geom.Vec3) {
	k := g.keyOf(p)
	g.cells[k] = append(g.cells[k], id)
}

func (g *incGrid) remove(id int32, p geom.Vec3) {
	k := g.keyOf(p)
	cell := g.cells[k]
	for i, v := range cell {
		if v == id {
			cell[i] = cell[len(cell)-1]
			cell = cell[:len(cell)-1]
			break
		}
	}
	if len(cell) == 0 {
		delete(g.cells, k)
	} else {
		g.cells[k] = cell
	}
}

// forNear calls fn for every indexed node within r of p (cell visitation
// order is map order — callers sort or deduplicate as needed).
func (g *incGrid) forNear(pos []geom.Vec3, p geom.Vec3, r float64, fn func(id int32)) {
	lo := g.keyOf(geom.Vec3{X: p.X - r, Y: p.Y - r, Z: p.Z - r})
	hi := g.keyOf(geom.Vec3{X: p.X + r, Y: p.Y + r, Z: p.Z + r})
	r2 := r * r
	for x := lo.x; x <= hi.x; x++ {
		for y := lo.y; y <= hi.y; y++ {
			for z := lo.z; z <= hi.z; z++ {
				for _, id := range g.cells[incCell{x, y, z}] {
					if pos[id].Dist2(p) <= r2 {
						fn(id)
					}
				}
			}
		}
	}
}
