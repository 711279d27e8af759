package core

// Direct evaluation of the two flooding phases of Sec. II-B. Both protocols
// compute graph quantities over the subgraph induced by their member set:
//
//   - IFF: a member's fragment size is the number of members within IFFTTL
//     hops through members, self included — one depth-bounded BFS per
//     member (fragmentSize).
//   - Grouping: every member's label is the minimum ID of its component —
//     one min-root union-find (groupUF).
//
// The default unsharded pipeline and the sharded engine (per shard view)
// evaluate both phases with these kernels; the incremental engine seeds
// through the unsharded pipeline and regroups with groupLabels (its
// per-delta IFF repair counts members over its own mutable rows). The
// message simulator in internal/sim is reached only when Config.Async or
// Config.Faults asks for a protocol simulation.
//
// The unsharded pipeline also reports the protocols' communication cost.
// Under synchronous rounds and perfect delivery the packet count and the
// round structure are functions of the same traversals, so they are
// derived exactly instead of simulated:
//
//   - IFF: the flood of origin o reaches node v first at depth d(o, v) and,
//     when d < TTL, v rebroadcasts it once to each member neighbor, in
//     round d-1 (the Init phase for d = 0). The packet count is therefore
//     Σ_o Σ_{v: d(o,v) < TTL} deg_members(v), and the flood takes
//     1 + max d rounds.
//   - Grouping: min-label propagation is replayed round by round on flat
//     arrays (labelPropagation); a node rebroadcasts exactly when it adopts
//     a smaller label.
//
// With an observer attached both emit the flight-recorder stream the
// simulator kernels emit (RoundBegin/RoundEnd with per-round RoundStats,
// TransLabelAdopt in ascending node order per round, then flood_rounds,
// msgs_sent and msgs_delivered); flood_test.go pins counts, rounds and
// event streams equal to the simulator's.

import (
	"context"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
)

// fragmentSize returns member src's IFF fragment size: the node count of a
// depth-ttl BFS from src restricted to members, which is exactly the set of
// origins the TTL-bounded flood delivers to src. A negative ttl floods
// nothing, like a zero one. When tally is non-nil the packets of src's own
// flood are booked into it.
func fragmentSize(c *graph.CSR, sc *graph.Scratch, members *graph.NodeSet, src, ttl int, tally *floodTally) int {
	if ttl < 0 {
		ttl = 0
	}
	srcs := [1]int{src}
	c.BFSHops(sc, srcs[:], members, ttl)
	reached := sc.Reached()
	if tally != nil {
		tally.book(sc, reached, src, ttl)
	}
	return len(reached)
}

// floodTally is one worker's share of the IFF flood's message accounting.
type floodTally struct {
	deg []int32 // member-neighbor count per node, shared read-only
	// sent[d] counts the packets forwarded by nodes first reached at depth
	// d, i.e. sent in round d-1 (d = 0: the origins' Init broadcasts).
	sent []int64
	// ecc, when non-nil, receives each origin's largest BFS depth below
	// ttl. Hop distance is symmetric, so it is also the largest depth at
	// which any flood first reaches that node: the node forwards in the
	// Init phase and in rounds 0 through ecc-1. Shared; each origin writes
	// only its own slot.
	ecc []int32
}

// book adds the packets of one origin's flood, given its BFS.
func (t *floodTally) book(sc *graph.Scratch, reached []int32, src, ttl int) {
	last := 0
	for _, v := range reached { // BFS order: depths are nondecreasing
		d := sc.Dist(int(v))
		if d >= ttl {
			break
		}
		for len(t.sent) <= d {
			t.sent = append(t.sent, 0)
		}
		t.sent[d] += int64(t.deg[v])
		last = d
	}
	if t.ecc != nil {
		t.ecc[src] = int32(last)
	}
}

// floodCost is a flooding phase's communication cost under synchronous
// rounds and perfect delivery: packets exchanged and rounds executed.
type floodCost struct {
	Messages int
	Rounds   int
}

// memberDegrees counts each member's member neighbors (zero elsewhere).
func memberDegrees(c *graph.CSR, member []bool) []int32 {
	deg := make([]int32, c.Len())
	for u, in := range member {
		if !in {
			continue
		}
		for _, v := range c.Neighbors(u) {
			if member[v] {
				deg[u]++
			}
		}
	}
	return deg
}

// floodFragments is the default IFF evaluation: every member's fragment
// size by a parallel depth-ttl member BFS, plus the flood protocol's exact
// cost. Non-members report zero. With an observer it emits the simulator's
// round stream and counters under StageIFF.
func floodFragments(ctx context.Context, o obs.Observer, c *graph.CSR, member []bool, ttl, workers int) ([]int, floodCost, error) {
	n := c.Len()
	members := graph.NodeSetOf(member)
	deg := memberDegrees(c, member)
	var ecc []int32
	if o != nil {
		ecc = make([]int32, n)
	}
	scratch := make([]graph.Scratch, workers)
	tallies := make([]floodTally, workers)
	for w := range tallies {
		tallies[w] = floodTally{deg: deg, ecc: ecc}
	}
	counts := make([]int, n)
	err := par.For(n, workers, func(w, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if member[i] {
			counts[i] = fragmentSize(c, &scratch[w], members, i, ttl, &tallies[w])
		}
		return nil
	})
	if err != nil {
		return nil, floodCost{}, err
	}
	var sent []int64
	for _, t := range tallies {
		for len(sent) < len(t.sent) {
			sent = append(sent, 0)
		}
		for d, s := range t.sent {
			sent[d] += s
		}
	}
	var cost floodCost
	for d, s := range sent {
		cost.Messages += int(s)
		if s > 0 {
			cost.Rounds = d + 1
		}
	}
	if o != nil {
		emitFloodRounds(o, c, member, ecc, sent, cost)
	}
	return counts, cost, nil
}

// emitFloodRounds replays the IFF flood's round stream. Round r delivers
// the packets forwarded at depth r and sends those forwarded at depth r+1;
// its active nodes are the members with a neighbor that forwards in round
// r-1, i.e. whose largest neighbor forwarding depth is at least r.
func emitFloodRounds(o obs.Observer, c *graph.CSR, member []bool, ecc []int32, sent []int64, cost floodCost) {
	at := func(d int) int64 {
		if d < len(sent) {
			return sent[d]
		}
		return 0
	}
	// reach[r] = number of members whose neighbors' largest forwarding
	// depth is exactly r; suffix sums give the active counts.
	reach := make([]int64, cost.Rounds+1)
	var m int64
	for v, in := range member {
		if !in {
			continue
		}
		m++
		best := int32(-1)
		for _, u := range c.Neighbors(v) {
			if member[u] && ecc[u] > best {
				best = ecc[u]
			}
		}
		if best >= 0 && int(best) < len(reach) {
			reach[best]++
		}
	}
	for r := len(reach) - 2; r >= 0; r-- {
		reach[r] += reach[r+1]
	}
	o.RoundBegin(obs.StageIFF, obs.InitRound)
	o.RoundEnd(obs.StageIFF, obs.InitRound, obs.RoundStats{Sent: at(0), Active: m})
	for r := 0; r < cost.Rounds; r++ {
		o.RoundBegin(obs.StageIFF, r)
		o.RoundEnd(obs.StageIFF, r, obs.RoundStats{Sent: at(r + 1), Delivered: at(r), Active: reach[r]})
	}
	emitFloodCost(o, obs.StageIFF, cost)
}

// emitFloodCost reports a phase's totals as the simulator kernel does once
// the protocol quiesces: rounds, then packets sent and delivered.
func emitFloodCost(o obs.Observer, s obs.Stage, cost floodCost) {
	obs.Add(o, s, obs.CtrFloodRounds, int64(cost.Rounds))
	obs.Add(o, s, obs.CtrMsgsSent, int64(cost.Messages))
	obs.Add(o, s, obs.CtrMsgsDelivered, int64(cost.Messages))
}

// labelPropagation replays synchronous min-label propagation over the
// members on flat arrays and returns its cost: every member broadcasts its
// ID at Init, and in each round every node that received a smaller label
// than its own adopts the smallest and rebroadcasts it. With an observer it
// emits the simulator's round stream, label adoptions included, under
// StageGrouping. The labels themselves come from groupUF.
func labelPropagation(o obs.Observer, c *graph.CSR, member []bool) floodCost {
	n := c.Len()
	deg := memberDegrees(c, member)
	label := make([]int32, n)
	best := make([]int32, n)
	recv := make([]uint64, (n+63)/64) // receivers of the current round
	var frontier, next []int32        // this round's and the next round's senders
	var sent, active int64
	for i, in := range member {
		if in {
			label[i] = int32(i)
			frontier = append(frontier, int32(i))
			sent += int64(deg[i])
			active++
		}
	}
	if o != nil {
		o.RoundBegin(obs.StageGrouping, obs.InitRound)
		o.RoundEnd(obs.StageGrouping, obs.InitRound, obs.RoundStats{Sent: sent, Active: active})
	}
	var cost floodCost
	for ; sent > 0; cost.Rounds++ {
		if o != nil {
			o.RoundBegin(obs.StageGrouping, cost.Rounds)
		}
		// Deliver: each sender's label (unchanged since it was sent) to
		// every member neighbor.
		for _, u := range frontier {
			for _, v := range c.Neighbors(int(u)) {
				if !member[v] {
					continue
				}
				if w, bit := v>>6, uint64(1)<<(uint(v)&63); recv[w]&bit == 0 {
					recv[w] |= bit
					best[v] = label[v]
				}
				if label[u] < best[v] {
					best[v] = label[u]
				}
			}
		}
		cost.Messages += int(sent)
		delivered := sent
		// Handle the receivers in ascending ID, as the kernel steps them.
		sent, active = 0, 0
		next = next[:0]
		for w, word := range recv {
			recv[w] = 0
			for ; word != 0; word &= word - 1 {
				v := int32(w<<6 + bits.TrailingZeros64(word))
				active++
				if best[v] < label[v] {
					label[v] = best[v]
					obs.NodeTransition(o, obs.StageGrouping, obs.TransLabelAdopt, int(v), int64(best[v]))
					next = append(next, v)
					sent += int64(deg[v])
				}
			}
		}
		if o != nil {
			o.RoundEnd(obs.StageGrouping, cost.Rounds, obs.RoundStats{Sent: sent, Delivered: delivered, Active: active})
		}
		frontier, next = next, frontier
	}
	emitFloodCost(o, obs.StageGrouping, cost)
	return cost
}

// groupUF is a union-find that always attaches the larger root under the
// smaller, so each component's root is its minimum ID — the label min-ID
// propagation converges to. The outcome is independent of union order,
// hence of shard count and scheduling.
type groupUF []int32

func newGroupUF(n int) groupUF {
	p := make(groupUF, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

func (p groupUF) find(x int32) int32 {
	for p[x] != x {
		p[x] = p[p[x]] // path halving
		x = p[x]
	}
	return x
}

func (p groupUF) union(a, b int32) {
	ra, rb := p.find(a), p.find(b)
	switch {
	case ra == rb:
	case ra < rb:
		p[rb] = ra
	default:
		p[ra] = rb
	}
}

// labels returns each member's component root and sim.NoGroup elsewhere.
func (p groupUF) labels(member []bool) []int {
	label := make([]int, len(p))
	for i := range label {
		if member[i] {
			label[i] = int(p.find(int32(i)))
		} else {
			label[i] = sim.NoGroup
		}
	}
	return label
}

// groupLabels is the grouping evaluation of the unsharded and incremental
// engines: the min-ID component label of every member of the subgraph
// induced by member, over n nodes with the given adjacency rows.
func groupLabels(n int, member []bool, neighbors func(u int) []int32) []int {
	uf := newGroupUF(n)
	for u, in := range member {
		if !in {
			continue
		}
		for _, v := range neighbors(u) {
			if int(v) > u && member[v] {
				uf.union(int32(u), v)
			}
		}
	}
	return uf.labels(member)
}
