// degreeStatsDetector is the Fekete-style degree-statistics competitor
// (after "Neighborhood-based topology recognition in sensor networks",
// cs/0405058): boundary nodes see systematically fewer neighbors than
// interior nodes, so thresholding each node's degree against a local
// degree statistic recovers the boundary. Unlike the global-average
// DegreeBaseline ablation, the reference statistic here is the mean
// degree over the node's closed two-hop neighborhood — computable with
// two local exchanges, keeping the algorithm as localized as the paper
// pipeline it competes with.
package core

import (
	"context"

	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/par"
)

type degreeStatsDetector struct{}

func (degreeStatsDetector) Name() string       { return "degree-stats" }
func (degreeStatsDetector) Caps() DetectorCaps { return CapFaults }

func (degreeStatsDetector) Vocab() DetectorVocab {
	return DetectorVocab{
		Stages: []obs.Stage{
			obs.StageDetect, obs.StageCandidates,
			obs.StageIFF, obs.StageGrouping,
		},
		WorkKeys:    []string{"candidates/local_tests"},
		FloodStages: []obs.Stage{obs.StageIFF, obs.StageGrouping},
	}
}

func (degreeStatsDetector) DetectContext(ctx context.Context, o obs.Observer, net *netgen.Network, meas *netgen.Measurement, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(meas != nil)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	detectSpan := obs.Start(o, obs.StageDetect)
	defer detectSpan.End()

	n := net.Len()
	obs.Add(o, obs.StageDetect, obs.CtrNodes, int64(n))
	res := newCandidateResult(n)

	// Candidate phase: node i is boundary when deg(i) falls below
	// DegreeFraction of the mean degree over its closed two-hop
	// neighborhood, gathered with a stamp-based scan so each worker
	// reuses one O(n) scratch. Work is counted as neighborhood members
	// visited.
	candSpan := obs.Start(o, obs.StageCandidates)
	type scratch struct {
		stamp []int32
		cur   int32
	}
	sc := make([]scratch, cfg.Workers)
	tests := make([]int64, cfg.Workers)
	err := par.For(n, cfg.Workers, func(w, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		s := &sc[w]
		if s.stamp == nil {
			s.stamp = make([]int32, n)
		}
		s.cur++
		s.stamp[i] = s.cur
		degSum, members := net.G.Degree(i), 1
		for _, j := range net.G.Adj[i] {
			if s.stamp[j] != s.cur {
				s.stamp[j] = s.cur
				degSum += net.G.Degree(j)
				members++
			}
			for _, k := range net.G.Adj[j] {
				if s.stamp[k] != s.cur {
					s.stamp[k] = s.cur
					degSum += net.G.Degree(k)
					members++
				}
			}
		}
		mean := float64(degSum) / float64(members)
		res.UBF[i] = float64(net.G.Degree(i)) < cfg.DegreeFraction*mean
		res.NodesChecked[i] = members
		tests[w] += int64(members)
		return nil
	})
	if o != nil {
		var total int64
		for _, t := range tests {
			total += t
		}
		emitCandidates(o, res, total)
	}
	candSpan.End()
	if err != nil {
		return nil, err
	}

	if err := filterAndGroup(ctx, o, net, graph.NewCSR(net.G), cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}
