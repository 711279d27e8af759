package main

import (
	"repro/internal/obs"
)

// spanSeconds sums the wall time of every completed span of each stage
// recorded in m.
func spanSeconds(m *obs.Mem) map[obs.Stage]float64 {
	out := make(map[obs.Stage]float64)
	for _, e := range m.Events() {
		if e.Kind == obs.KindEnd {
			out[e.Stage] += float64(e.WallNS) / 1e9
		}
	}
	return out
}

// labeledSpans returns the wall time in seconds of every completed span of
// stage s carrying label.
func labeledSpans(m *obs.Mem, s obs.Stage, label string) []float64 {
	var out []float64
	for _, e := range m.Events() {
		if e.Kind == obs.KindEnd && e.Stage == s && e.Label == label {
			out = append(out, float64(e.WallNS)/1e9)
		}
	}
	return out
}

// detectChildren are the stages core.DetectContext opens inside its
// detect span.
var detectChildren = []obs.Stage{obs.StageFrames, obs.StageUBF, obs.StageIFF, obs.StageGrouping, obs.StagePartition, obs.StageCandidates}

// meshChildren are the five surface-construction steps inside a surface
// span.
var meshChildren = []obs.Stage{obs.StageLandmarks, obs.StageCDG, obs.StageCDM, obs.StageTriangulate, obs.StageFlip}

// detectLayers splits the detection work recorded in m into the core,
// mds and partition layer metrics. Self time is the detect span minus its
// child spans.
func detectLayers(m *obs.Mem) map[string]float64 {
	sec := spanSeconds(m)
	claims := float64(m.Total(obs.StageUBF, obs.CtrUBFBoundary))
	kept := float64(m.Total(obs.StageIFF, obs.CtrBoundary))
	nodes := float64(m.Total(obs.StageDetect, obs.CtrNodes))
	out := map[string]float64{
		"core.detect_s":           sec[obs.StageDetect],
		"mds.frames_s":            sec[obs.StageFrames],
		"core.ubf_s":              sec[obs.StageUBF],
		"core.iff_s":              sec[obs.StageIFF],
		"core.grouping_s":         sec[obs.StageGrouping],
		"partition_s":             sec[obs.StagePartition],
		"core.ubf.balls_tested":   float64(m.Total(obs.StageUBF, obs.CtrBallsTested)),
		"core.ubf.nodes_checked":  float64(m.Total(obs.StageUBF, obs.CtrNodesChecked)),
		"core.ubf.grid_cells":     float64(m.Total(obs.StageUBF, obs.CtrGridCells)),
		"core.ubf.claims":         claims,
		"core.iff.msgs_sent":      float64(m.Total(obs.StageIFF, obs.CtrMsgsSent)),
		"core.iff.rounds":         float64(m.Total(obs.StageIFF, obs.CtrFloodRounds)),
		"core.grouping.msgs_sent": float64(m.Total(obs.StageGrouping, obs.CtrMsgsSent)),
		"core.groups":             float64(m.Total(obs.StageGrouping, obs.CtrGroups)),
	}
	self := sec[obs.StageDetect]
	for _, s := range detectChildren {
		self -= sec[s]
	}
	out["core.detect.self_s"] = self
	if claims > 0 {
		out["core.iff.kept_ratio"] = kept / claims
	}
	if nodes > 0 {
		out["partition.halo_ratio"] = float64(m.Total(obs.StagePartition, obs.CtrHaloNodes)) / nodes
	}
	return out
}

// meshLayers splits the surface-construction work recorded in m into the
// mesh layer metrics. Self time is the surface spans minus the five step
// spans inside them.
func meshLayers(m *obs.Mem) map[string]float64 {
	sec := spanSeconds(m)
	out := map[string]float64{
		"mesh.build_s":           sec[obs.StageSurface],
		"mesh.landmarks_s":       sec[obs.StageLandmarks],
		"mesh.cdg_s":             sec[obs.StageCDG],
		"mesh.cdm_s":             sec[obs.StageCDM],
		"mesh.triangulate_s":     sec[obs.StageTriangulate],
		"mesh.flip_s":            sec[obs.StageFlip],
		"mesh.bfs_nodes_visited": float64(m.Total(obs.StageSurface, obs.CtrBFSNodesVisited)),
		"mesh.spt_cache_hits":    float64(m.Total(obs.StageSurface, obs.CtrSPTCacheHits)),
		"mesh.faces":             float64(m.Total(obs.StageSurface, obs.CtrFaces)),
	}
	self := sec[obs.StageSurface]
	for _, s := range meshChildren {
		self -= sec[s]
	}
	out["mesh.self_s"] = self
	return out
}

// mergeInto copies every entry of src into dst.
func mergeInto(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}

// medianByKey reduces a list of per-op metric maps to the per-key median.
func medianByKey(samples []map[string]float64) map[string]float64 {
	vals := make(map[string][]float64)
	for _, s := range samples {
		for k, v := range s {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, xs := range vals {
		out[k] = median(xs)
	}
	return out
}
