package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinyNodes runs every workload on a few hundred nodes (1500 for the
// ball).
const tinyNodes = 0.05

// tinyRun runs one workload at tiny scale and returns its outcome and the
// parsed result line.
func tinyRun(t *testing.T, w workload, trace, corrupt bool) (*outcome, resultLine) {
	t.Helper()
	rc := runConfig{seed: 7, seconds: 0.3, trace: trace, nodes: tinyNodes, corrupt: corrupt}
	out, err := w.run(context.Background(), rc)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	var buf bytes.Buffer
	if err := report(&buf, w.name, rc, specs, out); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", w.name, err)
	}
	return out, res
}

type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, file []struct{ Name, Unit, Better string }, prog []metricSpec) {
		if len(file) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(prog))
		}
		for i, m := range file {
			if p := prog[i]; m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, m, p)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestEveryMetricEmitted runs every workload untraced and traced at tiny
// scale: each run passes its output checks and reports exactly the metrics
// BENCHMARK.json names, the end-to-end ones never 0.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				out, res := tinyRun(t, w, trace, false)
				if out.checkErr != nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d check=%v",
						trace, res.Correct, res.Attempted, res.Failed, out.checkErr)
				}
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.name]
					if !ok || m.Unit != s.unit {
						t.Errorf("trace=%v: metric %s missing or unit %q", trace, s.name, m.Unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", s.name, m.Value)
					}
				}
			}
		})
	}
}

// TestTracedLayers pins the layer split the traced run reports: detection
// children never exceed the detect span, and partition time appears on
// the sharded workload only.
func TestTracedLayers(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, _ := tinyRun(t, w, true, false)
			m := out.metrics
			if m["core.detect_s"] <= 0 || m["core.detect.self_s"] < 0 {
				t.Errorf("detect %v self %v", m["core.detect_s"], m["core.detect.self_s"])
			}
			if sharded := w.name == "batch-sharded"; (m["partition_s"] > 0) != sharded {
				t.Errorf("partition_s = %v on %s", m["partition_s"], w.name)
			}
			if mds := w.name == "batch-mds"; (m["mds.frames_s"] > 0) != mds {
				t.Errorf("mds.frames_s = %v on %s", m["mds.frames_s"], w.name)
			}
		})
	}
}

// TestChecksTripOnFlippedVerdict flips one boundary verdict in each
// workload's output before its check: every check must fail the run.
func TestChecksTripOnFlippedVerdict(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, res := tinyRun(t, w, false, true)
			if out.checkErr == nil || res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted verdict passed the check: correct=%v failed=%d", res.Correct, res.Failed)
			}
		})
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "batch-true", "--seconds", "0"},
		{"--workload", "batch-true", "--trace", "2"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil || buf.Len() != 0 {
			t.Errorf("%v: err=%v output=%q", args, err, buf.String())
		}
	}
}
