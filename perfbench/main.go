// Command perfbench is the repository benchmark: it runs one named
// workload from seeded, generated inputs for a fixed time, checks the
// program's outputs, and prints its metrics. Run it through run.sh from
// the repository root:
//
//	bash perfbench/run.sh --workload batch-mds --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured by attaching an
// obs.Mem sink to the public entry points the workload calls. README.md
// lists every metric, the layer that owns it and the workloads it moves.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"repro/internal/bench"
)

// metricSpec is one reported metric: its name, unit and better direction,
// mirrored in BENCHMARK.json (the package test keeps the two in step).
type metricSpec struct {
	name, unit, better string
}

// endToEnd lists the metrics an untraced run reports, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"pipeline_s", "s", "lower"},
	{"precision", "ratio", "higher"},
	{"recall", "ratio", "higher"},
	{"update_p50_ms", "ms", "lower"},
	{"max_rss_mb", "MB", "lower"},
}

// perLayer lists the metrics a traced run reports, on every workload; a
// layer a workload never enters reports 0.
var perLayer = []metricSpec{
	{"netgen.generate_s", "s", "lower"},
	{"netgen.measure_s", "s", "lower"},
	{"mds.frames_s", "s", "lower"},
	{"mds.frame_rmsd", "R", "lower"},
	{"core.ubf_s", "s", "lower"},
	{"core.ubf.balls_tested", "count", "lower"},
	{"core.ubf.nodes_checked", "count", "lower"},
	{"core.ubf.grid_cells", "count", "lower"},
	{"core.ubf.claims", "count", "lower"},
	{"core.iff_s", "s", "lower"},
	{"core.iff.msgs_sent", "count", "lower"},
	{"core.iff.rounds", "count", "lower"},
	{"core.iff.kept_ratio", "ratio", "higher"},
	{"core.grouping_s", "s", "lower"},
	{"core.grouping.msgs_sent", "count", "lower"},
	{"core.groups", "count", "lower"},
	{"core.detect_s", "s", "lower"},
	{"core.detect.self_s", "s", "lower"},
	{"core.detect.alloc_mb", "MB", "lower"},
	{"core.detect.allocs", "count", "lower"},
	{"partition_s", "s", "lower"},
	{"partition.halo_ratio", "ratio", "lower"},
	{"par.efficiency", "ratio", "higher"},
	{"mesh.build_s", "s", "lower"},
	{"mesh.self_s", "s", "lower"},
	{"mesh.landmarks_s", "s", "lower"},
	{"mesh.cdg_s", "s", "lower"},
	{"mesh.cdm_s", "s", "lower"},
	{"mesh.triangulate_s", "s", "lower"},
	{"mesh.flip_s", "s", "lower"},
	{"mesh.bfs_nodes_visited", "count", "lower"},
	{"mesh.spt_cache_hits", "count", "higher"},
	{"mesh.faces", "count", "lower"},
	{"core.incremental.apply_p50_ms", "ms", "lower"},
	{"core.incremental.apply_p99_ms", "ms", "lower"},
	{"core.incremental.dirty_ubf_nodes", "count", "lower"},
	{"core.incremental.dirty_iff_nodes", "count", "lower"},
	{"mesh.incremental.repair_ms", "ms", "lower"},
	{"mesh.incremental.repairs", "count", "lower"},
	{"mesh.incremental.dirty_patch_nodes", "count", "lower"},
	{"mesh.incremental.spt_invalidated", "count", "lower"},
	{"serve.create_s", "s", "lower"},
	{"serve.delta_ms", "ms", "lower"},
	{"serve.get_ms", "ms", "lower"},
	{"serve.mesh_ms", "ms", "lower"},
	{"serve.self_ms", "ms", "lower"},
	{"serve.transport_ms", "ms", "lower"},
	{"loadgen.delta_p95_ms", "ms", "lower"},
	{"loadgen.delta_p99_ms", "ms", "lower"},
	{"loadgen.read_p50_ms", "ms", "lower"},
	{"loadgen.mesh_p50_ms", "ms", "lower"},
	{"loadgen.mesh_p95_ms", "ms", "lower"},
	{"loadgen.delta_slo_frac", "ratio", "higher"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"failed_frac", "ratio", "lower"},
	{"trace_overhead", "ratio", "lower"},
}

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(ctx context.Context, rc runConfig) (*outcome, error)
}

// runConfig is what one run of a workload is given.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// nodes multiplies every deployment's node counts: 1 in the
	// benchmark, less in the package test.
	nodes float64
	// corrupt, when set, flips one boundary verdict in the program's
	// output before the output check sees it (package test only).
	corrupt bool
}

// outcome is one run's result: its metrics and its op counts.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	// checkErr is the first output check that failed, nil when all
	// passed.
	checkErr error
	// notes are extra provenance fields (input sizes, loop latencies).
	notes map[string]any
}

var workloads = []workload{
	{"batch-mds", runBatchMDS},
	{"batch-true", runBatchTrue},
	{"batch-sharded", runBatchSharded},
	{"serve-mixed", runServeMixed},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	rc := runConfig{seed: *seed, seconds: float64(*seconds), trace: *trace == 1, nodes: 1}
	out, err := w.run(context.Background(), rc)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	specs := endToEnd
	if rc.trace {
		specs = perLayer
	}
	if err := report(stdout, w.name, rc, specs, out); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if out.checkErr != nil {
		return fmt.Errorf("%s: output check failed: %w", w.name, out.checkErr)
	}
	return nil
}

// report prints the metric table, the provenance line and, last, the
// result object. It prints nothing when a metric is not a finite number.
func report(stdout io.Writer, name string, rc runConfig, specs []metricSpec, out *outcome) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%-36s %16s  %-6s %s\n", "metric", "value", "unit", "better")
	result := make(map[string]resultMetric, len(specs))
	for _, s := range specs {
		v := out.metrics[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", s.name, v)
		}
		fmt.Fprintf(&buf, "%-36s %16.6g  %-6s %s\n", s.name, v, s.unit, s.better)
		result[s.name] = resultMetric{Value: v, Unit: s.unit}
	}
	prov, err := json.Marshal(map[string]any{"provenance": provenance(name, rc, out)})
	if err != nil {
		return err
	}
	buf.Write(prov)
	buf.WriteByte('\n')
	res, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]resultMetric `json:"metrics"`
	}{out.checkErr == nil && out.failed == 0, out.attempted, out.failed, result})
	if err != nil {
		return err
	}
	buf.Write(res)
	buf.WriteByte('\n')
	_, err = stdout.Write(buf.Bytes())
	return err
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance records what produced a result: the seed, the build and the
// host.
func provenance(name string, rc runConfig, out *outcome) map[string]any {
	host := bench.CurrentHost()
	p := map[string]any{
		"workload":   name,
		"seed":       rc.seed,
		"seconds":    rc.seconds,
		"trace":      rc.trace,
		"revision":   revision(),
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  host.CPUModel,
		"attempted":  out.attempted,
		"succeeded":  out.attempted - out.failed,
		"failed":     out.failed,
	}
	keys := make([]string, 0, len(out.notes))
	for k := range out.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p[k] = out.notes[k]
	}
	if out.checkErr != nil {
		p["check_error"] = out.checkErr.Error()
	}
	return p
}

// revision is the VCS revision stamped into the binary at build time, or
// "unknown" when it was built outside a repository.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// maxRSSMB is the process's peak resident set so far, in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sinceS is the seconds elapsed since t.
func sinceS(t time.Time) float64 { return time.Since(t).Seconds() }
