package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/export"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/serve"
)

// serve-mixed: boundaryd over loopback HTTP with one session per CPU on
// the Fig. 1 network (true coordinates). After the sessions are created an
// open loop sends each session requests at a fixed rate, cycling through
// requestCycle: single-delta writes interleaved with session and mesh
// reads. Every request is timed from when it was due.
const (
	// perSessionRate is each session's request rate in requests/s. A
	// mesh read takes 15-35 ms and a write ~10 ms; at 40 requests/s the
	// requests after a mesh read queued whenever the host slowed, which
	// tripled the spread of the median write between runs.
	perSessionRate = 30
	// requestCycle is each session's request pattern: W = one-delta
	// write, R = GET /v1/sessions/{id}, M = GET /v1/sessions/{id}/mesh.
	// Fourteen writes a cycle keep a 20 s run above 1000 deltas.
	requestCycle = "WWWWWWWRWWWWWWWM"
	// writeCycle is the delta mix: six moves, a join and a leave.
	writeCycle = "MMMMMMJL"
	// deltaSeed seeds session i's delta stream as deltaSeed + i. The
	// stream is drawn over the scenario's own node order and mapped
	// through the run's relabelling, so every seed replays the same
	// physical deltas. Streams drawn from the run seed differed in cost:
	// one made its session's mesh reads three times slower for 8 s of a
	// run, while the other session's stayed put.
	deltaSeed = 1
	// deltaSLO is the fixed write latency limit loadgen.delta_slo_frac
	// counts against.
	deltaSLO = 50 * time.Millisecond
	// createRounds is how many times each session's network is created.
	createRounds = 3
	// traceWindow alternates tracing on and off during a traced run's
	// loop, so the run yields both traced and untraced requests.
	traceWindow = time.Second
)

// Route labels of the serve spans the server records.
const (
	routeCreate = "POST /v1/sessions"
	routeDelta  = "POST /v1/sessions/{id}/deltas"
	routeGet    = "GET /v1/sessions/{id}"
	routeMesh   = "GET /v1/sessions/{id}/mesh"
)

// gate forwards observations to the current obs.Mem while tracing is on.
// Before the loop starts it is on whenever a Mem is set; during the loop
// it follows the traceWindow alternation.
type gate struct {
	mem   atomic.Pointer[obs.Mem]
	start atomic.Int64 // loop start in Unix ns; 0 before the loop
}

func (g *gate) sink() *obs.Mem {
	m := g.mem.Load()
	if m == nil {
		return nil
	}
	if s := g.start.Load(); s != 0 && !tracedAt(time.Duration(time.Now().UnixNano()-s)) {
		return nil
	}
	return m
}

// tracedAt reports whether a traced run traces at the given time into its
// loop.
func tracedAt(d time.Duration) bool { return (d/traceWindow)%2 == 1 }

func (g *gate) StageBegin(s obs.Stage, label string) {
	if m := g.sink(); m != nil {
		m.StageBegin(s, label)
	}
}

func (g *gate) StageEnd(s obs.Stage, label string, wallNS int64) {
	if m := g.sink(); m != nil {
		m.StageEnd(s, label, wallNS)
	}
}

func (g *gate) Count(s obs.Stage, c obs.Counter, delta int64) {
	if m := g.sink(); m != nil {
		m.Count(s, c, delta)
	}
}

func (g *gate) RoundBegin(s obs.Stage, round int) {
	if m := g.sink(); m != nil {
		m.RoundBegin(s, round)
	}
}

func (g *gate) RoundEnd(s obs.Stage, round int, rs obs.RoundStats) {
	if m := g.sink(); m != nil {
		m.RoundEnd(s, round, rs)
	}
}

func (g *gate) NodeTransition(s obs.Stage, t obs.Transition, node int, value int64) {
	if m := g.sink(); m != nil {
		m.NodeTransition(s, t, node, value)
	}
}

// mirror is the client's copy of one session's node set, which generates
// the session's deltas and feeds the from-scratch check at the end.
type mirror struct {
	id     string
	net    *netgen.Network
	pos    []geom.Vec3
	active []bool
	// label maps a node's index in the scenario's own deployment to its
	// ID in the session.
	label  []int
	rng    *rand.Rand
	writes int
}

// nextDelta draws the session's next write and applies it to the mirror.
// It returns the wire body and, for a join, the ID the session must
// assign.
func (m *mirror) nextDelta() ([]byte, int) {
	r := m.net.Radius
	jitter := func(p geom.Vec3, span float64) geom.Vec3 {
		return p.Add(geom.V((m.rng.Float64()-0.5)*span, (m.rng.Float64()-0.5)*span, (m.rng.Float64()-0.5)*span))
	}
	kind := writeCycle[m.writes%len(writeCycle)]
	m.writes++
	var d map[string]any
	joined := -1
	switch kind {
	case 'M':
		u := m.pickActive()
		m.pos[u] = jitter(m.pos[u], 0.3*r)
		d = map[string]any{"op": "move", "node": u, "pos": wireVec(m.pos[u])}
	case 'J':
		p := jitter(m.pos[m.pickActive()], r)
		joined = len(m.pos)
		m.pos = append(m.pos, p)
		m.active = append(m.active, true)
		d = map[string]any{"op": "join", "pos": wireVec(p)}
	default: // 'L'
		u := m.pickActive()
		m.active[u] = false
		d = map[string]any{"op": "leave", "node": u}
	}
	body, _ := json.Marshal(map[string]any{"deltas": []any{d}})
	return body, joined
}

func (m *mirror) pickActive() int {
	for {
		u := m.rng.Intn(len(m.pos))
		if u < len(m.label) {
			u = m.label[u]
		}
		if m.active[u] {
			return u
		}
	}
}

func wireVec(p geom.Vec3) map[string]float64 {
	return map[string]float64{"x": p.X, "y": p.Y, "z": p.Z}
}

// sample is one timed loop request.
type sample struct {
	kind    byte    // 'W', 'R' or 'M'
	latency float64 // seconds from due to response read
	service float64 // seconds from send to response read
	late    float64 // seconds from due to send
	traced  bool    // due inside a traced window
	failed  bool
}

// serveSetup is everything built before the first timed request.
type serveSetup struct {
	base    string
	client  *http.Client
	srv     *http.Server
	done    chan error
	mirrors []*mirror
	bodies  [][]byte
	setupS  []float64
	genS    []float64
	startS  float64
}

func (st *serveSetup) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.srv.Shutdown(ctx) // a hung shutdown still ends at the timeout
	<-st.done
	st.client.CloseIdleConnections()
}

func runServeMixed(ctx context.Context, rc runConfig) (*outcome, error) {
	g := &gate{}
	sessions := runtime.NumCPU()
	opts := serve.Options{}
	if rc.trace {
		opts.Obs = g
	}
	st, err := serveSetUp(rc, sessions, serve.New(opts))
	if err != nil {
		return nil, err
	}
	defer st.close()

	out := &outcome{metrics: map[string]float64{}, notes: map[string]any{}}

	// Session creation: POST the network, then the first (cold) mesh
	// read; together they are the served pipeline for a whole network.
	// Each network is created createRounds times (all but the last
	// session deleted again) so pipeline_s is a median over several.
	var pipeS []float64
	var createLayers []map[string]float64
	for r := 0; r < createRounds; r++ {
		for i, m := range st.mirrors {
			mem := &obs.Mem{}
			g.mem.Store(mem)
			id, secs, err := createSession(ctx, st, i)
			g.mem.Store(nil)
			if err != nil {
				return nil, fmt.Errorf("create session %d: %w", i, err)
			}
			pipeS = append(pipeS, secs)
			if rc.trace {
				l := detectLayers(mem)
				if c := labeledSpans(mem, obs.StageServe, routeCreate); len(c) > 0 {
					l["serve.create_s"] = c[0]
				}
				createLayers = append(createLayers, l)
			}
			if r < createRounds-1 {
				if err := st.do(ctx, "DELETE", "/v1/sessions/"+id, nil, http.StatusOK, nil); err != nil {
					return nil, err
				}
				continue
			}
			m.id = id
		}
	}
	var cls metrics.Classification
	for i, m := range st.mirrors {
		var det serve.Detail
		if err := st.do(ctx, "GET", "/v1/sessions/"+m.id, nil, http.StatusOK, &det); err != nil {
			return nil, fmt.Errorf("read session %d: %w", i, err)
		}
		found := make([]bool, m.net.Len())
		for _, u := range det.Boundary {
			found[u] = true
		}
		c, err := metrics.Classify(m.net.TrueBoundary(), found)
		if err != nil {
			return nil, err
		}
		cls = addClassification(cls, c)
	}

	loopMem := &obs.Mem{}
	if rc.trace {
		g.mem.Store(loopMem)
	}
	samples := openLoop(ctx, st, g, rc)
	rss := maxRSSMB()

	for _, s := range samples {
		out.attempted++
		if s.failed {
			out.failed++
		}
	}
	if out.failed > 0 {
		out.checkErr = fmt.Errorf("%d of %d requests failed", out.failed, out.attempted)
	}
	// Output check: every session's served boundary, groups and mesh
	// equal a from-scratch detection and surface build over its active
	// node set.
	for _, m := range st.mirrors {
		if err := checkSession(ctx, st, m, rc.corrupt); err != nil {
			out.failed++
			out.checkErr = firstErr(out.checkErr, fmt.Errorf("session %s: %w", m.id, err))
		}
	}

	// latencies lists the successful requests of one kind, in or out of
	// the traced windows (a traced run reports user-facing latencies from
	// its untraced windows), and counts the failed ones.
	latencies := func(kind byte, traced bool) (lat []float64, failed int) {
		for _, s := range samples {
			if s.kind != kind || s.traced != traced {
				continue
			}
			if s.failed {
				failed++
				continue
			}
			lat = append(lat, s.latency)
		}
		return lat, failed
	}
	writes, writeFails := latencies('W', false)
	reads, _ := latencies('R', false)
	meshes, _ := latencies('M', false)
	var lateAll []float64
	for _, s := range samples {
		if !s.traced {
			lateAll = append(lateAll, s.late)
		}
	}
	slo := 0
	for _, l := range writes {
		if l <= deltaSLO.Seconds() {
			slo++
		}
	}
	sloFrac := float64(slo) / float64(max(1, len(writes)+writeFails))
	out.notes["deltas"] = len(writes)
	out.notes["reads"] = len(reads)
	out.notes["mesh_reads"] = len(meshes)
	out.notes["sessions"] = sessions
	out.notes["delta_slo_ms"] = ms(deltaSLO.Seconds())
	// Loop latencies that are not end-to-end metrics; a traced run
	// reports them per layer, an untraced one in its provenance line.
	loadgen := map[string]float64{
		"loadgen.delta_p95_ms":   ms(quantile(slices.Clone(writes), 0.95)),
		"loadgen.delta_p99_ms":   ms(quantile(slices.Clone(writes), 0.99)),
		"loadgen.read_p50_ms":    ms(median(slices.Clone(reads))),
		"loadgen.mesh_p50_ms":    ms(median(slices.Clone(meshes))),
		"loadgen.mesh_p95_ms":    ms(quantile(slices.Clone(meshes), 0.95)),
		"loadgen.delta_slo_frac": sloFrac,
		"loadgen.late_p99_ms":    ms(quantile(lateAll, 0.99)),
	}

	m := out.metrics
	if !rc.trace {
		m["setup_s"] = median(st.setupS) + st.startS
		m["pipeline_s"] = median(pipeS)
		m["precision"] = cls.Precision()
		m["recall"] = cls.Recall()
		m["update_p50_ms"] = ms(median(slices.Clone(writes)))
		m["max_rss_mb"] = rss
		for k, v := range loadgen {
			out.notes[k] = v
		}
		return out, nil
	}

	// Traced run: the detection layers come from session creation, the
	// incremental, mesh and serve layers from the loop's traced windows.
	m["netgen.generate_s"] = median(st.genS)
	mergeInto(m, medianByKey(createLayers))
	incS := labeledSpans(loopMem, obs.StageIncremental, "")
	meshIncS := labeledSpans(loopMem, obs.StageMeshInc, "")
	perDelta := float64(max(1, len(incS)))
	perMesh := float64(max(1, len(meshIncS)))
	m["core.incremental.apply_p50_ms"] = ms(median(slices.Clone(incS)))
	m["core.incremental.apply_p99_ms"] = ms(quantile(slices.Clone(incS), 0.99))
	m["core.incremental.dirty_ubf_nodes"] = float64(loopMem.Total(obs.StageIncremental, obs.CtrDirtyUBF)) / perDelta
	m["core.incremental.dirty_iff_nodes"] = float64(loopMem.Total(obs.StageIncremental, obs.CtrDirtyIFF)) / perDelta
	m["mesh.incremental.repair_ms"] = ms(median(slices.Clone(meshIncS)))
	m["mesh.incremental.repairs"] = float64(loopMem.Total(obs.StageMeshInc, obs.CtrMeshRepairs)) / perMesh
	m["mesh.incremental.dirty_patch_nodes"] = float64(loopMem.Total(obs.StageMeshInc, obs.CtrDirtyPatch)) / perMesh
	m["mesh.incremental.spt_invalidated"] = float64(loopMem.Total(obs.StageMeshInc, obs.CtrSPTInvalidated)) / perDelta
	for k, v := range meshLayers(loopMem) {
		m[k] = v / perMesh
	}

	spanDelta := labeledSpans(loopMem, obs.StageServe, routeDelta)
	spanGet := labeledSpans(loopMem, obs.StageServe, routeGet)
	spanMesh := labeledSpans(loopMem, obs.StageServe, routeMesh)
	m["serve.delta_ms"] = ms(median(slices.Clone(spanDelta)))
	m["serve.get_ms"] = ms(median(slices.Clone(spanGet)))
	m["serve.mesh_ms"] = ms(median(slices.Clone(spanMesh)))
	serveAll := slices.Concat(spanDelta, spanGet, spanMesh)
	engine := slices.Concat(incS, meshIncS)
	if len(serveAll) > 0 {
		m["serve.self_ms"] = ms((sum(serveAll) - sum(engine)) / float64(len(serveAll)))
	}
	var svcTraced []float64
	for _, s := range samples {
		if s.traced && !s.failed {
			svcTraced = append(svcTraced, s.service)
		}
	}
	if len(svcTraced) > 0 && len(serveAll) > 0 {
		m["serve.transport_ms"] = ms(meanOf(svcTraced) - meanOf(serveAll))
	}
	mergeInto(m, loadgen)
	if out.attempted > 0 {
		m["failed_frac"] = float64(out.failed) / float64(out.attempted)
	}
	tracedWrites, _ := latencies('W', true)
	if u := median(slices.Clone(writes)); u > 0 {
		m["trace_overhead"] = median(tracedWrites)/u - 1
	}
	return out, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// createSession creates a session from network i and reads its mesh once;
// it returns the session ID and the seconds both requests took.
func createSession(ctx context.Context, st *serveSetup, i int) (string, float64, error) {
	t0 := time.Now()
	var created serve.Summary
	if err := st.do(ctx, "POST", "/v1/sessions", st.bodies[i], http.StatusCreated, &created); err != nil {
		return "", 0, err
	}
	if err := st.do(ctx, "GET", "/v1/sessions/"+created.Session+"/mesh", nil, http.StatusOK, nil); err != nil {
		return "", 0, fmt.Errorf("first mesh: %w", err)
	}
	return created.Session, sinceS(t0), nil
}

// serveSetUp deploys and encodes one network per session, then starts the
// server on a loopback listener.
func serveSetUp(rc runConfig, sessions int, srv *serve.Server) (*serveSetup, error) {
	st := &serveSetup{}
	deploy := scenarioDeploy(eval.Fig1)
	for i := 0; i < sessions; i++ {
		t0 := time.Now()
		n, err := deployInput(deploy, netSeed(rc.seed, i), rc.nodes)
		if err != nil {
			return nil, fmt.Errorf("deploy network %d: %w", i, err)
		}
		st.genS = append(st.genS, sinceS(t0))
		var buf bytes.Buffer
		if err := export.WriteNetworkJSON(&buf, n); err != nil {
			return nil, err
		}
		st.setupS = append(st.setupS, sinceS(t0))
		st.bodies = append(st.bodies, buf.Bytes())
		active := make([]bool, n.Len())
		for u := range active {
			active[u] = true
		}
		label := make([]int, n.Len())
		for u, old := range relabelPerm(netSeed(rc.seed, i), n.Len()) {
			label[old] = u
		}
		st.mirrors = append(st.mirrors, &mirror{
			net:    n,
			pos:    n.Positions(),
			active: active,
			label:  label,
			rng:    rand.New(rand.NewSource(deltaSeed + int64(i))),
		})
	}

	t0 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.srv = &http.Server{Handler: srv.Handler()}
	st.done = make(chan error, 1)
	go func() { st.done <- st.srv.Serve(ln) }()
	st.base = "http://" + ln.Addr().String()
	st.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     sessions,
		MaxIdleConnsPerHost: sessions,
	}}
	st.startS = sinceS(t0)
	return st, nil
}

// openLoop drives every session at perSessionRate for the run's duration,
// one goroutine and connection per session, and returns every request's
// timing. Session i's k-th request is due at start + (k + i/sessions) /
// rate; a request sent late still counts from its due time.
func openLoop(ctx context.Context, st *serveSetup, g *gate, rc runConfig) []sample {
	n := len(st.mirrors)
	period := time.Second / perSessionRate
	dur := time.Duration(rc.seconds * float64(time.Second))
	start := time.Now().Add(10 * time.Millisecond)
	if rc.trace {
		g.start.Store(start.UnixNano())
	}
	results := make([][]sample, n)
	var wg sync.WaitGroup
	for i, m := range st.mirrors {
		wg.Add(1)
		go func(i int, m *mirror) {
			defer wg.Done()
			offset := time.Duration(i) * period / time.Duration(n)
			for k := 0; ; k++ {
				dueAfter := offset + time.Duration(k)*period
				if dueAfter >= dur || ctx.Err() != nil {
					return
				}
				due := start.Add(dueAfter)
				time.Sleep(time.Until(due))
				results[i] = append(results[i], sendOne(ctx, st, m, requestCycle[k%len(requestCycle)], due, dueAfter, rc.trace))
			}
		}(i, m)
	}
	wg.Wait()
	return slices.Concat(results...)
}

// sendOne sends one loop request and times it.
func sendOne(ctx context.Context, st *serveSetup, m *mirror, kind byte, due time.Time, dueAfter time.Duration, trace bool) sample {
	s := sample{kind: kind, traced: trace && tracedAt(dueAfter)}
	path := "/v1/sessions/" + m.id
	var body []byte
	joined := -1
	method := "GET"
	switch kind {
	case 'W':
		body, joined = m.nextDelta()
		path += "/deltas"
		method = "POST"
	case 'M':
		path += "/mesh"
	}
	sent := time.Now()
	s.late = sent.Sub(due).Seconds()
	var resp struct {
		Joined []int `json:"joined"`
	}
	var dst any
	if joined >= 0 {
		dst = &resp
	}
	err := st.do(ctx, method, path, body, http.StatusOK, dst)
	done := time.Now()
	s.latency = done.Sub(due).Seconds()
	s.service = done.Sub(sent).Seconds()
	if err != nil || (joined >= 0 && (len(resp.Joined) != 1 || resp.Joined[0] != joined)) {
		s.failed = true
	}
	return s
}

// do sends one request for path and checks its status; with out non-nil
// it decodes the response body into it, otherwise it drains the body.
func (st *serveSetup) do(ctx context.Context, method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	url := st.base + path
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := st.client.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(res.Body, 512))
		return fmt.Errorf("%s %s: status %s: %s", method, url, res.Status, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, res.Body)
		return err
	}
	return json.NewDecoder(res.Body).Decode(out)
}

// wireMesh is the part of GET /v1/sessions/{id}/mesh the check reads.
type wireMesh struct {
	Surfaces []struct {
		Group     int `json:"group"`
		GroupSize int `json:"group_size"`
		Landmarks []struct {
			ID int     `json:"id"`
			X  float64 `json:"x"`
			Y  float64 `json:"y"`
			Z  float64 `json:"z"`
		} `json:"landmarks"`
		Edges  [][2]int `json:"edges"`
		Faces  [][3]int `json:"faces"`
		Flips  int      `json:"flips"`
		Euler  int      `json:"euler"`
		Closed bool     `json:"closed_2manifold"`
	} `json:"surfaces"`
}

// checkSession compares a session's served boundary, groups and mesh with
// core.Detect and mesh.BuildAll over the mirror's active node set, under
// the stable-ID renaming. corrupt flips one served verdict first.
func checkSession(ctx context.Context, st *serveSetup, m *mirror, corrupt bool) error {
	var det serve.Detail
	if err := st.do(ctx, "GET", "/v1/sessions/"+m.id, nil, http.StatusOK, &det); err != nil {
		return err
	}
	var served wireMesh
	if err := st.do(ctx, "GET", "/v1/sessions/"+m.id+"/mesh", nil, http.StatusOK, &served); err != nil {
		return err
	}
	if corrupt {
		det.Boundary = flipFirstVerdict(det.Boundary, len(m.pos))
	}

	var nodes []netgen.Node
	var stable []int
	for u, a := range m.active {
		if a {
			stable = append(stable, u)
			nodes = append(nodes, netgen.Node{Pos: m.pos[u]})
		}
	}
	network, err := netgen.Assemble(nodes, m.net.Radius)
	if err != nil {
		return err
	}
	full, err := core.Detect(network, nil, core.Config{})
	if err != nil {
		return err
	}
	return compareServed(&det, &served, full, network, stable)
}

// flipFirstVerdict flips node 0's served boundary verdict.
func flipFirstVerdict(boundary []int, n int) []int {
	if len(boundary) > 0 && boundary[0] == 0 {
		return boundary[1:]
	}
	if n == 0 {
		return boundary
	}
	return append([]int{0}, boundary...)
}

// compareServed checks a served detail and mesh against a from-scratch
// result on the compacted network whose node k is stable ID stable[k].
func compareServed(det *serve.Detail, served *wireMesh, full *core.Result, network *netgen.Network, stable []int) error {
	var want []int
	for k, b := range full.Boundary {
		if b {
			want = append(want, stable[k])
		}
	}
	if !slices.Equal(det.Boundary, want) {
		return fmt.Errorf("served boundary has %d nodes, rebuild %d", len(det.Boundary), len(want))
	}
	if len(det.Groups) != len(full.Groups) {
		return fmt.Errorf("served %d groups, rebuild %d", len(det.Groups), len(full.Groups))
	}
	for g, grp := range full.Groups {
		if len(det.Groups[g]) != len(grp) {
			return fmt.Errorf("served group %d size", g)
		}
		for k, u := range grp {
			if det.Groups[g][k] != stable[u] {
				return fmt.Errorf("served group %d member %d", g, k)
			}
		}
	}

	surfs, err := mesh.BuildAll(network.G, full.Groups, mesh.Config{})
	if err != nil {
		return err
	}
	if len(served.Surfaces) != len(surfs) {
		return fmt.Errorf("served %d surfaces, rebuild %d", len(served.Surfaces), len(surfs))
	}
	for i, ref := range surfs {
		ws := served.Surfaces[i]
		if ws.Group != i || ws.GroupSize != len(ref.Group) || len(ws.Landmarks) != len(ref.Landmarks.IDs) ||
			len(ws.Edges) != len(ref.Edges) || len(ws.Faces) != len(ref.Faces) {
			return fmt.Errorf("served surface %d shape", i)
		}
		refined := mesh.RefinedPositions(ref, func(u int) geom.Vec3 { return network.Nodes[u].Pos }, 0.7)
		for k, lm := range ref.Landmarks.IDs {
			wl, p := ws.Landmarks[k], refined[lm]
			if wl.ID != stable[lm] || wl.X != p.X || wl.Y != p.Y || wl.Z != p.Z {
				return fmt.Errorf("served surface %d landmark %d", i, k)
			}
		}
		for k, e := range ref.Edges {
			if ws.Edges[k] != [2]int{stable[e[0]], stable[e[1]]} {
				return fmt.Errorf("served surface %d edge %d", i, k)
			}
		}
		for k, f := range ref.Faces {
			if ws.Faces[k] != [3]int{stable[f[0]], stable[f[1]], stable[f[2]]} {
				return fmt.Errorf("served surface %d face %d", i, k)
			}
		}
		if ws.Flips != ref.Flips || ws.Euler != ref.Quality.Euler || ws.Closed != ref.Quality.Closed2Manifold {
			return fmt.Errorf("served surface %d quality", i)
		}
	}
	return nil
}
