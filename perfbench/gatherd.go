package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"gridgather"
	"gridgather/internal/serve"
	"gridgather/internal/serve/pool"
)

// gatherd-mixed: an in-process gatherd server behind a loopback listener,
// driven by one closed-loop client (each request waits for the previous
// reply). The session population exceeds the resident cap, so serve's
// JSON and routing and the pool's LRU spill/restore block the replies.

type gatherdPlan struct {
	sessions, n, maxResident int
	requests                 int
	setupReps                int
}

func planGatherd(p params) gatherdPlan {
	if p.tiny {
		return gatherdPlan{sessions: 6, n: 40, maxResident: 2, requests: 80, setupReps: 2}
	}
	return gatherdPlan{
		sessions: 48, n: 1024, maxResident: 16,
		// A request takes 2–3 ms on a 2-CPU x86 box.
		requests:  330 * p.seconds,
		setupReps: 7,
	}
}

// gatherdFamilies are cycled through the session population.
var gatherdFamilies = []string{"solid", "hollow", "blob", "tree", "clusters", "spiral", "line", "staircase"}

// The request mix, as exact shares of the measured requests so that every
// seed asks for the same work: churn (a create, or a delete of the session
// the previous churn created), status reads and snapshot downloads; the
// rest are steps of stepRounds rounds.
const (
	churnShare    = 0.02
	statusShare   = 0.10
	snapshotShare = 0.10
	stepRounds    = 5
)

// request is one entry of the measured request sequence.
type request struct {
	route   string // "churn", "status", "snapshot" or "step"
	session int    // index into the population
}

// requestMix returns n requests in the mix's shares, in a seeded order,
// each aimed at a uniformly drawn session.
func requestMix(rng *rand.Rand, n, sessions int) []request {
	reqs := make([]request, n)
	i := 0
	for _, share := range []struct {
		route string
		n     int
	}{{"churn", int(churnShare * float64(n))}, {"status", int(statusShare * float64(n))}, {"snapshot", int(snapshotShare * float64(n))}} {
		for j := 0; j < share.n; j++ {
			reqs[i].route = share.route
			i++
		}
	}
	for ; i < n; i++ {
		reqs[i].route = "step"
	}
	rng.Shuffle(n, func(a, b int) { reqs[a], reqs[b] = reqs[b], reqs[a] })
	for i := range reqs {
		reqs[i].session = rng.Intn(sessions)
	}
	return reqs
}

// sessionSpec is one session of the population.
type sessionSpec struct {
	in   input
	req  serve.CreateRequest
	body []byte
}

// options are the session options the server derives from req, for the
// in-process twin.
func (s sessionSpec) options() []gridgather.Option {
	return []gridgather.Option{
		gridgather.WithScheduler(s.req.Scheduler),
		gridgather.WithAlgorithm(s.req.Algorithm),
		gridgather.WithFaults(s.req.Faults),
		gridgather.WithWorkers(s.req.Workers),
		gridgather.WithConnectivityCheck(s.req.ConnectivityCheck),
	}
}

// gatherdSpecs builds the population and the churn session. Every sixth
// session runs the greedy strategy under a round-robin SSYNC scheduler,
// and every sixth crash faults under it, as in gatherload's scenario mix.
func gatherdSpecs(rng *rand.Rand, pl gatherdPlan) ([]sessionSpec, sessionSpec) {
	spec := func(i int, family string) sessionSpec {
		in := makeInput(rng, family, pl.n)
		req := serve.CreateRequest{Label: fmt.Sprintf("%s-%d", family, i), Workers: 1}
		req.Cells = make([][2]int, len(in.cells))
		for j, c := range in.cells {
			req.Cells[j] = [2]int{c.X, c.Y}
		}
		switch i % 6 {
		case 4:
			req.Scheduler, req.Algorithm = "ssync-rr:3", "greedy"
		case 5:
			req.Scheduler, req.Faults, req.ConnectivityCheck = "ssync-rr:3", "crash-at:r=4,k=2@1", true
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // a CreateRequest always marshals
		}
		return sessionSpec{in: in, req: req, body: body}
	}
	specs := make([]sessionSpec, pl.sessions)
	for i := range specs {
		specs[i] = spec(i, gatherdFamilies[i%len(gatherdFamilies)])
	}
	return specs, spec(pl.sessions, "blob")
}

func runGatherd(p params) (result, error) {
	pl := planGatherd(p)
	specs, churn := gatherdSpecs(rand.New(rand.NewSource(p.seed)), pl)
	resetPeakRSS()
	if err := os.MkdirAll(p.scratch, 0o755); err != nil {
		return result{}, err
	}
	rec := newRecorder()
	var mm *memMeter
	if p.traced {
		mm = &memMeter{}
	}
	u, ufinal := gatherdPhase(p, pl, specs, churn, rec, mm, nil)
	if len(u.problems) == 0 {
		checkTwins(u, specs, ufinal)
	}
	if !p.traced {
		return untracedResult(u), nil
	}
	layer := map[string]float64{}
	mm.layerMetrics(len(u.ops), layer)
	t, tfinal := gatherdPhase(p, pl, specs, churn, rec, nil, layer)
	for k := range tfinal.snaps {
		if k >= len(ufinal.snaps) || !bytes.Equal(tfinal.snaps[k], ufinal.snaps[k]) {
			t.failf("session %d ends differently in the traced phase", k)
		}
	}
	return tracedResult("gatherd-mixed", p, u, t, layer, rec), nil
}

// benchClient is the closed-loop client.
type benchClient struct {
	base string
	hc   *http.Client
	rec  *recorder
	// traced adds the headers that link handler spans to client spans.
	traced bool
}

// reply is one request's outcome; dur runs from send to body read.
type reply struct {
	code int
	body []byte
	dur  time.Duration
	err  error
}

func (c *benchClient) do(route, method, path string, body []byte, op int64) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("X-Client", "perfbench")
	var id int64
	if c.traced {
		id = c.rec.reserve()
		req.Header.Set(headerOp, strconv.FormatInt(op, 10))
		req.Header.Set(headerSpan, strconv.FormatInt(id, 10))
	}
	var rep reply
	start := c.rec.now()
	resp, err := c.hc.Do(req)
	if err == nil {
		rep.code = resp.StatusCode
		rep.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := c.rec.now()
	rep.dur, rep.err = time.Duration(end-start), err
	if c.traced {
		c.rec.add(span{ID: id, Op: op, Name: "client." + route, Start: start, End: end})
	}
	return rep
}

// getJSON issues an untimed GET and decodes the reply into v.
func (c *benchClient) getJSON(path string, v any) error {
	rep := c.do("other", http.MethodGet, path, nil, -1)
	if rep.err != nil {
		return rep.err
	}
	if rep.code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, rep.code)
	}
	return json.Unmarshal(rep.body, v)
}

// gatherdServer is one booted server with its population.
type gatherdServer struct {
	srv *serve.Server
	ts  *httptest.Server
	dir string
	ids []string
}

func (g *gatherdServer) close() {
	g.ts.Close()
	g.srv.CloseStreams()
	os.RemoveAll(g.dir)
}

// bootGatherd starts a server and creates the population through it.
func bootGatherd(p params, pl gatherdPlan, specs []sessionSpec, rec *recorder, traced bool) (*gatherdServer, *benchClient, error) {
	dir, err := os.MkdirTemp(p.scratch, "gatherd-spill-")
	if err != nil {
		return nil, nil, err
	}
	srv, err := serve.New(serve.Config{SpillDir: dir, Pool: pool.Config{MaxResident: pl.maxResident}})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	var h http.Handler = srv
	if traced {
		h = handlerClock{h: srv, rec: rec}
	}
	g := &gatherdServer{srv: srv, ts: httptest.NewServer(h), dir: dir}
	c := &benchClient{base: g.ts.URL, hc: g.ts.Client(), rec: rec, traced: traced}
	for i, s := range specs {
		rep := c.do("create", http.MethodPost, "/v1/sessions", s.body, -1)
		var info serve.SessionInfo
		if rep.err == nil && rep.code == http.StatusCreated {
			rep.err = json.Unmarshal(rep.body, &info)
		}
		if rep.err != nil || rep.code != http.StatusCreated {
			g.close()
			return nil, nil, fmt.Errorf("creating session %d: status %d, %v", i, rep.code, rep.err)
		}
		g.ids = append(g.ids, info.ID)
	}
	return g, c, nil
}

// gatherdFinal is the population's state after a phase.
type gatherdFinal struct {
	rounds  []int
	results []serve.ResultResponse
	snaps   [][]byte
}

// gatherdPhase boots the server (timing set-up setupReps times when
// untraced), replays the seeded request mix and collects the final state.
// A non-nil layer makes it the traced phase.
func gatherdPhase(p params, pl gatherdPlan, specs []sessionSpec, churn sessionSpec, rec *recorder, mm *memMeter, layer map[string]float64) (*phase, gatherdFinal) {
	ph := &phase{}
	traced := layer != nil
	reps := pl.setupReps
	if traced {
		reps = 1
	}
	var g *gatherdServer
	var c *benchClient
	for rep := 0; rep < reps; rep++ {
		if g != nil {
			g.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if g, c, err = bootGatherd(p, pl, specs, rec, traced); err != nil {
			ph.failf("set-up: %v", err)
			return ph, gatherdFinal{}
		}
		ph.setup = append(ph.setup, time.Since(start))
	}
	defer g.close()

	var before serve.StatsResponse
	if err := c.getJSON("/v1/stats", &before); err != nil {
		ph.failf("stats: %v", err)
		return ph, gatherdFinal{}
	}
	fin := gatherdFinal{rounds: make([]int, len(g.ids))}
	// The mix draws from its own stream, apart from the inputs'.
	reqs := requestMix(rand.New(rand.NewSource(p.seed+1_000_003)), pl.requests, len(g.ids))
	stepBody := []byte(fmt.Sprintf(`{"rounds":%d}`, stepRounds))
	churnID := ""
	runtime.GC()
	for i, rq := range reqs {
		k := rq.session
		base := "/v1/sessions/" + g.ids[k]
		op := int64(i)
		route := rq.route
		var rep reply
		mm.begin()
		switch {
		case route == "churn" && churnID == "":
			route = "create"
			rep = c.do(route, http.MethodPost, "/v1/sessions", churn.body, op)
		case route == "churn":
			route = "delete"
			rep = c.do(route, http.MethodDelete, "/v1/sessions/"+churnID, nil, op)
		case route == "status":
			rep = c.do(route, http.MethodGet, base, nil, op)
		case route == "snapshot":
			rep = c.do(route, http.MethodGet, base+"/snapshot", nil, op)
		default:
			rep = c.do(route, http.MethodPost, base+"/step", stepBody, op)
		}
		mm.end()
		ph.attempted++
		ph.ops = append(ph.ops, rep.dur)
		if err := checkReply(route, rep, g.ids[k], &fin.rounds[k], &churnID); err != nil {
			ph.failed++
			ph.failf("request %d (%s): %v", i, route, err)
		}
	}
	ph.work = blockWork(ph.ops)
	ph.peakMB = peakRSSMB()

	var after serve.StatsResponse
	if err := c.getJSON("/v1/stats", &after); err != nil {
		ph.failf("stats: %v", err)
		return ph, fin
	}
	evictions, restores := after.Evictions-before.Evictions, after.Restores-before.Restores
	if evictions == 0 || restores == 0 {
		ph.failf("the pool neither spilled nor restored (evictions %d, restores %d)", evictions, restores)
	}
	if after.Resident > after.MaxResident || after.MaxResidentObserved > after.MaxResident {
		ph.failf("resident sessions %d (high-water %d) exceed the cap %d", after.Resident, after.MaxResidentObserved, after.MaxResident)
	}
	if traced {
		n := float64(pl.requests)
		layer["pool.restores_per_req"] = float64(restores) / n
		layer["pool.evictions_per_req"] = float64(evictions) / n
		layer["pool.rejected"] = float64((after.RejectedFull + after.RejectedBusy + after.RejectedClient) -
			(before.RejectedFull + before.RejectedBusy + before.RejectedClient))
		serveLayer(rec, layer)
	}

	// The final state, read outside the measured phase.
	for k, id := range g.ids {
		var res serve.ResultResponse
		if err := c.getJSON("/v1/sessions/"+id+"/result", &res); err != nil {
			ph.failf("session %d result: %v", k, err)
			continue
		}
		rep := c.do("other", http.MethodGet, "/v1/sessions/"+id+"/snapshot", nil, -1)
		if rep.err != nil || rep.code != http.StatusOK {
			ph.failf("session %d snapshot: status %d, %v", k, rep.code, rep.err)
			continue
		}
		if res.Rounds != fin.rounds[k] {
			ph.failf("session %d reports %d rounds, the client stepped %d", k, res.Rounds, fin.rounds[k])
		}
		fin.results = append(fin.results, res)
		fin.snaps = append(fin.snaps, rep.body)
		ph.sim.add(counters{Rounds: res.Rounds, Merges: res.Merges, Moves: res.Moves})
	}
	ph.rounds = ph.sim.Rounds
	return ph, fin
}

// checkReply validates one response outside the timed region and tracks
// the session's round count and the churn session.
func checkReply(route string, rep reply, id string, rounds *int, churnID *string) error {
	if rep.err != nil {
		return rep.err
	}
	if rep.code < 200 || rep.code > 299 {
		return fmt.Errorf("status %d: %s", rep.code, bytes.TrimSpace(rep.body))
	}
	switch route {
	case "step":
		var sr serve.StepResponse
		if err := json.Unmarshal(rep.body, &sr); err != nil {
			return err
		}
		if sr.Status.Round != *rounds+sr.Executed || (sr.Executed != stepRounds && !sr.Status.Gathered) {
			return fmt.Errorf("executed %d rounds to round %d from round %d", sr.Executed, sr.Status.Round, *rounds)
		}
		*rounds = sr.Status.Round
		return healthy(sr.Status)
	case "status":
		var info serve.SessionInfo
		if err := json.Unmarshal(rep.body, &info); err != nil {
			return err
		}
		if info.ID != id || info.Round != *rounds {
			return fmt.Errorf("status of %s at round %d, want %s at %d", info.ID, info.Round, id, *rounds)
		}
		return healthy(info)
	case "snapshot":
		sim, err := gridgather.Restore(rep.body)
		if err != nil {
			return err
		}
		if r := sim.Status().Round; r != *rounds {
			return fmt.Errorf("snapshot at round %d, want %d", r, *rounds)
		}
	case "create":
		var info serve.SessionInfo
		if err := json.Unmarshal(rep.body, &info); err != nil {
			return err
		}
		if rep.code != http.StatusCreated || info.ID == "" {
			return fmt.Errorf("create answered %d with id %q", rep.code, info.ID)
		}
		*churnID = info.ID
	case "delete":
		if rep.code != http.StatusNoContent {
			return fmt.Errorf("delete answered %d", rep.code)
		}
		*churnID = ""
	}
	return nil
}

// healthy rejects a session that aborted: the workload is chosen so that
// none does.
func healthy(info serve.SessionInfo) error {
	switch info.Reason {
	case gridgather.ReasonRunning, gridgather.ReasonGathered, gridgather.ReasonDegraded:
		return nil
	}
	return fmt.Errorf("session %s aborted: %s %s", info.ID, info.Reason, info.Error)
}

// checkTwins steps an in-process twin of every session the same number of
// rounds and demands the server's final snapshot and result match it.
func checkTwins(ph *phase, specs []sessionSpec, fin gatherdFinal) {
	if len(fin.snaps) != len(specs) {
		ph.failf("final state of %d sessions, want %d", len(fin.snaps), len(specs))
		return
	}
	problems := make([]string, len(specs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				problems[k] = twinMismatch(specs[k], fin.rounds[k], fin.results[k], fin.snaps[k])
			}
		}()
	}
	for k := range specs {
		next <- k
	}
	close(next)
	wg.Wait()
	for k, pr := range problems {
		if pr != "" {
			ph.failf("session %d: %s", k, pr)
		}
	}
}

// twinMismatch describes how a session's final state differs from its
// in-process twin's ("" when it does not).
func twinMismatch(s sessionSpec, rounds int, res serve.ResultResponse, snap []byte) string {
	twin, err := gridgather.New(s.in.points(), s.options()...)
	if err != nil {
		return "twin: " + err.Error()
	}
	if rounds > 0 {
		if _, err := twin.StepN(rounds); err != nil {
			return "twin: " + err.Error()
		}
	}
	tr := twin.Result()
	got := [...]int{res.Rounds, res.Merges, res.Moves, res.RunsStarted, res.FinalRobots, res.Crashes}
	want := [...]int{tr.Rounds, tr.Merges, tr.Moves, tr.RunsStarted, tr.FinalRobots, tr.Crashes}
	if got != want || res.Gathered != tr.Gathered || res.Degraded != tr.Degraded {
		return fmt.Sprintf("result %+v, twin %+v", res, tr)
	}
	want2, err := twin.Snapshot()
	if err != nil {
		return "twin snapshot: " + err.Error()
	}
	if !bytes.Equal(snap, want2) {
		return "snapshot differs from the twin's"
	}
	return ""
}

// serveLayer derives the serve.* metrics from the client and handler
// spans of the measured requests (op ≥ 0).
func serveLayer(rec *recorder, layer map[string]float64) {
	handler := map[int64]time.Duration{}
	client := map[int64]time.Duration{}
	byRoute := map[string][]time.Duration{}
	rec.mu.Lock()
	for _, s := range rec.spans {
		if s.Op < 0 {
			continue
		}
		if route, ok := strings.CutPrefix(s.Name, "serve.handler."); ok {
			handler[s.Op] = s.dur()
			byRoute[route] = append(byRoute[route], s.dur())
		} else if strings.HasPrefix(s.Name, "client.") {
			client[s.Op] = s.dur()
		}
	}
	rec.mu.Unlock()
	for _, r := range serveRoutes {
		layer["serve.handler_ms."+r+".p50"] = millis(quantile(byRoute[r], 0.5))
		layer["serve.handler_ms."+r+".p90"] = millis(quantile(byRoute[r], 0.9))
	}
	var transport []time.Duration
	for op, cd := range client {
		if hd, ok := handler[op]; ok {
			transport = append(transport, cd-hd)
		}
	}
	layer["serve.transport_ms"] = millis(median(transport))
}
