package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"gridgather"
	"gridgather/internal/serve/pool"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.SpillDir == "" {
		cfg.SpillDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	// Drain the spill store's writer too, so no write outlives the test's
	// temporary directory.
	t.Cleanup(func() {
		hs.Close()
		s.CloseStreams()
	})
	return s, hs
}

// doJSON performs a request with a JSON body and decodes a JSON response,
// returning the status code.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

func createSession(t *testing.T, base string, req CreateRequest) SessionInfo {
	t.Helper()
	var info SessionInfo
	if code := doJSON(t, "POST", base+"/v1/sessions", req, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if info.ID == "" || !info.Resident {
		t.Fatalf("create: info %+v", info)
	}
	return info
}

func stepSession(t *testing.T, base, id string, req StepRequest) StepResponse {
	t.Helper()
	var resp StepResponse
	if code := doJSON(t, "POST", base+"/v1/sessions/"+id+"/step", req, &resp); code != http.StatusOK {
		t.Fatalf("step %s: status %d", id, code)
	}
	return resp
}

func fetchSnapshot(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + id + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot %s: status %d", id, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSessionLifecycle(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	base := hs.URL

	info := createSession(t, base, CreateRequest{Workload: "hollow", N: 60, Label: "life"})
	if info.Round != 0 || info.Robots == 0 {
		t.Fatalf("fresh session info %+v", info)
	}

	step := stepSession(t, base, info.ID, StepRequest{Rounds: 5})
	if step.Executed != 5 || step.Status.Round != 5 {
		t.Fatalf("step = %+v", step)
	}

	var got SessionInfo
	if code := doJSON(t, "GET", base+"/v1/sessions/"+info.ID, nil, &got); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if got.Round != 5 || got.ID != info.ID {
		t.Fatalf("status = %+v", got)
	}

	var m MetricsResponse
	if code := doJSON(t, "GET", base+"/v1/sessions/"+info.ID+"/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if m.Rounds != 5 || m.InitialRobots == 0 {
		t.Fatalf("metrics = %+v", m)
	}

	done := stepSession(t, base, info.ID, StepRequest{ToCompletion: true})
	if !done.Status.Done || !done.Status.Gathered {
		t.Fatalf("run to completion = %+v", done)
	}
	if done.Status.Reason != "gathered" {
		t.Fatalf("reason = %q, want gathered", done.Status.Reason)
	}

	var res ResultResponse
	if code := doJSON(t, "GET", base+"/v1/sessions/"+info.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result: %d", code)
	}
	if !res.Gathered || res.FinalRobots > 4 {
		// Gathering ends with all robots inside one 2×2 square.
		t.Fatalf("result = %+v", res)
	}

	if snap := fetchSnapshot(t, base, info.ID); len(snap) == 0 {
		t.Fatal("empty snapshot")
	}

	var list ListResponse
	doJSON(t, "GET", base+"/v1/sessions", nil, &list)
	if len(list.Sessions) != 1 || list.Sessions[0].ID != info.ID {
		t.Fatalf("list = %+v", list)
	}

	if code := doJSON(t, "DELETE", base+"/v1/sessions/"+info.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if code := doJSON(t, "GET", base+"/v1/sessions/"+info.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("status after delete: %d, want 404", code)
	}
}

func TestCreateValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	base := hs.URL
	var errResp ErrorResponse
	// Oversized swarms are refused before any cell is built.
	for _, req := range []CreateRequest{
		{Workload: "solid", N: 1<<20 + 1},
		{Workload: "solid", N: 2000000000},
		{Cells: make([][2]int, 1<<20+1)},
	} {
		errResp = ErrorResponse{}
		code := doJSON(t, "POST", base+"/v1/sessions", req, &errResp)
		if code != http.StatusBadRequest || !strings.Contains(errResp.Error, "serve: n ") {
			t.Fatalf("n=%d cells=%d: %d %q, want 400 naming n", req.N, len(req.Cells), code, errResp.Error)
		}
	}
	var stats StatsResponse
	doJSON(t, "GET", base+"/v1/stats", nil, &stats)
	if stats.Created != 0 || stats.Sessions != 0 {
		t.Fatalf("rejected creates reached the pool: %+v", stats)
	}
	if code := doJSON(t, "POST", base+"/v1/sessions", CreateRequest{Workload: "no-such", N: 10}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("unknown workload: %d", code)
	}
	if code := doJSON(t, "POST", base+"/v1/sessions", CreateRequest{}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("empty create: %d", code)
	}
	if code := doJSON(t, "POST", base+"/v1/sessions",
		CreateRequest{Workload: "hollow", N: 10, Cells: [][2]int{{0, 0}}}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("workload+cells: %d", code)
	}
	// Bad option surfaces as 400 and the failed session leaves no residue.
	if code := doJSON(t, "POST", base+"/v1/sessions",
		CreateRequest{Workload: "hollow", N: 10, Scheduler: "no-such-model"}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("bad scheduler: %d", code)
	}
	// So does a cell beyond ±2^62 (gridgather.ErrCoordinateRange).
	if code := doJSON(t, "POST", base+"/v1/sessions",
		CreateRequest{Cells: [][2]int{{math.MaxInt64, 0}}}, &errResp); code != http.StatusBadRequest || !strings.Contains(errResp.Error, "2^62") {
		t.Fatalf("cell beyond 2^62: %d %q", code, errResp.Error)
	}
	var list ListResponse
	doJSON(t, "GET", base+"/v1/sessions", nil, &list)
	if len(list.Sessions) != 0 {
		t.Fatalf("failed creates left sessions: %+v", list)
	}

	// The deprecated workers field is accepted at any value and changes
	// nothing: each session steps exactly like one created without it.
	ref := createSession(t, base, CreateRequest{Workload: "hollow", N: 10})
	want := stepSession(t, base, ref.ID, StepRequest{Rounds: 15})
	want.Status.ID = ""
	for _, workers := range []int{runtime.GOMAXPROCS(0) + 1, 1 << 20, -1} {
		sess := createSession(t, base, CreateRequest{Workload: "hollow", N: 10, Workers: workers})
		got := stepSession(t, base, sess.ID, StepRequest{Rounds: 15})
		got.Status.ID = ""
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("workers=%d: stepped to %+v, want %+v", workers, got, want)
		}
	}
}

// faultyCreate is the adversarial differential configuration: a
// non-default scheduler, the greedy algorithm, a mid-run mass crash, and
// the connectivity check on — everything the snapshot must carry.
func faultyCreate(label string) CreateRequest {
	return CreateRequest{
		Workload:          "blob",
		N:                 80,
		Label:             label,
		Scheduler:         "ssync-rr:3",
		Algorithm:         "greedy",
		Faults:            "crash-at:r=10,k=3@1",
		ConnectivityCheck: true,
	}
}

// clearQuiesce zeroes the execution-strategy counters that legitimately
// differ after a restore (the quiescence cache restarts cold — documented
// in Metrics).
func clearQuiesce(m *MetricsResponse) {
	m.QuiesceComputed, m.QuiesceSkipped, m.QuiescentRatio = 0, 0, 0
}

// TestEvictionDifferential steps a spilled-and-restored session next to a
// never-evicted twin and requires identical trajectories: same status,
// same result, same metrics (modulo the documented cache counters), and
// bit-identical snapshots.
func TestEvictionDifferential(t *testing.T) {
	s, hs := newTestServer(t, Config{Pool: pool.Config{MaxResident: 4}})
	base := hs.URL

	a := createSession(t, base, faultyCreate("evicted"))
	b := createSession(t, base, faultyCreate("twin"))

	stepSession(t, base, a.ID, StepRequest{Rounds: 15})
	stepSession(t, base, b.ID, StepRequest{Rounds: 15})

	// Explicitly evict A mid-run — after the crash round, with the
	// scheduler mid-rotation.
	var evicted SessionInfo
	if code := doJSON(t, "POST", base+"/v1/sessions/"+a.ID+"/evict", nil, &evicted); code != http.StatusOK {
		t.Fatalf("evict: %d", code)
	}
	if evicted.Resident {
		t.Fatalf("evict left session resident: %+v", evicted)
	}
	if st := s.Pool().Stats(); st.Resident != 1 || st.Spilled != 1 {
		t.Fatalf("pool after evict = %+v", st)
	}

	// Touching A restores it transparently.
	ra := stepSession(t, base, a.ID, StepRequest{Rounds: 10})
	rb := stepSession(t, base, b.ID, StepRequest{Rounds: 10})
	ra.Status.ID, ra.Status.Label = "", ""
	rb.Status.ID, rb.Status.Label = "", ""
	if fmt.Sprint(ra) != fmt.Sprint(rb) {
		t.Fatalf("status diverged after restore:\n  evicted: %+v\n  twin:    %+v", ra, rb)
	}
	if st := s.Pool().Stats(); st.Restores != 1 {
		t.Fatalf("Restores = %d, want 1", st.Restores)
	}

	// Run both to completion and compare everything.
	fa := stepSession(t, base, a.ID, StepRequest{ToCompletion: true, BudgetRounds: 100000})
	fb := stepSession(t, base, b.ID, StepRequest{ToCompletion: true, BudgetRounds: 100000})
	fa.Status.ID, fa.Status.Label = "", ""
	fb.Status.ID, fb.Status.Label = "", ""
	if fmt.Sprint(fa) != fmt.Sprint(fb) {
		t.Fatalf("final status diverged:\n  evicted: %+v\n  twin:    %+v", fa, fb)
	}

	var ma, mb MetricsResponse
	doJSON(t, "GET", base+"/v1/sessions/"+a.ID+"/metrics", nil, &ma)
	doJSON(t, "GET", base+"/v1/sessions/"+b.ID+"/metrics", nil, &mb)
	ma.ID, mb.ID = "", ""
	clearQuiesce(&ma)
	clearQuiesce(&mb)
	if fmt.Sprint(ma) != fmt.Sprint(mb) {
		t.Fatalf("metrics diverged:\n  evicted: %+v\n  twin:    %+v", ma, mb)
	}

	var resA, resB ResultResponse
	doJSON(t, "GET", base+"/v1/sessions/"+a.ID+"/result", nil, &resA)
	doJSON(t, "GET", base+"/v1/sessions/"+b.ID+"/result", nil, &resB)
	resA.ID, resB.ID = "", ""
	if fmt.Sprint(resA) != fmt.Sprint(resB) {
		t.Fatalf("results diverged:\n  evicted: %+v\n  twin:    %+v", resA, resB)
	}

	snapA := fetchSnapshot(t, base, a.ID)
	snapB := fetchSnapshot(t, base, b.ID)
	if !bytes.Equal(snapA, snapB) {
		t.Fatal("snapshots of evicted and never-evicted twins differ")
	}
}

// TestRestoreUpload round-trips a snapshot through the client: download,
// upload as a new session, and check both sessions march in lockstep. The
// deprecated workers parameter is ignored at any value, even a malformed
// one.
func TestRestoreUpload(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	base := hs.URL

	orig := createSession(t, base, faultyCreate("original"))
	stepSession(t, base, orig.ID, StepRequest{Rounds: 12})
	snap := fetchSnapshot(t, base, orig.ID)

	resp, err := http.Post(base+"/v1/sessions/restore?label=clone", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	var clone SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&clone); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("restore upload: %d", resp.StatusCode)
	}
	if clone.Round != 12 || clone.ID == orig.ID {
		t.Fatalf("clone = %+v", clone)
	}

	so := stepSession(t, base, orig.ID, StepRequest{Rounds: 20})
	sc := stepSession(t, base, clone.ID, StepRequest{Rounds: 20})
	so.Status.ID, so.Status.Label = "", ""
	sc.Status.ID, sc.Status.Label = "", ""
	if fmt.Sprint(so) != fmt.Sprint(sc) {
		t.Fatalf("uploaded clone diverged:\n  orig:  %+v\n  clone: %+v", so, sc)
	}

	workers := []string{"abc", fmt.Sprint(runtime.GOMAXPROCS(0) + 1), "1048576", "-1"}
	for _, v := range workers {
		resp, err = http.Post(base+"/v1/sessions/restore?workers="+v, "application/octet-stream", bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		var c SessionInfo
		if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("restore upload with workers=%s: %d", v, resp.StatusCode)
		}
		got := stepSession(t, base, c.ID, StepRequest{Rounds: 20})
		got.Status.ID, got.Status.Label = "", ""
		if fmt.Sprint(got) != fmt.Sprint(so) {
			t.Fatalf("clone uploaded with workers=%s diverged:\n  orig:  %+v\n  clone: %+v", v, so, got)
		}
	}
	var stats StatsResponse
	doJSON(t, "GET", base+"/v1/stats", nil, &stats)
	if want := uint64(2 + len(workers)); stats.Created != want {
		t.Fatalf("created=%d, want %d", stats.Created, want)
	}
}

// TestEventStreamAcrossEviction opens an NDJSON stream, then evicts and
// restores the session under it: the stream must keep delivering events
// from wherever stepping resumes.
func TestEventStreamAcrossEviction(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	base := hs.URL
	info := createSession(t, base, CreateRequest{Workload: "hollow", N: 80})

	resp, err := http.Get(base + "/v1/sessions/" + info.ID + "/events?mask=round")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	next := func() EventRecord {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var rec EventRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		return rec
	}

	if rec := next(); rec.Kind != "status" {
		t.Fatalf("opening record = %+v, want status", rec)
	}
	stepSession(t, base, info.ID, StepRequest{Rounds: 3})
	for want := 1; want <= 3; want++ {
		if rec := next(); rec.Kind != "round" || rec.Round != want {
			t.Fatalf("record = %+v, want round %d", rec, want)
		}
	}

	if code := doJSON(t, "POST", base+"/v1/sessions/"+info.ID+"/evict", nil, nil); code != http.StatusOK {
		t.Fatalf("evict: %d", code)
	}
	stepSession(t, base, info.ID, StepRequest{Rounds: 2})
	for want := 4; want <= 5; want++ {
		if rec := next(); rec.Kind != "round" || rec.Round != want {
			t.Fatalf("post-eviction record = %+v, want round %d", rec, want)
		}
	}

	// Deleting the session evicts the subscriber with a reason.
	if code := doJSON(t, "DELETE", base+"/v1/sessions/"+info.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if rec := next(); rec.Kind != "evicted" || !strings.Contains(rec.Error, "deleted") {
		t.Fatalf("closing record = %+v, want evicted/deleted", rec)
	}
	if sc.Scan() {
		t.Fatalf("stream continued after eviction record: %q", sc.Text())
	}
}

// TestSlowConsumerEvicted fills a tiny subscriber buffer without draining
// it and checks the fan-out evicts the consumer instead of blocking the
// step.
func TestSlowConsumerEvicted(t *testing.T) {
	s, hs := newTestServer(t, Config{StreamBuffer: 2})
	base := hs.URL
	info := createSession(t, base, CreateRequest{Workload: "hollow", N: 80})

	// Attach a subscriber directly (no HTTP reader draining it).
	e, err := s.Pool().Acquire(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	sess := e.Payload().(*session)
	sess.mu.Lock()
	sub := sess.subscribe(gridgather.AllEvents, s.cfg.StreamBuffer)
	sess.mu.Unlock()
	s.Pool().Release(e)

	stepSession(t, base, info.ID, StepRequest{Rounds: 8})
	select {
	case <-sub.done:
	default:
		t.Fatal("slow consumer not evicted")
	}
	if !strings.Contains(sub.reason, "overflow") {
		t.Fatalf("eviction reason %q", sub.reason)
	}
	if s.slowEvicted.Load() == 0 {
		t.Fatal("slow-consumer counter not bumped")
	}
	// The fan-out pruned the dead subscriber and cancelled its relay from
	// inside the emit callback.
	sess.subMu.Lock()
	left := len(sess.subs)
	sess.subMu.Unlock()
	if left != 0 {
		t.Fatalf("%d subscribers left after eviction, want 0", left)
	}
}

// TestLRUEvictionUnderPressure creates more sessions than MaxResident and
// checks idle ones spill automatically yet stay steppable.
func TestLRUEvictionUnderPressure(t *testing.T) {
	s, hs := newTestServer(t, Config{Pool: pool.Config{MaxResident: 2}})
	base := hs.URL

	var infos []SessionInfo
	for i := 0; i < 5; i++ {
		infos = append(infos, createSession(t, base, CreateRequest{Workload: "hollow", N: 40, Label: fmt.Sprintf("p%d", i)}))
	}
	st := s.Pool().Stats()
	if st.Resident != 2 || st.Spilled != 3 {
		t.Fatalf("pool = %+v, want 2 resident / 3 spilled", st)
	}
	if st.MaxResidentObserved > 2 {
		t.Fatalf("MaxResidentObserved = %d broke the cap", st.MaxResidentObserved)
	}
	// Every session — resident or spilled — steps fine.
	for _, info := range infos {
		if step := stepSession(t, base, info.ID, StepRequest{Rounds: 1}); step.Status.Round != 1 {
			t.Fatalf("session %s: %+v", info.ID, step)
		}
	}
	if st := s.Pool().Stats(); st.MaxResidentObserved > 2 {
		t.Fatalf("MaxResidentObserved = %d after touches", st.MaxResidentObserved)
	}
}

// TestShutdownRestartResumes spills everything on shutdown, boots a fresh
// server over the same spill directory, and continues the sessions.
func TestShutdownRestartResumes(t *testing.T) {
	dir := t.TempDir()
	s1, hs1 := newTestServer(t, Config{SpillDir: dir})
	base := hs1.URL

	a := createSession(t, base, faultyCreate("restart-a"))
	b := createSession(t, base, CreateRequest{Workload: "hollow", N: 50, Label: "restart-b"})
	stepSession(t, base, a.ID, StepRequest{Rounds: 7})
	stepSession(t, base, b.ID, StepRequest{Rounds: 4})

	s1.CloseStreams()
	if err := s1.SpillAll(); err != nil {
		t.Fatalf("SpillAll: %v", err)
	}
	hs1.Close()

	_, hs2 := newTestServer(t, Config{SpillDir: dir})
	base2 := hs2.URL
	var list ListResponse
	doJSON(t, "GET", base2+"/v1/sessions", nil, &list)
	if len(list.Sessions) != 2 {
		t.Fatalf("recovered %d sessions, want 2: %+v", len(list.Sessions), list)
	}
	rounds := map[string]int{}
	for _, info := range list.Sessions {
		if info.Resident {
			t.Fatalf("recovered session %s resident before first touch", info.ID)
		}
		rounds[info.Label] = info.Round
	}
	if rounds["restart-a"] != 7 || rounds["restart-b"] != 4 {
		t.Fatalf("recovered rounds %+v", rounds)
	}
	// New sessions must not collide with recovered IDs.
	c := createSession(t, base2, CreateRequest{Workload: "hollow", N: 30})
	if c.ID == a.ID || c.ID == b.ID {
		t.Fatalf("ID collision after restart: %s", c.ID)
	}
	// And the recovered sessions keep stepping from where they stopped.
	if step := stepSession(t, base2, a.ID, StepRequest{Rounds: 3}); step.Status.Round != 10 {
		t.Fatalf("restart-a stepped to %+v, want round 10", step.Status)
	}
}

// TestLargeStepDrainsOnShutdown starts a `rounds` step far larger than the
// session can run on a ring that takes thousands of rounds to gather,
// waits on the session's event stream until the step has run a round, and
// then calls CloseStreams. The step must reply promptly with the rounds it
// ran, at least that one and short of the request and of gathering, and
// the session must spill and resume at exactly that round after a restart.
func TestLargeStepDrainsOnShutdown(t *testing.T) {
	dir := t.TempDir()
	s1, hs1 := newTestServer(t, Config{SpillDir: dir})
	info := createSession(t, hs1.URL, CreateRequest{Workload: "hollow", N: 4000, Label: "big-step"})

	events, err := http.Get(hs1.URL + "/v1/sessions/" + info.ID + "/events?mask=round")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()
	sc := bufio.NewScanner(events.Body)
	if !sc.Scan() {
		t.Fatalf("event stream ended before its opening record: %v", sc.Err())
	}

	const huge = 1_000_000_000
	body, err := json.Marshal(StepRequest{Rounds: huge})
	if err != nil {
		t.Fatal(err)
	}
	replies := make(chan error, 1)
	var step StepResponse
	go func() {
		resp, err := http.Post(hs1.URL+"/v1/sessions/"+info.ID+"/step", "application/json", bytes.NewReader(body))
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&step)
			resp.Body.Close()
		}
		replies <- err
	}()
	// The first round record proves the step is in flight.
	var rec EventRecord
	if !sc.Scan() {
		t.Fatalf("event stream ended before the step ran a round: %v", sc.Err())
	}
	if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Kind != "round" {
		t.Fatalf("record %q (%v), want a round", sc.Text(), err)
	}
	s1.CloseStreams()
	select {
	case err := <-replies:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a rounds step did not drain after CloseStreams")
	}
	if step.Executed < rec.Round || step.Executed >= huge || step.Status.Done || step.Status.Round != step.Executed {
		t.Fatalf("drained step = executed %d after round %d was streamed, status %+v", step.Executed, rec.Round, step.Status)
	}
	if err := s1.SpillAll(); err != nil {
		t.Fatalf("SpillAll: %v", err)
	}
	hs1.Close()

	_, hs2 := newTestServer(t, Config{SpillDir: dir})
	var list ListResponse
	doJSON(t, "GET", hs2.URL+"/v1/sessions", nil, &list)
	if len(list.Sessions) != 1 || list.Sessions[0].Round != step.Executed {
		t.Fatalf("recovered %+v, want one session at round %d", list.Sessions, step.Executed)
	}
	if next := stepSession(t, hs2.URL, info.ID, StepRequest{Rounds: 2}); next.Executed != 2 || next.Status.Round != step.Executed+2 {
		t.Fatalf("resumed step = executed %d, round %d; want 2, %d", next.Executed, next.Status.Round, step.Executed+2)
	}
}

// TestStepStopsWhenClientLeaves cancels a to_completion step's client on
// a large hollow ring once the step has run a round. The step must stop
// long before the ring gathers (status, which waits for the step's lock,
// answers at the round it stopped), and the session must then step on
// to the same snapshot bytes as a twin that was never interrupted.
func TestStepStopsWhenClientLeaves(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	base := hs.URL
	create := CreateRequest{Workload: "hollow", N: 4000}
	info := createSession(t, base, create)
	twin := createSession(t, base, create)

	events, err := http.Get(base + "/v1/sessions/" + info.ID + "/events?mask=round")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()
	sc := bufio.NewScanner(events.Body)
	if !sc.Scan() {
		t.Fatalf("event stream ended before its opening record: %v", sc.Err())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/sessions/"+info.ID+"/step",
		strings.NewReader(`{"to_completion":true}`))
	if err != nil {
		t.Fatal(err)
	}
	replies := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		replies <- err
	}()
	var rec EventRecord
	if !sc.Scan() {
		t.Fatalf("event stream ended before the step ran a round: %v", sc.Err())
	}
	if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Kind != "round" {
		t.Fatalf("record %q (%v), want a round", sc.Text(), err)
	}
	cancel()
	if err := <-replies; err == nil {
		t.Fatal("the cancelled step still got a reply")
	}

	var st SessionInfo
	if code := doJSON(t, "GET", base+"/v1/sessions/"+info.ID, nil, &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	// The ring needs about 11 000 rounds. The stop may trail the streamed
	// round only by the few rounds run while the server noticed the
	// client had gone (one, on a 2-CPU box).
	if st.Done || st.Round < rec.Round || st.Round > rec.Round+50 {
		t.Fatalf("step stopped at round %d (done %v) after round %d was streamed", st.Round, st.Done, rec.Round)
	}

	stepSession(t, base, info.ID, StepRequest{Rounds: 25})
	stepSession(t, base, twin.ID, StepRequest{Rounds: st.Round + 25})
	if a, b := fetchSnapshot(t, base, info.ID), fetchSnapshot(t, base, twin.ID); !bytes.Equal(a, b) {
		t.Fatalf("interrupted session's snapshot at round %d differs from its twin's", st.Round+25)
	}
}

// TestStepDrainStopsAtRoundBoundary cancels the step's context from inside
// round k: the step completes that round and runs no other.
func TestStepDrainStopsAtRoundBoundary(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	info := createSession(t, hs.URL, CreateRequest{Workload: "hollow", N: 400})
	e, err := s.pool.Acquire(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer s.pool.Release(e)
	sess := e.Payload().(*session)
	sess.mu.Lock()
	defer sess.mu.Unlock()

	const k = 7
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	unsub := sess.sim.Subscribe(gridgather.RoundEvents, func(ev gridgather.Event) {
		if ev.Round == k {
			cancel()
		}
	})
	defer unsub()
	if got := s.stepDrain(ctx, sess, 0); got != k || sess.sim.Status().Round != k {
		t.Fatalf("stepDrain ran %d rounds to round %d, want %d", got, sess.sim.Status().Round, k)
	}
}

// TestLegacySpillMetaRecovers boots a server over a spill directory whose
// sidecar still carries the full_bfs/full_recompute keys older daemons
// wrote. Unknown keys are ignored on decode, so the session is recovered,
// steps, and matches a twin that never spilled.
func TestLegacySpillMetaRecovers(t *testing.T) {
	cells, err := gridgather.Workload("hollow", 200)
	if err != nil {
		t.Fatal(err)
	}
	donor, err := gridgather.New(cells)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.StepN(4); err != nil {
		t.Fatal(err)
	}
	snap, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta := fmt.Sprintf(`{"id":"s3","label":"legacy","workers":1,"full_bfs":true,"full_recompute":true,"round":4,"robots":%d,"done":false}`,
		donor.Status().Robots)
	if err := os.WriteFile(st.snapPath("s3"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.metaPath("s3"), []byte(meta+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, hs := newTestServer(t, Config{SpillDir: dir})
	base := hs.URL
	var list ListResponse
	doJSON(t, "GET", base+"/v1/sessions", nil, &list)
	if len(list.Sessions) != 1 || list.Sessions[0].ID != "s3" || list.Sessions[0].Round != 4 {
		t.Fatalf("recovered sessions %+v, want s3 at round 4", list.Sessions)
	}
	if step := stepSession(t, base, "s3", StepRequest{Rounds: 6}); step.Status.Round != 10 {
		t.Fatalf("recovered session stepped to %+v, want round 10", step.Status)
	}

	twin, err := gridgather.New(cells)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := twin.StepN(10); err != nil {
		t.Fatal(err)
	}
	want, err := twin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fetchSnapshot(t, base, "s3"), want) {
		t.Fatal("snapshots of recovered and never-spilled twins differ")
	}
}

func TestClientInFlightLimit(t *testing.T) {
	_, hs := newTestServer(t, Config{Pool: pool.Config{MaxInFlightPerClient: 1}})
	base := hs.URL
	// The session API is gated per client; a stream holds its slot for its
	// whole lifetime.
	info := func() SessionInfo {
		req, _ := http.NewRequest("POST", base+"/v1/sessions", strings.NewReader(`{"workload":"hollow","n":30}`))
		req.Header.Set("X-Client", "alice")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info SessionInfo
		json.NewDecoder(resp.Body).Decode(&info)
		return info
	}()

	req, _ := http.NewRequest("GET", base+"/v1/sessions/"+info.ID+"/events", nil)
	req.Header.Set("X-Client", "alice")
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d", stream.StatusCode)
	}

	blocked, _ := http.NewRequest("GET", base+"/v1/sessions/"+info.ID, nil)
	blocked.Header.Set("X-Client", "alice")
	resp2, err := http.DefaultClient.Do(blocked)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap request: %d, want 429", resp2.StatusCode)
	}

	other, _ := http.NewRequest("GET", base+"/v1/sessions/"+info.ID, nil)
	other.Header.Set("X-Client", "bob")
	resp3, err := http.DefaultClient.Do(other)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("other client: %d, want 200", resp3.StatusCode)
	}
}

func TestStatsAndHealth(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	base := hs.URL
	var health map[string]string
	if code := doJSON(t, "GET", base+"/v1/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health["status"] != "ok" || health["version"] != Version {
		t.Fatalf("healthz = %+v", health)
	}
	createSession(t, base, CreateRequest{Workload: "hollow", N: 30})
	var stats StatsResponse
	if code := doJSON(t, "GET", base+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats.Sessions != 1 || stats.Resident != 1 || stats.Created != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Version != Version || stats.MaxResident == 0 {
		t.Fatalf("stats metadata = %+v", stats)
	}
}

func TestParseEventMask(t *testing.T) {
	if _, err := ParseEventMask("round,merge,gathered"); err != nil {
		t.Fatal(err)
	}
	if mask, err := ParseEventMask(""); err != nil || mask != gridgather.AllEvents {
		t.Fatalf("empty spec = (%v, %v)", mask, err)
	}
	if _, err := ParseEventMask("nope"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
