package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gridgather"
	"gridgather/internal/serve/pool"
)

// The spill store writes eviction victims behind the request path. These
// tests hold its writer mid-write to pin the ordering: Get serves queued
// bytes, a newer Put wins, Delete leaves no file, a failed write loses no
// state, and a clean victim writes nothing. CI runs them under -race
// many times over.

// twinSnapshot is the snapshot of a never-evicted session built from the
// same request and stepped the same number of rounds.
func twinSnapshot(t *testing.T, req CreateRequest, rounds int) []byte {
	t.Helper()
	cells, err := req.cells()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := gridgather.New(cells, req.options()...)
	if err != nil {
		t.Fatal(err)
	}
	if rounds > 0 {
		if _, err := sim.StepN(rounds); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func fetchStats(t *testing.T, base string) StatsResponse {
	t.Helper()
	var stats StatsResponse
	if code := doJSON(t, "GET", base+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	return stats
}

// spillFileExists reports whether the session's snapshot or sidecar file
// is in dir.
func spillFileExists(t *testing.T, dir, id string) bool {
	t.Helper()
	found := false
	for _, name := range []string{id + ".ggss", id + ".json"} {
		_, err := os.Stat(filepath.Join(dir, name))
		switch {
		case err == nil:
			found = true
		case !errors.Is(err, fs.ErrNotExist):
			t.Fatal(err)
		}
	}
	return found
}

// TestSpillStoreRespillNewest restores a victim from its queued bytes while
// the writer is held on them, steps it, and spills it again. Once the
// writer runs, the snapshot on disk is the newest one.
func TestSpillStoreRespillNewest(t *testing.T) {
	dir := t.TempDir()
	s, hs := newTestServer(t, Config{SpillDir: dir, Pool: pool.Config{MaxResident: 1}})
	base := hs.URL
	started, release := s.HoldSpillWrites()
	t.Cleanup(release)

	req := CreateRequest{Workload: "hollow", N: 60}
	a := createSession(t, base, req)
	stepSession(t, base, a.ID, StepRequest{Rounds: 3})
	b := createSession(t, base, req) // a is the victim
	if id := <-started; id != a.ID {
		t.Fatalf("writer started on %s, want %s", id, a.ID)
	}
	if spillFileExists(t, dir, a.ID) {
		t.Fatal("a held write reached the disk")
	}

	// a restores from its queued bytes and steps to round 5. Its victim b
	// finds the queue full (one spill per resident slot) and is written
	// in the caller.
	if step := stepSession(t, base, a.ID, StepRequest{Rounds: 2}); step.Status.Round != 5 {
		t.Fatalf("restored a stepped to %+v, want round 5", step.Status)
	}
	if !spillFileExists(t, dir, b.ID) {
		t.Fatal("a victim spilled past a full queue is not on disk")
	}
	// b restores from disk and a spills again while its first write is
	// still in flight: the new bytes replace the queued ones.
	stepSession(t, base, b.ID, StepRequest{Rounds: 1})
	if st := fetchStats(t, base); st.SpillPending != 1 {
		t.Fatalf("spill_pending = %d, want 1", st.SpillPending)
	}

	release()
	if err := s.SpillAll(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, a.ID+".ggss"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, twinSnapshot(t, req, 5)) {
		t.Fatal("the snapshot on disk is not the newest one")
	}
	var meta SpillMeta
	mb, err := os.ReadFile(filepath.Join(dir, a.ID+".json"))
	if err == nil {
		err = json.Unmarshal(mb, &meta)
	}
	if err != nil || meta.Round != 5 {
		t.Fatalf("sidecar %+v (%v), want round 5", meta, err)
	}
	if st := fetchStats(t, base); st.SpillPending != 0 || st.SpillWriteErrors != 0 {
		t.Fatalf("after SpillAll: spill_pending %d, spill_write_errors %d", st.SpillPending, st.SpillWriteErrors)
	}
}

// TestSpillStoreDeleteInFlight deletes a session while the writer is held
// on its spill: the delete waits for the write, and neither file remains.
func TestSpillStoreDeleteInFlight(t *testing.T) {
	dir := t.TempDir()
	s, hs := newTestServer(t, Config{SpillDir: dir, Pool: pool.Config{MaxResident: 1}})
	base := hs.URL
	started, release := s.HoldSpillWrites()
	t.Cleanup(release)

	a := createSession(t, base, CreateRequest{Workload: "hollow", N: 60})
	createSession(t, base, CreateRequest{Workload: "hollow", N: 40}) // a is the victim
	if id := <-started; id != a.ID {
		t.Fatalf("writer started on %s, want %s", id, a.ID)
	}

	deleted := make(chan int, 1)
	go func() {
		req, err := http.NewRequest("DELETE", base+"/v1/sessions/"+a.ID, nil)
		if err != nil {
			deleted <- 0
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			deleted <- 0
			return
		}
		resp.Body.Close()
		deleted <- resp.StatusCode
	}()
	select {
	case code := <-deleted:
		t.Fatalf("delete answered %d while the session's write was in flight", code)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if code := <-deleted; code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if err := s.store.Flush(); err != nil {
		t.Fatal(err)
	}
	if spillFileExists(t, dir, a.ID) {
		t.Fatal("a deleted session's spill file remains")
	}
	tmps, err := filepath.Glob(filepath.Join(dir, ".spill-*"))
	if err != nil || len(tmps) != 0 {
		t.Fatalf("temporary files left: %v (%v)", tmps, err)
	}
}

// TestSpillStoreUnwritable replaces the spill directory with a regular
// file, so every write fails (tests run as root, which chmod does not
// stop). Sessions keep stepping and restoring from the queued bytes and
// from memory, SpillAll reports the failure, /v1/stats counts it, and
// once the directory is back the retried writes put every state on disk.
func TestSpillStoreUnwritable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	s, hs := newTestServer(t, Config{SpillDir: dir, Pool: pool.Config{MaxResident: 2}})
	base := hs.URL
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	req := CreateRequest{Workload: "hollow", N: 40}
	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, createSession(t, base, req).ID)
	}
	const passes = 4
	for pass := 1; pass <= passes; pass++ {
		for _, id := range ids {
			if step := stepSession(t, base, id, StepRequest{Rounds: 1}); step.Status.Round != pass {
				t.Fatalf("session %s at pass %d: %+v", id, pass, step.Status)
			}
		}
	}
	if st := s.Pool().Stats(); st.Restores == 0 {
		t.Fatalf("no session restored: %+v", st)
	}
	if err := s.SpillAll(); err == nil {
		t.Fatal("SpillAll into an unwritable directory returned nil")
	}
	st := fetchStats(t, base)
	if st.SpillWriteErrors == 0 || st.SpillPending == 0 {
		t.Fatalf("stats after failed writes: spill_pending %d, spill_write_errors %d", st.SpillPending, st.SpillWriteErrors)
	}
	for _, id := range ids {
		if step := stepSession(t, base, id, StepRequest{Rounds: 1}); step.Status.Round != passes+1 {
			t.Fatalf("session %s after SpillAll: %+v", id, step.Status)
		}
	}

	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.SpillAll(); err != nil {
		t.Fatalf("SpillAll after the directory came back: %v", err)
	}
	want := twinSnapshot(t, req, passes+1)
	for _, id := range ids {
		if got := fetchSnapshot(t, base, id); !bytes.Equal(got, want) {
			t.Fatalf("session %s does not match its never-evicted twin", id)
		}
		if !spillFileExists(t, dir, id) {
			t.Fatalf("session %s is not on disk after SpillAll", id)
		}
	}
	if st := fetchStats(t, base); st.SpillPending != 0 {
		t.Fatalf("spill_pending = %d after a successful SpillAll", st.SpillPending)
	}
}

// TestSpillStoreCleanVictim restores a spilled session and reads it with
// every non-stepping request. Evicted again, it writes nothing, and
// stepped on from the disk it matches a never-evicted twin bit for bit.
func TestSpillStoreCleanVictim(t *testing.T) {
	dir := t.TempDir()
	s, hs := newTestServer(t, Config{SpillDir: dir, Pool: pool.Config{MaxResident: 1}})
	base := hs.URL

	req := faultyCreate("clean")
	a := createSession(t, base, req)
	stepSession(t, base, a.ID, StepRequest{Rounds: 12})
	if code := doJSON(t, "POST", base+"/v1/sessions/"+a.ID+"/evict", nil, nil); code != http.StatusOK {
		t.Fatalf("evict: %d", code)
	}
	stat := func() [2]os.FileInfo {
		var fi [2]os.FileInfo
		for i, name := range []string{a.ID + ".ggss", a.ID + ".json"} {
			var err error
			if fi[i], err = os.Stat(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		return fi
	}
	before := stat()

	for _, path := range []string{"", "/metrics", "/result", "/snapshot"} {
		resp, err := http.Get(base + "/v1/sessions/" + a.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
	}
	if st := s.Pool().Stats(); st.Resident != 1 || st.Restores != 1 {
		t.Fatalf("a was not restored by the reads: %+v", st)
	}
	b := createSession(t, base, CreateRequest{Workload: "hollow", N: 40}) // a is the victim
	if err := s.store.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := fetchStats(t, base); st.SpillPending != 0 || st.Evictions != 2 {
		t.Fatalf("stats after the clean eviction: %+v", st)
	}
	after := stat()
	for i := range before {
		if !os.SameFile(before[i], after[i]) || !before[i].ModTime().Equal(after[i].ModTime()) {
			t.Fatalf("evicting the clean session rewrote %s", after[i].Name())
		}
	}

	stepSession(t, base, a.ID, StepRequest{Rounds: 8}) // restores from disk; b spills
	if !bytes.Equal(fetchSnapshot(t, base, a.ID), twinSnapshot(t, req, 20)) {
		t.Fatal("the restored clean session does not match its never-evicted twin")
	}
	stepSession(t, base, b.ID, StepRequest{Rounds: 1})
}

// TestWriteAtomicTempFiles checks that writeAtomic leaves no temporary
// file behind, after a rename and after a failed one.
func TestWriteAtomicTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := writeAtomic(filepath.Join(dir, "ok"), []byte("data")); err != nil {
		t.Fatal(err)
	}
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeAtomic(blocked, []byte("data")); err == nil {
		t.Fatal("renaming over a non-empty directory succeeded")
	}
	tmps, err := filepath.Glob(filepath.Join(dir, ".spill-*"))
	if err != nil || len(tmps) != 0 {
		t.Fatalf("temporary files left: %v (%v)", tmps, err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "ok")); err != nil || string(got) != "data" {
		t.Fatalf("written file = %q (%v)", got, err)
	}
}
