package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNoSnapshot reports a session absent from the spill store.
var ErrNoSnapshot = errors.New("serve: no spilled snapshot for session")

// SpillMeta is the sidecar record written next to a spilled snapshot: the
// label the snapshot itself does not carry, plus informational fields for
// listings after a daemon restart. Decoding ignores unknown keys, so
// sidecars written by older daemons (which also recorded a worker count)
// still recover.
type SpillMeta struct {
	ID    string `json:"id"`
	Label string `json:"label,omitempty"`
	// Round, Robots, Done and Reason describe the session at spill time
	// (informational: listings read them without restoring the session).
	Round  int    `json:"round"`
	Robots int    `json:"robots"`
	Done   bool   `json:"done"`
	Reason string `json:"reason,omitempty"`
}

// Store is the disk spill store: one <id>.ggss snapshot plus one
// <id>.json meta sidecar per spilled session, each written atomically
// (tmp + rename) so a crash mid-spill never leaves a torn snapshot.
// Snapshot() output is the only payload format — the same bytes a client
// downloads from the snapshot endpoint, so spilling, migration between
// boxes, and client-side checkpointing are one currency.
//
// Writes are write-behind. Put queues the bytes in memory, keyed by
// session ID with only the newest kept, and returns; one writer
// goroutine, started on demand and gone once the queue is empty, puts
// them on disk oldest first. Get serves queued bytes before the files,
// so a reader never sees an older state than the last Put. At most
// maxPending spills are queued; past that Put writes in the caller. A
// failed background write keeps its bytes queued (Get still serves
// them), counts in WriteErrors, and is retried by the writer's next
// start; Sync and Flush report it. A crash loses what is still queued.
type Store struct {
	dir string
	// maxPending caps the queued spills; zero makes every Put synchronous.
	maxPending int

	mu   sync.Mutex
	idle *sync.Cond // broadcast when a write ends and when the writer exits
	// pending holds the newest unwritten bytes per ID; an entry leaves
	// it when exactly those bytes are on disk, or on Delete.
	pending map[string]*spill
	queue   []string // IDs awaiting the writer, oldest first
	writing string   // the ID being written now; "" when none
	running bool     // the writer goroutine is alive

	writeErrors uint64
	// beforeWrite, when set, runs on the writer before each write (tests
	// hold the writer with it).
	beforeWrite func(id string)
}

// spill is one queued Put.
type spill struct {
	meta     SpillMeta
	metaJSON []byte
	snap     []byte
	seq      uint64 // bumped by every Put of the ID
	queued   bool   // in Store.queue, not yet taken by the writer
	err      error  // the last write's failure
}

// OpenStore creates (if needed) and opens a spill directory. Its Puts are
// synchronous until New sets the queue bound.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("serve: empty spill directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: spill dir: %w", err)
	}
	st := &Store{dir: dir, pending: make(map[string]*spill)}
	st.idle = sync.NewCond(&st.mu)
	return st, nil
}

func (st *Store) snapPath(id string) string { return filepath.Join(st.dir, id+".ggss") }
func (st *Store) metaPath(id string) string { return filepath.Join(st.dir, id+".json") }

// Put stores the session's snapshot and meta sidecar. It queues them for
// the writer and returns, replacing any bytes still queued for the ID;
// when the queue is full it writes them itself.
func (st *Store) Put(meta SpillMeta, snapshot []byte) error {
	if meta.ID == "" {
		return errors.New("serve: spill with empty session ID")
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	mb = append(mb, '\n')
	st.mu.Lock()
	sp := st.pending[meta.ID]
	if sp == nil && len(st.pending) >= st.maxPending {
		// Nothing of this ID is queued or being written, so this write
		// cannot race the writer's.
		st.mu.Unlock()
		return st.write(meta.ID, snapshot, mb)
	}
	if sp == nil {
		sp = &spill{}
		st.pending[meta.ID] = sp
	}
	sp.meta, sp.metaJSON, sp.snap = meta, mb, snapshot
	sp.seq++
	st.enqueueLocked(meta.ID, sp)
	st.startLocked()
	st.mu.Unlock()
	return nil
}

// write puts one spill on disk: the snapshot first, then the sidecar that
// makes List see it.
func (st *Store) write(id string, snapshot, metaJSON []byte) error {
	if err := writeAtomic(st.snapPath(id), snapshot); err != nil {
		return err
	}
	return writeAtomic(st.metaPath(id), metaJSON)
}

func (st *Store) enqueueLocked(id string, sp *spill) {
	if !sp.queued {
		sp.queued = true
		st.queue = append(st.queue, id)
	}
}

// startLocked starts the writer unless it runs, first requeueing the
// spills whose last write failed.
func (st *Store) startLocked() {
	if !st.running {
		st.requeueFailedLocked()
		st.running = true
		go st.drain()
	}
}

func (st *Store) requeueFailedLocked() {
	for id, sp := range st.pending {
		if sp.err != nil {
			st.enqueueLocked(id, sp)
		}
	}
}

// drain is the writer: it writes queued spills oldest first, outside the
// lock, and exits when the queue is empty.
func (st *Store) drain() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for len(st.queue) > 0 {
		id := st.queue[0]
		st.queue = st.queue[1:]
		sp := st.pending[id]
		if sp == nil || !sp.queued {
			continue // deleted, or queued again after a Delete
		}
		sp.queued = false
		seq, snap, mb := sp.seq, sp.snap, sp.metaJSON
		st.writing = id
		hook := st.beforeWrite
		st.mu.Unlock()
		if hook != nil {
			hook(id)
		}
		err := st.write(id, snap, mb)
		st.mu.Lock()
		st.writing = ""
		switch {
		case err != nil:
			st.writeErrors++
			sp.err = err
		case st.pending[id] == sp && sp.seq == seq:
			delete(st.pending, id)
		}
		// Otherwise a newer Put is queued, or the ID was deleted.
		st.idle.Broadcast()
	}
	st.queue = nil
	st.running = false
	st.idle.Broadcast()
}

// Sync waits until the ID's queued spill is on disk, retrying it once if
// its last write failed, and returns that failure if it persists.
func (st *Store) Sync(id string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	retried := false
	for {
		sp := st.pending[id]
		switch {
		case sp == nil:
			return nil
		case sp.queued || st.writing == id:
			st.idle.Wait()
		case !retried:
			retried = true
			st.enqueueLocked(id, sp)
			st.startLocked()
		default:
			return sp.err
		}
	}
}

// Flush retries every failed write once, waits until the writer is idle,
// and returns a write error if any spill is still only in memory.
func (st *Store) Flush() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.requeueFailedLocked()
	if len(st.queue) > 0 {
		st.startLocked()
	}
	for st.running {
		st.idle.Wait()
	}
	for _, sp := range st.pending {
		// With the writer idle, only failed writes are left.
		return fmt.Errorf("serve: %d spills not on disk: %w", len(st.pending), sp.err)
	}
	return nil
}

// Pending returns the number of queued spills.
func (st *Store) Pending() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.pending)
}

// WriteErrors returns the number of failed background writes so far.
func (st *Store) WriteErrors() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.writeErrors
}

// Get reads a spilled session back, from its queued bytes if it has any.
// The returned snapshot must not be modified.
func (st *Store) Get(id string) (SpillMeta, []byte, error) {
	st.mu.Lock()
	if sp := st.pending[id]; sp != nil {
		meta, snap := sp.meta, sp.snap
		st.mu.Unlock()
		return meta, snap, nil
	}
	st.mu.Unlock()
	mb, err := os.ReadFile(st.metaPath(id))
	if errors.Is(err, fs.ErrNotExist) {
		return SpillMeta{}, nil, fmt.Errorf("%w: %s", ErrNoSnapshot, id)
	}
	if err != nil {
		return SpillMeta{}, nil, err
	}
	var meta SpillMeta
	if err := json.Unmarshal(mb, &meta); err != nil {
		return SpillMeta{}, nil, fmt.Errorf("serve: corrupt spill meta %s: %w", id, err)
	}
	snap, err := os.ReadFile(st.snapPath(id))
	if err != nil {
		return SpillMeta{}, nil, err
	}
	return meta, snap, nil
}

// Delete removes a spilled session; deleting an absent one is not an
// error (the session may never have spilled). It drops the ID's queued
// bytes and waits out a write of the ID in flight before it removes the
// files, so no file outlives it.
func (st *Store) Delete(id string) error {
	st.mu.Lock()
	delete(st.pending, id)
	for st.writing == id {
		st.idle.Wait()
	}
	st.mu.Unlock()
	err1 := os.Remove(st.snapPath(id))
	err2 := os.Remove(st.metaPath(id))
	for _, err := range []error{err1, err2} {
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return nil
}

// List returns the meta records of every spilled session, sorted by ID —
// the recovery surface a restarting daemon walks to re-admit sessions.
func (st *Store) List() ([]SpillMeta, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var metas []SpillMeta
	for _, e := range entries {
		name := e.Name()
		id, ok := strings.CutSuffix(name, ".json")
		if !ok || e.IsDir() {
			continue
		}
		meta, _, err := st.Get(id)
		if err != nil {
			// A torn pair (meta without snapshot, or corrupt JSON) is
			// skipped, not fatal: the daemon must come up with the
			// sessions it can recover.
			continue
		}
		metas = append(metas, meta)
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].ID < metas[j].ID })
	return metas, nil
}

// writeAtomic writes data via a temp file + rename in the target's
// directory. The temp file is unlinked only when a step fails; after a
// rename it no longer exists.
func writeAtomic(path string, data []byte) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".spill-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
