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
)

// ErrNoSnapshot reports a session absent from the spill store.
var ErrNoSnapshot = errors.New("serve: no spilled snapshot for session")

// SpillMeta is the sidecar record written next to a spilled snapshot: the
// worker count a Simulation.Restore cannot recover from the snapshot
// itself (an execution option, not structural state), plus informational
// fields for listings after a daemon restart. Decoding ignores unknown
// keys, so sidecars written by older daemons still recover.
type SpillMeta struct {
	ID    string `json:"id"`
	Label string `json:"label,omitempty"`
	// Workers is the execution option re-applied on restore (the snapshot
	// carries only structural configuration and the resumable state).
	Workers int `json:"workers,omitempty"`
	// Round, Robots, Done and Reason describe the session at spill time
	// (informational: listings read them without restoring the session).
	Round  int    `json:"round"`
	Robots int    `json:"robots"`
	Done   bool   `json:"done"`
	Reason string `json:"reason,omitempty"`
}

// Store is the disk spill store: one <id>.ggss snapshot plus one
// <id>.json meta sidecar per spilled session, written atomically
// (tmp + rename) so a crash mid-spill never leaves a torn snapshot.
// Snapshot() output is the only payload format — the same bytes a client
// downloads from the snapshot endpoint, so spilling, migration between
// boxes, and client-side checkpointing are one currency.
type Store struct {
	dir string
}

// OpenStore creates (if needed) and opens a spill directory.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("serve: empty spill directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: spill dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

func (st *Store) snapPath(id string) string { return filepath.Join(st.dir, id+".ggss") }
func (st *Store) metaPath(id string) string { return filepath.Join(st.dir, id+".json") }

// Put writes the session's snapshot and meta sidecar atomically.
func (st *Store) Put(meta SpillMeta, snapshot []byte) error {
	if meta.ID == "" {
		return errors.New("serve: spill with empty session ID")
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	if err := writeAtomic(st.snapPath(meta.ID), snapshot); err != nil {
		return err
	}
	return writeAtomic(st.metaPath(meta.ID), append(mb, '\n'))
}

// Get reads a spilled session back.
func (st *Store) Get(id string) (SpillMeta, []byte, error) {
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
// error (the session may never have spilled).
func (st *Store) Delete(id string) error {
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
// directory.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".spill-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
