package spill

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
)

// Counters are one sort's spill activity, drained by TakeCounters into
// the rank's core.Stats.
type Counters struct {
	// SpilledBytes is the uncompressed volume written to run files.
	SpilledBytes int64
	// FileBytes is the on-disk volume (headers + stored payloads) —
	// SpilledBytes/FileBytes is the achieved compression ratio.
	FileBytes int64
	// Reads is the number of frames read back from run files.
	Reads int64
	// PeakResident is the high-water mark of budget-metered resident
	// bytes (admitted exchange chunks, read-back frames and the merge
	// scratch of the batch in progress).
	PeakResident int64
}

// Manager is a rank's out-of-core state: the spill directory, the
// memory-budget meter the admission decisions key on, and the per-sort
// counters. One Manager per hosted rank; all methods are safe for
// concurrent use (exchange handlers and merge drains run on the rank's
// goroutine, but diagnostics may sample concurrently).
//
// The budget meters the spill-managed working set — chunks admitted to
// the merge, frames read back from disk and the merge's batch scratch —
// not caller-owned arrays (the input shard, the output).
// Acquire/Release/Room implement merge.Budget.
type Manager struct {
	budget int64
	dir    string
	ownDir bool // delete dir on Close (temp dir or per-rank subdir)

	mu       sync.Mutex
	resident int64
	seq      int
	st       Counters
}

// NewManager creates the spill state for one rank with the given budget
// in bytes. With dir == "" a private temp directory is used; otherwise
// the manager claims the deterministic per-rank subdirectory
// dir/hssort-rank-<rank>, wiping any leftovers a crashed predecessor of
// the same rank left behind (this is what lets a respawned rank rejoin
// with a clean spill state while other ranks of the same job share dir).
func NewManager(budget int64, dir string, rank int) (*Manager, error) {
	if budget <= 0 {
		return nil, &Error{Op: "create", Path: dir, Err: fmt.Errorf("memory budget must be positive, got %d", budget)}
	}
	m := &Manager{budget: budget, ownDir: true}
	if dir == "" {
		d, err := os.MkdirTemp("", fmt.Sprintf("hssort-spill-rank-%d-", rank))
		if err != nil {
			return nil, &Error{Op: "create", Path: "", Err: err}
		}
		m.dir = d
		return m, nil
	}
	d := filepath.Join(dir, fmt.Sprintf("hssort-rank-%d", rank))
	if err := os.RemoveAll(d); err != nil {
		return nil, &Error{Op: "create", Path: d, Err: err}
	}
	if err := os.MkdirAll(d, 0o755); err != nil {
		return nil, &Error{Op: "create", Path: d, Err: err}
	}
	m.dir = d
	return m, nil
}

// Budget returns the configured budget in bytes. Nil-safe (returns 0).
func (m *Manager) Budget() int64 {
	if m == nil {
		return 0
	}
	return m.budget
}

// Dir returns the rank's spill directory.
func (m *Manager) Dir() string { return m.dir }

// Acquire charges b resident bytes against the budget and advances the
// peak high-water mark. It never blocks: the budget is enforced by the
// callers' admission decisions (WouldExceed), not by back-pressure here.
func (m *Manager) Acquire(b int64) {
	m.mu.Lock()
	m.resident += b
	if m.resident > m.st.PeakResident {
		m.st.PeakResident = m.resident
	}
	m.mu.Unlock()
}

// Release returns b resident bytes to the budget.
func (m *Manager) Release(b int64) {
	m.mu.Lock()
	m.resident -= b
	m.mu.Unlock()
}

// WouldExceed reports whether admitting b more resident bytes would
// push the working set over budget — the spill decision point.
func (m *Manager) WouldExceed(b int64) bool { return b > m.Room() }

// Room returns how many more resident bytes fit under the budget —
// negative when the working set is already over it.
func (m *Manager) Room() int64 {
	m.mu.Lock()
	room := m.budget - m.resident
	m.mu.Unlock()
	return room
}

// TakeCounters drains the per-sort counters, returning the activity since
// the previous call. Nil-safe (returns zero Counters).
func (m *Manager) TakeCounters() Counters {
	if m == nil {
		return Counters{}
	}
	m.mu.Lock()
	st := m.st
	m.st = Counters{}
	m.mu.Unlock()
	return st
}

// Reset clears the manager between sorts: counters and the resident
// meter are zeroed and any run files still in the directory — leftovers
// of an aborted or failed sort — are removed. A successful sort deletes
// its run files as it consumes them, so this is normally a no-op scan.
func (m *Manager) Reset() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	m.resident = 0
	m.st = Counters{}
	m.mu.Unlock()
	ents, err := os.ReadDir(m.dir)
	if err != nil {
		return &Error{Op: "remove", Path: m.dir, Err: err}
	}
	var first error
	for _, e := range ents {
		if err := os.Remove(filepath.Join(m.dir, e.Name())); err != nil && first == nil {
			first = &Error{Op: "remove", Path: filepath.Join(m.dir, e.Name()), Err: err}
		}
	}
	return first
}

// Close removes the rank's spill directory and everything in it.
func (m *Manager) Close() error {
	if m == nil || !m.ownDir {
		return nil
	}
	if err := os.RemoveAll(m.dir); err != nil {
		return &Error{Op: "remove", Path: m.dir, Err: err}
	}
	return nil
}

// newPath reserves the next run-file path.
func (m *Manager) newPath() string {
	m.mu.Lock()
	n := m.seq
	m.seq++
	m.mu.Unlock()
	return filepath.Join(m.dir, fmt.Sprintf("run-%06d.spill", n))
}

// noteSpill records frame bytes written to disk.
func (m *Manager) noteSpill(uncompressed, stored int64) {
	m.mu.Lock()
	m.st.SpilledBytes += uncompressed
	m.st.FileBytes += stored
	m.mu.Unlock()
}

// noteRead records one frame read back from disk.
func (m *Manager) noteRead() {
	m.mu.Lock()
	m.st.Reads++
	m.mu.Unlock()
}

// FrameKeys picks the read-back frame size (in keys) for a merge with
// the given fan-in, so that one resident frame per run totals about a
// quarter of the budget, clamped to [64, 1<<20] keys.
func (m *Manager) FrameKeys(keySize int64, fanin int) int {
	if fanin < 1 {
		fanin = 1
	}
	k := m.budget / (4 * int64(fanin) * keySize)
	if k < 64 {
		k = 64
	}
	if k > 1<<20 {
		k = 1 << 20
	}
	return int(k)
}

// Spillable reports whether K is plain data — fixed-size, pointer-free —
// and therefore safe to round-trip through a run file byte-for-byte.
// Variable-length keys (strings, slices) and anything holding pointers
// are not spillable; the root Config validation rejects them up front.
func Spillable[K any]() bool {
	var zero K
	return podType(reflect.TypeOf(&zero).Elem())
}

func podType(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return podType(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !podType(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
