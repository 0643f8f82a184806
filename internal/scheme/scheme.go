// Package scheme defines the common interface every hashing scheme in this
// repository implements — HDNH and the three baselines (LEVEL, CCEH, PATH) —
// so the benchmark harness can sweep schemes uniformly, exactly as the
// paper's evaluation does.
package scheme

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"hdnh/internal/kv"
	"hdnh/internal/nvm"
)

// Sentinel errors shared by all schemes.
var (
	// ErrFull means the scheme could not place the key even after any
	// resizing it supports (PATH is static and returns this first).
	ErrFull = errors.New("scheme: table full")
	// ErrNotFound means an update or delete targeted an absent key.
	ErrNotFound = errors.New("scheme: key not found")
	// ErrExists means an insert targeted a key that is already present.
	ErrExists = errors.New("scheme: key already exists")
	// ErrContended means the operation exhausted its optimistic retry budget
	// under sustained concurrent record movement and gave up without a
	// conclusive answer. It is distinct from ErrNotFound on purpose: the key
	// may well exist. Callers should back off and retry.
	ErrContended = errors.New("scheme: operation contended, retry")
	// ErrConflict means a conditional update found the key bound to a value
	// other than the expected one and changed nothing. The caller saw a
	// stale value; re-read and decide again.
	ErrConflict = errors.New("scheme: value changed, conditional update aborted")
)

// Store is a persistent hash table bound to an NVM device.
type Store interface {
	// Name returns the scheme's short name (e.g. "HDNH", "CCEH").
	Name() string
	// NewSession returns a per-goroutine handle. Sessions are not safe for
	// concurrent use; the Store itself is, through concurrent sessions.
	NewSession() Session
	// Count returns the number of live records.
	Count() int64
	// Capacity returns the total slot count of the current structure.
	Capacity() int64
	// LoadFactor returns live records divided by total slot capacity.
	LoadFactor() float64
	// Close releases background resources (e.g. HDNH's drain workers).
	Close() error
}

// Session is the per-worker operation interface.
type Session interface {
	// Insert adds a new record. Returns ErrExists or ErrFull.
	Insert(k kv.Key, v kv.Value) error
	// Get returns the value for k, with found=false when absent.
	Get(k kv.Key) (kv.Value, bool)
	// Update replaces the value of an existing record. Returns ErrNotFound
	// (or ErrFull for schemes that update out-of-place and ran out of room).
	Update(k kv.Key, v kv.Value) error
	// Delete removes a record. Returns ErrNotFound when absent.
	Delete(k kv.Key) error
	// NVMStats returns the NVM traffic generated through this session.
	NVMStats() nvm.Stats
	// Close releases per-session resources held in the Store (HDNH returns
	// the session's epoch slot for reuse, bounding the epoch registry under
	// session churn; the baselines hold none and no-op). Callers that
	// create sessions per worker or per request must close them.
	Close() error
}

// BatchSession is the optional batched extension of Session. Schemes that
// can amortise per-operation overhead across a batch (HDNH hashes all keys
// up front, chunks its epoch critical sections and groups its hot-cache
// fills) implement it; callers that hold only a Session use the package
// helpers MultiGet/MultiPut/MultiDelete, which type-assert and fall back to
// per-key loops so every scheme benchmarks under the same driver.
type BatchSession interface {
	Session
	// MultiGet looks up all keys, writing vals[i]/found[i] per key and
	// returning how many were found. vals and found must be len(keys).
	MultiGet(keys []kv.Key, vals []kv.Value, found []bool) int
	// MultiPut upserts all keys (update-else-insert), writing a per-key
	// verdict into errs and returning the number of failures.
	MultiPut(keys []kv.Key, vals []kv.Value, errs []error) int
	// MultiDelete removes all keys, writing a per-key verdict into errs
	// (ErrNotFound for absent keys) and returning the number of failures.
	MultiDelete(keys []kv.Key, errs []error) int
}

// MultiGet batch-reads through s, using the scheme's native batch path when
// it has one and a per-key fallback otherwise.
func MultiGet(s Session, keys []kv.Key, vals []kv.Value, found []bool) int {
	if bs, ok := s.(BatchSession); ok {
		return bs.MultiGet(keys, vals, found)
	}
	hits := 0
	for i := range keys {
		vals[i], found[i] = s.Get(keys[i])
		if found[i] {
			hits++
		}
	}
	return hits
}

// MultiPut batch-upserts through s, falling back to per-key
// update-else-insert for schemes without a native batch path.
func MultiPut(s Session, keys []kv.Key, vals []kv.Value, errs []error) int {
	if bs, ok := s.(BatchSession); ok {
		return bs.MultiPut(keys, vals, errs)
	}
	fails := 0
	for i := range keys {
		errs[i] = putFallback(s, keys[i], vals[i])
		if errs[i] != nil {
			fails++
		}
	}
	return fails
}

func putFallback(s Session, k kv.Key, v kv.Value) error {
	for {
		err := s.Update(k, v)
		if !errors.Is(err, ErrNotFound) {
			return err
		}
		err = s.Insert(k, v)
		if !errors.Is(err, ErrExists) {
			return err
		}
	}
}

// MultiDelete batch-deletes through s, falling back to per-key Delete for
// schemes without a native batch path.
func MultiDelete(s Session, keys []kv.Key, errs []error) int {
	if bs, ok := s.(BatchSession); ok {
		return bs.MultiDelete(keys, errs)
	}
	fails := 0
	for i := range keys {
		errs[i] = s.Delete(keys[i])
		if errs[i] != nil {
			fails++
		}
	}
	return fails
}

// Factory builds a Store on the given device. capacityHint is the number of
// records the caller plans to load; schemes size their initial structures
// from it (static PATH sizes its whole table from it).
type Factory func(dev *nvm.Device, capacityHint int64) (Store, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register adds a named factory. Duplicate registration panics (it is a
// programming error in package init).
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("scheme: duplicate registration of %q", name))
	}
	registry[name] = f
}

// Open instantiates the named scheme.
func Open(name string, dev *nvm.Device, capacityHint int64) (Store, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("scheme: unknown scheme %q (registered: %v)", name, Names())
	}
	return f(dev, capacityHint)
}

// Names lists registered schemes, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
