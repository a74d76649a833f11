package server

import (
	"sync"
)

// engineKey identifies one engine shape: the key type plus whether the
// engine sorts keyed records. Every other shape dimension (shard count,
// epsilon, transport, workers) is fixed by the daemon
// Config, so engines of one key are interchangeable.
type engineKey struct {
	keyType string
	kv      bool
}

// pooledEngine wraps one warm Sorter behind the pool: impl is the typed
// engine (*hssort.Sorter[K], *hssort.Sorter[hssort.KV[K, string]] or
// *hssort.Sorter[[]byte]), close tears it down.
type pooledEngine struct {
	impl  any
	close func()
}

// enginePool is the warm-engine registry: engines are built lazily on
// first demand for a shape and parked on a per-shape free list between
// jobs, so a recurring shape reuses the engine's transport, parked rank
// goroutines and scratch (hssort.Sorter reuse — comm.Pool plus
// Transport.Reset) instead of rebuilding the machine per job. Because a
// Sorter serializes its calls, concurrent jobs of one shape check out
// distinct engines; the population is bounded by the scheduler's
// concurrency, not by job volume.
type enginePool struct {
	mu    sync.Mutex
	free  map[engineKey][]*pooledEngine
	built int
	done  bool
}

func newEnginePool() *enginePool {
	return &enginePool{free: make(map[engineKey][]*pooledEngine)}
}

// acquire returns a warm engine for the shape, building one with build
// when the free list is empty. The caller must release or discard it.
func (p *enginePool) acquire(key engineKey, build func() (*pooledEngine, error)) (*pooledEngine, error) {
	p.mu.Lock()
	if list := p.free[key]; len(list) > 0 {
		e := list[len(list)-1]
		p.free[key] = list[:len(list)-1]
		p.mu.Unlock()
		return e, nil
	}
	p.mu.Unlock()
	// Built outside the lock: engine construction spawns the transport
	// and the rank world, too slow to serialize the whole pool on.
	e, err := build()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.built++
	if p.done {
		// The pool was closed while we were building; don't leak the engine.
		p.built--
		p.mu.Unlock()
		e.close()
		return nil, errDraining
	}
	p.mu.Unlock()
	return e, nil
}

// release parks the engine back on its shape's free list. Engines stay
// usable after failed or canceled sorts (the hssort engine contract),
// so every checkout is released.
func (p *enginePool) release(key engineKey, e *pooledEngine) {
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		e.close()
		return
	}
	p.free[key] = append(p.free[key], e)
	p.mu.Unlock()
}

// count reports the engines built so far (the /metrics gauge).
func (p *enginePool) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.built
}

// closeAll tears down every parked engine and marks the pool closed;
// engines still checked out are closed at release. Call after the
// scheduler has drained.
func (p *enginePool) closeAll() {
	p.mu.Lock()
	p.done = true
	free := p.free
	p.free = make(map[engineKey][]*pooledEngine)
	p.mu.Unlock()
	for _, list := range free {
		for _, e := range list {
			e.close()
		}
	}
}
