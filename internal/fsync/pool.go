package fsync

// This file is the engine's persistent worker pool, the fan-out of the
// Compute stage. Spawning fresh goroutines every round and tearing them
// down again cost ~20% at workers>1 on a single-CPU box (goroutine stacks,
// closure allocations, scheduler churn: pure overhead whenever the
// hardware has nothing to run them on).
//
// The pool keeps the workers alive for the engine's lifetime instead:
// each worker goroutine parks on its own single-slot task channel, a
// dispatch sends one task per worker and runs shard 0 on the calling
// goroutine (so a k-way fan-out wakes only k-1 workers), and a shared
// WaitGroup joins the stage. Per round that is 2(k-1) channel operations
// and no closure — no goroutine creation, no per-round channel
// allocation. Dispatches are strictly sequential per engine (Step's
// stages are serialized), so one WaitGroup is reused forever.
//
// Lifecycle: the engine creates the pool lazily on its first parallel
// round. Engines have no Close — simulations end by being dropped — so a
// runtime.AddCleanup tied to the engine closes the pool's quit channel
// once the engine becomes unreachable; the workers park on (task, quit)
// selects and exit.
// Idle workers reference only the pool, never the engine, so the cleanup
// actually fires.

import (
	"runtime"
	"sync"
)

// poolTask is one dispatched shard: the stage body and the shard index
// the receiving worker must run it with.
type poolTask struct {
	f  func(int)
	id int
}

// pool is a persistent worker pool. The zero value is not usable; see
// newPool.
type pool struct {
	quit chan struct{}
	work []chan poolTask // one single-slot channel per spawned worker
	wg   sync.WaitGroup  // joins the current dispatch (dispatches are sequential)
}

func newPool() *pool {
	return &pool{quit: make(chan struct{})}
}

// ensure grows the pool to at least n parked workers.
func (p *pool) ensure(n int) {
	for len(p.work) < n {
		ch := make(chan poolTask, 1)
		p.work = append(p.work, ch)
		// The one sanctioned spawn site: the Compute stage fans out through
		// these parked workers, each writing its shard's actions at fixed
		// indices, so the result is independent of the sharding.
		//gather:nondet-ok the pool is the sanctioned spawn site; shards write disjoint indices
		go func() {
			for {
				select {
				case t := <-ch:
					t.f(t.id)
					p.wg.Done()
				case <-p.quit:
					return
				}
			}
		}()
	}
}

// run executes f(0), …, f(k-1) and returns when all calls completed:
// shards 1..k-1 go to parked workers, shard 0 runs on the caller. run is
// not reentrant and must not be called concurrently — the engine's Compute
// dispatches are strictly sequential, which is what lets the WaitGroup
// and the single-slot channels be reused without handshakes.
func (p *pool) run(k int, f func(int)) {
	if k <= 1 {
		if k == 1 {
			f(0)
		}
		return
	}
	p.ensure(k - 1)
	p.wg.Add(k - 1)
	for i := 1; i < k; i++ {
		p.work[i-1] <- poolTask{f: f, id: i}
	}
	f(0)
	p.wg.Wait()
}

// close releases the workers. Safe to call at most once; the engine's
// cleanup is the only caller.
func (p *pool) close() { close(p.quit) }

// pool returns the engine's persistent worker pool, creating it (and
// arming the unreachability cleanup) on first use.
func (e *Engine) getPool() *pool {
	if e.wp == nil {
		e.wp = newPool()
		// The engine has no Close: release the workers when the engine
		// itself becomes unreachable. The cleanup must not receive the
		// engine (that would keep it alive forever); the pool does not
		// reference the engine, so handing it the pool is safe.
		runtime.AddCleanup(e, func(p *pool) { p.close() }, e.wp)
	}
	return e.wp
}
