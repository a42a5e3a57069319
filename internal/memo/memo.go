// Package memo provides a concurrency-safe, content-addressed result
// cache: a sharded map keyed by fixed-size content digests, with
// single-flight deduplication so N goroutines that miss on the same key
// concurrently trigger exactly one computation and share its result.
//
// It is the machinery behind the reconstruction cache in internal/locate
// and the measurement cache in internal/probe. Both layers exist because
// survey workloads are dominated by redundant work: the paper's Table II
// shows each Xeon SKU exhibits only a handful of distinct core-location
// patterns across 100 instances, so most per-instance reconstructions recompute a
// result some other instance already produced.
package memo

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Key is a content digest (callers typically use sha256 over a canonical
// encoding of the computation's inputs).
type Key [32]byte

// String renders the leading bytes of the digest for logs and errors.
func (k Key) String() string { return fmt.Sprintf("%x", k[:8]) }

// Stats is a snapshot of a group's counters.
type Stats struct {
	// Hits counts lookups answered from a completed entry.
	Hits int64
	// Misses counts lookups that ran the computation.
	Misses int64
	// Coalesced counts lookups that found the computation already in
	// flight and waited for it instead of recomputing.
	Coalesced int64
}

// Sub returns the counter deltas since an earlier snapshot.
func (s Stats) Sub(earlier Stats) Stats {
	return Stats{
		Hits:      s.Hits - earlier.Hits,
		Misses:    s.Misses - earlier.Misses,
		Coalesced: s.Coalesced - earlier.Coalesced,
	}
}

// Total returns the total number of lookups the snapshot covers.
func (s Stats) Total() int64 { return s.Hits + s.Misses + s.Coalesced }

// entry is one cached (or in-flight) computation. done is closed exactly
// once, after val/err are set; afterwards both are immutable.
type entry struct {
	done chan struct{}
	val  any
	err  error
}

// shardCount spreads lock contention; keys are digests, so the first key
// byte is uniformly distributed.
const shardCount = 32

type shard struct {
	mu sync.Mutex
	m  map[Key]*entry // guarded by mu
}

// Group is a sharded single-flight cache. The zero value is not usable;
// call NewGroup.
type Group struct {
	shards                 [shardCount]shard
	hits, misses, coalesce atomic.Int64
}

// NewGroup returns an empty cache.
func NewGroup() *Group {
	g := &Group{}
	for i := range g.shards {
		g.shards[i].m = make(map[Key]*entry)
	}
	return g
}

// Do returns the cached result for key, running compute on a miss. When
// several goroutines miss on the same key concurrently, exactly one runs
// compute; the rest block until it finishes and share its result (errors
// included — computations here are deterministic functions of the key's
// content, so an error is as cacheable as a value). The returned value is
// the cached object itself: callers that hand it out must clone anything
// mutable.
func (g *Group) Do(key Key, compute func() (any, error)) (any, error) {
	sh := &g.shards[key[0]%shardCount]
	sh.mu.Lock()
	if e, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		select {
		case <-e.done:
			g.hits.Add(1)
		default:
			g.coalesce.Add(1)
			<-e.done
		}
		return e.val, e.err
	}
	e := &entry{done: make(chan struct{})}
	sh.m[key] = e
	sh.mu.Unlock()
	g.misses.Add(1)

	defer func() {
		if r := recover(); r != nil {
			// Never leave waiters blocked on a panicked computation:
			// publish the failure, drop the poisoned entry, re-panic.
			e.err = fmt.Errorf("memo: computation for %v panicked: %v", key, r)
			close(e.done)
			sh.mu.Lock()
			delete(sh.m, key)
			sh.mu.Unlock()
			panic(r)
		}
	}()
	e.val, e.err = compute()
	close(e.done)
	return e.val, e.err
}

// Forget drops the cached entry for key, if any. Callers use it to keep
// non-reusable outcomes out of the cache: a computation that was cancelled
// mid-flight or produced a partial (degraded) result is a property of that
// particular run, not of the key's content, so replaying it to later
// callers would be wrong. An in-flight entry is forgotten too — current
// waiters still receive its outcome, but later lookups recompute.
func (g *Group) Forget(key Key) {
	sh := &g.shards[key[0]%shardCount]
	sh.mu.Lock()
	delete(sh.m, key)
	sh.mu.Unlock()
}

// Len returns the number of cached entries (in-flight ones included).
func (g *Group) Len() int {
	n := 0
	for i := range g.shards {
		g.shards[i].mu.Lock()
		n += len(g.shards[i].m)
		g.shards[i].mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the counters.
func (g *Group) Stats() Stats {
	return Stats{Hits: g.hits.Load(), Misses: g.misses.Load(), Coalesced: g.coalesce.Load()}
}
