package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
)

// CacheStatus describes how GetOrCompute satisfied a lookup.
type CacheStatus int

const (
	// CacheMiss: this caller computed the value.
	CacheMiss CacheStatus = iota
	// CacheHit: the value was already stored.
	CacheHit
	// CacheShared: an identical in-flight computation was joined
	// (singleflight dedup) — the value was computed once for all waiters.
	CacheShared
)

// cacheShardCount is the number of independently locked cache shards; a
// power of two so the shard index is a cheap mask. Sixteen keeps lock
// contention negligible at the concurrency levels the worker pool allows.
const cacheShardCount = 16

// Cache is a sharded LRU map from query keys to computed results with
// singleflight deduplication: concurrent GetOrCompute calls for the same key
// run the compute function once and share the result. It is the
// query-result cache of the serving layer, keyed by
// (endpoint, query node, config hash, backend generation).
type Cache struct {
	shards [cacheShardCount]cacheShard
}

type cacheShard struct {
	mu      sync.Mutex
	cap     int
	bytes   int64      // entryBytes summed over the stored entries
	ll      *list.List // front = most recently used; values are *cacheEntry
	items   map[string]*list.Element
	flights map[string]*flight
}

type cacheEntry struct {
	key   string
	val   any
	bytes int64 // entryBytes(key, val), subtracted again on eviction
}

// flight is one in-progress computation; done is closed when val/err are
// final.
type flight struct {
	done chan struct{}
	val  any
	err  error
	// store reports whether the leader or any caller that joined the
	// flight asked for the value to be stored; guarded by the shard lock.
	store bool
}

// NewCache returns a cache holding at most capacity entries (split evenly
// across shards, minimum one per shard). capacity <= 0 disables storage;
// singleflight dedup still applies.
func NewCache(capacity int) *Cache {
	c := &Cache{}
	per := capacity / cacheShardCount
	if capacity > 0 && per == 0 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			cap:     per,
			ll:      list.New(),
			items:   make(map[string]*list.Element),
			flights: make(map[string]*flight),
		}
	}
	return c
}

func (c *Cache) shard(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()&(cacheShardCount-1)]
}

// GetOrCompute returns the cached value for key, or computes it with fn and
// stores it. If an identical computation is already in flight, the call
// blocks until that computation finishes and shares its result (or until
// ctx is cancelled). A waiter whose own context is still live when the
// in-flight leader aborts on a context error retries with its own budget
// rather than inheriting the leader's cancellation. Erroring computations
// are never stored.
func (c *Cache) GetOrCompute(ctx context.Context, key string, fn func() (any, error)) (any, CacheStatus, error) {
	return c.getOrCompute(ctx, key, true, fn)
}

// getOrCompute is GetOrCompute with a store flag. With store false the
// lookup still returns a stored value and still joins an in-flight
// computation, but a value it computes itself is not stored — unless a
// storing lookup joined its flight meanwhile, since that caller asked for
// the value in its own right.
//
//pegasus:hotpath cache lookup: the hit arm of the retry loop runs once per query
func (c *Cache) getOrCompute(ctx context.Context, key string, store bool, fn func() (any, error)) (any, CacheStatus, error) {
	sh := c.shard(key)
	for {
		sh.mu.Lock()
		if el, ok := sh.items[key]; ok {
			sh.ll.MoveToFront(el)
			val := el.Value.(*cacheEntry).val
			sh.mu.Unlock()
			return val, CacheHit, nil
		}
		if f, ok := sh.flights[key]; ok {
			if store {
				f.store = true
			}
			sh.mu.Unlock()
			select {
			case <-f.done:
				if f.err != nil && isContextErr(f.err) && ctx.Err() == nil {
					continue // the leader ran out of time; we have not
				}
				return f.val, CacheShared, f.err
			case <-ctx.Done():
				return nil, CacheShared, ctx.Err()
			}
		}
		//lint:hotalloc miss path: one flight per computed key, amortized by fn's cost
		f := &flight{done: make(chan struct{}), store: store}
		sh.flights[key] = f
		sh.mu.Unlock()

		//lint:hotalloc miss path: the recover wrapper closes over f once per compute, not per lookup
		func() {
			// A panicking computation must still resolve the flight, or the
			// key would block every future lookup forever; surface it as an
			// error to the leader and all waiters instead.
			defer func() {
				if r := recover(); r != nil {
					f.err = fmt.Errorf("cache: computation panicked: %v", r)
				}
			}()
			f.val, f.err = fn()
		}()

		sh.mu.Lock()
		delete(sh.flights, key)
		if f.err == nil && f.store && sh.cap > 0 {
			n := entryBytes(key, f.val)
			//lint:hotalloc miss path: one stored entry per computed key
			sh.items[key] = sh.ll.PushFront(&cacheEntry{key: key, val: f.val, bytes: n})
			sh.bytes += n
			for sh.ll.Len() > sh.cap {
				oldest := sh.ll.Back()
				sh.ll.Remove(oldest)
				e := oldest.Value.(*cacheEntry)
				delete(sh.items, e.key)
				sh.bytes -= e.bytes
			}
		}
		sh.mu.Unlock()
		close(f.done)
		return f.val, CacheMiss, f.err
	}
}

// entryBytes is what one stored entry adds to Bytes: its key plus the
// payload of its value. A value that reports its own size (a compact
// RWR, PHP or HOP answer: 8 B per score or 1 or 4 B per distance, one per
// supernode plus q's own) counts that; a []float64 vector 8 B per score
// and a ranked answer 16 B per NodeScore. A value of any other type counts
// its key alone.
func entryBytes(key string, val any) int64 {
	n := int64(len(key))
	switch v := val.(type) {
	case interface{ Bytes() int64 }:
		n += v.Bytes()
	case []float64:
		n += 8 * int64(len(v))
	case []NodeScore:
		n += 16 * int64(len(v))
	}
	return n
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Purge drops every stored entry (in-flight computations are unaffected;
// their keys carry the backend generation, so results computed against a
// replaced backend can never be confused with fresh ones).
func (c *Cache) Purge() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.ll.Init()
		sh.items = make(map[string]*list.Element)
		sh.bytes = 0
		sh.mu.Unlock()
	}
}

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the key and value bytes of the stored entries (entryBytes).
func (c *Cache) Bytes() int64 {
	var n int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}
