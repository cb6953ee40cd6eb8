package service

import (
	"container/list"
	"sync"

	"repro/internal/spec"
)

// cache is a sharded LRU over response bodies, each the exact bytes its
// response writes, bounded by the bytes it retains rather than by its
// number of entries: bodies range from a few hundred bytes to hundreds of
// kilobytes, so an entry count bounds nothing. Sharding keeps lock
// contention off the hot path under concurrent load: each key's first
// byte (uniform, it is a SHA-256 prefix) picks one of cacheShards
// independently locked segments, each holding an even share of the
// budget.
const cacheShards = 16

// entryOverhead is what an entry retains besides its body: its list
// element (48 bytes), the cacheEntry (64) and its map slot (about 60 at
// the map's average load), rounded up.
const entryOverhead = 176

type cache struct {
	shards [cacheShards]cacheShard
}

type cacheShard struct {
	mu     sync.Mutex
	budget int        // bytes this shard may retain
	bytes  int        // bytes retained: entrySize summed over its entries
	order  *list.List // front = most recently used; values are *cacheEntry
	byKey  map[spec.Key]*list.Element
}

type cacheEntry struct {
	key  spec.Key
	body []byte
}

// entrySize is the bytes an entry holding body retains: the body's
// capacity, not its length, since the capacity is what stays allocated,
// plus entryOverhead.
func entrySize(body []byte) int { return cap(body) + entryOverhead }

// newCache builds a cache retaining at most budget bytes, split evenly
// across the shards.
func newCache(budget int64) *cache {
	c := &cache{}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			budget: int(budget / cacheShards),
			order:  list.New(),
			byKey:  map[spec.Key]*list.Element{},
		}
	}
	return c
}

func (c *cache) shard(k spec.Key) *cacheShard {
	return &c.shards[int(k[0])%cacheShards]
}

// Get returns the cached body for k, marking it most recently used. The
// returned slice is shared — callers must not mutate it.
func (c *cache) Get(k spec.Key) ([]byte, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[k]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put stores body under k, replacing any body stored there, and evicts
// the shard's least recently used entries until it fits the shard's
// share of the budget. A body whose entry would exceed the share alone
// is not stored, and the body it would replace is dropped. The cache
// keeps body itself: callers must not mutate it afterwards.
func (c *cache) Put(k spec.Key, body []byte) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[k]; ok {
		s.remove(el)
	}
	n := entrySize(body)
	if n > s.budget {
		return
	}
	for s.bytes+n > s.budget {
		s.remove(s.order.Back())
	}
	s.byKey[k] = s.order.PushFront(&cacheEntry{key: k, body: body})
	s.bytes += n
}

// remove drops one entry of the shard.
func (s *cacheShard) remove(el *list.Element) {
	e := s.order.Remove(el).(*cacheEntry)
	delete(s.byKey, e.key)
	s.bytes -= entrySize(e.body)
}

// Size returns the total number of cached entries and the bytes they
// retain.
func (c *cache) Size() (entries, bytes int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		entries += s.order.Len()
		bytes += s.bytes
		s.mu.Unlock()
	}
	return entries, bytes
}
