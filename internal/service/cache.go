package service

import (
	"container/list"
	"sync"

	"repro/internal/spec"
)

// cache is a sharded LRU over compact (json.Marshal) response bodies,
// which writeCached indents on the way out. Sharding keeps lock
// contention off the hot path under concurrent load: each key's first
// byte (uniform, it is a SHA-256 prefix) picks one of cacheShards
// independently locked segments.
const cacheShards = 16

type cache struct {
	shards [cacheShards]cacheShard
}

type cacheShard struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *cacheEntry
	byKey map[spec.Key]*list.Element
}

type cacheEntry struct {
	key  spec.Key
	body []byte
}

// newCache builds a cache holding up to capacity entries in total.
// Capacity is split evenly across shards (at least one per shard).
func newCache(capacity int) *cache {
	per := capacity / cacheShards
	if per < 1 {
		per = 1
	}
	c := &cache{}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			cap:   per,
			order: list.New(),
			byKey: map[spec.Key]*list.Element{},
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

// Put stores body under k, evicting the least recently used entry of the
// shard when it is full.
func (c *cache) Put(k spec.Key, body []byte) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[k]; ok {
		el.Value.(*cacheEntry).body = body
		s.order.MoveToFront(el)
		return
	}
	if s.order.Len() >= s.cap {
		oldest := s.order.Back()
		if oldest != nil {
			s.order.Remove(oldest)
			delete(s.byKey, oldest.Value.(*cacheEntry).key)
		}
	}
	s.byKey[k] = s.order.PushFront(&cacheEntry{key: k, body: body})
}

// Len returns the total number of cached entries.
func (c *cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}
