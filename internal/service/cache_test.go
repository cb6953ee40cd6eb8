package service

import (
	"bytes"
	"testing"

	"repro/internal/spec"
)

// keyInShard fabricates a key routed to a specific shard.
func keyInShard(shard int, tag byte) spec.Key {
	var k spec.Key
	k[0] = byte(shard)
	k[1] = tag
	return k
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(cacheShards) // one entry per shard
	k1, k2 := keyInShard(3, 1), keyInShard(3, 2)
	c.Put(k1, []byte("one"))
	c.Put(k2, []byte("two")) // same shard: evicts k1
	if _, ok := c.Get(k1); ok {
		t.Fatal("k1 survived eviction in a capacity-1 shard")
	}
	if b, ok := c.Get(k2); !ok || !bytes.Equal(b, []byte("two")) {
		t.Fatalf("k2 = %q, %v", b, ok)
	}
}

func TestCacheRecencyOrder(t *testing.T) {
	c := newCache(2 * cacheShards) // two entries per shard
	k1, k2, k3 := keyInShard(5, 1), keyInShard(5, 2), keyInShard(5, 3)
	c.Put(k1, []byte("one"))
	c.Put(k2, []byte("two"))
	c.Get(k1)                  // k1 most recent, k2 oldest
	c.Put(k3, []byte("three")) // evicts k2
	if _, ok := c.Get(k2); ok {
		t.Fatal("least recently used entry survived")
	}
	if _, ok := c.Get(k1); !ok {
		t.Fatal("recently used entry evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCachePutOverwrites(t *testing.T) {
	c := newCache(64)
	k := keyInShard(0, 1)
	c.Put(k, []byte("old"))
	c.Put(k, []byte("new"))
	if b, _ := c.Get(k); !bytes.Equal(b, []byte("new")) {
		t.Fatalf("got %q after overwrite", b)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after overwrite, want 1", c.Len())
	}
}
