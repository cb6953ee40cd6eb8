package service

import (
	"bytes"
	"net/http"
	"slices"
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

// bodyOf returns a body whose entry retains exactly n bytes.
func bodyOf(n int, fill byte) []byte {
	return slices.Clip(bytes.Repeat([]byte{fill}, n-entryOverhead))
}

// budgetFor returns the cache budget that gives each shard a share of n
// bytes.
func budgetFor(n int) int64 { return int64(n) * cacheShards }

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(budgetFor(1000)) // room for one 600-byte entry per shard
	k1, k2 := keyInShard(3, 1), keyInShard(3, 2)
	c.Put(k1, bodyOf(600, '1'))
	c.Put(k2, bodyOf(600, '2')) // same shard: evicts k1
	if _, ok := c.Get(k1); ok {
		t.Fatal("k1 survived eviction in a shard with room for one entry")
	}
	if b, ok := c.Get(k2); !ok || !bytes.Equal(b, bodyOf(600, '2')) {
		t.Fatalf("k2 = %q, %v", b, ok)
	}
	if entries, retained := c.Size(); entries != 1 || retained != 600 {
		t.Fatalf("Size = %d entries, %d bytes; want 1, 600", entries, retained)
	}
}

func TestCacheRecencyOrder(t *testing.T) {
	c := newCache(budgetFor(1000)) // room for two 400-byte entries per shard
	k1, k2, k3 := keyInShard(5, 1), keyInShard(5, 2), keyInShard(5, 3)
	c.Put(k1, bodyOf(400, '1'))
	c.Put(k2, bodyOf(400, '2'))
	c.Get(k1)                   // k1 most recent, k2 oldest
	c.Put(k3, bodyOf(400, '3')) // evicts k2
	if _, ok := c.Get(k2); ok {
		t.Fatal("least recently used entry survived")
	}
	if _, ok := c.Get(k1); !ok {
		t.Fatal("recently used entry evicted")
	}
	if entries, retained := c.Size(); entries != 2 || retained != 800 {
		t.Fatalf("Size = %d entries, %d bytes; want 2, 800", entries, retained)
	}
}

func TestCachePutOverwrites(t *testing.T) {
	c := newCache(budgetFor(1000))
	k := keyInShard(0, 1)
	c.Put(k, bodyOf(300, 'o'))
	c.Put(k, bodyOf(500, 'n'))
	if b, _ := c.Get(k); !bytes.Equal(b, bodyOf(500, 'n')) {
		t.Fatalf("got %q after overwrite", b)
	}
	if entries, retained := c.Size(); entries != 1 || retained != 500 {
		t.Fatalf("Size = %d entries, %d bytes after overwrite; want 1, 500", entries, retained)
	}
}

// TestCacheBytesNeverExceedBudget puts bodies of mixed sizes into one
// shard, overwrites a key with a larger body, and checks after every put
// that the shard retains at most its share, that the bytes counted are
// the entries' sizes summed, and that the newest body is always kept.
func TestCacheBytesNeverExceedBudget(t *testing.T) {
	const share = 2000
	c := newCache(budgetFor(share))
	sizes := []int{700, 300, 900, 250, 1200, 400, 600, 2000, 350, 800}
	check := func(k spec.Key, body []byte) {
		t.Helper()
		if b, ok := c.Get(k); !ok || !bytes.Equal(b, body) {
			t.Fatalf("the body just put under %x is not cached", k[:2])
		}
		entries, retained := c.Size()
		if retained > share {
			t.Fatalf("%d bytes retained, over the %d-byte share", retained, share)
		}
		s := c.shard(k)
		sum := 0
		for el := s.order.Front(); el != nil; el = el.Next() {
			sum += entrySize(el.Value.(*cacheEntry).body)
		}
		if sum != retained || s.order.Len() != entries || len(s.byKey) != entries {
			t.Fatalf("counted %d bytes in %d entries; the list holds %d bytes in %d, the map %d",
				retained, entries, sum, s.order.Len(), len(s.byKey))
		}
	}
	for i, n := range sizes {
		k, body := keyInShard(7, byte(i)), bodyOf(n, byte('a'+i))
		c.Put(k, body)
		check(k, body)
	}
	// An overwrite with a larger body evicts to make room for the growth.
	k := keyInShard(7, byte(len(sizes)-1))
	body := bodyOf(1900, 'Z')
	c.Put(k, body)
	check(k, body)
	if entries, _ := c.Size(); entries != 1 {
		t.Fatalf("%d entries beside a 1900-byte entry in a 2000-byte share", entries-1)
	}
}

// TestCacheSkipsBodyOverShare checks that a body whose entry exceeds a
// shard's share is not stored, and drops the body it would replace.
func TestCacheSkipsBodyOverShare(t *testing.T) {
	c := newCache(budgetFor(1000))
	k := keyInShard(2, 1)
	c.Put(k, bodyOf(400, 's'))
	c.Put(k, bodyOf(1001, 'L'))
	if _, ok := c.Get(k); ok {
		t.Fatal("a body over the shard's share was cached, or the one it replaced kept")
	}
	if entries, retained := c.Size(); entries != 0 || retained != 0 {
		t.Fatalf("Size = %d entries, %d bytes; want an empty cache", entries, retained)
	}
	c.Put(k, bodyOf(1000, 'x')) // exactly the share fits
	if _, ok := c.Get(k); !ok {
		t.Fatal("a body exactly the shard's share was not cached")
	}
}

// TestServiceSkipsBodyOverShare serves a response too large for a shard's
// share twice: both answers miss, carry the same bytes, and nothing is
// stored.
func TestServiceSkipsBodyOverShare(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheBytes: budgetFor(1024)})
	body := `{"workflow_name":"montage24","strategy":"GAIN","seed":1}`
	var first []byte
	for i := 0; i < 2; i++ {
		resp, b := postJSON(t, ts.URL+"/v1/schedule", body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "MISS" {
			t.Fatalf("request %d: status %d, X-Cache %q", i, resp.StatusCode, resp.Header.Get("X-Cache"))
		}
		if len(b)+entryOverhead <= 1024 {
			t.Fatalf("request %d: a %d-byte body fits the 1024-byte share", i, len(b))
		}
		if i == 1 && !bytes.Equal(b, first) {
			t.Fatal("the two misses answered different bytes")
		}
		first = b
	}
	if entries, retained := s.cache.Size(); entries != 0 || retained != 0 {
		t.Fatalf("cache holds %d entries, %d bytes; want none", entries, retained)
	}
	if snap := s.Metrics(); snap.CacheMisses != 2 || snap.CacheHits != 0 {
		t.Fatalf("cache counters: %d hits, %d misses", snap.CacheHits, snap.CacheMisses)
	}
}
