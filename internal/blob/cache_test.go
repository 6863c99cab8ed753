package blob

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestCacheDoorkeeper(t *testing.T) {
	c := newCache(1<<20, 1<<16, nil)
	b := []byte("payload")
	// First admit without a prior miss: doorkeeper rejects.
	c.admit("aa11", b, false)
	if _, ok, _ := c.get("aa11"); ok {
		t.Fatal("doorkeeper admitted a never-missed blob")
	}
	// The get above marked the doorkeeper; now admission sticks.
	c.admit("aa11", b, false)
	if got, ok, _ := c.get("aa11"); !ok || !bytes.Equal(got, b) {
		t.Fatal("second-touch admission failed")
	}
	// Forced admission bypasses the doorkeeper (prewarm path).
	c.admit("bb22", b, true)
	if _, ok, _ := c.get("bb22"); !ok {
		t.Fatal("forced admission failed")
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	// Shard capacity = max(cap/cacheShards, maxEntry) = 1024; three
	// 400-byte entries in one shard must evict the least recent.
	c := newCache(1024*cacheShards, 1024, nil)
	shard := c.shard("k0")
	var keys []string
	for i := 0; len(keys) < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shard(k) == shard {
			keys = append(keys, k)
		}
	}
	payload := bytes.Repeat([]byte("e"), 400)
	for _, k := range keys {
		c.admit(k, payload, true)
	}
	if _, ok, _ := c.get(keys[0]); ok {
		t.Fatal("LRU entry survived over-capacity admission")
	}
	for _, k := range keys[1:] {
		if _, ok, _ := c.get(k); !ok {
			t.Fatalf("recent entry %s evicted", k)
		}
	}
	entries, bytes_ := c.stats()
	if entries != 2 || bytes_ != 800 {
		t.Fatalf("stats = %d entries %d bytes, want 2/800", entries, bytes_)
	}
}

func TestCacheOversizeEntryRejected(t *testing.T) {
	c := newCache(1<<20, 64, nil)
	c.admit("big1", make([]byte, 65), true)
	if _, ok, _ := c.get("big1"); ok {
		t.Fatal("over-max entry admitted")
	}
	entries, _ := c.stats()
	if entries != 0 {
		t.Fatalf("entries = %d, want 0", entries)
	}
}

func TestCacheRemove(t *testing.T) {
	c := newCache(1<<20, 1<<16, nil)
	c.admit("gone", []byte("x"), true)
	c.remove("gone")
	if _, ok, _ := c.get("gone"); ok {
		t.Fatal("removed entry still resident")
	}
	if entries, b := c.stats(); entries != 0 || b != 0 {
		t.Fatalf("stats after remove = %d/%d, want 0/0", entries, b)
	}
}

func TestCacheDoorkeeperReset(t *testing.T) {
	c := newCache(1<<20, 1<<10, nil)
	// Flood one shard's doorkeeper past its limit; the reset must not
	// panic and the cache keeps admitting after it.
	for i := 0; i < doorLimit*cacheShards*2; i++ {
		c.get(fmt.Sprintf("flood%d", i))
	}
	c.get("settle")
	c.admit("settle", []byte("y"), false)
	if _, ok, _ := c.get("settle"); !ok {
		t.Fatal("admission broken after doorkeeper reset")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newCache(1<<18, 1<<12, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("g%d-%d", g, i%37)
				if b, ok, _ := c.get(k); ok {
					if len(b) == 0 {
						t.Errorf("empty cached value for %s", k)
					}
					continue
				}
				c.admit(k, bytes.Repeat([]byte{byte(g)}, 128), false)
			}
		}(g)
	}
	wg.Wait()
	entries, total := c.stats()
	if entries < 0 || total < 0 {
		t.Fatalf("negative stats: %d/%d", entries, total)
	}
}
