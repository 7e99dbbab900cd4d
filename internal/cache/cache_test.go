package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPutRoundtrip(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put("a", []byte("alpha"))
	got, ok := c.Get("a")
	if !ok || string(got) != "alpha" {
		t.Fatalf("Get(a) = %q, %v", got, ok)
	}
	c.Put("a", []byte("alpha-2"))
	got, _ = c.Get("a")
	if string(got) != "alpha-2" {
		t.Fatalf("replacement not visible: %q", got)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Entries != 1 || s.Evictions != 0 {
		t.Fatalf("stats %+v, want 2 hits / 1 miss / 1 entry / 0 evictions", s)
	}
}

// TestEvictionOrderIsLRU fills the cache past its budget and checks
// that the least-recently-USED entry goes first — a Get must refresh
// recency, not just insertion order.
func TestEvictionOrderIsLRU(t *testing.T) {
	// Each entry charges 1 (key) + 10 (val) + overhead; budget fits 3.
	per := cost("k", make([]byte, 10))
	c := New(3 * per)
	val := make([]byte, 10)
	c.Put("a", val)
	c.Put("b", val)
	c.Put("c", val)
	c.Get("a") // refresh a: LRU order is now b, c, a
	c.Put("d", val)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (least recently used)")
	}
	for _, k := range []string{"a", "c", "d"} {
		if !c.Contains(k) {
			t.Fatalf("%s should have survived", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 3 {
		t.Fatalf("stats %+v, want 1 eviction / 3 entries", s)
	}
}

func TestBudgetHolds(t *testing.T) {
	c := New(1024)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("key-%03d", i), make([]byte, 64))
	}
	s := c.Stats()
	if s.Bytes > s.MaxBytes {
		t.Fatalf("bytes %d exceed budget %d", s.Bytes, s.MaxBytes)
	}
	if s.Entries == 0 || s.Evictions == 0 {
		t.Fatalf("stats %+v, want occupancy and evictions", s)
	}
}

// TestOversizeEntryRejected checks that a value larger than the whole
// budget is dropped rather than wiping the cache to make room.
func TestOversizeEntryRejected(t *testing.T) {
	c := New(256)
	c.Put("small", []byte("x"))
	c.Put("huge", make([]byte, 1024))
	if c.Contains("huge") {
		t.Fatal("oversize entry should not be stored")
	}
	if !c.Contains("small") {
		t.Fatal("oversize Put must not evict existing entries")
	}
}

func TestPutIfAbsent(t *testing.T) {
	c := New(1 << 20)
	if !c.PutIfAbsent("a", []byte("first")) {
		t.Fatal("absent key should store")
	}
	if c.PutIfAbsent("a", []byte("second")) {
		t.Fatal("present key should not be replaced")
	}
	got, _ := c.Get("a")
	if string(got) != "first" {
		t.Fatalf("value %q, want the original", got)
	}
}

// TestGetTagged: only a value led by the wanted tag answers the lookup; a
// differently tagged value counts as a miss and keeps its recency.
func TestGetTagged(t *testing.T) {
	per := cost("k", []byte{1, 'x'})
	c := New(2 * per)
	c.Put("a", []byte{0, 'x'})
	c.Put("b", []byte{1, 'x'})
	if _, ok := c.GetTagged("a", 1); ok {
		t.Fatal("value tagged 0 answered a lookup for tag 1")
	}
	if got, ok := c.GetTagged("b", 1); !ok || string(got) != "\x01x" {
		t.Fatalf("GetTagged(b, 1) = %q, %v", got, ok)
	}
	if _, ok := c.GetTagged("absent", 1); ok {
		t.Fatal("absent key answered a lookup")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("stats %+v, want 1 hit / 2 misses", s)
	}
	c.Put("c", []byte{1, 'x'}) // the rejected lookup left a least recent
	if c.Contains("a") || !c.Contains("b") {
		t.Fatal("a rejected lookup refreshed its entry's recency")
	}
}

func TestZeroBudgetStoresNothing(t *testing.T) {
	c := New(0)
	c.Put("a", []byte("x"))
	if _, ok := c.Get("a"); ok {
		t.Fatal("zero-budget cache returned a hit")
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("empty stats should report 0 hit rate")
	}
	s = Stats{Hits: 3, Misses: 1}
	if got := s.HitRate(); got != 0.75 {
		t.Fatalf("hit rate %g, want 0.75", got)
	}
}

// TestConcurrentAccess hammers the cache from many goroutines; run
// under -race this checks the locking discipline, and the final byte
// accounting must still respect the budget.
func TestConcurrentAccess(t *testing.T) {
	c := New(4096)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", (g*31+i)%40)
				if i%3 == 0 {
					c.Put(k, make([]byte, 32))
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Bytes > s.MaxBytes {
		t.Fatalf("bytes %d exceed budget %d after concurrent use", s.Bytes, s.MaxBytes)
	}
	if s.Hits+s.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
}
