package adaptcache

import (
	"fmt"
	"sync"
	"testing"

	"extrapdnn/internal/dnnmodel"
)

func TestNewShardedShardCounts(t *testing.T) {
	cases := []struct {
		capacity, shards, want int
	}{
		{32, 0, DefaultShards}, // default
		{32, 1, 1},             // explicit single mutex
		{32, 3, 4},             // rounded up to a power of two
		{32, 8, 8},
		{2, 8, 2}, // clamped to capacity
		{1, 8, 1}, // one-entry cache degenerates to one shard
		{64, 16, 16},
	}
	for _, tc := range cases {
		c := NewSharded(tc.capacity, tc.shards)
		if got := c.Shards(); got != tc.want {
			t.Errorf("NewSharded(%d, %d).Shards() = %d, want %d", tc.capacity, tc.shards, got, tc.want)
		}
		if got := len(c.ShardStats()); got != tc.want {
			t.Errorf("NewSharded(%d, %d): ShardStats has %d entries, want %d", tc.capacity, tc.shards, got, tc.want)
		}
	}
	if NewSharded(0, 8) != nil || NewSharded(-1, 8) != nil {
		t.Fatal("capacity <= 0 must return the nil (disabled) cache")
	}
	var nilCache *Cache
	if nilCache.Shards() != 0 || nilCache.ShardStats() != nil {
		t.Fatal("nil cache must report zero shards")
	}
}

func TestShardBudgetSplit(t *testing.T) {
	// 10 entries over 4 shards: budgets 3,3,2,2 — the sum must be exactly the
	// capacity so the global bound is unchanged by sharding.
	c := NewSharded(10, 4)
	total := 0
	for _, s := range c.shards {
		if s.capacity < 2 || s.capacity > 3 {
			t.Fatalf("shard budget %d outside base/base+1 split", s.capacity)
		}
		total += s.capacity
	}
	if total != 10 {
		t.Fatalf("shard budgets sum to %d, want the capacity 10", total)
	}
}

func TestShardDistribution(t *testing.T) {
	// Realistic signature keys must spread across shards: with 256 distinct
	// keys over 8 shards, no shard stays empty and none holds more than 3x
	// its fair share. shardFor is deterministic, so this is a fixed property
	// of the hash, not a flaky statistical test.
	c := NewSharded(1024, 8)
	base := Signature{ParamNames: []string{"p"}, Reps: 5, Fingerprint: 7}
	for i := 0; i < 256; i++ {
		sig := base
		sig.Seed = int64(i)
		c.GetOrCreate(sig.Key(), modeler)
	}
	for i, s := range c.ShardStats() {
		if s.Entries == 0 {
			t.Errorf("shard %d is empty — keys are not distributed", i)
		}
		if s.Entries > 96 {
			t.Errorf("shard %d holds %d of 256 keys — the shard hash is degenerate", i, s.Entries)
		}
	}
}

func TestPerShardEviction(t *testing.T) {
	// Fill one shard far past its budget: evictions must happen in that shard
	// while the others are untouched, and the global Len stays within the
	// global capacity.
	c := NewSharded(8, 4) // 2 entries per shard
	target := c.shards[0]
	var keys []string
	for i := 0; len(keys) < 5; i++ {
		k := fmt.Sprintf("key-%d", i)
		if c.shardFor(k) == target {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		c.GetOrCreate(k, modeler)
	}
	if got := target.stats.Evictions; got != 3 {
		t.Fatalf("target shard evicted %d entries, want 3 (5 inserts into a budget of 2)", got)
	}
	for i, s := range c.shards[1:] {
		if s.stats.Evictions != 0 {
			t.Fatalf("shard %d evicted despite never being touched", i+1)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want the target shard's budget 2", c.Len())
	}
	// The survivors are the two most recently inserted keys of that shard.
	if _, ok := c.Get(keys[4]); !ok {
		t.Fatal("most recent key evicted")
	}
	if _, ok := c.Get(keys[0]); ok {
		t.Fatal("oldest key survived past the shard budget")
	}
}

func TestStatsAggregateAcrossShards(t *testing.T) {
	c := NewSharded(64, 8)
	const keys = 40
	for i := 0; i < keys; i++ {
		c.GetOrCreate(fmt.Sprintf("key-%d", i), modeler) // miss
	}
	for i := 0; i < keys; i++ {
		c.GetOrCreate(fmt.Sprintf("key-%d", i), modeler) // hit
	}
	agg := c.Stats()
	if agg.Hits != keys || agg.Misses != keys || agg.Entries != keys {
		t.Fatalf("aggregate stats = %+v, want %d hits, %d misses, %d entries", agg, keys, keys, keys)
	}
	var sum Stats
	for _, s := range c.ShardStats() {
		sum.Hits += s.Hits
		sum.Misses += s.Misses
		sum.Evictions += s.Evictions
		sum.Entries += s.Entries
		sum.Bytes += s.Bytes
	}
	if sum != agg {
		t.Fatalf("ShardStats sum %+v != Stats aggregate %+v", sum, agg)
	}
}

// TestShardedConcurrentMixedKeys drives every shard concurrently (run under
// -race by scripts/check.sh): hot-key hits, cold-key misses and evictions all
// interleave, and the aggregate accounting must still balance.
func TestShardedConcurrentMixedKeys(t *testing.T) {
	c := NewSharded(16, 8)
	const goroutines = 16
	const opsPer = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				switch i % 3 {
				case 0: // hot key shared by everyone
					c.GetOrCreate("hot", modeler)
				case 1: // warm per-goroutine key
					c.GetOrCreate(fmt.Sprintf("warm-%d", g), modeler)
				default: // cold churn forcing evictions
					c.GetOrCreate(fmt.Sprintf("cold-%d-%d", g, i), modeler)
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses != goroutines*opsPer {
		t.Fatalf("lookup accounting off: %+v (want %d total lookups)", s, goroutines*opsPer)
	}
	if c.Len() > 16 {
		t.Fatalf("cache grew past its global capacity: %d", c.Len())
	}
	if s.Evictions == 0 {
		t.Fatal("cold churn past capacity must evict")
	}
}

// TestShardingPreservesSingleFlight pins that per-shard single-flight is
// per-key single-flight: a key always routes to one shard, so concurrent
// misses still coalesce into one create.
func TestShardingPreservesSingleFlight(t *testing.T) {
	c := NewSharded(64, 8)
	var mu sync.Mutex
	calls := 0
	m := modeler()
	const goroutines = 16
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := c.GetOrCreate("k", func() *dnnmodel.Modeler {
				mu.Lock()
				calls++
				mu.Unlock()
				return m
			})
			if got != m {
				t.Error("goroutine did not receive the shared modeler")
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("create ran %d times under concurrency, want 1", calls)
	}
}

// BenchmarkCacheContention measures the hot-layout lookup storm of a
// streaming campaign — every worker hitting the same few signatures — with a
// single mutex versus the sharded layout. Run by scripts/bench.sh.
func BenchmarkCacheContention(b *testing.B) {
	keys := make([]string, 8)
	base := Signature{ParamNames: []string{"p"}, Reps: 5, Fingerprint: 7}
	for i := range keys {
		sig := base
		sig.Seed = int64(i)
		keys[i] = sig.Key()
	}
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := NewSharded(64, shards)
			for _, k := range keys {
				c.GetOrCreate(k, modeler)
			}
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					c.GetOrCreate(keys[i%len(keys)], modeler)
					i++
				}
			})
		})
	}
}

// TestDefaultCacheHoldsCapacityWithoutEvictions pins the default layout: a
// cache of capacity n holds n distinct signatures with zero evictions, so a
// warm path whose working set fits the capacity never adapts twice. With the
// capacity split into per-shard budgets, five signatures hashing to one
// shard of a 32-entry, 8-shard cache already evicted each other.
func TestDefaultCacheHoldsCapacityWithoutEvictions(t *testing.T) {
	const capacity = 32
	c := New(capacity)
	base := Signature{ParamNames: []string{"p"}, Reps: 5, Fingerprint: 7}
	for i := 0; i < capacity; i++ {
		sig := base
		sig.Seed = int64(i)
		c.GetOrCreate(sig.Key(), modeler)
	}
	st := c.Stats()
	if st.Evictions != 0 || st.Entries != capacity || st.Misses != capacity {
		t.Fatalf("%d distinct signatures into New(%d): %+v, want %d entries, %d misses, 0 evictions",
			capacity, capacity, st, capacity, capacity)
	}
	for i := 0; i < capacity; i++ {
		sig := base
		sig.Seed = int64(i)
		c.GetOrCreate(sig.Key(), modeler)
	}
	if st := c.Stats(); st.Hits != capacity || st.Misses != capacity {
		t.Fatalf("second pass over the same signatures: %+v, want every lookup a hit", st)
	}
}
