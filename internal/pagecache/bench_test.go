package pagecache

import (
	"testing"

	"duet/internal/sim"
)

// benchCache builds a cache without hooks for hot-path benchmarks. The
// engine never runs; benchmark bodies call cache methods from a fake
// process context, which is fine as long as nothing blocks (capacity is
// kept above the working set so Insert never evicts through writeback,
// and flushes use the allocation-free null backend).
func benchCache(capacity int) (*Cache, *sim.Engine) {
	e := sim.New(1)
	c := New(e, DefaultConfig(capacity))
	c.RegisterFS(1, &nullBackend{})
	return c, e
}

// run executes fn inside a sim process and drives the engine to
// completion, so blocking cache paths (writeback) work.
func run(b *testing.B, e *sim.Engine, fn func(p *sim.Proc)) {
	b.Helper()
	e.Go("bench", func(p *sim.Proc) {
		defer e.Stop()
		fn(p)
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkInsertLookupDirtyFlush cycles a page through the full hot
// path: insert, lookup (LRU promotion), dirty (into its file's dirty
// count), sync (writeback + flush event), remove. Steady state must not
// allocate: pages recycle through the arena, file lists through their
// pool, and writeback staging through the batch pool.
func BenchmarkInsertLookupDirtyFlush(b *testing.B) {
	c, e := benchCache(4096)
	run(b, e, func(p *sim.Proc) {
		// Warm the pools.
		for i := 0; i < 128; i++ {
			cycle(p, c, uint64(i%4))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(p, c, uint64(i%4))
		}
	})
}

func cycle(p *sim.Proc, c *Cache, ino uint64) {
	k := PageKey{FS: 1, Ino: ino, Index: 7}
	pg := c.Insert(p, k, 1)
	pg, _ = c.Lookup(k)
	c.MarkDirty(pg, 2)
	_ = c.SyncFile(p, k.FS, k.Ino)
	c.Remove(k)
}

// BenchmarkInsertSequential measures streaming inserts into a full
// cache: every insert evicts the coldest clean page and recycles its
// struct, the common case for scan-heavy workloads.
func BenchmarkInsertSequential(b *testing.B) {
	c, e := benchCache(1024)
	run(b, e, func(p *sim.Proc) {
		for i := 0; i < 2048; i++ {
			c.Insert(p, PageKey{FS: 1, Ino: 1, Index: uint64(i)}, 1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Insert(p, PageKey{FS: 1, Ino: 1, Index: uint64(2048 + i)}, 1)
		}
	})
}

// fillDirtyTail fills a cache of capacity pages of file 1 so that its
// dirtyTail coldest pages are dirty and the rest clean, and returns the
// next free page index. Clean inserts then evict the clean page just
// above the dirty run, which reclaim's scan must get past every time.
// The dirty pages stay below the flusher's background threshold, and
// the engine's clock does not move, so nothing cleans them.
func fillDirtyTail(p *sim.Proc, c *Cache, capacity, dirtyTail int) uint64 {
	next := uint64(0)
	for ; next < uint64(capacity); next++ {
		pg := c.Insert(p, PageKey{FS: 1, Ino: 1, Index: next}, 1)
		if next < uint64(dirtyTail) {
			c.MarkDirty(pg, 2)
		}
	}
	return next
}

// BenchmarkEvictDirtyTail measures eviction with ~100 dirty pages
// parked at the LRU tail: the case the dirty tail run makes O(1).
func BenchmarkEvictDirtyTail(b *testing.B) {
	c, e := benchCache(1024)
	run(b, e, func(p *sim.Proc) {
		next := fillDirtyTail(p, c, 1024, 100)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Insert(p, PageKey{FS: 1, Ino: 1, Index: next}, 1)
			next++
		}
	})
	if n := c.DirtyLen(); n != 100 {
		b.Fatalf("%d dirty pages at the end, want the 100 parked", n)
	}
}

// flushSetup caches 8 files of 32 pages, inserted file by file in
// non-key order and each back to front, and returns a pass that dirties
// every other page of each file, again in non-key order, and flushes
// them all: the flush sorts 8 dirty files and walks their lists past a
// clean page between each two dirty ones.
func flushSetup(p *sim.Proc, c *Cache) (flush func()) {
	const files, pages = 8, 32
	ino := func(i int) uint64 { return uint64(i * 5 % files) } // 0 5 2 7 4 1 6 3
	for i := 0; i < files; i++ {
		for j := pages - 1; j >= 0; j-- {
			c.Insert(p, PageKey{FS: 1, Ino: ino(i), Index: uint64(j)}, 1)
		}
	}
	return func() {
		for i := 0; i < files; i++ {
			for j := 0; j < pages; j += 2 {
				pg, _ := c.Peek(PageKey{FS: 1, Ino: ino(i), Index: uint64(j)})
				c.MarkDirty(pg, pg.Version+1)
			}
		}
		c.Sync(p)
	}
}

// BenchmarkFlushExpired measures a flush pass over several dirty files
// (see flushSetup). Steady state must not allocate: the dirty files are
// sorted in a pooled batch buffer.
func BenchmarkFlushExpired(b *testing.B) {
	c, e := benchCache(4096)
	run(b, e, func(p *sim.Proc) {
		flush := flushSetup(p, c)
		for i := 0; i < 8; i++ {
			flush()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			flush()
		}
	})
	if n := c.DirtyLen(); n != 0 {
		b.Fatalf("%d dirty pages after the last flush", n)
	}
}

// BenchmarkLookupHit measures the promote-on-hit path.
func BenchmarkLookupHit(b *testing.B) {
	c, e := benchCache(1024)
	run(b, e, func(p *sim.Proc) {
		for i := 0; i < 512; i++ {
			c.Insert(p, PageKey{FS: 1, Ino: 1, Index: uint64(i)}, 1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Lookup(PageKey{FS: 1, Ino: 1, Index: uint64(i % 512)})
		}
	})
}

// countingInterestHook reports no interest in any event type; emit must
// skip it entirely.
type countingInterestHook struct {
	interest uint8
	calls    int64
}

func (h *countingInterestHook) PageEvent(ev EventType, pg *Page) { h.calls++ }
func (h *countingInterestHook) EventInterest() uint8             { return h.interest }

// BenchmarkEmitNoInterest measures the event hot path with a hook
// installed whose interest mask is empty — the baseline configuration
// of every experiment (Duet attached, no sessions). The dirty/flush
// cycle must stay allocation-free and never call the hook.
func BenchmarkEmitNoInterest(b *testing.B) {
	c, e := benchCache(4096)
	h := &countingInterestHook{interest: 0}
	c.AddHook(h)
	run(b, e, func(p *sim.Proc) {
		for i := 0; i < 128; i++ {
			cycle(p, c, uint64(i%4))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(p, c, uint64(i%4))
		}
	})
	if h.calls != 0 {
		b.Fatalf("hook called %d times despite empty interest", h.calls)
	}
}

// BenchmarkEmitAllInterest is the same cycle with a hook that wants
// every event, isolating the dispatch cost itself.
func BenchmarkEmitAllInterest(b *testing.B) {
	c, e := benchCache(4096)
	h := &countingInterestHook{interest: AllEvents}
	c.AddHook(h)
	run(b, e, func(p *sim.Proc) {
		for i := 0; i < 128; i++ {
			cycle(p, c, uint64(i%4))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(p, c, uint64(i%4))
		}
	})
	if h.calls == 0 {
		b.Fatal("hook never called")
	}
}

// TestHotPathAllocFree asserts the steady-state allocation contract the
// arena, file-list pool, and batch pool exist to provide: zero
// allocations per insert/lookup/dirty/flush/remove cycle, with and
// without an uninterested hook installed, and per flush pass over
// several dirty files (the flush subtest). CI runs this as a regression
// gate (see .github/workflows/ci.yml).
func TestHotPathAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		hook bool
	}{{"bare", false}, {"uninterested-hook", true}} {
		t.Run(tc.name, func(t *testing.T) {
			c, e := benchCache(4096)
			h := &countingInterestHook{interest: 0}
			if tc.hook {
				c.AddHook(h)
			}
			var avg float64
			e.Go("alloc-test", func(p *sim.Proc) {
				defer e.Stop()
				for i := 0; i < 128; i++ {
					cycle(p, c, uint64(i%4))
				}
				avg = testing.AllocsPerRun(200, func() {
					cycle(p, c, 1)
				})
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if avg != 0 {
				t.Errorf("hot path allocates %.1f allocs/op, want 0", avg)
			}
			if h.calls != 0 {
				t.Errorf("uninterested hook called %d times", h.calls)
			}
		})
	}
	t.Run("flush", func(t *testing.T) {
		c, e := benchCache(4096)
		var avg float64
		var before, after Stats
		e.Go("alloc-test", func(p *sim.Proc) {
			defer e.Stop()
			flush := flushSetup(p, c)
			for i := 0; i < 8; i++ {
				flush()
			}
			avg = testing.AllocsPerRun(200, flush)
			before = *c.Stats()
			flush()
			after = *c.Stats()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if avg != 0 {
			t.Errorf("flush pass allocates %.1f allocs/op, want 0", avg)
		}
		// Each file's walk stops at its last dirty page, index 30.
		steps, written := after.FlushScanSteps-before.FlushScanSteps, after.WritebackPages-before.WritebackPages
		if steps != 8*31 || written != 8*16 {
			t.Errorf("a pass walked %d pages and wrote %d, want %d and %d", steps, written, 8*31, 8*16)
		}
	})
}

// TestEvictionAllocFree asserts that steady-state eviction (insert into
// a full cache, clean victim) does not allocate either: the evicted
// page's struct must be recycled into the one being inserted. The
// dirty-tail case holds 100 dirty pages at the LRU tail, so reclaim
// works through the dirty tail run.
func TestEvictionAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name      string
		dirtyTail int
	}{{"clean", 0}, {"dirty-tail", 100}} {
		t.Run(tc.name, func(t *testing.T) {
			c, e := benchCache(1024)
			var avg float64
			e.Go("alloc-test", func(p *sim.Proc) {
				defer e.Stop()
				next := fillDirtyTail(p, c, 1024, tc.dirtyTail)
				for end := next + 1024; next < end; next++ {
					c.Insert(p, PageKey{FS: 1, Ino: 1, Index: next}, 1)
				}
				avg = testing.AllocsPerRun(200, func() {
					c.Insert(p, PageKey{FS: 1, Ino: 1, Index: next}, 1)
					next++
				})
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if avg != 0 {
				t.Errorf("eviction path allocates %.1f allocs/op, want 0", avg)
			}
			if n := c.DirtyLen(); n != tc.dirtyTail {
				t.Errorf("%d dirty pages at the end, want the %d parked", n, tc.dirtyTail)
			}
		})
	}
}
