package pagecache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"duet/internal/rbtree"
	"duet/internal/sim"
	"duet/internal/storage"
)

// recordingHook collects events for assertions.
type recordingHook struct {
	events []string
	byType map[EventType]int
}

func newRecordingHook() *recordingHook {
	return &recordingHook{byType: map[EventType]int{}}
}

func (h *recordingHook) PageEvent(ev EventType, pg *Page) {
	h.events = append(h.events, ev.String())
	h.byType[ev]++
}

// nullBackend counts writebacks without doing I/O.
type nullBackend struct {
	pagesWritten int
}

func (b *nullBackend) WritebackPages(p *sim.Proc, ino uint64, indices []uint64) (int, error) {
	b.pagesWritten += len(indices)
	return len(indices), nil
}

// harness bundles an engine, cache, backend and hook for tests.
type harness struct {
	e    *sim.Engine
	c    *Cache
	b    *nullBackend
	hook *recordingHook
}

func newHarness(capacity int) *harness {
	e := sim.New(1)
	c := New(e, DefaultConfig(capacity))
	b := &nullBackend{}
	c.RegisterFS(1, b)
	h := newRecordingHook()
	c.AddHook(h)
	return &harness{e: e, c: c, b: b, hook: h}
}

// in runs fn as a sim process and completes the simulation.
func (h *harness) in(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	h.e.Go("test", func(p *sim.Proc) {
		// Stop via defer so a t.Fatal inside fn still ends the run.
		defer h.e.Stop()
		fn(p)
	})
	if err := h.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func key(ino, idx uint64) PageKey { return PageKey{FS: 1, Ino: ino, Index: idx} }

func TestInsertLookupEvents(t *testing.T) {
	h := newHarness(10)
	h.in(t, func(p *sim.Proc) {
		pg := h.c.Insert(p, key(1, 0), 7)
		if pg.Version != 7 || pg.Dirty {
			t.Errorf("page = %+v", pg)
		}
		if got, ok := h.c.Lookup(key(1, 0)); !ok || got != pg {
			t.Error("Lookup failed")
		}
		if _, ok := h.c.Lookup(key(1, 1)); ok {
			t.Error("Lookup of absent page succeeded")
		}
		// Re-insert is idempotent and fires no second Added.
		h.c.Insert(p, key(1, 0), 99)
		if pg.Version != 7 {
			t.Error("re-insert must not clobber version")
		}
	})
	if h.hook.byType[EventAdded] != 1 {
		t.Errorf("Added events = %d, want 1", h.hook.byType[EventAdded])
	}
	if h.c.Stats().Hits != 1 || h.c.Stats().Misses != 1 {
		t.Errorf("stats = %+v", *h.c.Stats())
	}
}

func TestLRUEviction(t *testing.T) {
	h := newHarness(3)
	h.in(t, func(p *sim.Proc) {
		h.c.Insert(p, key(1, 0), 0)
		h.c.Insert(p, key(1, 1), 0)
		h.c.Insert(p, key(1, 2), 0)
		h.c.Lookup(key(1, 0)) // promote 0; 1 is now coldest
		h.c.Insert(p, key(1, 3), 0)
		if h.c.Contains(key(1, 1)) {
			t.Error("coldest page (1,1) should have been evicted")
		}
		for _, idx := range []uint64{0, 2, 3} {
			if !h.c.Contains(key(1, idx)) {
				t.Errorf("page (1,%d) should remain", idx)
			}
		}
	})
	if h.hook.byType[EventRemoved] != 1 {
		t.Errorf("Removed events = %d, want 1", h.hook.byType[EventRemoved])
	}
	if h.c.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d", h.c.Stats().Evictions)
	}
}

func TestEvictionPrefersClean(t *testing.T) {
	h := newHarness(3)
	h.in(t, func(p *sim.Proc) {
		a := h.c.Insert(p, key(1, 0), 0)
		h.c.Insert(p, key(1, 1), 0)
		h.c.Insert(p, key(1, 2), 0)
		h.c.MarkDirty(a, 1) // dirtying (1,0) doesn't change LRU position
		h.c.Insert(p, key(1, 3), 0)
		if !h.c.Contains(key(1, 0)) {
			t.Error("dirty coldest page should be skipped by reclaim")
		}
		if h.c.Contains(key(1, 1)) {
			t.Error("clean (1,1) should have been evicted instead")
		}
	})
	if h.b.pagesWritten != 0 {
		t.Error("no writeback should have occurred")
	}
}

func TestAllDirtyForcesWriteback(t *testing.T) {
	h := newHarness(2)
	h.in(t, func(p *sim.Proc) {
		a := h.c.Insert(p, key(1, 0), 0)
		b := h.c.Insert(p, key(1, 1), 0)
		h.c.MarkDirty(a, 1)
		h.c.MarkDirty(b, 1)
		h.c.Insert(p, key(1, 2), 0)
		if h.c.Len() != 2 {
			t.Errorf("Len = %d", h.c.Len())
		}
	})
	// Reclaim under all-dirty pressure writes back the victim's whole file
	// in one batch (both pages here) before evicting the coldest.
	if h.b.pagesWritten != 2 {
		t.Errorf("pagesWritten = %d, want the victim file's 2 dirty pages", h.b.pagesWritten)
	}
	if h.c.Stats().DirtyEvictions != 1 {
		t.Errorf("DirtyEvictions = %d", h.c.Stats().DirtyEvictions)
	}
	if h.hook.byType[EventFlushed] != 2 {
		t.Errorf("Flushed = %d", h.hook.byType[EventFlushed])
	}
}

func TestDirtyFlushCycle(t *testing.T) {
	h := newHarness(10)
	h.in(t, func(p *sim.Proc) {
		pg := h.c.Insert(p, key(1, 0), 1)
		h.c.MarkDirty(pg, 2)
		h.c.MarkDirty(pg, 3) // second dirty: no extra event
		if h.c.DirtyLen() != 1 {
			t.Errorf("DirtyLen = %d", h.c.DirtyLen())
		}
		// Wait past dirty expire + writeback interval for the flusher.
		p.Sleep(40 * sim.Second)
		if pg.Dirty {
			t.Error("page still dirty after expire")
		}
		if pg.Version != 3 {
			t.Errorf("version = %d", pg.Version)
		}
	})
	if h.hook.byType[EventDirtied] != 1 {
		t.Errorf("Dirtied = %d, want 1", h.hook.byType[EventDirtied])
	}
	if h.hook.byType[EventFlushed] != 1 {
		t.Errorf("Flushed = %d, want 1", h.hook.byType[EventFlushed])
	}
	if h.b.pagesWritten != 1 {
		t.Errorf("pagesWritten = %d", h.b.pagesWritten)
	}
}

func TestFlusherHonoursDirtyExpire(t *testing.T) {
	h := newHarness(10)
	h.in(t, func(p *sim.Proc) {
		pg := h.c.Insert(p, key(1, 0), 1)
		h.c.MarkDirty(pg, 2)
		p.Sleep(10 * sim.Second) // several flusher runs, but page is young
		if !pg.Dirty {
			t.Error("page flushed before dirty expire")
		}
	})
}

func TestSyncFileImmediate(t *testing.T) {
	h := newHarness(10)
	h.in(t, func(p *sim.Proc) {
		for i := uint64(0); i < 4; i++ {
			pg := h.c.Insert(p, key(5, i), 1)
			h.c.MarkDirty(pg, 2)
		}
		pg := h.c.Insert(p, key(6, 0), 1)
		h.c.MarkDirty(pg, 2)
		if err := h.c.SyncFile(p, 1, 5); err != nil {
			t.Fatal(err)
		}
		if h.c.DirtyLen() != 1 {
			t.Errorf("DirtyLen = %d, want only file 6's page", h.c.DirtyLen())
		}
	})
	if h.b.pagesWritten != 4 {
		t.Errorf("pagesWritten = %d, want 4", h.b.pagesWritten)
	}
}

func TestSyncAll(t *testing.T) {
	h := newHarness(10)
	h.in(t, func(p *sim.Proc) {
		for i := uint64(0); i < 3; i++ {
			pg := h.c.Insert(p, key(i+1, 0), 1)
			h.c.MarkDirty(pg, 2)
		}
		h.c.Sync(p)
		if h.c.DirtyLen() != 0 {
			t.Errorf("DirtyLen = %d", h.c.DirtyLen())
		}
	})
}

func TestRemoveFile(t *testing.T) {
	h := newHarness(10)
	h.in(t, func(p *sim.Proc) {
		for i := uint64(0); i < 3; i++ {
			h.c.Insert(p, key(7, i), 1)
		}
		pg := h.c.Insert(p, key(7, 1), 1)
		h.c.MarkDirty(pg, 2)
		if n := h.c.RemoveFile(1, 7); n != 3 {
			t.Errorf("RemoveFile = %d, want 3", n)
		}
		if h.c.FilePages(1, 7) != 0 {
			t.Error("file pages remain")
		}
		if h.c.DirtyLen() != 0 {
			t.Error("dirty page not dropped with file")
		}
	})
	if h.b.pagesWritten != 0 {
		t.Error("file deletion must not write back")
	}
	if h.hook.byType[EventRemoved] != 3 {
		t.Errorf("Removed = %d", h.hook.byType[EventRemoved])
	}
}

func TestIterateFileOrder(t *testing.T) {
	h := newHarness(20)
	h.in(t, func(p *sim.Proc) {
		for _, i := range []uint64{5, 1, 3, 2, 4} {
			h.c.Insert(p, key(9, i), 1)
		}
		h.c.Insert(p, key(8, 0), 1)
		var got []uint64
		h.c.IterateFile(1, 9, func(pg *Page) bool {
			got = append(got, pg.Key.Index)
			return true
		})
		want := []uint64{1, 2, 3, 4, 5}
		if len(got) != len(want) {
			t.Fatalf("got %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
		if h.c.FilePages(1, 9) != 5 {
			t.Errorf("FilePages = %d", h.c.FilePages(1, 9))
		}
	})
}

func TestIterateWholeCache(t *testing.T) {
	h := newHarness(20)
	h.in(t, func(p *sim.Proc) {
		h.c.Insert(p, key(2, 1), 1)
		h.c.Insert(p, key(1, 5), 1)
		h.c.Insert(p, key(1, 2), 1)
		var got []PageKey
		h.c.Iterate(func(pg *Page) bool {
			got = append(got, pg.Key)
			return true
		})
		if len(got) != 3 {
			t.Fatalf("got %d pages", len(got))
		}
		if got[0] != key(1, 2) || got[1] != key(1, 5) || got[2] != key(2, 1) {
			t.Errorf("order = %v", got)
		}
	})
}

func TestRedirtiedPageStaysDirty(t *testing.T) {
	e := sim.New(1)
	c := New(e, Config{CapacityPages: 10, DirtyExpire: sim.Second, WritebackInterval: sim.Second})
	slow := &slowBackend{e: e, delay: 500 * sim.Millisecond}
	c.RegisterFS(1, slow)
	redirtied := false
	e.Go("test", func(p *sim.Proc) {
		pg := c.Insert(p, key(1, 0), 1)
		c.MarkDirty(pg, 2)
		// The flusher starts writing back v2 at t=1s and finishes at
		// t=1.5s. Re-dirty mid-writeback at t=1.2s.
		p.Sleep(1200 * sim.Millisecond)
		c.MarkDirty(pg, 3)
		redirtied = true
		p.Sleep(400 * sim.Millisecond) // writeback of v2 has completed
		if !pg.Dirty {
			t.Error("page re-dirtied during writeback must stay dirty")
		}
		if pg.Version != 3 {
			t.Errorf("version = %d, want 3", pg.Version)
		}
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !redirtied {
		t.Fatal("test never reached redirty point")
	}
}

type slowBackend struct {
	e     *sim.Engine
	delay sim.Time
}

func (b *slowBackend) WritebackPages(p *sim.Proc, ino uint64, indices []uint64) (int, error) {
	p.Sleep(b.delay)
	return len(indices), nil
}

func TestRemoveHook(t *testing.T) {
	h := newHarness(10)
	h.c.RemoveHook(h.hook)
	h.in(t, func(p *sim.Proc) {
		h.c.Insert(p, key(1, 0), 1)
	})
	if len(h.hook.events) != 0 {
		t.Errorf("hook still received %v", h.hook.events)
	}
}

// TestQuickResidencyInvariant property: after any sequence of inserts and
// removes, Len equals the number of distinct keys present, never exceeds
// capacity, and per-file counts sum to Len.
func TestQuickResidencyInvariant(t *testing.T) {
	const capacity = 16
	f := func(ops []struct {
		Ino uint8
		Idx uint8
		Del bool
	}) bool {
		e := sim.New(1)
		c := New(e, DefaultConfig(capacity))
		c.RegisterFS(1, &nullBackend{})
		ok := true
		e.Go("drive", func(p *sim.Proc) {
			for _, op := range ops {
				k := PageKey{1, uint64(op.Ino % 4), uint64(op.Idx % 64)}
				if op.Del {
					c.Remove(k)
				} else {
					c.Insert(p, k, 1)
				}
				if c.Len() > capacity {
					ok = false
					return
				}
			}
			sum := 0
			for ino := uint64(0); ino < 4; ino++ {
				sum += c.FilePages(1, ino)
			}
			if sum != c.Len() {
				ok = false
			}
			e.Stop()
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEventTypeString(t *testing.T) {
	names := map[EventType]string{
		EventAdded: "Added", EventRemoved: "Removed",
		EventDirtied: "Dirtied", EventFlushed: "Flushed",
	}
	for ev, want := range names {
		if ev.String() != want {
			t.Errorf("%d.String() = %q", ev, ev.String())
		}
	}
}

// keepOdd is a test advisor that protects odd page indices.
type keepOdd struct{}

func (keepOdd) KeepPage(pg *Page) bool { return pg.Key.Index%2 == 1 }

func TestAdvisorBiasesEviction(t *testing.T) {
	h := newHarness(4)
	h.c.SetAdvisor(keepOdd{})
	h.in(t, func(p *sim.Proc) {
		for i := uint64(0); i < 4; i++ {
			h.c.Insert(p, key(1, i), 0)
		}
		// Insert a 5th page: the coldest NON-advised page (index 0) must
		// be evicted, not the colder odd ones... index 0 is the coldest
		// anyway; touch it so index 1 (advised) becomes coldest.
		h.c.Lookup(key(1, 0))
		h.c.Insert(p, key(1, 4), 0)
		if !h.c.Contains(key(1, 1)) {
			t.Error("advised page (1,1) was evicted despite alternatives")
		}
		if h.c.Contains(key(1, 2)) {
			t.Error("non-advised (1,2) should have been the victim")
		}
	})
	if h.c.Stats().AdvisorDeferrals == 0 {
		t.Error("no deferrals counted")
	}
}

func TestAdvisorFallbackWhenAllAdvised(t *testing.T) {
	h := newHarness(2)
	h.c.SetAdvisor(keepAll{})
	h.in(t, func(p *sim.Proc) {
		h.c.Insert(p, key(1, 0), 0)
		h.c.Insert(p, key(1, 1), 0)
		h.c.Insert(p, key(1, 2), 0) // must still fit: advice defers, not pins
		if h.c.Len() != 2 {
			t.Errorf("Len = %d", h.c.Len())
		}
		if !h.c.Contains(key(1, 2)) {
			t.Error("new page not inserted")
		}
	})
}

type keepAll struct{}

func (keepAll) KeepPage(pg *Page) bool { return true }

// funcHook adapts a closure to the Hook interface.
type funcHook struct {
	fn func(ev EventType, pg *Page)
}

func (h *funcHook) PageEvent(ev EventType, pg *Page) { h.fn(ev, pg) }

// TestRemoveHookDuringDispatch is the regression test for hook removal
// from inside a PageEvent callback. With a splice-under-iteration
// implementation, hook A removing itself shifts hook B into A's slot
// and the dispatch loop skips B for the in-flight event. Copy-on-write
// removal must deliver the current event to every hook that was
// registered when it fired, and stop delivering to the removed hook
// afterwards.
func TestRemoveHookDuringDispatch(t *testing.T) {
	h := newHarness(10)
	h.c.RemoveHook(h.hook) // drop the harness hook; this test counts its own
	var aCalls, bCalls int
	var a, b *funcHook
	a = &funcHook{fn: func(ev EventType, pg *Page) {
		aCalls++
		h.c.RemoveHook(a) // self-removal mid-dispatch
	}}
	b = &funcHook{fn: func(ev EventType, pg *Page) { bCalls++ }}
	h.c.AddHook(a)
	h.c.AddHook(b)
	h.in(t, func(p *sim.Proc) {
		h.c.Insert(p, key(1, 0), 1) // fires Added: a removes itself, b must still see it
		h.c.Insert(p, key(1, 1), 1) // a is gone, only b sees it
	})
	if aCalls != 1 {
		t.Errorf("removed hook called %d times, want 1 (the in-flight event only)", aCalls)
	}
	if bCalls != 2 {
		t.Errorf("surviving hook called %d times, want 2 (must not be skipped by the removal)", bCalls)
	}
}

// TestRemoveHookRefreshesInterest: removing the only interested hook
// must drop the cache's interest mask back to zero so later events are
// filtered before dispatch.
func TestRemoveHookRefreshesInterest(t *testing.T) {
	h := newHarness(10)
	h.c.RemoveHook(h.hook)
	if h.c.interest != 0 {
		t.Fatalf("interest = %#x after removing only hook, want 0", h.c.interest)
	}
	base := h.c.Stats().EventsFiltered
	h.in(t, func(p *sim.Proc) {
		h.c.Insert(p, key(1, 0), 1)
	})
	if got := h.c.Stats().EventsFiltered - base; got == 0 {
		t.Error("event was dispatched despite empty interest mask")
	}
}

// TestAdvisorFallbackEvictsColdest pins the fallback choice: when every
// clean page in the scan window is advised, pickVictim must evict the
// COLDEST advised page (the LRU tail), not an arbitrary one — advice
// defers eviction, it does not reorder the LRU among advised pages.
func TestAdvisorFallbackEvictsColdest(t *testing.T) {
	h := newHarness(4)
	h.c.SetAdvisor(keepAll{})
	h.in(t, func(p *sim.Proc) {
		for i := uint64(0); i < 4; i++ {
			h.c.Insert(p, key(1, i), 0)
		}
		// Promote 0 and 1; coldest is now (1,2).
		h.c.Lookup(key(1, 0))
		h.c.Lookup(key(1, 1))
		h.c.Insert(p, key(1, 4), 0)
		if h.c.Contains(key(1, 2)) {
			t.Error("coldest advised page (1,2) survived; fallback picked a warmer victim")
		}
		for _, idx := range []uint64{0, 1, 3, 4} {
			if !h.c.Contains(key(1, idx)) {
				t.Errorf("page (1,%d) evicted; want only the coldest (1,2)", idx)
			}
		}
	})
}

// TestAdvisorDeferralsAccounting pins the counter semantics: one
// deferral per reclaim scan that passes over at least one advised clean
// page, whether or not the scan ends up using the fallback. Scans that
// find a non-advised victim before any advised page count nothing.
func TestAdvisorDeferralsAccounting(t *testing.T) {
	h := newHarness(2)
	h.c.SetAdvisor(keepOdd{})
	h.in(t, func(p *sim.Proc) {
		// Cache: [0, 1]; coldest is (1,0), not advised -> no deferral.
		h.c.Insert(p, key(1, 0), 0)
		h.c.Insert(p, key(1, 1), 0)
		h.c.Insert(p, key(1, 2), 0)
		if got := h.c.Stats().AdvisorDeferrals; got != 0 {
			t.Errorf("AdvisorDeferrals = %d after clean-victim scan, want 0", got)
		}
		// Cache: [1, 2]; coldest is (1,1), advised, so the scan defers
		// once and evicts (1,2) instead.
		h.c.Insert(p, key(1, 4), 0)
		if got := h.c.Stats().AdvisorDeferrals; got != 1 {
			t.Errorf("AdvisorDeferrals = %d after one deferring scan, want 1", got)
		}
		if !h.c.Contains(key(1, 1)) || h.c.Contains(key(1, 2)) {
			t.Error("deferring scan evicted the wrong page")
		}
		// Cache: [1, 4]; coldest (1,1) advised, (1,4) clean non-advised:
		// defers again (exactly once, not once per advised page seen).
		h.c.Insert(p, key(1, 3), 0)
		if got := h.c.Stats().AdvisorDeferrals; got != 2 {
			t.Errorf("AdvisorDeferrals = %d, want 2", got)
		}
		// Cache: [1, 3], both advised -> fallback path also counts one.
		h.c.Insert(p, key(1, 6), 0)
		if got := h.c.Stats().AdvisorDeferrals; got != 3 {
			t.Errorf("AdvisorDeferrals = %d after fallback scan, want 3", got)
		}
	})
}

// TestEvictionRaceReinsert pins the eviction-race contract of the page
// arena: while reclaim is blocked writing back its LRU-tail candidate, a
// concurrent process may evict that page and re-insert the same key.
// The raced double-eviction must re-report the removal (both parties
// observed it) but leave the freshly inserted page fully intact — in
// the key map, the file index, and the dirty set — so a later SyncFile
// cannot lose its data.
func TestEvictionRaceReinsert(t *testing.T) {
	e := sim.New(1)
	c := New(e, DefaultConfig(2))
	b := &slowBackend{e: e, delay: 10 * sim.Millisecond}
	c.RegisterFS(1, b)
	h := newRecordingHook()
	c.AddHook(h)
	k1, k2, k3 := key(1, 0), key(1, 1), key(2, 0)
	e.Go("inserter", func(p *sim.Proc) {
		pg := c.Insert(p, k1, 1)
		c.MarkDirty(pg, 1)
		pg = c.Insert(p, k2, 2)
		c.MarkDirty(pg, 2)
		// Cache full, everything dirty: this insert blocks in reclaim
		// writing back the tail (k1).
		c.Insert(p, k3, 3)
	})
	e.Go("racer", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond) // let the inserter block first
		c.Remove(k1)
		pg := c.Insert(p, k1, 10)
		c.MarkDirty(pg, 10)
	})
	e.Go("stopper", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(k1) {
		t.Fatal("re-inserted page lost by raced double-eviction")
	}
	pg, ok := c.Lookup(k1)
	if !ok || pg.Version != 10 {
		t.Fatalf("Lookup(k1) = %v, %v; want the re-inserted page (version 10)", pg, ok)
	}
	if !pg.Dirty {
		t.Error("re-inserted page lost its dirty bit")
	}
	// The re-inserted page must still be reachable through the per-file
	// index, or SyncFile would silently skip it.
	seen := false
	c.IterateFile(1, 1, func(p *Page) bool {
		if p.Key == k1 && p.Version == 10 {
			seen = true
		}
		return true
	})
	if !seen {
		t.Error("re-inserted page missing from the per-file index")
	}
}

// refPickVictim is the reclaim scan without the dirty tail run: a walk
// of up to 128 pages up from the LRU tail for the first clean, unadvised
// page, else the coldest clean advised one. It is the oracle pickVictim
// must agree with. It changes nothing and returns the number of pages it
// visited.
func refPickVictim(c *Cache) (*Page, int) {
	const scanLimit = 128
	var fallback *Page
	pg := c.lruTail
	i := 0
	for ; pg != nil && i < scanLimit; i++ {
		if !pg.Dirty {
			if c.advisor == nil || !c.advisor.KeepPage(pg) {
				return pg, i + 1
			}
			if fallback == nil {
				fallback = pg
			}
		}
		pg = pg.lruPrev
	}
	return fallback, i
}

// checkTailRun verifies the tail-run invariant: exactly the runLen
// coldest pages carry inRun, all of them are dirty, and runHead is the
// warmest of them.
func checkTailRun(c *Cache) error {
	if c.runLen < 0 || c.runLen > 128 {
		return fmt.Errorf("runLen = %d", c.runLen)
	}
	var head *Page
	k := 0
	for pg := c.lruTail; pg != nil; pg = pg.lruPrev {
		switch {
		case k < c.runLen && !pg.inRun:
			return fmt.Errorf("run page %d from the tail (%v) has no inRun", k, pg.Key)
		case k < c.runLen && !pg.Dirty:
			return fmt.Errorf("run page %d from the tail (%v) is clean", k, pg.Key)
		case k >= c.runLen && pg.inRun:
			return fmt.Errorf("page %d from the tail (%v) has inRun, runLen %d", k, pg.Key, c.runLen)
		}
		if k == c.runLen-1 {
			head = pg
		}
		k++
	}
	if k < c.runLen {
		return fmt.Errorf("runLen %d exceeds the LRU's %d pages", c.runLen, k)
	}
	if c.runHead != head {
		return fmt.Errorf("runHead = %p, want the run's warmest page %p", c.runHead, head)
	}
	return nil
}

// checkVictim compares pickVictim with the oracle on the current state.
// pickVictim's only side effects are extending the run and its
// counters; the counters are restored so they keep counting real
// reclaim.
func checkVictim(c *Cache) error {
	want, refSteps := refPickVictim(c)
	st, run0 := c.stats, c.runLen
	got := c.pickVictim()
	steps := c.stats.VictimScanSteps - st.VictimScanSteps
	c.stats = st
	if got != want {
		return fmt.Errorf("pickVictim = %p, oracle %p", got, want)
	}
	if int(steps) != refSteps-run0 {
		return fmt.Errorf("pickVictim visited %d pages, oracle %d less a run of %d", steps, refSteps, run0)
	}
	return nil
}

// modelBackend writes back after a delay, so callers block and other
// processes run meanwhile; a share of calls fails with a permanent write
// fault, quarantining the pages.
type modelBackend struct {
	rng   *rand.Rand
	delay sim.Time
}

func (b *modelBackend) WritebackPages(p *sim.Proc, ino uint64, indices []uint64) (int, error) {
	p.Sleep(b.delay)
	if b.rng.Intn(20) == 0 {
		n := b.rng.Intn(len(indices) + 1)
		return n, storage.ErrWriteFault
	}
	return len(indices), nil
}

// victimHook checks each eviction the model predicted: the first page
// removed after expect is set must be expect itself.
type victimHook struct {
	expect *Page
	err    error
}

func (h *victimHook) PageEvent(ev EventType, pg *Page) {
	if ev != EventRemoved || h.expect == nil {
		return
	}
	if pg != h.expect && h.err == nil {
		h.err = fmt.Errorf("evicted %v, oracle picked %v", pg.Key, h.expect.Key)
	}
	h.expect = nil
}

// treeMirror replays, from outside the cache, the dirty set as the
// ordered map from key to page that the cache used to keep: one entry
// per key, overwritten by Set and dropped by Delete whichever page holds
// it. Each of the old call sites maps to something the mirror observes:
//
//	MarkDirty     Set(key, pg)            a Dirtied event
//	markCleanIf   Delete(key)             a Flushed event
//	removePage    Delete(key) if dirty    a Removed event for a resident page
//	quarantine    Delete(key)             a page newly quarantined
//	Requeue       Set(key, pg)            the model's call (requeued)
//	DropVolatile  every entry dropped     the model's call (dropped)
//
// A quarantine fires no event, so the mirror looks for new quarantined
// pages whenever the quarantine count has moved, before it applies any
// other change and before every check: nothing can change the key's
// entry in between.
type treeMirror struct {
	c        *Cache
	tree     *rbtree.Tree[PageKey, *Page]
	dirty    map[*Page]bool // resident pages and their dirty bits
	quar     map[*Page]bool // pages seen quarantined
	quarSeen int64
	// Set and Delete calls that found another page holding the entry.
	dupSets, dupDels int
}

func newTreeMirror(c *Cache) *treeMirror {
	m := &treeMirror{c: c}
	m.reset()
	c.AddHook(m)
	return m
}

func (m *treeMirror) reset() {
	m.tree = rbtree.New[PageKey, *Page](func(a, b PageKey) bool {
		if a.FS != b.FS {
			return a.FS < b.FS
		}
		if a.Ino != b.Ino {
			return a.Ino < b.Ino
		}
		return a.Index < b.Index
	})
	m.dirty = map[*Page]bool{}
	m.quar = map[*Page]bool{}
}

func (m *treeMirror) set(pg *Page) {
	if old, ok := m.tree.Get(pg.Key); ok && old != pg {
		m.dupSets++
	}
	m.tree.Set(pg.Key, pg)
}

func (m *treeMirror) del(pg *Page) {
	if old, ok := m.tree.Get(pg.Key); ok && old != pg {
		m.dupDels++
	}
	m.tree.Delete(pg.Key)
}

func (m *treeMirror) PageEvent(ev EventType, pg *Page) {
	m.syncQuarantine()
	switch ev {
	case EventAdded:
		m.dirty[pg] = false
	case EventDirtied:
		m.dirty[pg] = true
		m.set(pg)
	case EventFlushed:
		m.dirty[pg] = false
		m.del(pg)
	case EventRemoved:
		if dirty, resident := m.dirty[pg]; resident {
			if dirty {
				m.del(pg)
			}
			delete(m.dirty, pg)
			delete(m.quar, pg)
		}
	}
}

func (m *treeMirror) syncQuarantine() {
	if m.c.stats.QuarantineEvents == m.quarSeen {
		return
	}
	m.quarSeen = m.c.stats.QuarantineEvents
	for pg := m.c.lruHead; pg != nil; pg = pg.lruNext {
		if pg.quarantined && !m.quar[pg] {
			m.quar[pg] = true
			m.del(pg)
		}
	}
}

func (m *treeMirror) requeue(k PageKey) {
	m.syncQuarantine()
	if m.c.Requeue(k) {
		pg, _ := m.c.Peek(k)
		delete(m.quar, pg)
		m.set(pg)
	}
}

func (m *treeMirror) dropVolatile() {
	m.syncQuarantine()
	m.c.DropVolatile()
	m.reset()
}

// stagedKey is one page a flush pass would write back.
type stagedKey struct {
	key     PageKey
	version uint64
}

// check compares the cache's dirty set with the mirror: its length and
// the pages a flush pass would stage, in order, at minAge 0 and at
// DirtyExpire. It also checks the set's bookkeeping on the file lists.
func (m *treeMirror) check() error {
	m.syncQuarantine()
	c := m.c
	if got, want := c.DirtyLen(), m.tree.Len(); got != want {
		return fmt.Errorf("DirtyLen = %d, tree holds %d", got, want)
	}
	now := c.eng.Now()
	for _, minAge := range []sim.Time{0, c.cfg.DirtyExpire} {
		var want []stagedKey
		m.tree.Ascend(nil, func(k PageKey, pg *Page) bool {
			if now-pg.DirtyAt >= minAge {
				want = append(want, stagedKey{k, pg.Version})
			}
			return true
		})
		var b wbBatch
		steps := c.stats.FlushScanSteps
		c.stageDirty(&b, now, minAge)
		c.stats.FlushScanSteps = steps
		var got []stagedKey
		for i, fk := range b.files {
			if b.off[i] == b.off[i+1] {
				return fmt.Errorf("minAge %v: file %v staged with no pages", minAge, fk)
			}
			for j := b.off[i]; j < b.off[i+1]; j++ {
				got = append(got, stagedKey{PageKey{fk.FS, fk.Ino, b.idx[j]}, b.vers[j]})
			}
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("minAge %v: flush stages %v, tree %v", minAge, got, want)
		}
	}
	return checkDirtyLists(c)
}

// checkDirtyLists verifies the dirty set's bookkeeping: each file list's
// dirty count is the number of its pages carrying inDirty, dirtyFiles
// holds exactly the lists with a nonzero count at their dirtyPos, the
// counts sum to dirtyLen, and every page points at its own list.
func checkDirtyLists(c *Cache) error {
	for i, fl := range c.dirtyFiles {
		if fl.dirtyPos != i || fl.dirty == 0 {
			return fmt.Errorf("dirtyFiles[%d] has dirtyPos %d, dirty %d", i, fl.dirtyPos, fl.dirty)
		}
	}
	total, listed := 0, 0
	for _, fk := range c.files.appendKeys(nil) {
		fl := c.files.get(fk)
		n := 0
		for pg := fl.head; pg != nil; pg = pg.fileNext {
			if pg.file != fl {
				return fmt.Errorf("page %v points at another file list", pg.Key)
			}
			if pg.inDirty {
				n++
			}
		}
		if n != fl.dirty {
			return fmt.Errorf("file %v: dirty %d, %d pages carry inDirty", fk, fl.dirty, n)
		}
		if n > 0 {
			listed++
		}
		total += n
	}
	if total != c.dirtyLen || listed != len(c.dirtyFiles) {
		return fmt.Errorf("dirtyLen %d over %d files, lists hold %d over %d", c.dirtyLen, len(c.dirtyFiles), total, listed)
	}
	return nil
}

// TestTailRunMatchesLinearScan is the model-based equivalence test for
// the dirty tail run. Seeded random operation sequences, from three
// processes that interleave while writebacks block, cover every way a
// page enters, leaves, dirties or cleans: inserts (probing and not),
// lookups and hits, dirtying, writeback completions, removal of pages
// and files, syncs, dirty-forced evictions, quarantine and requeue,
// DropVolatile, and an advisor switched on and off. Before every
// eviction a test insert causes without blocking, the oracle's choice
// is checked against the page actually evicted; the oracle also checks
// pickVictim directly on a share of the states reached, and the run
// invariant is checked after every operation.
//
// The capacities put the whole LRU inside the 128-page scan window or
// well beyond it. Each must see dirty-forced evictions, and the larger
// ones a run that fills the window, or the test proves too little.
func TestTailRunMatchesLinearScan(t *testing.T) {
	forced, longest := map[int]int64{}, map[int]int{}
	for seed := int64(1); seed <= 24; seed++ {
		capacity := []int{6, 40, 160, 300}[seed%4]
		t.Run(fmt.Sprintf("seed%d-cap%d", seed, capacity), func(t *testing.T) {
			r := runCacheModel(t, seed, capacity, 2000+40*capacity, false)
			forced[capacity] += r.stats.DirtyEvictions
			longest[capacity] = max(longest[capacity], r.maxRun)
		})
	}
	for capacity, n := range forced {
		if n == 0 {
			t.Errorf("capacity %d: no dirty-forced evictions", capacity)
		}
		if want := min(capacity, 128); longest[capacity] < want {
			t.Errorf("capacity %d: longest tail run %d, want %d", capacity, longest[capacity], want)
		}
	}
}

// TestDirtySetMatchesTree is the model-based equivalence test for the
// dirty set on the file lists. The operation sequences of
// TestTailRunMatchesLinearScan, steered towards raced inserts, run
// against a treeMirror, and after every operation the cache's DirtyLen
// and the exact pages a flush would stage must equal the mirror's.
// Writebacks block, so an insert blocked in reclaim is raced by another
// insert of its key and leaves a duplicate page. The runs must reach
// both a Set and a Delete that find the key's entry on another page of
// the key, as well as quarantine, requeue and DropVolatile, or the test
// proves too little. The small capacities block in reclaim most often.
func TestDirtySetMatchesTree(t *testing.T) {
	var dupSets, dupDels, drops int
	var quarantined, requeued int64
	for seed := int64(1); seed <= 64; seed++ {
		capacity := []int{6, 12, 24, 40}[seed%4]
		t.Run(fmt.Sprintf("seed%d-cap%d", seed, capacity), func(t *testing.T) {
			r := runCacheModel(t, seed, capacity, 2000+40*capacity, true)
			dupSets += r.dupSets
			dupDels += r.dupDels
			drops += r.drops
			quarantined += r.stats.QuarantineEvents
			requeued += r.stats.RequeuedPages
		})
	}
	t.Logf("entry on a duplicate: %d sets, %d deletes; %d drops, %d quarantined, %d requeued",
		dupSets, dupDels, drops, quarantined, requeued)
	if dupSets == 0 || dupDels == 0 || drops == 0 || quarantined == 0 || requeued == 0 {
		t.Error("a case is not covered: every count above must be nonzero")
	}
}

// modelResult summarises one model run.
type modelResult struct {
	stats  Stats
	maxRun int // longest tail run
	// Mirror Set and Delete calls that found the entry on a duplicate.
	dupSets, dupDels int
	drops            int // DropVolatile calls
}

// firstAt returns the first page in k's file list at k's index: a stale
// duplicate of k if a raced insert left one, else k's page.
func firstAt(c *Cache, k PageKey) *Page {
	var found *Page
	c.IterateFile(k.FS, k.Ino, func(pg *Page) bool {
		if pg.Key.Index == k.Index {
			found = pg
		}
		return pg.Key.Index < k.Index
	})
	return found
}

// runCacheModel drives one seeded model run. The tail run is checked
// against the linear scan throughout. With mirror set, the dirty set is
// also checked against a treeMirror after every operation. Half the
// Insert operations of a mirror run then take the key of an insert in
// flight, so that one blocked in reclaim is raced and leaves a
// duplicate page. Half of its MarkDirty, markCleanIf, Remove and
// RemoveFile operations take one of those raced keys, and its MarkDirty
// dirties the first page at the key, reaching a stale duplicate
// through the file index.
func runCacheModel(t *testing.T, seed int64, capacity, opsPerProc int, mirror bool) modelResult {
	rng := rand.New(rand.NewSource(seed))
	e := sim.New(seed)
	cfg := DefaultConfig(capacity)
	cfg.DirtyBackgroundRatio = 0.8 + 0.4*rng.Float64() // let dirty pages pile up
	c := New(e, cfg)
	c.RegisterFS(1, &modelBackend{rng: rng, delay: sim.Time(1+rng.Intn(3)) * sim.Millisecond})
	vh := &victimHook{}
	c.AddHook(vh)
	var m *treeMirror
	if mirror {
		m = newTreeMirror(c)
	}
	const files = 6
	span := capacity/3 + 2 // pages per file: the key space is ~2x capacity
	randKey := func() PageKey { return key(uint64(rng.Intn(files)), uint64(rng.Intn(span))) }
	var failure error
	fail := func(op string, err error) {
		if err != nil && failure == nil {
			failure = fmt.Errorf("seed %d after %s: %w", seed, op, err)
		}
	}
	var racing []PageKey // keys of the inserts in flight
	var raced []PageKey  // the last keys Insert took from racing
	// insert adds k, dirtying it in a write-heavy phase so dirty pages
	// reach the LRU tail in runs and force dirty evictions.
	insert := func(p *sim.Proc, k PageKey, fresh, write bool) {
		racing = append(racing, k)
		defer func() {
			i := slices.Index(racing, k)
			racing = slices.Delete(racing, i, i+1)
		}()
		if c.Len() >= capacity {
			if rng.Intn(2) == 0 {
				fail("pre-eviction check", checkVictim(c))
			}
			vh.expect, _ = refPickVictim(c)
		}
		var pg *Page
		if fresh {
			pg = c.InsertNew(p, k, 1)
		} else {
			pg = c.Insert(p, k, 1)
		}
		vh.expect = nil // an insert of a resident key evicts nothing
		if write && pg.resident {
			c.MarkDirty(pg, pg.Version+1)
		}
	}
	// orRaced returns k, or in a mirror run half the time one of the
	// last raced keys.
	orRaced := func(k PageKey) PageKey {
		if m != nil && len(raced) > 0 && rng.Intn(2) == 0 {
			return raced[rng.Intn(len(raced))]
		}
		return k
	}
	var r modelResult
	write := false // a shared phase, so dirty runs reach the tail
	procs := 3
	for w := 0; w < procs; w++ {
		e.Go(fmt.Sprintf("model%d", w), func(p *sim.Proc) {
			defer func() { procs-- }()
			for n := 0; n < opsPerProc && failure == nil; n++ {
				if rng.Intn(2000) == 0 {
					write = !write
				}
				op := rng.Intn(100)
				if write && op >= 79 && op < 86 {
					op = 0 // no cleaning in a write burst: an insert instead
				}
				var name string
				switch {
				case op < 35:
					name = "Insert"
					if m != nil && len(racing) > 0 && rng.Intn(2) == 0 {
						// A reader or a writer races the insert in flight.
						k := racing[rng.Intn(len(racing))]
						raced = append(raced[max(0, len(raced)-15):], k)
						insert(p, k, false, rng.Intn(2) == 0)
						break
					}
					insert(p, randKey(), false, write)
				case op < 45:
					name = "InsertNew"
					if k := randKey(); !c.Contains(k) {
						insert(p, k, true, write)
					}
				case op < 52:
					name = "Lookup"
					c.Lookup(randKey())
				case op < 59:
					name = "Hit"
					c.Hit(randKey())
				case op < 79:
					name = "MarkDirty"
					k := orRaced(randKey())
					pg, _ := c.Peek(k)
					if m != nil {
						pg = firstAt(c, k)
					}
					if pg != nil {
						c.MarkDirty(pg, pg.Version+1)
					}
				case op < 83:
					name = "markCleanIf"
					if pg, ok := c.Peek(orRaced(randKey())); ok {
						c.markCleanIf(pg.Key, pg.Version)
					}
				case op < 85:
					name = "SyncFile"
					if rng.Intn(2) == 0 {
						_ = c.SyncFile(p, 1, uint64(rng.Intn(files)))
					}
				case op < 86:
					name = "Sync"
					if rng.Intn(2) == 0 {
						c.Sync(p)
					}
				case op < 90:
					name = "Remove"
					c.Remove(orRaced(randKey()))
				case op < 91:
					name = "RemoveFile"
					if rng.Intn(3) == 0 {
						c.RemoveFile(1, orRaced(key(uint64(rng.Intn(files)), 0)).Ino)
					}
				case op < 93:
					name = "Requeue"
					if q := c.Quarantined(nil); len(q) > 0 {
						k := q[rng.Intn(len(q))]
						if m != nil {
							m.requeue(k)
						} else {
							c.Requeue(k)
						}
					}
				case op < 95:
					name = "SetAdvisor"
					if c.advisor == nil {
						c.SetAdvisor(keepOdd{})
					} else {
						c.SetAdvisor(nil)
					}
				case op < 96:
					name = "DropVolatile"
					if rng.Intn(10) == 0 {
						r.drops++
						if m != nil {
							m.dropVolatile()
						} else {
							c.DropVolatile()
						}
					}
				default:
					name = "Sleep"
					p.Sleep(sim.Time(rng.Intn(500)) * sim.Millisecond)
				}
				r.maxRun = max(r.maxRun, c.runLen)
				fail(name, vh.err)
				fail(name, checkTailRun(c))
				if rng.Intn(4) == 0 {
					fail(name, checkVictim(c))
				}
				if m != nil {
					fail(name, m.check())
				}
			}
		})
	}
	e.Go("stopper", func(p *sim.Proc) {
		for failure == nil && procs > 0 {
			p.Sleep(sim.Second)
		}
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if failure != nil {
		t.Fatal(failure)
	}
	if c.stats.Evictions == 0 {
		t.Error("the model evicted nothing")
	}
	r.stats = c.stats
	if m != nil {
		r.dupSets, r.dupDels = m.dupSets, m.dupDels
	}
	return r
}
