package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if got := FromDuration(3 * time.Millisecond); got != 3*Millisecond {
		t.Errorf("FromDuration = %v, want %v", got, 3*Millisecond)
	}
	if got := (2 * Second).Duration(); got != 2*time.Second {
		t.Errorf("Duration = %v, want 2s", got)
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds = %v, want 1.5", got)
	}
	if got := (3 * Millisecond).Milliseconds(); got != 3.0 {
		t.Errorf("Milliseconds = %v, want 3", got)
	}
	if got := Second.Scale(0.25); got != 250*Millisecond {
		t.Errorf("Scale = %v, want 250ms", got)
	}
	if got := (90 * Second).String(); got != "1m30s" {
		t.Errorf("String = %q, want 1m30s", got)
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := New(1)
	var at Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5*Millisecond {
		t.Errorf("woke at %v, want 5ms", at)
	}
	if e.Now() != 5*Millisecond {
		t.Errorf("engine now %v, want 5ms", e.Now())
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		e := New(7)
		var log []string
		for i := 0; i < 4; i++ {
			i := i
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Time(i+1) * Millisecond)
					log = append(log, fmt.Sprintf("%s@%v", p.Name(), p.Now()))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != 12 {
		t.Fatalf("got %d events, want 12", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(Millisecond) // all wake at the same instant
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestYieldDoesNotAdvanceTime(t *testing.T) {
	e := New(1)
	e.Go("y", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Yield()
		}
		if p.Now() != 0 {
			t.Errorf("time advanced to %v across yields", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunForStopsAtDeadline(t *testing.T) {
	e := New(1)
	ticks := 0
	e.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(Second)
			ticks++
		}
	})
	if err := e.RunFor(10*Second + Millisecond); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Errorf("ticks = %d, want 10", ticks)
	}
	if e.Now() != 10*Second+Millisecond {
		t.Errorf("now = %v, want 10.001s", e.Now())
	}
}

func TestProcPanicSurfacesAsError(t *testing.T) {
	e := New(1)
	e.Go("bomb", func(p *Proc) {
		p.Sleep(Millisecond)
		panic("boom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("want error from panicking proc")
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := New(1)
	var childRan bool
	e.Go("parent", func(p *Proc) {
		p.Engine().Go("child", func(c *Proc) {
			c.Sleep(Millisecond)
			childRan = true
		})
		p.Sleep(2 * Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Error("child did not run")
	}
}

func TestFuture(t *testing.T) {
	e := New(1)
	f := NewFuture[int](e)
	var got int
	e.Go("waiter", func(p *Proc) {
		v, err := f.Wait(p)
		if err != nil {
			t.Errorf("future err: %v", err)
		}
		got = v
		if p.Now() != 3*Millisecond {
			t.Errorf("woke at %v, want 3ms", p.Now())
		}
	})
	e.Go("completer", func(p *Proc) {
		p.Sleep(3 * Millisecond)
		f.Complete(42, nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("got %d, want 42", got)
	}
	if !f.Done() {
		t.Error("future should be done")
	}
}

func TestFutureWaitAfterComplete(t *testing.T) {
	e := New(1)
	f := NewFuture[string](e)
	f.Complete("ok", nil)
	e.Go("late", func(p *Proc) {
		v, _ := f.Wait(p)
		if v != "ok" {
			t.Errorf("got %q", v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChanBounded(t *testing.T) {
	e := New(1)
	c := NewChan[int](e, 2, "test")
	var recvd []int
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			c.Send(p, i)
		}
		c.Close()
	})
	e.Go("consumer", func(p *Proc) {
		for {
			v, ok := c.Recv(p)
			if !ok {
				return
			}
			recvd = append(recvd, v)
			p.Sleep(Millisecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(recvd) != 5 {
		t.Fatalf("received %v, want 5 values", recvd)
	}
	for i, v := range recvd {
		if v != i {
			t.Fatalf("out of order: %v", recvd)
		}
	}
}

func TestChanCloseWakesReceivers(t *testing.T) {
	e := New(1)
	c := NewChan[int](e, 0, "test")
	okSeen := true
	e.Go("consumer", func(p *Proc) {
		_, ok := c.Recv(p)
		okSeen = ok
	})
	e.Go("closer", func(p *Proc) {
		p.Sleep(Millisecond)
		c.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if okSeen {
		t.Error("Recv on closed+empty chan should report !ok")
	}
}

func TestChanTryOps(t *testing.T) {
	e := New(1)
	c := NewChan[int](e, 1, "t")
	if _, ok := c.TryRecv(); ok {
		t.Error("TryRecv on empty should fail")
	}
	if !c.TrySend(1) {
		t.Error("TrySend should succeed")
	}
	if c.TrySend(2) {
		t.Error("TrySend on full should fail")
	}
	if v, ok := c.TryRecv(); !ok || v != 1 {
		t.Errorf("TryRecv = %d,%v", v, ok)
	}
	c.Close()
	if c.TrySend(3) {
		t.Error("TrySend on closed should fail")
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := New(1)
	s := NewSemaphore(e, 2)
	active, maxActive := 0, 0
	for i := 0; i < 6; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			s.Acquire(p)
			active++
			if active > maxActive {
				maxActive = active
			}
			p.Sleep(Millisecond)
			active--
			s.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxActive != 2 {
		t.Errorf("maxActive = %d, want 2", maxActive)
	}
}

func TestWaitGroup(t *testing.T) {
	e := New(1)
	wg := NewWaitGroup(e)
	doneAt := Time(-1)
	for i := 1; i <= 3; i++ {
		i := i
		wg.Add(1)
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Time(i) * Millisecond)
			wg.Done()
		})
	}
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 3*Millisecond {
		t.Errorf("waiter done at %v, want 3ms", doneAt)
	}
}

func TestWaitQueueFIFO(t *testing.T) {
	e := New(1)
	q := NewWaitQueue(e)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Time(i+1) * Microsecond) // deterministic arrival order
			q.Wait(p, "test")
			order = append(order, i)
		})
	}
	e.Go("waker", func(p *Proc) {
		p.Sleep(Millisecond)
		for q.Len() > 0 {
			q.WakeOne()
			p.Yield()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestDeriveRandStable(t *testing.T) {
	a := New(99).DeriveRand("dev")
	b := New(99).DeriveRand("dev")
	c := New(99).DeriveRand("other")
	for i := 0; i < 10; i++ {
		av, bv := a.Int63(), b.Int63()
		if av != bv {
			t.Fatal("same name+seed should give same stream")
		}
		if av == c.Int63() {
			// A single collision is possible but all ten matching is not;
			// just make sure the streams are not identical.
			continue
		}
		return
	}
	t.Error("different names produced identical streams")
}

func TestShutdownUnwindsBlockedProcs(t *testing.T) {
	e := New(1)
	q := NewWaitQueue(e)
	e.Go("stuck", func(p *Proc) {
		q.Wait(p, "forever")
		t.Error("stuck proc should never resume normally")
	})
	e.Go("stopper", func(p *Proc) {
		p.Sleep(Millisecond)
		p.Engine().Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// All procs must be done after Run returns.
	for _, p := range e.d0.procs {
		if !p.done {
			t.Errorf("proc %q still live after Run", p.name)
		}
	}
}

func TestQuiescentRunReturns(t *testing.T) {
	e := New(1)
	q := NewWaitQueue(e)
	e.Go("daemon", func(p *Proc) {
		q.Wait(p, "never woken")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.DumpWaiters() != "" {
		// After shutdown all waiters are unwound.
		t.Errorf("waiters remain: %s", e.DumpWaiters())
	}
}

func TestStopTwiceIsSafe(t *testing.T) {
	e := New(1)
	e.Go("p", func(p *Proc) {
		e.Stop()
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Stopping() {
		t.Error("engine should report stopping")
	}
}

func TestTimerHeapOrdering(t *testing.T) {
	// Push timers in a scrambled order and check they pop sorted by
	// (at, seq) — the invariant the 4-ary heap must preserve.
	var h timerHeap
	rng := New(42).DeriveRand("heap-test")
	type key struct {
		at  Time
		seq uint64
	}
	var want []key
	for i := 0; i < 2000; i++ {
		k := key{at: Time(rng.Intn(50)), seq: uint64(i)}
		want = append(want, k)
		h.push(timer{at: k.at, seq: k.seq})
		// Interleave pops so the heap shrinks and regrows.
		if rng.Intn(4) == 0 && h.Len() > 0 {
			continue
		}
	}
	var got []key
	for {
		tm, ok := h.pop()
		if !ok {
			break
		}
		got = append(got, key{tm.at, tm.seq})
	}
	if len(got) != len(want) {
		t.Fatalf("popped %d timers, pushed %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
			t.Fatalf("heap order violated at %d: %v before %v", i, a, b)
		}
	}
}

func TestProcRingFIFO(t *testing.T) {
	var r procRing
	mk := func(i int) runnable { return runnable{p: &Proc{pid: i}} }
	// Wrap the ring several times with mixed push/pop.
	next, expect := 0, 0
	rng := New(7).DeriveRand("ring-test")
	for step := 0; step < 10000; step++ {
		if rng.Intn(2) == 0 {
			r.push(mk(next))
			next++
		} else if p, ok := r.pop(); ok {
			if p.p.pid != expect {
				t.Fatalf("pop %d, want %d", p.p.pid, expect)
			}
			expect++
		}
	}
	for {
		p, ok := r.pop()
		if !ok {
			break
		}
		if p.p.pid != expect {
			t.Fatalf("drain pop %d, want %d", p.p.pid, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d procs, pushed %d", expect, next)
	}
}

func TestDumpWaitersShowsSleepers(t *testing.T) {
	e := New(1)
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * Millisecond)
	})
	e.Go("checker", func(p *Proc) {
		p.Yield() // let the sleeper park first
		dump := e.DumpWaiters()
		if !strings.Contains(dump, `"sleeper"`) || !strings.Contains(dump, "sleep until 5ms") {
			t.Errorf("DumpWaiters = %q, want sleeper at 5ms", dump)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcRandMemoized(t *testing.T) {
	e := New(3)
	e.Go("r", func(p *Proc) {
		a := p.Rand()
		if p.Rand() != a {
			t.Error("Rand() should return the same source on repeated calls")
		}
		// The memoized stream starts where the per-call derivation did:
		// first value matches a fresh DeriveRand of the same key.
		want := e.DeriveRand(fmt.Sprintf("proc:%s#%d", p.name, p.pid)).Int63()
		if got := a.Int63(); got != want {
			t.Errorf("first Rand value = %d, want %d", got, want)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGoexitInProcDoesNotWedgeScheduler(t *testing.T) {
	// t.Fatal inside a simulated process exits it via runtime.Goexit;
	// the scheduler must get control back and finish the run instead
	// of blocking forever or exiting with the proc.
	e := New(1)
	e.Go("fatal-ish", func(p *Proc) {
		p.Sleep(Millisecond)
		runtime.Goexit()
	})
	done := make(chan error, 1)
	go func() { done <- e.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("engine wedged after Goexit in proc")
	}
}

// TestProcGoroutinesReleased checks that every proc coroutine's
// goroutine is gone once Run returns, whether the proc returned, was
// blocked at shutdown and unwound by procKilled, panicked, or spawned
// children, and also when -dj workers resumed the coroutines. Only a
// proc that exits via runtime.Goexit keeps one coroutine parked for
// good: its completion yields once more instead of letting next
// re-raise the Goexit on the scheduler (see coro.go).
func TestProcGoroutinesReleased(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *Engine
		wantErr bool
		extra   int // goroutines allowed to outlive Run
	}{
		{"return", func() *Engine {
			e := New(1)
			for i := 0; i < 4; i++ {
				e.Go("sleeper", func(p *Proc) { p.Sleep(Millisecond) })
			}
			return e
		}, false, 0},
		{"killed", func() *Engine {
			e := New(1)
			q := NewWaitQueue(e)
			for i := 0; i < 4; i++ {
				e.Go("waiter", func(p *Proc) { q.Wait(p, "never woken") })
			}
			return e
		}, false, 0},
		{"panic", func() *Engine {
			e := New(1)
			e.Go("bad", func(p *Proc) {
				p.Sleep(Millisecond)
				panic("kaboom")
			})
			e.Go("sleeper", func(p *Proc) { p.Sleep(Second) })
			return e
		}, true, 0},
		{"children", func() *Engine {
			e := New(1)
			q := NewWaitQueue(e)
			e.Go("parent", func(p *Proc) {
				for i := 0; i < 4; i++ {
					p.Go("child", func(c *Proc) {
						c.Sleep(Millisecond)
						c.Go("grandchild", func(g *Proc) { q.Wait(g, "never woken") })
					})
				}
				p.Sleep(Millisecond)
			})
			return e
		}, false, 0},
		{"workers", func() *Engine {
			e, _ := buildMesh(7, 3, 2)
			return e
		}, false, 0},
		{"goexit", func() *Engine {
			e := New(1)
			e.Go("goexit", func(p *Proc) {
				p.Sleep(Millisecond)
				runtime.Goexit()
			})
			return e
		}, false, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before, coroBefore := runtime.NumGoroutine(), coroutines()
			e := c.build()
			err := e.Run()
			if (err != nil) != c.wantErr {
				t.Fatalf("Run = %v", err)
			}
			// A coroutine's goroutine ends inside the switch back to its
			// caller, so this count is exact the moment Run returns.
			if got := coroutines() - coroBefore; got != c.extra {
				t.Errorf("%d proc coroutines outlive Run, want %d", got, c.extra)
			}
			// Other goroutines (window workers, the previous subtest's)
			// may still be on their way out, so allow them a moment and
			// only require the total to come back down to the baseline.
			want := before + c.extra
			deadline := time.Now().Add(5 * time.Second)
			got := runtime.NumGoroutine()
			for got > want && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
				got = runtime.NumGoroutine()
			}
			if got > want {
				t.Errorf("%d goroutines after Run, want at most %d (%d before)", got, want, before)
			}
		})
	}
}

// coroutines counts the goroutines iter.Pull created that still exist.
func coroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "created by iter.Pull[")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestProcResumesCountsHandoffs pins the handoff counter: a proc is
// resumed once to start and once after each park, and procs never
// started before shutdown are resumed once to unwind.
func TestProcResumesCountsHandoffs(t *testing.T) {
	e := New(1)
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Millisecond)
		}
		p.Yield()
		p.Go("late", func(*Proc) {})
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// sleeper: start, 3 sleeps, 1 yield; late: resumed only by shutdown.
	if got := e.ProcResumes(); got != 6 {
		t.Errorf("ProcResumes = %d, want 6", got)
	}
}
