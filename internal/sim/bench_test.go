package sim

import (
	"fmt"
	"testing"
)

// The kernel's two hot paths: the proc handoff (park/resume) and the
// timer path (Sleep → heap push → pop → ready). Every simulated I/O
// pays both, so allocs/op here multiply into every experiment.
// BenchmarkProcHandoff vs BenchmarkCallbackTimer is the A/B the
// goroutine-free executor exists for: the same periodic event with and
// without the park/resume coroutine switch.

// BenchmarkProcHandoff measures the proc timer round trip: one process
// repeatedly sleeping a positive duration, so each iteration pays a
// heap push, a quiescent pop, and the park/resume handoff (two
// coroutine switches, one each way).
func BenchmarkProcHandoff(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCallbackTimer measures the same periodic event on the
// inline executor: a self-re-arming callback pays the heap push and
// pop but runs on the scheduler's own goroutine — no coroutine switch,
// no allocation. The gap to BenchmarkProcHandoff is
// the per-event saving of every converted component.
func BenchmarkCallbackTimer(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	n := 0
	cb := NewCallback(e, "ticker", func(now Time) Time {
		n++
		if n >= b.N {
			return 0
		}
		return Microsecond
	})
	cb.Arm(Microsecond)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkContextSwitch measures the pure handoff: two processes
// alternating via Yield (Sleep(0)), which exercises the run queue without
// the timer heap.
func BenchmarkContextSwitch(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	for w := 0; w < 2; w++ {
		e.Go(fmt.Sprintf("w%d", w), func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Yield()
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerChurn keeps a wide timer heap busy: many processes with
// staggered periods, so pushes and pops interleave deep in the heap the
// way a loaded machine (flusher + scheduler + workload timers) does.
func BenchmarkTimerChurn(b *testing.B) {
	b.ReportAllocs()
	const procs = 64
	e := New(1)
	for w := 0; w < procs; w++ {
		period := Time(w%7+1) * Microsecond
		e.Go(fmt.Sprintf("t%d", w), func(p *Proc) {
			for i := 0; i < b.N/procs; i++ {
				p.Sleep(period)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWaitQueue measures the blocking-primitive path (park with a
// static reason + FIFO wake), the pattern every Chan/Semaphore/WaitGroup
// operation reduces to.
func BenchmarkWaitQueue(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	q := NewWaitQueue(e)
	e.Go("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Wait(p, "bench")
		}
	})
	e.Go("waker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			for q.WakeOne() {
			}
			p.Yield()
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBarrierFlush measures one barrier's worth of port work for a
// busy port: a 64-message batch moved sender→receiver, its delivery
// timer fired, and the inbox drained. The CI allocation gate holds this
// at 0 allocs/op — batches and inboxes recycle through free lists, so
// barrier frequency costs time, never garbage.
func BenchmarkBarrierFlush(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	d1 := e.NewDomain("rx")
	pt := NewPort[int](e, d1, "p", Millisecond)
	var at Time
	cycle := func() {
		at += Millisecond
		fillPort(pt, 64, at)
		pt.flush()
		if n := drainPort(pt, at); n != 64 {
			b.Fatalf("delivered %d of 64", n)
		}
	}
	cycle() // warm the free lists
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkEOTScan measures the serial horizon computation at the
// barrier — the reach fixpoint over an 8-domain ring with per-domain
// timers armed, the part of barrier cost that grows with topology. The
// CI allocation gate holds it at 0 allocs/op (engine scratch only).
func BenchmarkEOTScan(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	doms := []*Domain{e.Dom()}
	for i := 1; i < 8; i++ {
		doms = append(doms, e.NewDomain(fmt.Sprintf("d%d", i)))
	}
	for i := range doms {
		NewPort[int](doms[i], doms[(i+1)%len(doms)], fmt.Sprintf("ring%d", i), Time(i+1)*Millisecond)
		d := doms[i]
		d.seq++
		d.timers.push(timer{at: Time(i) * 100 * Microsecond, seq: d.seq, p: nil})
	}
	e.prepareWindows()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.computeWindow()
	}
}
