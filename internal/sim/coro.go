//go:build go1.23

// The module's go line stays at 1.22 (the benchmark module pins it), so
// this build constraint is what lets the one file that uses iter.Pull
// compile at language version go1.23. See DESIGN.md "Coroutine proc
// handoff".

package sim

import "iter"

// start makes p a coroutine that runs fn on its first resume. The body
// runs under iter.Pull: Domain.resume calls next and Proc.park calls
// yield, so each handoff is a direct goroutine switch that never passes
// through the Go run queue. The stop function is dropped: shutdown
// resumes every live proc until its body returns.
func (p *Proc) start(fn func(*Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		returned := false
		// Completion runs in a defer so it also fires when the body exits
		// via runtime.Goexit (t.Fatal inside a test process). next would
		// re-raise that Goexit on the scheduler's goroutine, so in that
		// case the coroutine yields once more instead of finishing: the
		// proc is done, and its coroutine stays parked for good.
		defer func() {
			p.done = true
			if !returned {
				yield(struct{}{})
			}
		}()
		if !p.eng.stopping {
			runProc(p, fn)
		}
		returned = true
	})
}
