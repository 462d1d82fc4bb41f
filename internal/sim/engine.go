package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
)

// Engine is a discrete-event scheduler. Processes (Proc) are coroutines
// that the engine resumes one at a time and that hand control back
// whenever they block (see coro.go). Every process belongs to exactly
// one event Domain; within a domain exactly one process runs at a time
// and the domain's virtual clock advances only when every local process
// is blocked, so code confined to one domain needs no locking.
//
// An engine with a single domain (the default) behaves exactly like the
// classic global scheduler: one process in the whole simulation runs at
// a time. With multiple domains, Run executes domains concurrently on
// up to SetWorkers goroutines under a conservative time-window barrier
// (see runWindows); domains may interact only through Ports, and
// same-seed runs produce identical results at any worker count.
//
// Engines are not safe for concurrent use from outside the simulation:
// the only goroutines that may touch engine state are the one that
// calls Run, the engine's window workers, and the processes the engine
// itself resumes.
type Engine struct {
	seed    int64
	running bool
	// stopping is the latched shutdown flag every process observes. In a
	// single-domain engine Stop sets it immediately (the classic
	// semantics); in a multi-domain engine it is only written at window
	// barriers, while every domain worker is parked, so mid-window reads
	// are race-free and — crucially — identical at any worker count.
	stopping bool
	// stopReq records that Stop was called; the barrier latches it into
	// stopping. It is atomic because any domain's process may call Stop.
	stopReq atomic.Bool
	failure error
	workers int

	domains []*Domain
	d0      *Domain // the default domain

	ports []portFlusher
	// portFrom/portTo/portLat mirror ports as flat arrays (domain ids
	// and latencies) so the barrier's EOT scan walks dense memory
	// without touching the generic port values.
	portFrom []int32
	portTo   []int32
	portLat  []Time
	minLat   Time // smallest port latency: the conservative lookahead bound

	// Window-protocol state (see window.go). deadline is the RunFor
	// cutoff: events strictly after it never execute, which makes the
	// stop point independent of the window protocol. The scratch slices
	// are reused every barrier so the EOT scan never allocates.
	windowMode     WindowMode
	deadline       Time
	winStats       WindowStats
	nextScratch    []Time
	horizonScratch []Time
}

// maxTime is the "no event" sentinel for horizon arithmetic.
const maxTime = Time(1<<63 - 1)

// ErrStopped is returned by Wait-style primitives when they are interrupted
// by engine shutdown. Domain code normally never sees it: shutdown unwinds
// processes with a private panic value instead.
var ErrStopped = errors.New("sim: engine stopped")

// Host is a place processes can be created: either the Engine itself
// (its default domain) or a specific Domain. Components take a Host so
// the machine wiring can assign each of them to an event domain without
// the component knowing about partitioning.
type Host interface {
	// Now returns the host domain's current virtual time.
	Now() Time
	// Go creates a process in the host domain.
	Go(name string, fn func(*Proc)) *Proc
	// DeriveRand returns a deterministic random source for the named
	// component, independent for distinct names (and distinct domains).
	DeriveRand(name string) *rand.Rand
	// Engine returns the underlying engine.
	Engine() *Engine
	// Dom returns the concrete domain.
	Dom() *Domain
}

// New creates an engine whose randomness derives from seed. Two engines
// built with the same seed and driven by the same code produce identical
// event sequences.
func New(seed int64) *Engine {
	e := &Engine{seed: seed, workers: 1, deadline: maxTime}
	e.d0 = &Domain{id: 0, name: "main", eng: e}
	e.domains = []*Domain{e.d0}
	return e
}

// Now returns the default domain's current virtual time. During a
// multi-domain run, domain clocks advance independently within a
// lookahead window; process code should use Proc.Now (its own domain's
// clock).
func (e *Engine) Now() Time { return e.d0.now }

// Seed returns the seed the engine was created with.
func (e *Engine) Seed() int64 { return e.seed }

// Engine implements Host.
func (e *Engine) Engine() *Engine { return e }

// Dom returns the default domain.
func (e *Engine) Dom() *Domain { return e.d0 }

// Domains returns all domains in creation order (the default domain is
// always first).
func (e *Engine) Domains() []*Domain { return e.domains }

// SetWorkers sets how many OS goroutines Run may use to execute domains
// concurrently (the -dj knob). Values below 1 mean 1. The worker count
// never affects simulation results, only wall-clock time.
func (e *Engine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	e.workers = n
}

// Workers returns the configured worker count.
func (e *Engine) Workers() int { return e.workers }

// NewDomain creates a new event domain. Domains must be created before
// Run. Components hosted on distinct domains may interact only through
// Ports; sharing mutable state across domains is a data race.
func (e *Engine) NewDomain(name string) *Domain {
	if e.running {
		panic("sim: NewDomain during Run")
	}
	d := &Domain{id: len(e.domains), name: name, eng: e}
	e.domains = append(e.domains, d)
	return d
}

// DeriveRand returns a deterministic random source for the named component.
// The stream depends only on the engine seed and the name, so adding a new
// component does not perturb the randomness seen by existing ones.
func (e *Engine) DeriveRand(name string) *rand.Rand {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= uint64(e.seed)
	h *= 1099511628211
	return rand.New(rand.NewSource(int64(h)))
}

// Go creates a process in the default domain. It may be called before Run
// to seed the simulation, or by a running process to spawn concurrent
// work. The new process starts after the caller next blocks.
func (e *Engine) Go(name string, fn func(*Proc)) *Proc { return e.d0.Go(name, fn) }

// Stop requests that the simulation end. It may be called from inside a
// process or (before Run returns) from the driving goroutine between runs.
// In a multi-domain run the request takes effect at the next window
// barrier — at most one lookahead window after the call — so the exact
// stop point is identical at any worker count.
func (e *Engine) Stop() {
	e.stopReq.Store(true)
	if !e.running || len(e.domains) == 1 {
		e.stopping = true
	}
}

// Stopping reports whether shutdown has been latched. Multi-domain runs
// latch Stop requests at window barriers, so polling loops observe the
// transition at a deterministic virtual time regardless of workers.
func (e *Engine) Stopping() bool { return e.stopping }

// Run executes the simulation until it quiesces (no runnable process, no
// pending timer, and no undelivered port message), or until Stop is
// called. It returns the first process panic converted to an error, if
// any occurred.
func (e *Engine) Run() error {
	if e.running {
		return errors.New("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false; e.deadline = maxTime }()
	if len(e.domains) == 1 {
		e.runSingle()
	} else {
		e.runWindows()
	}
	e.shutdown()
	return e.failure
}

// runSingle is the classic serial event loop over the default domain,
// preserved verbatim for single-domain engines: it is the hot path of
// every grid cell and must stay allocation-free per event.
func (e *Engine) runSingle() {
	d := e.d0
	for !e.stopping {
		r, ok := d.runq.pop()
		if !ok {
			tm, ok := d.timers.pop()
			if !ok {
				break // quiescent: every live proc is waiting on a condition
			}
			if tm.at > d.now {
				d.now = tm.at
			}
			if tm.fire != nil {
				tm.fire.fire(d, tm.armAt)
				continue
			}
			d.ready(tm.p)
			continue
		}
		if r.cb != nil {
			d.invoke(r.cb)
			continue
		}
		d.resume(r.p)
	}
}

// runDomains executes each active domain's window (every domain runs
// its events strictly below its own granted d.horizon — see window.go),
// fanning out across the worker budget. Domains are independent within
// a window, so the assignment of domains to workers cannot affect
// results.
func (e *Engine) runDomains(active []*Domain) {
	n := len(active)
	if n == 0 {
		return
	}
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for _, d := range active {
			d.runWindow(d.horizon)
		}
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				d := active[i]
				func() {
					defer func() {
						if r := recover(); r != nil && d.failure == nil {
							d.failure = fmt.Errorf("sim: domain %q scheduler panicked: %v\n%s",
								d.name, r, debug.Stack())
						}
					}()
					d.runWindow(d.horizon)
				}()
			}
		}()
	}
	wg.Wait()
}

// RunFor runs the simulation for at most d of virtual time.
//
// A single-domain engine uses the classic stop-timer process: the run
// halts at the first event at or after the deadline. A multi-domain
// engine instead enforces the deadline at the barrier: every event at
// or before the deadline executes and no later event does, so the stop
// point is a virtual-time fact independent of the window protocol, the
// window mode, and the worker count. (A stop-timer process cannot give
// that guarantee there — its Stop latches at a barrier, and how far the
// *other* domains have advanced by then depends on where the protocol
// placed their horizons.) All clocks read the deadline afterwards.
func (e *Engine) RunFor(d Time) error {
	if len(e.domains) > 1 {
		if d < maxTime-e.d0.now {
			e.deadline = e.d0.now + d
		}
		return e.Run()
	}
	if d <= 0 {
		// A non-positive budget means "stop after the initial yield round";
		// only the goroutine form can express Sleep(0)'s double runq pass.
		e.Go("sim.stop-timer", func(p *Proc) {
			p.Sleep(d)
			e.Stop()
		})
		return e.Run()
	}
	// The stop timer needs no call stack, so it runs as a callback. The
	// deferred arm draws its seq exactly where the spawned proc's Sleep
	// used to, keeping existing simulations byte-identical.
	cb := NewCallback(e, "sim.stop-timer", func(Time) Time {
		e.Stop()
		return 0
	})
	cb.ArmDeferred(d)
	return e.Run()
}

// shutdown unwinds every live process so no goroutines leak.
func (e *Engine) shutdown() {
	e.stopping = true
	for _, d := range e.domains {
		d.runq = procRing{}
		d.timers = timerHeap{}
	}
	for {
		resumed := false
		for _, d := range e.domains {
			for _, p := range d.procs {
				if !p.done {
					d.resume(p)
					resumed = true
				}
			}
		}
		if !resumed {
			break
		}
	}
}

// noteFailure records a process panic. The per-domain slot keeps window
// execution deterministic (each domain aborts on its own first failure);
// the single-domain path also stops the engine immediately, preserving
// the classic semantics.
func (e *Engine) noteFailure(d *Domain, err error) {
	if d.failure == nil {
		d.failure = err
	}
	if len(e.domains) == 1 {
		if e.failure == nil {
			e.failure = err
		}
		e.stopping = true
	}
}

// DumpWaiters returns a human-readable description of blocked processes,
// useful when a simulation quiesces unexpectedly.
func (e *Engine) DumpWaiters() string {
	var b strings.Builder
	for _, d := range e.domains {
		for _, p := range d.procs {
			switch {
			case p.done:
			case p.sleeping:
				fmt.Fprintf(&b, "proc %q: sleep until %s\n", p.name, p.sleepUntil)
			case p.waitReason != "":
				fmt.Fprintf(&b, "proc %q: %s\n", p.name, p.waitReason)
			}
		}
		for _, cb := range d.cbs {
			switch {
			case cb.stopped:
			case cb.waitReason != "":
				fmt.Fprintf(&b, "callback %q: %s\n", cb.name, cb.waitReason)
			case cb.armed > 0:
				fmt.Fprintf(&b, "callback %q: armed ×%d\n", cb.name, cb.armed)
			}
		}
	}
	return b.String()
}

// procKilled is the panic value used to unwind processes at shutdown.
type procKilled struct{}

// Proc is a simulated process. Every Proc method must be called from the
// process's own body while it is the running process of its domain.
type Proc struct {
	eng  *Engine
	dom  *Domain
	name string
	pid  int
	done bool
	// next and yield are the two ends of the proc's coroutine (see
	// coro.go): the scheduler calls next to run the body until it
	// parks, and the body calls yield to park.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// Wait state is kept cheap to record: reasons are static strings and
	// sleeps store only the wake time; DumpWaiters formats on demand, so
	// the hot park/Sleep paths never build strings.
	waitReason string
	sleeping   bool
	sleepUntil Time
	rng        *rand.Rand // memoized by Rand
	tid        int32      // trace track id, assigned lazily (see trace.go)
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Dom returns the event domain this process belongs to.
func (p *Proc) Dom() *Domain { return p.dom }

// Now returns the process's domain's current virtual time.
func (p *Proc) Now() Time { return p.dom.now }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Rand returns a deterministic random source scoped to this process. The
// source is created on first use and reused, so repeated calls continue
// one stream. Streams are independent across domains: pids are
// domain-local, and non-default domains mix their name into the
// derivation.
func (p *Proc) Rand() *rand.Rand {
	if p.rng == nil {
		p.rng = p.dom.DeriveRand(fmt.Sprintf("proc:%s#%d", p.name, p.pid))
	}
	return p.rng
}

func runProc(p *Proc, fn func(*Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); ok {
				return
			}
			p.eng.noteFailure(p.dom, fmt.Errorf("sim: proc %q panicked: %v\n%s",
				p.name, r, debug.Stack()))
		}
	}()
	fn(p)
}

// park hands control back to the scheduler and returns once the
// process has been made runnable again and resumed. The reason must be
// a preformatted (ideally static) string: it is recorded
// unconditionally, so building it must not allocate on the hot path.
func (p *Proc) park(reason string) {
	d := p.dom
	p.waitReason = reason
	var parkAt Time
	if d.tracer != nil {
		parkAt = d.now
	}
	p.yield(struct{}{})
	if t := d.tracer; t != nil {
		// The parked interval, named by its wait reason, becomes one
		// virtual-time slice on the process's track. Reasons are static
		// strings (see above), so recording never formats.
		name := reason
		if name == "" {
			name = "sleep"
		}
		t.Slice(p.traceTID(t), "sim", name, parkAt, d.now)
	}
	p.waitReason = ""
	p.sleeping = false
	if p.eng.stopping {
		panic(procKilled{})
	}
}

// Sleep suspends the process for d of virtual time. Non-positive durations
// yield the processor and resume at the current time after other runnable
// processes have had a turn.
func (p *Proc) Sleep(t Time) {
	d := p.dom
	if t <= 0 {
		d.ready(p)
		p.park("yield")
		return
	}
	d.seq++
	d.timers.push(timer{at: d.now + t, seq: d.seq, p: p})
	p.sleeping = true
	p.sleepUntil = d.now + t
	p.park("")
}

// Yield gives other runnable processes a turn without advancing time.
func (p *Proc) Yield() { p.Sleep(0) }

// inlineEvent is a timer payload the scheduler runs inline on its own
// goroutine when the timer pops, with no process wake: cross-domain
// port deliveries (deliverRipe) and callback timers (Callback.fire).
// armAt is the virtual time the timer was armed; callbacks span their
// trace slice over [armAt, now], ports ignore it.
type inlineEvent interface {
	fire(d *Domain, armAt Time)
}

type timer struct {
	at  Time
	seq uint64
	p   *Proc
	// fire, when non-nil, marks an inline event instead of a process
	// wake: a cross-domain delivery (port.go) or a callback timer
	// (callback.go).
	fire  inlineEvent
	armAt Time
}

func (t timer) before(u timer) bool {
	if t.at != u.at {
		return t.at < u.at
	}
	return t.seq < u.seq
}

// timerHeap is a 4-ary min-heap of timer values ordered by (at, seq).
// Storing values directly (instead of container/heap's boxed interface)
// keeps Sleep allocation-free, and the wider fan-out halves the tree
// depth paid by sift-down on the pop-heavy event loop.
type timerHeap struct {
	a []timer
}

func (h *timerHeap) Len() int { return len(h.a) }

func (h *timerHeap) peek() (timer, bool) {
	if len(h.a) == 0 {
		return timer{}, false
	}
	return h.a[0], true
}

func (h *timerHeap) push(t timer) {
	h.a = append(h.a, t)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.a[i].before(h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

func (h *timerHeap) pop() (timer, bool) {
	n := len(h.a)
	if n == 0 {
		return timer{}, false
	}
	top := h.a[0]
	last := h.a[n-1]
	h.a[n-1] = timer{} // drop the Proc reference
	h.a = h.a[:n-1]
	n--
	if n > 0 {
		// Sift last down from the root, moving smaller children up into
		// the hole until last fits.
		i := 0
		for {
			min := -1
			first := 4*i + 1
			end := first + 4
			if end > n {
				end = n
			}
			for c := first; c < end; c++ {
				if min < 0 || h.a[c].before(h.a[min]) {
					min = c
				}
			}
			if min < 0 || !h.a[min].before(last) {
				break
			}
			h.a[i] = h.a[min]
			i = min
		}
		h.a[i] = last
	}
	return top, true
}

// runnable is one run-queue (or wait-queue) entry: a goroutine proc to
// resume or a callback to invoke. Exactly one field is set. Queues hold
// both kinds in one FIFO so procs and callbacks interleave in the same
// deterministic order regardless of execution mode.
type runnable struct {
	p  *Proc
	cb *Callback
}

// procRing is a FIFO run queue backed by a power-of-two ring buffer, so
// the scheduler's pop-front is O(1) without the slice-shift reallocation
// churn of runq = runq[1:] + append.
type procRing struct {
	buf  []runnable
	head int
	n    int
}

func (r *procRing) len() int { return r.n }

func (r *procRing) push(v runnable) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *procRing) pop() (runnable, bool) {
	if r.n == 0 {
		return runnable{}, false
	}
	v := r.buf[r.head]
	r.buf[r.head] = runnable{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v, true
}

func (r *procRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 16
	}
	buf := make([]runnable, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}
