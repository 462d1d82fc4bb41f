package sim

import "math/rand"

// Domain is an event domain: a shard of the simulation with its own
// virtual clock, run queue, timer heap, and process table. Within a
// domain the classic cooperative discipline holds — exactly one process
// runs at a time — so all state confined to one domain is data-race
// free without locks. Distinct domains may run concurrently during a
// lookahead window and must interact only through Ports.
//
// A Domain is a Host: components constructed against a Domain live on
// that domain. The Engine's own Host methods delegate to its default
// domain, so single-domain code never mentions Domain at all.
type Domain struct {
	id   int
	name string
	eng  *Engine

	now Time
	// seq is the local-timer tiebreaker for deterministic ordering:
	// Sleep timers take increasing values, so equal-time local timers
	// fire in schedule order. Cross-domain delivery timers carry a
	// disjoint canonical sequence space instead (bit 63 set — see
	// port.go), so at equal times local timers sort before deliveries
	// no matter when a barrier flushed them.
	seq uint64
	// deliveries counts cross-domain messages flushed into this domain,
	// for the TimersScheduled accounting (deliveries no longer consume
	// seq values).
	deliveries uint64
	// resumes counts proc handoffs: every time the scheduler switched
	// to a proc's coroutine (see resume).
	resumes uint64
	// horizon is the granted execution bound for the current barrier
	// round; written serially at barriers, read by runWindow (see
	// window.go).
	horizon Time
	timers  timerHeap
	runq    procRing
	procs   []*Proc // all procs ever created on this domain, in creation order
	nextPID int
	// cbs lists every callback registered on this domain, in creation
	// order. Callback ids come from nextCBID, a counter disjoint from
	// nextPID: creating a callback never shifts the pid-derived random
	// streams of goroutine procs.
	cbs      []*Callback
	nextCBID int
	failure  error
	tracer   Tracer // nil unless observability is on (see trace.go)
}

// ID returns the domain's index in Engine.Domains (the default domain
// is 0).
func (d *Domain) ID() int { return d.id }

// Name returns the name given to NewDomain ("main" for the default
// domain).
func (d *Domain) Name() string { return d.name }

// Now returns the domain's current virtual time. During a window,
// sibling domains' clocks may differ by up to the lookahead bound.
func (d *Domain) Now() Time { return d.now }

// Engine returns the engine this domain belongs to.
func (d *Domain) Engine() *Engine { return d.eng }

// Dom implements Host.
func (d *Domain) Dom() *Domain { return d }

// SetTracer attaches a tracer to this domain. Each domain needs its own
// tracer value: domains record slices concurrently during a window, so
// sharing one buffer would race. Must be called before Run.
func (d *Domain) SetTracer(t Tracer) { d.tracer = t }

// Tracer returns the domain's tracer (nil when tracing is off).
func (d *Domain) Tracer() Tracer { return d.tracer }

// DeriveRand returns a deterministic random source for the named
// component on this domain. The default domain uses the engine-level
// derivation unchanged (so existing single-domain streams are stable);
// other domains mix in their name, making streams independent across
// domains even for identical component names.
func (d *Domain) DeriveRand(name string) *rand.Rand {
	if d.id == 0 {
		return d.eng.DeriveRand(name)
	}
	return d.eng.DeriveRand(name + "@" + d.name)
}

// Go creates a process on this domain that will run fn. It may be called
// before Run to seed the simulation, or by a running process of this
// domain to spawn concurrent work; spawning onto a *different* running
// domain is a race and must go through a Port instead. The new process
// starts after the caller next blocks.
func (d *Domain) Go(name string, fn func(*Proc)) *Proc {
	e := d.eng
	p := &Proc{
		eng:  e,
		dom:  d,
		name: name,
		pid:  d.nextPID,
	}
	d.nextPID++
	d.procs = append(d.procs, p)
	if e.stopping {
		p.done = true
		return p
	}
	p.start(fn)
	d.ready(p)
	return p
}

// ready marks p runnable at the domain's current time.
func (d *Domain) ready(p *Proc) {
	if p.done {
		return
	}
	d.runq.push(runnable{p: p})
}

// resume runs p until it parks or finishes. It switches straight to
// the proc's coroutine (see coro.go) and returns when the proc hands
// control back.
func (d *Domain) resume(p *Proc) {
	if p.done {
		return
	}
	d.resumes++
	p.next()
}

// nextEvent returns the virtual time of the domain's earliest pending
// event: now if a process is runnable, the earliest timer otherwise, and
// maxTime when the domain is idle. Pending cross-domain deliveries are
// visible here because flush materializes them as timers before the
// horizon is computed.
func (d *Domain) nextEvent() Time {
	if d.runq.len() > 0 {
		return d.now
	}
	if tm, ok := d.timers.peek(); ok {
		return tm.at
	}
	return maxTime
}

// runWindow executes the domain's events strictly below horizon. It is
// the per-domain body of the conservative time-window barrier: no event
// at or past the horizon may run, because a message from another domain
// could still arrive there.
func (d *Domain) runWindow(horizon Time) {
	for d.failure == nil {
		r, ok := d.runq.pop()
		if !ok {
			tm, ok := d.timers.peek()
			if !ok || tm.at >= horizon {
				return
			}
			d.timers.pop()
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

// Go spawns a process on the calling process's own domain — the safe
// default for component code, which may be hosted on any domain and must
// never spawn onto a different (possibly concurrently running) one.
func (p *Proc) Go(name string, fn func(*Proc)) *Proc { return p.dom.Go(name, fn) }

// ProcsCreated returns how many processes were ever created on this
// domain.
func (d *Domain) ProcsCreated() int { return len(d.procs) }

// CallbacksCreated returns how many callbacks were ever registered on
// this domain.
func (d *Domain) CallbacksCreated() int { return len(d.cbs) }

// TimersScheduled returns how many timed events were ever scheduled on
// this domain (sleeps plus cross-domain message deliveries).
func (d *Domain) TimersScheduled() uint64 { return d.seq + d.deliveries }
