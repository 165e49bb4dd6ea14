package timerwheel

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

type rec struct {
	fired []*Timer
	ats   []time.Duration
	w     *Wheel
}

func newRec() *rec {
	r := &rec{}
	r.w = New(func(t *Timer) {
		r.fired = append(r.fired, t)
		r.ats = append(r.ats, r.w.Now())
	})
	return r
}

func TestFireAtExactDeadline(t *testing.T) {
	r := newRec()
	var tm Timer
	r.w.Arm(&tm, 250*time.Millisecond)
	r.w.Advance(249 * time.Millisecond)
	if len(r.fired) != 0 {
		t.Fatalf("fired early: %v", r.ats)
	}
	if !tm.Armed() {
		t.Fatal("timer should still be armed")
	}
	r.w.Advance(250 * time.Millisecond)
	if len(r.fired) != 1 || r.ats[0] != 250*time.Millisecond {
		t.Fatalf("fired = %v at %v", r.fired, r.ats)
	}
	if tm.Armed() || r.w.Len() != 0 {
		t.Fatal("timer should be disarmed after firing")
	}
}

func TestSameDeadlineFIFO(t *testing.T) {
	r := newRec()
	tms := make([]Timer, 5)
	for i := range tms {
		tms[i].Kind = uint8(i)
		r.w.Arm(&tms[i], time.Second)
	}
	r.w.Advance(time.Second)
	if len(r.fired) != 5 {
		t.Fatalf("fired %d of 5", len(r.fired))
	}
	for i, f := range r.fired {
		if f.Kind != uint8(i) {
			t.Fatalf("fire order %d got kind %d (want arm order)", i, f.Kind)
		}
	}
}

func TestCancelAndRearm(t *testing.T) {
	r := newRec()
	var a, b Timer
	r.w.Arm(&a, 10*time.Millisecond)
	r.w.Arm(&b, 20*time.Millisecond)
	r.w.Cancel(&a)
	if a.Armed() || r.w.Len() != 1 {
		t.Fatal("cancel did not unlink")
	}
	r.w.Arm(&b, 50*time.Millisecond) // re-arm moves the deadline
	r.w.Advance(30 * time.Millisecond)
	if len(r.fired) != 0 {
		t.Fatal("cancelled/re-armed timers fired")
	}
	r.w.Advance(50 * time.Millisecond)
	if len(r.fired) != 1 || r.fired[0] != &b || r.ats[0] != 50*time.Millisecond {
		t.Fatalf("re-armed fire = %v at %v", r.fired, r.ats)
	}
}

func TestPastDeadlineClampsToNow(t *testing.T) {
	r := newRec()
	r.w.Advance(time.Second)
	var tm Timer
	r.w.Arm(&tm, 100*time.Millisecond) // in the past
	r.w.Advance(time.Second)           // no clock movement needed
	if len(r.fired) != 1 || r.ats[0] != time.Second {
		t.Fatalf("past-deadline timer: fired=%v at %v", r.fired, r.ats)
	}
}

func TestCascadeAcrossLevels(t *testing.T) {
	// Deadlines far enough out to park on coarse levels must still
	// fire at their exact instant.
	for _, d := range []time.Duration{
		500 * time.Millisecond, // level 1
		30 * time.Second,       // level 2
		5 * time.Minute,        // level 3
		48 * time.Hour,         // level 4 span
		400 * time.Hour,        // beyond the top level: parked
	} {
		r := newRec()
		var tm Timer
		r.w.Arm(&tm, d)
		// Anchor discipline: walk Next() until the timer fires.
		for i := 0; i < 1000 && r.w.Len() > 0; i++ {
			at, ok := r.w.Next()
			if !ok {
				t.Fatalf("d=%v: Next lost the timer", d)
			}
			if at > d {
				t.Fatalf("d=%v: Next overestimated: %v", d, at)
			}
			r.w.Advance(at)
		}
		if len(r.fired) != 1 || r.ats[0] != d {
			t.Fatalf("d=%v: fired=%d at=%v", d, len(r.fired), r.ats)
		}
	}
}

func TestCallbackArmsSameInstant(t *testing.T) {
	w := New(nil)
	var second Timer
	second.Kind = 1
	count := 0
	w.fire = func(tm *Timer) {
		count++
		if tm.Kind == 0 {
			w.Arm(&second, w.Now()) // due immediately
		}
	}
	var first Timer
	w.Arm(&first, time.Millisecond)
	w.Advance(time.Millisecond)
	if count != 2 {
		t.Fatalf("chained same-instant timer: fired %d of 2", count)
	}
}

func TestCallbackCancelsSibling(t *testing.T) {
	w := New(nil)
	var a, b Timer
	fired := []*Timer{}
	w.fire = func(tm *Timer) {
		fired = append(fired, tm)
		if tm == &a {
			w.Cancel(&b) // b expired in the same batch
		}
	}
	w.Arm(&a, time.Millisecond)
	w.Arm(&b, time.Millisecond)
	w.Advance(time.Millisecond)
	if len(fired) != 1 || fired[0] != &a {
		t.Fatalf("cancelled sibling still fired: %v", fired)
	}
	if w.Len() != 0 {
		t.Fatalf("wheel not empty: %d", w.Len())
	}
}

func TestCallbackRearmsSibling(t *testing.T) {
	w := New(nil)
	var a, b Timer
	var ats []time.Duration
	var order []*Timer
	w.fire = func(tm *Timer) {
		order = append(order, tm)
		ats = append(ats, w.Now())
		if tm == &a && len(order) == 1 {
			w.Arm(&b, w.Now()+time.Second) // postpone the due sibling
		}
	}
	w.Arm(&a, time.Millisecond)
	w.Arm(&b, time.Millisecond)
	w.Advance(time.Millisecond)
	if len(order) != 1 {
		t.Fatalf("postponed sibling fired in same batch: %d fires", len(order))
	}
	w.Advance(time.Millisecond + time.Second)
	if len(order) != 2 || order[1] != &b || ats[1] != time.Millisecond+time.Second {
		t.Fatalf("postponed sibling: order=%v ats=%v", order, ats)
	}
}

// Property: for random deadlines consumed via the Next/Advance anchor
// loop, every timer fires exactly at its deadline in nondecreasing
// deadline order, and the wheel drains completely. Every step makes
// progress — it fires a timer or cascades a coarse slot one level
// down — so the loop takes at most numLevels steps per timer.
func TestRandomDeadlinesAnchorLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		r := newRec()
		const n = 200
		tms := make([]Timer, n)
		want := make([]time.Duration, n)
		for i := range tms {
			d := time.Duration(rng.Int63n(int64(10 * time.Minute)))
			want[i] = d
			r.w.Arm(&tms[i], d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for steps := 0; r.w.Len() > 0; steps++ {
			if steps >= numLevels*n {
				t.Fatalf("trial %d: anchor loop did not drain in %d steps (%d left)", trial, steps, r.w.Len())
			}
			at, ok := r.w.Next()
			if !ok {
				t.Fatalf("trial %d: Next lost %d timers", trial, r.w.Len())
			}
			if steps > 0 && at <= r.w.Now() {
				t.Fatalf("trial %d: Next %v made no progress past %v", trial, at, r.w.Now())
			}
			r.w.Advance(at)
		}
		if len(r.ats) != n {
			t.Fatalf("trial %d: fired %d of %d", trial, len(r.ats), n)
		}
		for i, at := range r.ats {
			if at != want[i] {
				t.Fatalf("trial %d: fire %d at %v, want %v", trial, i, at, want[i])
			}
			if at != r.fired[i].Deadline() {
				t.Fatalf("trial %d: fire %d at %v but deadline %v", trial, i, at, r.fired[i].Deadline())
			}
		}
	}
}

// Property: a single large Advance fires exactly the due subset.
func TestBulkAdvanceFiresDueSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		r := newRec()
		const n = 300
		tms := make([]Timer, n)
		for i := range tms {
			r.w.Arm(&tms[i], time.Duration(rng.Int63n(int64(2*time.Minute))))
		}
		cut := time.Duration(rng.Int63n(int64(2 * time.Minute)))
		r.w.Advance(cut)
		due := 0
		for i := range tms {
			if tms[i].Deadline() <= cut {
				due++
				if tms[i].Armed() {
					t.Fatalf("trial %d: due timer (d=%v cut=%v) still armed", trial, tms[i].Deadline(), cut)
				}
			} else if !tms[i].Armed() {
				t.Fatalf("trial %d: future timer (d=%v cut=%v) disarmed", trial, tms[i].Deadline(), cut)
			}
		}
		if len(r.fired) != due {
			t.Fatalf("trial %d: fired %d, want %d", trial, len(r.fired), due)
		}
		if r.w.Len() != n-due {
			t.Fatalf("trial %d: wheel len %d, want %d", trial, r.w.Len(), n-due)
		}
	}
}

func TestAllocationFreeSteadyState(t *testing.T) {
	w := New(func(*Timer) {})
	tms := make([]Timer, 8)
	// Warm the expired buffer.
	for i := range tms {
		w.Arm(&tms[i], w.Now()+time.Duration(i)*time.Millisecond)
	}
	w.Advance(w.Now() + time.Second)
	now := w.Now()
	allocs := testing.AllocsPerRun(500, func() {
		now += 10 * time.Millisecond
		for i := range tms {
			w.Arm(&tms[i], now+time.Duration(i+1)*33*time.Millisecond)
		}
		w.Cancel(&tms[0])
		w.Advance(now)
	})
	if allocs != 0 {
		t.Fatalf("arm/cancel/advance allocated %.1f per cycle, want 0", allocs)
	}
}

// refTimer is one timer of the reference model: a plain record of
// what the wheel should hold, checked by brute force.
type refTimer struct {
	tm       Timer
	armed    bool
	deadline time.Duration
	armedAt  time.Duration // wheel clock at the last Arm
	seq      int           // global Arm order
}

// refFire is one expiry as the wheel reported it.
type refFire struct {
	at       time.Duration
	deadline time.Duration
	armedAt  time.Duration
	seq      int
}

// Property: random interleavings of Arm, Cancel, re-Arm, Next and
// Advance(Next()) agree with a brute-force reference. Next never
// exceeds the true earliest deadline (nor lags the clock), the anchor
// loop always makes progress, and every armed timer fires exactly
// once, at its exact deadline, in deadline order — timers sharing a
// deadline and an arm instant in arm order. The mix crowds thousands
// of timers into one coarse slot (the close-linger regime of a churn
// of short calls) and parks some deadlines beyond the top level.
func TestNextAgainstReference(t *testing.T) {
	const (
		n     = 4000
		crowd = 3000
		ops   = 6000
	)
	spanTop := time.Duration(uint64(numSlots) << shift(numLevels-1))
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		var w *Wheel
		var fires []refFire
		w = New(func(tm *Timer) {
			rt := tm.Owner.(*refTimer)
			if !rt.armed {
				t.Fatalf("trial %d: fired a timer the reference holds unarmed", trial)
			}
			rt.armed = false
			fires = append(fires, refFire{w.Now(), rt.deadline, rt.armedAt, rt.seq})
		})
		rts := make([]refTimer, n)
		for i := range rts {
			rts[i].tm.Owner = &rts[i]
		}
		seq := 0
		arm := func(rt *refTimer, d time.Duration) {
			w.Arm(&rt.tm, d)
			if d < w.Now() {
				d = w.Now()
			}
			rt.armed, rt.deadline, rt.armedAt, rt.seq = true, d, w.Now(), seq
			seq++
		}
		// delay draws from every level, the past (clamped), and
		// beyond the top level's span (parked).
		delay := func() time.Duration {
			switch rng.Intn(8) {
			case 0:
				return -time.Duration(rng.Int63n(int64(time.Second)))
			case 1:
				return 0
			case 2:
				return time.Duration(rng.Int63n(int64(64 * time.Millisecond)))
			case 3:
				return time.Duration(rng.Int63n(int64(4 * time.Second)))
			case 4:
				return time.Duration(rng.Int63n(int64(5 * time.Minute)))
			case 5:
				return time.Duration(rng.Int63n(int64(6 * time.Hour)))
			case 6:
				return spanTop + time.Duration(rng.Int63n(int64(4*spanTop)))
			default:
				return 250*time.Millisecond + time.Duration(rng.Int63n(int64(10*time.Second)))
			}
		}
		earliest := func() (time.Duration, int) {
			best, live := time.Duration(0), 0
			for i := range rts {
				if rts[i].armed {
					if live == 0 || rts[i].deadline < best {
						best = rts[i].deadline
					}
					live++
				}
			}
			return best, live
		}
		next := func() (time.Duration, bool) {
			at, ok := w.Next()
			want, live := earliest()
			if ok != (live > 0) || w.Len() != live {
				t.Fatalf("trial %d: Next ok=%v, Len=%d, reference holds %d", trial, ok, w.Len(), live)
			}
			if ok && (at > want || at < w.Now()) {
				t.Fatalf("trial %d: Next=%v outside [now %v, earliest deadline %v]", trial, at, w.Now(), want)
			}
			return at, ok
		}
		step := func() bool {
			at, ok := next()
			if !ok {
				return false
			}
			w.Advance(at)
			if at2, ok := next(); ok && at2 <= at {
				t.Fatalf("trial %d: anchor loop stuck: Next=%v after Advance(%v)", trial, at2, at)
			}
			return true
		}

		// Crowd one coarse slot: the deadlines share a single
		// level-2 bucket, several seconds out.
		sh := shift(2)
		base := time.Duration(((uint64(w.Now()+10*time.Second) >> sh) + 1) << sh)
		for i := 0; i < crowd; i++ {
			arm(&rts[i], base+time.Duration(rng.Int63n(int64(1)<<sh)))
		}
		for op := 0; op < ops; op++ {
			rt := &rts[rng.Intn(n)]
			switch r := rng.Intn(10); {
			case r < 4:
				arm(rt, w.Now()+delay()) // arms, or re-arms a pending timer
			case r < 6:
				w.Cancel(&rt.tm)
				rt.armed = false
			case r < 7:
				next()
			default:
				step()
			}
		}
		live := w.Len()
		steps := 0
		for step() {
			steps++
			// Each step fires a timer or cascades a slot one level
			// down; a parked timer re-parks once per top-level span.
			if steps > (numLevels+6)*live {
				t.Fatalf("trial %d: drain of %d timers exceeded %d steps", trial, live, steps)
			}
		}
		if w.Len() != 0 {
			t.Fatalf("trial %d: %d timers left after drain", trial, w.Len())
		}
		for i := range rts {
			if rts[i].armed {
				t.Fatalf("trial %d: timer %d never fired (deadline %v)", trial, i, rts[i].deadline)
			}
		}
		for i, f := range fires {
			if f.at != f.deadline {
				t.Fatalf("trial %d: fire %d at %v, deadline %v", trial, i, f.at, f.deadline)
			}
			if i == 0 {
				continue
			}
			p := fires[i-1]
			if f.deadline < p.deadline {
				t.Fatalf("trial %d: fire %d (deadline %v) after a later deadline %v", trial, i, f.deadline, p.deadline)
			}
			if f.deadline == p.deadline && f.armedAt == p.armedAt && f.seq < p.seq {
				t.Fatalf("trial %d: same-deadline timers armed at %v fired out of arm order", trial, f.armedAt)
			}
		}
		if len(fires) < crowd {
			t.Fatalf("trial %d: only %d fires", trial, len(fires))
		}
	}
}

// The current slot of a level also holds wrap-around entries a whole
// level span out. Next must not take them for the level's earliest
// (a later slot may hold sooner deadlines), and collect must not chase
// survivors that re-place into the slot being drained.
func TestWrapAroundSlot(t *testing.T) {
	for l := 0; l < 2; l++ {
		r := newRec()
		r.w.Advance(time.Duration(1)<<shift(l) + 1) // unaligned clock
		span := time.Duration(uint64(numSlots) << shift(l))
		var wrapA, wrapB, soon Timer
		r.w.Arm(&wrapA, r.w.Now()+span-1)
		r.w.Arm(&wrapB, r.w.Now()+span-1)
		r.w.Arm(&soon, r.w.Now()+time.Duration(1)<<shift(l)+3)
		if int(wrapA.level) != l || int(wrapA.slot) != int(uint64(r.w.Now())>>shift(l))&slotMask {
			t.Fatalf("level %d setup: wrap timer at level %d slot %d, want the current slot", l, wrapA.level, wrapA.slot)
		}
		if at, _ := r.w.Next(); at > soon.Deadline() {
			t.Fatalf("level %d: Next=%v skipped past the sooner deadline %v", l, at, soon.Deadline())
		}
		r.w.Advance(r.w.Now() + 1) // wrap survivors re-place into the drained slot
		for r.w.Len() > 0 {
			at, _ := r.w.Next()
			r.w.Advance(at)
		}
		if len(r.fired) != 3 || r.fired[0] != &soon || r.ats[0] != soon.Deadline() || r.ats[2] != wrapB.Deadline() {
			t.Fatalf("level %d: fired %d timers at %v", l, len(r.fired), r.ats)
		}
	}
}
