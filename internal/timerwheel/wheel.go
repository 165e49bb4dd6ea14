// Package timerwheel implements a hierarchical timer wheel over a
// virtual clock. It backs the IDS call-lifecycle timers — Figure 5's
// timer T, the RTCP BYE grace period, post-close eviction linger and
// the idle sweep — replacing one heap-allocated closure per
// sim.Schedule call with intrusive, pre-allocated timer records:
// arming, re-arming and cancelling are O(1) and allocation-free.
//
// Entries keep their exact deadline; slots only bucket them for cheap
// scanning. Advance(now) therefore fires timers at precisely the
// deadline they were armed for (no tick quantization), which is what
// lets the online engine keep byte-identical alert parity with the
// sequential replay. Expiry order is per-slot FIFO, levels low to
// high — under the engine's anchor discipline every batch of expiries
// shares one deadline, so this matches the simulator's
// schedule-order tie-break.
//
// Next, which the anchor discipline calls on every arm, costs
// O(numLevels) plus one finest-level slot, whatever the number of
// armed timers: it is exact on the finest level and reports the start
// of the earliest occupied bucket on coarser ones. A wake-up at a
// bucket start cascades that bucket one level finer, so a timer
// passes through at most numLevels slots before it fires (a deadline
// parked beyond the top level re-parks once per top-level span).
package timerwheel

import (
	"math"
	"math/bits"
	"time"
)

const (
	// tickBits sizes the finest bucket at 2^20 ns ≈ 1.05 ms. Deadlines
	// stay exact; the tick only bounds how many entries share a slot.
	tickBits  = 20
	slotBits  = 6
	numSlots  = 1 << slotBits
	slotMask  = numSlots - 1
	numLevels = 5 // span 2^(20+5·6) ns ≈ 13 days of virtual time
)

func shift(level int) uint { return uint(tickBits + level*slotBits) }

// Timer is one schedulable entry. Embed it in the owning object (a
// call monitor, a flood window) so arming never allocates; the public
// fields let one wheel-wide callback dispatch without closures. The
// zero value is an unarmed timer.
type Timer struct {
	deadline time.Duration
	next     *Timer
	prev     *Timer
	wheel    *Wheel // non-nil while armed
	level    uint8
	slot     uint8
	// expiring marks a timer unlinked by collect but not yet fired, so
	// an expiry callback cancelling (or re-arming) a sibling timer in
	// the same batch reliably suppresses its pending fire.
	expiring bool

	// Kind discriminates what the expiry means; Owner points back at
	// the owning object; Gen snapshots the owner's generation counter
	// at arm time so an expiry for a recycled owner can be ignored.
	Kind  uint8
	Gen   uint32
	Owner any
}

// Deadline reports the armed deadline (meaningless when unarmed).
func (t *Timer) Deadline() time.Duration { return t.deadline }

// Armed reports whether the timer is currently queued on a wheel.
func (t *Timer) Armed() bool { return t.wheel != nil }

type slotList struct {
	head *Timer
	tail *Timer
}

// Wheel is a hierarchical timer wheel. Not safe for concurrent use;
// each engine shard drives its own wheel from its virtual clock.
type Wheel struct {
	fire     func(*Timer)
	now      time.Duration
	slots    [numLevels][numSlots]slotList
	occupied [numLevels]uint64
	count    int
	expired  []*Timer // reusable collect buffer
}

// New returns an empty wheel whose clock starts at zero. fire is
// invoked for every expired timer during Advance.
func New(fire func(*Timer)) *Wheel {
	return &Wheel{fire: fire}
}

// Now reports the wheel's clock (the instant of the last Advance).
func (w *Wheel) Now() time.Duration { return w.now }

// Len reports how many timers are armed.
func (w *Wheel) Len() int { return w.count }

// Arm schedules t to fire at the absolute virtual deadline. Re-arming
// a pending timer moves it. Deadlines in the past are clamped to the
// present and fire on the next Advance.
//
//vids:noalloc armed on every dialog transition; intrusive links only
func (w *Wheel) Arm(t *Timer, deadline time.Duration) {
	if t.wheel != nil {
		t.wheel.unlink(t)
	}
	if deadline < w.now {
		deadline = w.now
	}
	t.deadline = deadline
	w.place(t, w.now)
	w.count++
}

// Cancel removes t from the wheel (or suppresses its pending fire
// when it already expired in the current Advance batch).
//
//vids:noalloc cancelled on every dialog transition; intrusive links only
func (w *Wheel) Cancel(t *Timer) {
	t.expiring = false
	if t.wheel == nil {
		return
	}
	t.wheel.unlink(t)
}

// place links t into the slot covering its deadline, choosing the
// lowest level whose 64-slot window (relative to now) contains it.
func (w *Wheel) place(t *Timer, now time.Duration) {
	delta := uint64(t.deadline - now)
	level := numLevels - 1
	for l := 0; l < numLevels; l++ {
		if delta>>shift(l) < numSlots {
			level = l
			break
		}
	}
	// Deadlines beyond the top level's span park in its furthest
	// bucket; they cascade toward exactness as the clock approaches.
	pos := uint64(t.deadline)
	if level == numLevels-1 {
		if max := uint64(now) + (uint64(numSlots)<<shift(level) - 1); pos > max {
			pos = max
		}
	}
	slot := (pos >> shift(level)) & slotMask
	t.level = uint8(level)
	t.slot = uint8(slot)
	t.wheel = w
	ls := &w.slots[level][slot]
	t.prev = ls.tail
	t.next = nil
	if ls.tail != nil {
		ls.tail.next = t
	} else {
		ls.head = t
	}
	ls.tail = t
	w.occupied[level] |= 1 << slot
}

// unlink removes t from its slot list and clears its armed marker.
func (w *Wheel) unlink(t *Timer) {
	ls := &w.slots[t.level][t.slot]
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		ls.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		ls.tail = t.prev
	}
	if ls.head == nil {
		w.occupied[t.level] &^= 1 << uint64(t.slot)
	}
	t.next, t.prev, t.wheel = nil, nil, nil
	w.count--
}

// Next reports a lower bound on the earliest pending deadline. The
// bound is exact on the finest level; on a coarser level it is the
// start instant of the earliest occupied slot, so Next never walks
// the thousands of entries a coarse slot can hold — its cost is
// O(numLevels) plus one finest-level slot, whatever the number of
// armed timers. The current slot of each level is walked exactly: it
// holds only entries due within the current tick and wrap-around
// entries a whole level span out, both few.
//
// The bound errs only toward earliness, so a caller re-arming a
// wake-up off Next never sleeps past a real deadline. Advancing to a
// coarse slot's start cascades that slot to finer levels, after which
// Next reports a strictly later instant: driving the wheel with
// Advance(Next()) moves each timer through at most numLevels slots
// before it fires (plus one re-park per top-level span for a deadline
// parked beyond it).
func (w *Wheel) Next() (time.Duration, bool) {
	if w.count == 0 {
		return 0, false
	}
	best := time.Duration(math.MaxInt64)
	for l := 0; l < numLevels; l++ {
		occ := w.occupied[l]
		if occ == 0 {
			continue
		}
		sh := shift(l)
		tick := uint64(w.now) >> sh
		cur := int(tick & slotMask)
		if occ&(1<<cur) != 0 {
			best = min(best, w.slotMin(l, cur))
			occ &^= 1 << cur
			if occ == 0 {
				continue
			}
		}
		off := bits.TrailingZeros64(bits.RotateLeft64(occ, -cur))
		if l == 0 {
			best = min(best, w.slotMin(l, (cur+off)&slotMask))
		} else {
			best = min(best, time.Duration((tick+uint64(off))<<sh))
		}
	}
	return best, true
}

// slotMin reports the earliest deadline in an occupied slot.
func (w *Wheel) slotMin(level, slot int) time.Duration {
	t := w.slots[level][slot].head
	best := t.deadline
	for t = t.next; t != nil; t = t.next {
		if t.deadline < best {
			best = t.deadline
		}
	}
	return best
}

// Advance moves the clock to now and fires every timer whose deadline
// is at or before it, including timers armed by expiry callbacks for
// instants at or before now. The clock never moves backwards.
//
//vids:noalloc runs on the timer drain of every simulated instant
func (w *Wheel) Advance(now time.Duration) {
	if now < w.now {
		return
	}
	for {
		w.collect(now)
		if len(w.expired) == 0 {
			break
		}
		for i, t := range w.expired {
			w.expired[i] = nil
			if !t.expiring || t.wheel != nil {
				// Cancelled or re-armed by an earlier callback in
				// this batch.
				t.expiring = false
				continue
			}
			t.expiring = false
			w.fire(t) //vids:alloc-ok expiry dispatch; the IDS fire path is its own noalloc root
		}
		w.expired = w.expired[:0]
	}
}

// collect unlinks every due timer into w.expired (slot FIFO order,
// levels low to high), cascades surviving coarse entries toward finer
// levels and advances the clock.
func (w *Wheel) collect(now time.Duration) {
	w.expired = w.expired[:0]
	for l := 0; l < numLevels; l++ {
		if w.occupied[l] == 0 {
			continue
		}
		sh := shift(l)
		cur := int64(uint64(w.now) >> sh)
		end := int64(uint64(now) >> sh)
		if end-cur >= numSlots {
			cur = end - numSlots + 1
		}
		for tk := cur; tk <= end; tk++ {
			slot := tk & slotMask
			if w.occupied[l]&(1<<slot) == 0 {
				continue
			}
			// Detach the whole slot first: a survivor may re-place
			// into this very slot (the wrap-around case), and must
			// not be visited again.
			t := w.slots[l][slot].head
			w.slots[l][slot] = slotList{}
			w.occupied[l] &^= 1 << slot
			for t != nil {
				next := t.next
				if t.deadline <= now {
					t.next, t.prev, t.wheel = nil, nil, nil
					w.count--
					t.expiring = true
					w.expired = append(w.expired, t)
				} else {
					// Survivor: re-place relative to the new now,
					// which moves a passed (or current) coarse
					// bucket's entry to a finer level.
					w.place(t, now)
				}
				t = next
			}
		}
	}
	w.now = now
}
