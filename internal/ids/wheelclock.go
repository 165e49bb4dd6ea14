package ids

import (
	"time"

	"vids/internal/sim"
	"vids/internal/timerwheel"
)

// wheelClock couples a timer wheel to the simulator: the wheel holds
// the intrusive timer records (arming and cancelling are O(1) and
// allocation-free), and a single simulator "anchor" event — re-armed
// at the wheel's earliest pending deadline — advances the wheel when
// virtual time reaches it. Arming an earlier deadline arms a fresh
// anchor; superseded anchors fire as no-op Advances and re-sync, so
// no cancellation bookkeeping is needed on the simulator side. The
// stored anchorFn and the simulator's event free list make the whole
// arm→fire→re-arm cycle allocation-free in steady state.
type wheelClock struct {
	sim   *sim.Simulator
	wheel *timerwheel.Wheel

	anchorAt    time.Duration
	anchorArmed bool
	anchorFn    func()
}

func newWheelClock(s *sim.Simulator, fire func(*timerwheel.Timer)) *wheelClock {
	wc := &wheelClock{sim: s, wheel: timerwheel.New(fire)}
	wc.anchorFn = func() {
		// Only the tracked anchor advances the wheel. A superseded
		// anchor (an earlier deadline re-anchored past it, moving
		// anchorAt) must do nothing — every wheel deadline is at or
		// after the tracked anchorAt, so nothing can be due here, and
		// re-arming from a stale anchor would breed one duplicate
		// simulator event per firing, growing the event heap without
		// bound.
		if !wc.anchorArmed || wc.anchorAt != wc.sim.Now() {
			return
		}
		wc.anchorArmed = false
		wc.wheel.Advance(wc.sim.Now())
		wc.sync()
	}
	return wc
}

// arm schedules t to fire after the given delay of virtual time.
func (wc *wheelClock) arm(t *timerwheel.Timer, after time.Duration) {
	wc.wheel.Arm(t, wc.sim.Now()+after)
	wc.sync()
}

// cancel removes t (or suppresses its pending fire mid-batch).
func (wc *wheelClock) cancel(t *timerwheel.Timer) { wc.wheel.Cancel(t) }

// sync makes sure an anchor event is armed at or before the wheel's
// earliest pending deadline. Next may only underestimate, so a wake-up
// armed off it never sleeps past a real deadline — at worst the
// anchor fires early, advances past nothing (or cascades a coarse
// slot), and re-arms closer. The wheel's clock lags the simulator
// between Advances, so Next may report an instant already in the
// past; the anchor is clamped to the present, because an anchor armed
// in the past runs at Now with anchorAt ≠ Now, is ignored, and would
// leave every timer stalled behind it.
func (wc *wheelClock) sync() {
	next, ok := wc.wheel.Next()
	if !ok {
		return
	}
	if now := wc.sim.Now(); next < now {
		next = now
	}
	if wc.anchorArmed && wc.anchorAt <= next {
		return
	}
	wc.anchorArmed = true
	wc.anchorAt = next
	wc.sim.At(next, wc.anchorFn)
}
