package ids

import (
	"testing"
	"time"

	"vids/internal/sim"
	"vids/internal/timerwheel"
)

// The wheel's clock lags the simulator between anchor fires, so the
// coarse bucket Next reports for a fresh timer can start before
// sim.Now(). The anchor must still land at or after the present: an
// anchor armed in the past runs at Now with anchorAt ≠ Now, is
// ignored, and would stall every timer behind it.
func TestWheelClockAnchorAfterSimulatorRanAhead(t *testing.T) {
	s := sim.New(1)
	var fired []time.Duration
	wc := newWheelClock(s, func(*timerwheel.Timer) { fired = append(fired, s.Now()) })
	var tm timerwheel.Timer
	// 23 s out from the wheel's clock (still 0) the deadline parks on a
	// level whose bucket starts at ~21.47 s — before the 22 s instant
	// at which the simulator arms it.
	const armAt, after = 22 * time.Second, time.Second
	s.At(armAt, func() {
		wc.arm(&tm, after)
		if next, _ := wc.wheel.Next(); next >= s.Now() {
			t.Errorf("setup: Next=%v is not in the past of %v", next, s.Now())
		}
	})
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != armAt+after {
		t.Fatalf("timer fired at %v, want once at %v", fired, armAt+after)
	}
}
