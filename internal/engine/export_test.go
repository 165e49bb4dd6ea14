package engine

import (
	"time"

	"vids/internal/sim"
	"vids/internal/sipmsg"
	"vids/internal/trace"
)

// Test-only handles on the synthetic-trace generator for the external
// engine_test package. Its tests drive the pool through the ingress
// tier, which imports this package, so they cannot live inside it.

// SynthGen accumulates a hand-built trace.
type SynthGen = synthGen

// Dialog is one synthetic call's endpoints and messages.
type Dialog = dialog

var (
	NewDialog = newDialog
	RTPBytes  = rtpBytes
	RTCPBytes = rtcpBytes
)

func (g *synthGen) Add(at time.Duration, proto sim.Proto, from, to sim.Addr, payload []byte) {
	g.add(at, proto, from, to, payload)
}

func (g *synthGen) Entries() []trace.Entry { return g.entries }

func (g *synthGen) BenignCall(i int, start time.Duration, n int, hangUp bool) *Dialog {
	return g.benignCall(i, start, n, hangUp)
}

func (d *dialog) Invite() *sipmsg.Message { return d.inv }
func (d *dialog) OK() *sipmsg.Message     { return d.ok }
func (d *dialog) Ack() *sipmsg.Message    { return d.ack() }
func (d *dialog) Bye() *sipmsg.Message    { return d.bye() }
func (d *dialog) CallerAddr() sim.Addr    { return d.callerAddr }
func (d *dialog) CalleeAddr() sim.Addr    { return d.calleeAddr }

// CallerMedia is where the callee's stream lands (the caller's SDP);
// CalleeMedia is where the caller's stream lands.
func (d *dialog) CallerMedia() sim.Addr { return d.callerMed }
func (d *dialog) CalleeMedia() sim.Addr { return d.calleeMed }
