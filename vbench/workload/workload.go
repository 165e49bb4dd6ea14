// Package workload generates the benchmark's seeded packet traces.
//
// Each workload is a time-ordered list of wire-format packets built
// from the sipmsg, sdp and rtp constructors, plus the multiset of
// alerts a correct detector must raise on it. Every expected alert
// names the packet that completes its evidence, so the benchmark can
// time detection from the moment that packet was due. The same
// (workload, seed, duration) always yields byte-identical packets.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"vids/internal/ids"
	"vids/internal/rtp"
	"vids/internal/sdp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
)

// Workload names.
const (
	CallChurn   = "call_churn"
	MediaSteady = "media_steady"
	UnderAttack = "under_attack"
)

// Names lists the workloads in a stable order.
func Names() []string { return []string{CallChurn, MediaSteady, UnderAttack} }

// Offered-load constants. They are fixed properties of the workloads,
// never derived from a measured capacity.
const (
	churnCallsPerSec  = 1000 // call_churn arrival rate
	churnRTPPerDir    = 3    // RTP packets each way in a short call
	steadyCalls       = 1000 // media_steady concurrent calls
	attackLongCalls   = 300  // under_attack long-lived media calls
	attackChurnPerSec = 150  // under_attack short-call arrival rate
	rtcpEvery         = 5 * time.Second
	sentinelEvery     = 250 * time.Millisecond // spoofed-BYE canaries in the benign mixes
	mediaTick         = 20 * time.Millisecond  // G.729 packetization

	// calleeAORs is the callee population the Zipf draw ranges over.
	calleeAORs = 50000
	zipfS      = 0.9
	// aorCap bounds one callee's INVITEs within aorCapWindow, well
	// under the Figure 4 threshold (20 per second), so the benign mix
	// never trips the flood detector however hot its Zipf head is.
	aorCap       = 12
	aorCapWindow = 1200 * time.Millisecond
)

// Detector parameters the expected-alert model mirrors. They are the
// ids.DefaultConfig values the benchmark runs with.
var detector = ids.DefaultConfig()

// Key identifies an alert for multiset comparison: its type and the
// call it concerns, or its target when it is not call-scoped.
type Key struct {
	Type ids.AlertType
	ID   string
}

func (k Key) String() string { return string(k.Type) + "/" + k.ID }

// KeyOf projects an alert onto its multiset key.
func KeyOf(a ids.Alert) Key {
	if a.CallID != "" {
		return Key{Type: a.Type, ID: a.CallID}
	}
	return Key{Type: a.Type, ID: a.Target}
}

// Expect is one alert the trace must raise. Done indexes the packet
// whose arrival completes the evidence.
type Expect struct {
	Key  Key
	Done int
}

// Trace is one generated workload.
type Trace struct {
	Name     string
	Seed     uint64
	Duration time.Duration
	Packets  []sim.Packet    // time-ordered; Payload is the wire []byte
	At       []time.Duration // trace time of each packet
	Expected []Expect        // sorted by Done
	// Resident is the number of calls whose monitors are still held
	// at the end of the trace: dialogs not yet closed for longer than
	// the close linger, plus half-open flood INVITEs.
	Resident int
	// Calls counts the dialogs started (benign and attack INVITEs).
	Calls int
}

// Count reports the number of packets of one protocol.
func (t *Trace) Count(p sim.Proto) int {
	n := 0
	for i := range t.Packets {
		if t.Packets[i].Proto == p {
			n++
		}
	}
	return n
}

// ExpectedKeys returns the expected alert multiset.
func (t *Trace) ExpectedKeys() map[Key]int {
	m := make(map[Key]int, len(t.Expected))
	for _, e := range t.Expected {
		m[e.Key]++
	}
	return m
}

// Generate builds the named workload for the given seed, spanning dur
// of trace time.
func Generate(name string, seed uint64, dur time.Duration) (*Trace, error) {
	if dur < 2*time.Second {
		return nil, fmt.Errorf("workload: duration %v is below the 2s minimum", dur)
	}
	g := &gen{
		rng:   rand.New(rand.NewPCG(seed, 0x76696473)),
		dur:   dur,
		aorAt: make(map[int][]time.Duration),
	}
	g.zipf = zipfCDF(calleeAORs, zipfS)
	switch name {
	case CallChurn:
		g.churn(churnCallsPerSec, 0, dur-time.Second)
		for at := 500 * time.Millisecond; at+time.Second < dur; at += sentinelEvery {
			g.sentinelCall(at)
		}
	case MediaSteady:
		calls := g.longCalls(steadyCalls, 800*time.Millisecond)
		g.spoofByes(calls, 1500*time.Millisecond, sentinelEvery)
	case UnderAttack:
		calls := g.longCalls(attackLongCalls, 500*time.Millisecond)
		g.churn(attackChurnPerSec, 0, dur-time.Second)
		n := len(calls) / 2
		g.spoofByes(calls[:n], time.Second, 500*time.Millisecond)
		g.rtpFloods(calls[n:], 1200*time.Millisecond, time.Second)
		g.inviteFloods(time.Second, 1500*time.Millisecond)
		g.reflections(1750*time.Millisecond, 1500*time.Millisecond)
		g.spam(1300*time.Millisecond, time.Second)
	default:
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
	}
	g.streamRest()
	return g.finish(name, seed), nil
}

// event is one packet before ordering; mark, when non-zero, names it
// as the completion of the expectations registered under that mark.
type event struct {
	at   time.Duration
	ord  int
	pkt  sim.Packet
	mark int
}

type gen struct {
	rng    *rand.Rand
	dur    time.Duration
	events []event
	marks  int
	expect []pendingExpect
	zipf   []float64
	aorAt  map[int][]time.Duration

	long      []*longCall // established calls awaiting their media
	mediaSlot int         // next media endpoint (host, port) pair
	callSeq   int         // next dialog number
	resident  int
	calls     int
}

type pendingExpect struct {
	key  Key
	mark int
}

func (g *gen) add(at time.Duration, proto sim.Proto, from, to sim.Addr, payload []byte) int {
	g.events = append(g.events, event{
		at: at, ord: len(g.events),
		pkt: sim.Packet{From: from, To: to, Proto: proto, Size: len(payload), Payload: payload},
	})
	return len(g.events) - 1
}

// expectAt registers an expected alert completed by event ev.
func (g *gen) expectAt(ev int, key Key) {
	if g.events[ev].mark == 0 {
		g.marks++
		g.events[ev].mark = g.marks
	}
	g.expect = append(g.expect, pendingExpect{key: key, mark: g.events[ev].mark})
}

func (g *gen) finish(name string, seed uint64) *Trace {
	sort.Slice(g.events, func(i, j int) bool {
		a, b := &g.events[i], &g.events[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.ord < b.ord
	})
	t := &Trace{
		Name: name, Seed: seed, Duration: g.dur,
		Packets:  make([]sim.Packet, len(g.events)),
		At:       make([]time.Duration, len(g.events)),
		Resident: g.resident,
		Calls:    g.calls,
	}
	markIdx := make(map[int]int, g.marks)
	for i := range g.events {
		t.Packets[i] = g.events[i].pkt
		t.At[i] = g.events[i].at
		if m := g.events[i].mark; m != 0 {
			markIdx[m] = i
		}
	}
	for _, p := range g.expect {
		t.Expected = append(t.Expected, Expect{Key: p.key, Done: markIdx[p.mark]})
	}
	sort.SliceStable(t.Expected, func(i, j int) bool { return t.Expected[i].Done < t.Expected[j].Done })
	g.events = nil
	return t
}

// end is where open-ended media stops: late enough to run to the end
// of the trace, early enough that jitter and skew keep it inside.
func (g *gen) end() time.Duration { return g.dur - 10*time.Millisecond }

// jitter returns a uniform duration in [lo, hi).
func (g *gen) jitter(lo, hi time.Duration) time.Duration {
	return lo + time.Duration(g.rng.Int64N(int64(hi-lo)))
}

func (g *gen) hex() string { return fmt.Sprintf("%016x", g.rng.Uint64()) }

// zipfCDF returns the cumulative distribution of a Zipf(s) law over n
// ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// callee draws a callee AOR index for an INVITE at time at: Zipf, with
// any draw that would push one AOR past aorCap within aorCapWindow
// redrawn (after a few Zipf tries, uniformly from the tail).
func (g *gen) callee(at time.Duration) int {
	for try := 0; ; try++ {
		var k int
		if try < 8 {
			k = sort.SearchFloat64s(g.zipf, g.rng.Float64())
			if k >= calleeAORs {
				k = calleeAORs - 1
			}
		} else {
			k = calleeAORs/2 + g.rng.IntN(calleeAORs/2)
		}
		times := g.aorAt[k]
		for len(times) > 0 && at-times[0] >= aorCapWindow {
			times = times[1:]
		}
		if len(times) < aorCap {
			g.aorAt[k] = append(times, at)
			return k
		}
		g.aorAt[k] = times
	}
}

// dialog is one call's endpoints and its pre-built signaling.
type dialog struct {
	callID       string
	caller       sim.Addr // signaling endpoints
	callee       sim.Addr
	callerMed    sim.Addr // where the callee's stream lands
	calleeMed    sim.Addr // where the caller's stream lands
	callerSSRC   uint32
	calleeSSRC   uint32
	inv, ok, ack *sipmsg.Message
	bye          *sipmsg.Message
	seqA, seqB   uint16 // next RTP sequence numbers per direction
}

// mediaEndpoint hands out a media (host, port) pair no other call in
// the trace uses; RTCP rides port+1.
func (g *gen) mediaEndpoint(domain string) sim.Addr {
	s := g.mediaSlot
	g.mediaSlot++
	return sim.Addr{Host: fmt.Sprintf("m%d.%s", s/20000, domain), Port: 10000 + 2*(s%20000)}
}

func (g *gen) newDialog(at time.Duration) *dialog {
	i := g.callSeq
	g.callSeq++
	g.calls++
	aor := g.callee(at)
	d := &dialog{
		callID:     fmt.Sprintf("%s-%d@a.example.com", g.hex(), i),
		caller:     sim.Addr{Host: fmt.Sprintf("ua%d.a.example.com", g.rng.IntN(500)), Port: 5060},
		callee:     sim.Addr{Host: fmt.Sprintf("ua%d.b.example.com", aor%500), Port: 5060},
		callerMed:  g.mediaEndpoint("a.example.com"),
		calleeMed:  g.mediaEndpoint("b.example.com"),
		callerSSRC: g.rng.Uint32(),
		calleeSSRC: g.rng.Uint32(),
		seqA:       uint16(g.rng.IntN(30000)),
		seqB:       uint16(g.rng.IntN(30000)),
	}
	callerUser := fmt.Sprintf("c%d", g.rng.IntN(calleeAORs))
	calleeUser := fmt.Sprintf("u%d", aor)

	inv := sipmsg.NewRequest(sipmsg.INVITE, sipmsg.URI{User: calleeUser, Host: "b.example.com"})
	inv.Via = []sipmsg.Via{{Transport: "UDP", Host: d.caller.Host, Port: 5060,
		Params: map[string]string{"branch": "z9hG4bK" + g.hex()}}}
	inv.From = sipmsg.NameAddr{URI: sipmsg.URI{User: callerUser, Host: "a.example.com"}}.WithTag(g.hex()[:10])
	inv.To = sipmsg.NameAddr{URI: sipmsg.URI{User: calleeUser, Host: "b.example.com"}}
	contact := sipmsg.NameAddr{URI: sipmsg.URI{User: callerUser, Host: d.caller.Host}}
	inv.Contact = &contact
	inv.CallID = d.callID
	inv.CSeq = sipmsg.CSeq{Seq: 1, Method: sipmsg.INVITE}
	inv.ContentType = "application/sdp"
	inv.Body = sdp.New(callerUser, d.callerMed.Host, d.callerMed.Port, sdp.PayloadG729).Marshal()
	d.inv = inv

	ok := sipmsg.NewResponse(inv, sipmsg.StatusOK)
	ok.To = ok.To.WithTag(g.hex()[:10])
	okContact := sipmsg.NameAddr{URI: sipmsg.URI{User: calleeUser, Host: d.callee.Host}}
	ok.Contact = &okContact
	ok.ContentType = "application/sdp"
	ok.Body = sdp.New(calleeUser, d.calleeMed.Host, d.calleeMed.Port, sdp.PayloadG729).Marshal()
	d.ok = ok

	d.ack = d.inDialog(sipmsg.ACK, 1)
	d.bye = d.inDialog(sipmsg.BYE, 2)
	return d
}

func (d *dialog) inDialog(method sipmsg.Method, seq uint32) *sipmsg.Message {
	m := sipmsg.NewRequest(method, sipmsg.URI{User: d.ok.To.URI.User, Host: d.callee.Host})
	m.Via = d.inv.Via
	m.From = d.inv.From
	m.To = d.ok.To
	m.CallID = d.callID
	m.CSeq = sipmsg.CSeq{Seq: seq, Method: method}
	return m
}

// setup emits INVITE / 200 / ACK starting at at and returns when the
// media may start.
func (g *gen) setup(d *dialog, at time.Duration) time.Duration {
	g.add(at, sim.ProtoSIP, d.caller, d.callee, d.inv.Bytes())
	at += g.jitter(15*time.Millisecond, 45*time.Millisecond)
	g.add(at, sim.ProtoSIP, d.callee, d.caller, d.ok.Bytes())
	at += g.jitter(5*time.Millisecond, 20*time.Millisecond)
	g.add(at, sim.ProtoSIP, d.caller, d.callee, d.ack.Bytes())
	return at + g.jitter(5*time.Millisecond, 20*time.Millisecond)
}

// hangup emits BYE / 200 from the caller's side at at.
func (g *gen) hangup(d *dialog, at time.Duration) {
	g.add(at, sim.ProtoSIP, d.caller, d.callee, d.bye.Bytes())
	g.add(at+g.jitter(10*time.Millisecond, 30*time.Millisecond), sim.ProtoSIP,
		d.callee, d.caller, sipmsg.NewResponse(d.bye, sipmsg.StatusOK).Bytes())
}

// Stream directions: a is the caller's stream (landing on the callee's
// advertised address), b the callee's.
const (
	dirA = iota
	dirB
)

// rtpPkt emits the next packet of one direction at at.
func (g *gen) rtpPkt(d *dialog, dir int, at time.Duration) int {
	if dir == dirA {
		d.seqA++
		return g.add(at, sim.ProtoRTP, sim.Addr{Host: d.caller.Host, Port: d.callerMed.Port},
			d.calleeMed, rtpBytes(d.callerSSRC, d.seqA))
	}
	d.seqB++
	return g.add(at, sim.ProtoRTP, sim.Addr{Host: d.callee.Host, Port: d.calleeMed.Port},
		d.callerMed, rtpBytes(d.calleeSSRC, d.seqB))
}

// stream emits one direction every tick over [from, to), each packet
// jittered by up to 2 ms, and returns the packets' event indices.
func (g *gen) stream(d *dialog, dir int, from, to, tick time.Duration) []int {
	var out []int
	for at := from; at < to; at += tick {
		out = append(out, g.rtpPkt(d, dir, at+g.jitter(0, 2*time.Millisecond)))
	}
	return out
}

// media emits both directions at the G.729 cadence over [from, to),
// the callee's stream trailing the caller's by a per-call skew, and
// returns the time of the last packet.
func (g *gen) media(d *dialog, from, to time.Duration) time.Duration {
	skew := g.jitter(500*time.Microsecond, 5*time.Millisecond)
	g.stream(d, dirA, from, to, mediaTick)
	b := g.stream(d, dirB, from+skew, to+skew, mediaTick)
	return g.events[b[len(b)-1]].at
}

// rtcp emits a sender report each way every rtcpEvery over [from, to).
func (g *gen) rtcp(d *dialog, from, to time.Duration) {
	for at := from + g.jitter(time.Second, rtcpEvery); at < to; at += rtcpEvery {
		g.add(at, sim.ProtoRTCP,
			sim.Addr{Host: d.caller.Host, Port: d.callerMed.Port + 1},
			sim.Addr{Host: d.calleeMed.Host, Port: d.calleeMed.Port + 1}, rtcpSR(d.callerSSRC))
		g.add(at+time.Millisecond, sim.ProtoRTCP,
			sim.Addr{Host: d.callee.Host, Port: d.calleeMed.Port + 1},
			sim.Addr{Host: d.callerMed.Host, Port: d.callerMed.Port + 1}, rtcpSR(d.calleeSSRC))
	}
}

// rtpBytes marshals a 20-byte G.729 frame; the timestamp advances 160
// samples per sequence step.
func rtpBytes(ssrc uint32, seq uint16) []byte {
	p := &rtp.Packet{PayloadType: sdp.PayloadG729, Sequence: seq,
		Timestamp: uint32(seq) * 160, SSRC: ssrc, Payload: make([]byte, 20)}
	raw, err := p.Marshal()
	if err != nil {
		panic(err) // fixed header fields cannot fail to marshal
	}
	return raw
}

func rtcpSR(ssrc uint32) []byte {
	raw, err := (&rtp.RTCP{Type: rtp.RTCPSenderReport, SSRC: ssrc}).Marshal()
	if err != nil {
		panic(err) // fixed header fields cannot fail to marshal
	}
	return raw
}

// shortCall emits a complete short dialog starting at at. It counts
// as resident unless its close linger expires before the trace ends.
func (g *gen) shortCall(at time.Duration) {
	d := g.newDialog(at)
	m := g.setup(d, at)
	last := g.media(d, m, m+churnRTPPerDir*mediaTick)
	bye := last + g.jitter(10*time.Millisecond, 30*time.Millisecond)
	g.hangup(d, bye)
	if bye+detector.ByeGraceT+detector.CloseLinger > g.dur {
		g.resident++
	}
}

// churn emits Poisson call arrivals at rate per second over [from, to).
func (g *gen) churn(rate float64, from, to time.Duration) {
	for at := from; ; {
		at += time.Duration(g.rng.ExpFloat64() / rate * float64(time.Second))
		if at >= to {
			return
		}
		g.shortCall(at)
	}
}

// longCall is an established call whose media runs to the end of the
// trace unless an attack takes it over (done).
type longCall struct {
	d      *dialog
	mStart time.Duration // earliest media time
	done   bool
}

// longCalls establishes n calls at uniform times within warm and
// returns them in random order. Their media is emitted later, by an
// attack helper or by streamRest.
func (g *gen) longCalls(n int, warm time.Duration) []*longCall {
	out := make([]*longCall, n)
	for i := range out {
		at := g.jitter(0, warm)
		d := g.newDialog(at)
		out[i] = &longCall{d: d, mStart: g.setup(d, at)}
		g.resident++
	}
	g.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	g.long = append(g.long, out...)
	return out
}

// streamRest runs every untouched long call's media and RTCP to the end
// of the trace.
func (g *gen) streamRest() {
	for _, c := range g.long {
		if !c.done {
			g.media(c.d, c.mStart, g.end())
			g.rtcp(c.d, c.mStart, g.end())
		}
	}
}

// sentinelCall is a short call whose BYE is spoofed: a low-rate
// detection canary inside an otherwise benign mix.
func (g *gen) sentinelCall(at time.Duration) {
	d := g.newDialog(at)
	c := &longCall{d: d, mStart: g.setup(d, at), done: true}
	g.resident++
	g.spoofBye(c, c.mStart+200*time.Millisecond+g.jitter(0, 20*time.Millisecond))
}

// spoofByes spoofs a BYE on calls[k] at start + k*every until the
// calls or the trace run out.
func (g *gen) spoofByes(calls []*longCall, start, every time.Duration) {
	for k, at := 0, start; k < len(calls) && at+time.Second < g.dur; k, at = k+1, at+every {
		c := calls[k]
		c.done = true
		g.spoofBye(c, at+g.jitter(0, 50*time.Millisecond))
	}
}

// spoofBye is Figure 5's scenario: a BYE claiming the caller's
// address tears the dialog down, in-flight media drains within the
// grace window, and then both parties keep talking. The caller's
// resumed stream is toll fraud (the BYE "sender" still talks), the
// callee's is BYE DoS (it never hung up). The first resumed packet of
// each direction completes that alert's evidence.
func (g *gen) spoofBye(c *longCall, byeAt time.Duration) {
	d := c.d
	g.media(d, c.mStart, byeAt)
	g.rtcp(d, c.mStart, byeAt)
	g.hangup(d, byeAt)
	g.media(d, byeAt, byeAt+100*time.Millisecond)
	resume := byeAt + detector.ByeGraceT + 150*time.Millisecond + g.jitter(0, 20*time.Millisecond)
	a := g.stream(d, dirA, resume, resume+5*mediaTick, mediaTick)
	b := g.stream(d, dirB, resume+time.Millisecond, resume+time.Millisecond+5*mediaTick, mediaTick)
	g.expectAt(a[0], Key{Type: ids.AlertTollFraud, ID: d.callID})
	g.expectAt(b[0], Key{Type: ids.AlertByeDoS, ID: d.callID})
}

// rtpFloods turns calls[k]'s caller stream into a flood at start +
// k*every until the calls or the trace run out.
func (g *gen) rtpFloods(calls []*longCall, start, every time.Duration) {
	for k, at := 0, start; k < len(calls) && at+2*time.Second < g.dur; k, at = k+1, at+every {
		c := calls[k]
		c.done = true
		g.rtpFlood(c, at+g.jitter(0, 50*time.Millisecond))
	}
}

// rtpFlood keeps a call's callee stream normal while its caller
// stream jumps from 50 to 250 packets per second for 1.2 s. The
// completing packet is found by running the RTP_RCVD rate guard over
// the stream: the first packet past RatePackets within RateWindow.
func (g *gen) rtpFlood(c *longCall, at time.Duration) {
	d := c.d
	g.stream(d, dirB, c.mStart, g.end(), mediaTick)
	g.rtcp(d, c.mStart, g.end())
	a := g.stream(d, dirA, c.mStart, at, mediaTick)
	a = append(a, g.stream(d, dirA, at, at+1200*time.Millisecond, 4*time.Millisecond)...)
	a = append(a, g.stream(d, dirA, at+1200*time.Millisecond, g.end(), mediaTick)...)

	win, count := g.events[a[0]].at, 1
	for _, ev := range a[1:] {
		now := g.events[ev].at
		switch {
		case now-win > detector.RTP.RateWindow:
			win, count = now, 1
		case count < detector.RTP.RatePackets:
			count++
		default:
			g.expectAt(ev, Key{Type: ids.AlertRTPFlood, ID: d.callID})
			return
		}
	}
	panic("workload: rtp flood never exceeded the rate guard")
}

// inviteFloods sends a burst of 200 unique-Call-ID INVITEs at one
// victim AOR within 0.5 s, every period. Each burst opens one Figure 4
// window, so each raises exactly one alert, on the (FloodN+1)th INVITE,
// and every flood INVITE leaves a half-open monitor behind.
func (g *gen) inviteFloods(start, period time.Duration) {
	const victimUser, victimHost = "victim", "b.example.com"
	atk := sim.Addr{Host: "atk.example.net", Port: 5060}
	proxy := sim.Addr{Host: "proxy.b.example.com", Port: 5060}
	for base := start; base+700*time.Millisecond < g.dur; base += period {
		for i := 0; i < 200; i++ {
			at := base + time.Duration(i)*2500*time.Microsecond + g.jitter(0, time.Millisecond)
			med := g.mediaEndpoint("atk.example.net")
			inv := sipmsg.NewRequest(sipmsg.INVITE, sipmsg.URI{User: victimUser, Host: victimHost})
			inv.Via = []sipmsg.Via{{Transport: "UDP", Host: atk.Host, Port: 5060,
				Params: map[string]string{"branch": "z9hG4bK" + g.hex()}}}
			inv.From = sipmsg.NameAddr{URI: sipmsg.URI{User: "prank", Host: "example.net"}}.WithTag(g.hex()[:8])
			inv.To = sipmsg.NameAddr{URI: sipmsg.URI{User: victimUser, Host: victimHost}}
			contact := sipmsg.NameAddr{URI: sipmsg.URI{User: "prank", Host: atk.Host}}
			inv.Contact = &contact
			inv.CallID = fmt.Sprintf("%s-f%d@example.net", g.hex(), g.callSeq)
			g.callSeq++
			inv.CSeq = sipmsg.CSeq{Seq: 1, Method: sipmsg.INVITE}
			inv.ContentType = "application/sdp"
			inv.Body = sdp.New("prank", med.Host, med.Port, sdp.PayloadG729).Marshal()
			ev := g.add(at, sim.ProtoSIP, atk, proxy, inv.Bytes())
			if i == detector.FloodN {
				g.expectAt(ev, Key{Type: ids.AlertInviteFlood, ID: victimUser + "@" + victimHost})
			}
			g.calls++
			g.resident++
		}
	}
}

// reflections sends a burst of 40 responses for calls the victim never
// started, within 0.4 s, every period: the DRDoS reflection signature.
// The first response of each burst is reported as a deviation, the
// (ResponseFloodN+1)th completes the reflection alert.
func (g *gen) reflections(start, period time.Duration) {
	victim := sim.Addr{Host: "reflect.b.example.com", Port: 5060}
	for base := start; base+600*time.Millisecond < g.dur; base += period {
		for i := 0; i < 40; i++ {
			at := base + time.Duration(i)*10*time.Millisecond + g.jitter(0, 3*time.Millisecond)
			fake := sipmsg.NewRequest(sipmsg.INVITE, sipmsg.URI{User: "x", Host: "b.example.com"})
			fake.Via = []sipmsg.Via{{Transport: "UDP", Host: victim.Host, Port: 5060,
				Params: map[string]string{"branch": "z9hG4bK" + g.hex()}}}
			fake.From = sipmsg.NameAddr{URI: sipmsg.URI{User: "x", Host: "b.example.com"}}.WithTag(g.hex()[:8])
			fake.To = sipmsg.NameAddr{URI: sipmsg.URI{User: "y", Host: "example.org"}}
			fake.CallID = fmt.Sprintf("%s-r%d@example.org", g.hex(), g.callSeq)
			g.callSeq++
			fake.CSeq = sipmsg.CSeq{Seq: 1, Method: sipmsg.INVITE}
			resp := sipmsg.NewResponse(fake, sipmsg.StatusOK)
			resp.To = resp.To.WithTag(g.hex()[:8])
			src := sim.Addr{Host: fmt.Sprintf("refl%d.example.org", g.rng.IntN(50)), Port: 5060}
			ev := g.add(at, sim.ProtoSIP, src, victim, resp.Bytes())
			if i == 0 {
				g.expectAt(ev, Key{Type: ids.AlertDeviation, ID: fake.CallID})
			}
			if i == detector.ResponseFloodN {
				g.expectAt(ev, Key{Type: ids.AlertDRDoS, ID: victim.Host})
			}
		}
	}
}

// spam streams RTP at a destination no SDP advertised, one new stream
// every period: 30 in-profile packets, then a sequence jump far past
// Δn and 10 more. The first packet raises the unsolicited-stream
// alert, the jump the media-spam alert.
func (g *gen) spam(start, period time.Duration) {
	for k, base := 0, start; base+time.Second < g.dur; k, base = k+1, base+period {
		src := sim.Addr{Host: fmt.Sprintf("spam%d.example.net", k), Port: 61000}
		dst := g.mediaEndpoint("open.b.example.com")
		key := string(ids.AppendMediaKey(nil, dst.Host, dst.Port))
		ssrc, seq := g.rng.Uint32(), uint16(g.rng.IntN(30000))
		for i := 0; i < 40; i++ {
			seq++
			if i == 30 {
				seq += 500
			}
			at := base + time.Duration(i)*mediaTick + g.jitter(0, 2*time.Millisecond)
			ev := g.add(at, sim.ProtoRTP, src, dst, rtpBytes(ssrc, seq))
			switch i {
			case 0:
				g.expectAt(ev, Key{Type: ids.AlertUnsolicitedRTP, ID: key})
			case 30:
				g.expectAt(ev, Key{Type: ids.AlertMediaSpam, ID: key})
			}
		}
	}
}
