// Package witness synthesizes the spec-coverage witness traces:
// hand-crafted wire-level packet sequences that fire the reachable
// EFSM transitions the attack-scenario suite never reaches (legitimate
// CANCELs, reopen/close cycles, spam absorption, stray responses, ...).
// cmd/speccover replays them under its coverage observer and writes
// them as JSONL for `vids -replay`; differential tests build them
// in-process, so no test depends on a generated file.
package witness

import (
	"fmt"
	"time"

	"vids/internal/rtp"
	"vids/internal/sdp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
	"vids/internal/trace"
)

// Trace is one named synthesized packet sequence.
type Trace struct {
	Name    string
	Entries []trace.Entry
}

// Traces builds every witness trace. Each one is a self-contained
// wire-level packet sequence against a fresh IDS; the builders below
// document which uncovered transitions they exist to fire.
func Traces() []Trace {
	return []Trace{
		{"gap-cancel-legit", buildCancelLegit()},
		{"gap-cancel-ringing", buildCancelRinging()},
		{"gap-cancel-spoofed", buildCancelSpoofed()},
		{"gap-invite-final", buildInviteFinal()},
		{"gap-teardown", buildTeardown()},
		{"gap-post-close", buildPostClose()},
		{"gap-reopen-close", buildReopenClose()},
		{"gap-codec", buildCodec()},
		{"gap-spam-absorb", buildSpamAbsorb()},
		{"gap-flood", buildFlood()},
		{"gap-spoofed-bye", buildSpoofedBye()},
		{"gap-hijack-absorb", buildHijackAbsorb()},
		{"gap-rtp-spam", buildRTPSpam()},
		{"gap-stray-response", buildStrayResponse()},
	}
}

// ---------------------------------------------------------------------------
// Packet crafting
// ---------------------------------------------------------------------------

// Shared topology of the crafted dialogs. The attacker host matches no
// stored dialog contact, so its requests fail every known-party guard.
var (
	gapProxyA   = sim.Addr{Host: "proxy.a.example.com", Port: 5060}
	gapProxyB   = sim.Addr{Host: "proxy.b.example.com", Port: 5060}
	gapAttacker = sim.Addr{Host: "attacker.example.net", Port: 5060}
)

const (
	gapSSRCCaller = 0x11
	gapSSRCCallee = 0x22
)

// tracer accumulates trace entries with explicit virtual timestamps.
type tracer struct {
	entries []trace.Entry
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func (t *tracer) add(at time.Duration, from, to sim.Addr, proto sim.Proto, raw []byte) {
	t.entries = append(t.entries, trace.Entry{
		AtNanos:  int64(at),
		Proto:    proto.String(),
		FromHost: from.Host,
		FromPort: from.Port,
		ToHost:   to.Host,
		ToPort:   to.Port,
		Size:     len(raw),
		Data:     raw,
	})
}

func (t *tracer) sip(at time.Duration, from, to sim.Addr, m *sipmsg.Message) {
	t.add(at, from, to, sim.ProtoSIP, m.Bytes())
}

func (t *tracer) rtp(at time.Duration, from, to sim.Addr, p *rtp.Packet) {
	raw, err := p.Marshal()
	if err != nil {
		panic(err) // crafted packets are always well-formed
	}
	t.add(at, from, to, sim.ProtoRTP, raw)
}

// dialog crafts the messages of one call. The INVITE's SDP advertises
// callerMedia (the destination rtp-callee watches) and the 200 OK's
// SDP advertises calleeMedia (watched by rtp-caller).
type dialog struct {
	id                 string
	callerUA, calleeUA sim.Addr
	callerMedia        sim.Addr
	calleeMedia        sim.Addr
	inv, ok            *sipmsg.Message
	cseq               int
}

func newDialog(n int) *dialog {
	return &dialog{
		id:          fmt.Sprintf("gap-%d@ua1.a.example.com", n),
		callerUA:    sim.Addr{Host: "ua1.a.example.com", Port: 5060},
		calleeUA:    sim.Addr{Host: "ua2.b.example.com", Port: 5060},
		callerMedia: sim.Addr{Host: "ua1.a.example.com", Port: 20000 + 2*n},
		calleeMedia: sim.Addr{Host: "ua2.b.example.com", Port: 30000 + 2*n},
		cseq:        1,
	}
}

func (d *dialog) callerAOR() sipmsg.URI { return sipmsg.URI{User: "alice", Host: "a.example.com"} }
func (d *dialog) calleeAOR() sipmsg.URI {
	return sipmsg.URI{User: "bob" + d.id[4:5], Host: "b.example.com"}
}

// invite builds (and memoizes) the initial INVITE. withSDP controls
// whether the caller offers media — without it rtp-callee stays INIT.
func (d *dialog) invite(withSDP bool) *sipmsg.Message {
	if d.inv != nil {
		return d.inv
	}
	inv := sipmsg.NewRequest(sipmsg.INVITE, d.calleeAOR())
	inv.Via = []sipmsg.Via{{Transport: "UDP", Host: gapProxyA.Host, Port: 5060,
		Params: map[string]string{"branch": "z9hG4bK" + d.id}}}
	inv.From = sipmsg.NameAddr{URI: d.callerAOR()}.WithTag("t1")
	inv.To = sipmsg.NameAddr{URI: d.calleeAOR()}
	inv.CallID = d.id
	inv.CSeq = sipmsg.CSeq{Seq: 1, Method: sipmsg.INVITE}
	contact := sipmsg.NameAddr{URI: sipmsg.URI{User: "alice", Host: d.callerUA.Host}}
	inv.Contact = &contact
	if withSDP {
		inv.ContentType = "application/sdp"
		inv.Body = sdp.New("alice", d.callerMedia.Host, d.callerMedia.Port, sdp.PayloadG729).Marshal()
	}
	d.inv = inv
	return inv
}

// okInvite builds (and memoizes) the 200 OK answering the INVITE,
// tagging the callee and optionally answering with media.
func (d *dialog) okInvite(withSDP bool) *sipmsg.Message {
	if d.ok != nil {
		return d.ok
	}
	ok := sipmsg.NewResponse(d.inv, sipmsg.StatusOK)
	ok.To = ok.To.WithTag("t2")
	contact := sipmsg.NameAddr{URI: sipmsg.URI{User: "bob", Host: d.calleeUA.Host}}
	ok.Contact = &contact
	if withSDP {
		ok.ContentType = "application/sdp"
		ok.Body = sdp.New("bob", d.calleeMedia.Host, d.calleeMedia.Port, sdp.PayloadG729).Marshal()
	}
	d.ok = ok
	return ok
}

// response answers the INVITE with an arbitrary status, tagged when
// the dialog has progressed far enough for the callee to have a tag.
func (d *dialog) response(code int, tagged bool) *sipmsg.Message {
	r := sipmsg.NewResponse(d.inv, code)
	if tagged {
		r.To = r.To.WithTag("t2")
	}
	return r
}

func (d *dialog) ack() *sipmsg.Message {
	a := sipmsg.NewRequest(sipmsg.ACK, d.calleeAOR())
	a.Via = []sipmsg.Via{{Transport: "UDP", Host: d.callerUA.Host, Port: 5060,
		Params: map[string]string{"branch": "z9hG4bKack" + d.id}}}
	a.From = d.inv.From
	a.To = d.inv.To
	if d.ok != nil {
		a.To = d.ok.To
	}
	a.CallID = d.id
	a.CSeq = sipmsg.CSeq{Seq: 1, Method: sipmsg.ACK}
	return a
}

// bye builds an in-dialog BYE from the named party ("caller" or
// "callee"). The From tag decides which party the SIP machine records
// as g.byeSender, and the transport source must match that party's
// contact for the known-party guard.
func (d *dialog) bye(party string) *sipmsg.Message {
	d.cseq++
	b := sipmsg.NewRequest(sipmsg.BYE, d.calleeAOR())
	b.CallID = d.id
	b.CSeq = sipmsg.CSeq{Seq: uint32(d.cseq), Method: sipmsg.BYE}
	if party == "callee" {
		b.From = d.ok.To // callee's identity carries tag t2
		b.To = d.inv.From
		b.Via = []sipmsg.Via{{Transport: "UDP", Host: d.calleeUA.Host, Port: 5060,
			Params: map[string]string{"branch": fmt.Sprintf("z9hG4bKbye%d%s", d.cseq, d.id)}}}
		return b
	}
	b.From = d.inv.From
	b.To = d.inv.To
	if d.ok != nil {
		b.To = d.ok.To
	}
	b.Via = []sipmsg.Via{{Transport: "UDP", Host: d.callerUA.Host, Port: 5060,
		Params: map[string]string{"branch": fmt.Sprintf("z9hG4bKbye%d%s", d.cseq, d.id)}}}
	return b
}

// byeSrc is the transport address matching bye(party).
func (d *dialog) byeSrc(party string) sim.Addr {
	if party == "callee" {
		return d.calleeUA
	}
	return d.callerUA
}

// cancel builds a CANCEL for the outstanding INVITE with the given
// From tag (the legitimacy guard also checks the transport source).
func (d *dialog) cancel(from sipmsg.NameAddr) *sipmsg.Message {
	c := sipmsg.NewRequest(sipmsg.CANCEL, d.calleeAOR())
	c.Via = []sipmsg.Via{{Transport: "UDP", Host: gapProxyA.Host, Port: 5060,
		Params: map[string]string{"branch": "z9hG4bKcancel" + d.id}}}
	c.From = from
	c.To = d.inv.To
	c.CallID = d.id
	c.CSeq = sipmsg.CSeq{Seq: 1, Method: sipmsg.CANCEL}
	return c
}

// reInvite builds an in-dialog INVITE from the caller (tagged To, so
// it neither looks like an initial INVITE to the flood detector nor
// like a retransmission to the SIP machine).
func (d *dialog) reInvite(from sipmsg.NameAddr) *sipmsg.Message {
	d.cseq++
	inv := sipmsg.NewRequest(sipmsg.INVITE, d.calleeAOR())
	inv.Via = []sipmsg.Via{{Transport: "UDP", Host: d.callerUA.Host, Port: 5060,
		Params: map[string]string{"branch": fmt.Sprintf("z9hG4bKre%d%s", d.cseq, d.id)}}}
	inv.From = from
	inv.To = d.ok.To
	inv.CallID = d.id
	inv.CSeq = sipmsg.CSeq{Seq: uint32(d.cseq), Method: sipmsg.INVITE}
	return inv
}

func (d *dialog) rtpPkt(pt uint8, ssrc uint32, seq uint16, ts uint32) *rtp.Packet {
	return &rtp.Packet{PayloadType: pt, SSRC: ssrc, Sequence: seq, Timestamp: ts,
		Payload: []byte{0}}
}

// callerRTP emits one packet of the caller's stream (watched by
// rtp-caller: destination is the 200 OK's advertised media address).
func (d *dialog) callerRTP(t *tracer, at time.Duration, pt uint8, ssrc uint32, seq uint16, ts uint32) {
	from := sim.Addr{Host: d.callerUA.Host, Port: d.callerMedia.Port}
	t.rtp(at, from, d.calleeMedia, d.rtpPkt(pt, ssrc, seq, ts))
}

// calleeRTP emits one packet of the callee's stream (watched by
// rtp-callee: destination is the INVITE's advertised media address).
func (d *dialog) calleeRTP(t *tracer, at time.Duration, pt uint8, ssrc uint32, seq uint16, ts uint32) {
	from := sim.Addr{Host: d.calleeUA.Host, Port: d.calleeMedia.Port}
	t.rtp(at, from, d.callerMedia, d.rtpPkt(pt, ssrc, seq, ts))
}

// establish plays INVITE/200/ACK at base, base+10ms, base+20ms.
func (d *dialog) establish(t *tracer, base time.Duration, inviteSDP, okSDP bool) {
	t.sip(base, gapProxyA, gapProxyB, d.invite(inviteSDP))
	t.sip(base+ms(10), gapProxyB, gapProxyA, d.okInvite(okSDP))
	t.sip(base+ms(20), d.callerUA, d.calleeUA, d.ack())
}

// ---------------------------------------------------------------------------
// Trace builders. Each comment lists the transitions the trace closes.
// Timer T (after-BYE grace) is 250 ms and the flood window T1 is 1 s
// under ids.DefaultConfig, which every replay of these traces uses.
// ---------------------------------------------------------------------------

// buildCancelLegit: a caller abandons a pending call.
// sip: INVITE_RCVD provisional/retransmission loops, legitimate
// CANCEL -> CANCEL_WAIT, all CANCEL_WAIT loops, 487 -> CLOSED and the
// CLOSED absorbers. rtp-callee: RTP_OPEN -delta.bye-> RTP_CLOSE.
// rtp-caller: INIT -delta.bye-> RTP_CLOSE (no answer ever carried SDP).
func buildCancelLegit() []trace.Entry {
	t := &tracer{}
	d := newDialog(1)
	t.sip(ms(10), gapProxyA, gapProxyB, d.invite(true))
	t.sip(ms(20), gapProxyB, gapProxyA, d.response(sipmsg.StatusTrying, false))
	t.sip(ms(30), gapProxyA, gapProxyB, d.invite(true)) // retransmission
	cancel := d.cancel(d.inv.From)
	t.sip(ms(40), gapProxyA, gapProxyB, cancel)
	t.sip(ms(50), gapProxyB, gapProxyA, sipmsg.NewResponse(cancel, sipmsg.StatusOK))
	t.sip(ms(60), d.callerUA, d.calleeUA, d.ack())
	t.sip(ms(70), gapProxyA, gapProxyB, cancel) // retransmission
	t.sip(ms(80), gapProxyB, gapProxyA, d.response(sipmsg.StatusRequestTerminated, false))
	t.sip(ms(90), d.callerUA, d.calleeUA, d.ack())
	t.sip(ms(100), gapProxyB, gapProxyA, d.response(sipmsg.StatusRinging, false))
	t.sip(ms(110), d.callerUA, d.calleeUA, d.bye("caller"))
	return t.entries
}

// buildCancelRinging: the same abandonment after alerting started.
// sip: RINGING response/INVITE-retransmission loops and the
// legitimate CANCEL from RINGING -> CANCEL_WAIT.
func buildCancelRinging() []trace.Entry {
	t := &tracer{}
	d := newDialog(2)
	t.sip(ms(10), gapProxyA, gapProxyB, d.invite(true))
	t.sip(ms(20), gapProxyB, gapProxyA, d.response(sipmsg.StatusRinging, true))
	t.sip(ms(30), gapProxyB, gapProxyA, d.response(183, true))
	t.sip(ms(40), gapProxyA, gapProxyB, d.invite(true)) // retransmission
	t.sip(ms(50), gapProxyA, gapProxyB, d.cancel(d.inv.From))
	t.sip(ms(60), gapProxyB, gapProxyA, d.response(sipmsg.StatusRequestTerminated, false))
	return t.entries
}

// buildCancelSpoofed: a third party cancels a call it never placed.
// sip: INVITE_RCVD -cancel-> ATTACK_SPOOFED_CANCEL and the attack
// state's bye/cancel/invite absorbers.
func buildCancelSpoofed() []trace.Entry {
	t := &tracer{}
	d := newDialog(3)
	t.sip(ms(10), gapProxyA, gapProxyB, d.invite(true))
	evil := sipmsg.NameAddr{URI: sipmsg.URI{User: "mallory", Host: gapAttacker.Host}}.WithTag("evil")
	t.sip(ms(20), gapAttacker, gapProxyB, d.cancel(evil))
	t.sip(ms(30), d.callerUA, d.calleeUA, d.bye("caller"))
	t.sip(ms(40), gapAttacker, gapProxyB, d.cancel(evil))
	t.sip(ms(50), gapProxyA, gapProxyB, d.invite(true))
	return t.entries
}

// buildInviteFinal: failed and immediately-answered call attempts.
// sip: INVITE_RCVD -response-> CLOSED (486), RINGING -response->
// CLOSED, and the direct INVITE_RCVD -response-> CALL_ESTABLISHED
// (200 with no 180 first). The first attempt offers no SDP, so its
// teardown fires rtp-callee INIT -delta.bye-> RTP_CLOSE.
func buildInviteFinal() []trace.Entry {
	t := &tracer{}
	d1 := newDialog(4)
	t.sip(ms(10), gapProxyA, gapProxyB, d1.invite(false))
	t.sip(ms(20), gapProxyB, gapProxyA, d1.response(sipmsg.StatusBusyHere, false))

	d2 := newDialog(5)
	t.sip(ms(30), gapProxyA, gapProxyB, d2.invite(true))
	t.sip(ms(40), gapProxyB, gapProxyA, d2.response(sipmsg.StatusRinging, true))
	t.sip(ms(50), gapProxyB, gapProxyA, d2.response(sipmsg.StatusBusyHere, true))

	d3 := newDialog(6)
	t.sip(ms(60), gapProxyA, gapProxyB, d3.invite(true))
	t.sip(ms(70), gapProxyB, gapProxyA, d3.okInvite(true))
	t.sip(ms(80), d3.callerUA, d3.calleeUA, d3.ack())
	bye := d3.bye("caller")
	t.sip(ms(90), d3.callerUA, d3.calleeUA, bye)
	t.sip(ms(100), gapProxyB, gapProxyA, sipmsg.NewResponse(bye, sipmsg.StatusOK))
	return t.entries
}

// buildTeardown: a hangup whose BYE is first challenged with 401.
// sip: CALL_ESTABLISHED re-INVITE loop, CALL_TEARDOWN
// bye/ack/response loops and the 401 -response-> CALL_ESTABLISHED
// reopen. rtp-caller/rtp-callee: RTP_RCVD_AFTER_BYE -delta.reopen->
// RTP_RCVD and the stale RTP_RCVD -timer.T-> RTP_RCVD.
func buildTeardown() []trace.Entry {
	t := &tracer{}
	d := newDialog(7)
	d.establish(t, ms(10), true, true)
	d.callerRTP(t, ms(50), sdp.PayloadG729, gapSSRCCaller, 1, 160)
	d.calleeRTP(t, ms(55), sdp.PayloadG729, gapSSRCCallee, 1, 160)
	t.sip(ms(90), d.callerUA, d.calleeUA, d.reInvite(d.inv.From))
	bye1 := d.bye("caller")
	t.sip(ms(100), d.callerUA, d.calleeUA, bye1)
	t.sip(ms(110), d.callerUA, d.calleeUA, bye1) // retransmission
	t.sip(ms(120), d.callerUA, d.calleeUA, d.ack())
	t.sip(ms(130), gapProxyB, gapProxyA, d.response(sipmsg.StatusRinging, true))
	t.sip(ms(150), gapProxyB, gapProxyA, sipmsg.NewResponse(bye1, sipmsg.StatusUnauthorized))
	// Timer T from the first BYE fires at 350 ms with both RTP
	// machines back in RTP_RCVD.
	bye2 := d.bye("caller")
	t.sip(ms(400), d.callerUA, d.calleeUA, bye2)
	t.sip(ms(450), gapProxyB, gapProxyA, sipmsg.NewResponse(bye2, sipmsg.StatusOK))
	return t.entries
}

// buildPostClose: both parties keep talking after the call closed.
// First dialog: the callee hangs up, so its continuing stream is toll
// fraud and the caller's is BYE DoS — rtp-callee RTP_CLOSE ->
// ATTACK_TOLL_FRAUD, rtp-caller RTP_CLOSE -> ATTACK_BYE_DOS, plus
// those attack states' rtp/delta.reopen/delta.bye absorbers. Second
// dialog mirrors the roles for the remaining two attack states.
func buildPostClose() []trace.Entry {
	t := &tracer{}
	for i, party := range []string{"callee", "caller"} {
		d := newDialog(8 + i)
		base := time.Duration(i) * ms(600)
		d.establish(t, base+ms(10), true, true)
		d.callerRTP(t, base+ms(40), sdp.PayloadG729, gapSSRCCaller, 1, 160)
		d.calleeRTP(t, base+ms(45), sdp.PayloadG729, gapSSRCCallee, 1, 160)
		bye1 := d.bye(party)
		t.sip(base+ms(100), d.byeSrc(party), gapProxyB, bye1)
		// Timer T fires at +350 ms; both machines reach RTP_CLOSE.
		d.calleeRTP(t, base+ms(400), sdp.PayloadG729, gapSSRCCallee, 2, 320)
		d.callerRTP(t, base+ms(405), sdp.PayloadG729, gapSSRCCaller, 2, 320)
		d.calleeRTP(t, base+ms(410), sdp.PayloadG729, gapSSRCCallee, 3, 480)
		d.callerRTP(t, base+ms(415), sdp.PayloadG729, gapSSRCCaller, 3, 480)
		t.sip(base+ms(450), gapProxyB, gapProxyA, sipmsg.NewResponse(bye1, sipmsg.StatusUnauthorized))
		bye2 := d.bye(party)
		t.sip(base+ms(500), d.byeSrc(party), gapProxyB, bye2)
		t.sip(base+ms(550), gapProxyB, gapProxyA, sipmsg.NewResponse(bye2, sipmsg.StatusOK))
	}
	return t.entries
}

// buildReopenClose: a 401-challenged BYE arrives after timer T
// already closed the machines. One direction of each dialog never
// started, so the reopen lands in RTP_CLOSE both started and not:
// RTP_CLOSE -delta.reopen-> RTP_RCVD / RTP_OPEN for both machines,
// plus RTP_OPEN -delta.bye-> RTP_CLOSE for both.
func buildReopenClose() []trace.Entry {
	t := &tracer{}
	for i, calleeTalks := range []bool{true, false} {
		d := newDialog(10 + i)
		base := time.Duration(i) * ms(800)
		d.establish(t, base+ms(10), true, true)
		if calleeTalks {
			d.calleeRTP(t, base+ms(40), sdp.PayloadG729, gapSSRCCallee, 1, 160)
		} else {
			d.callerRTP(t, base+ms(40), sdp.PayloadG729, gapSSRCCaller, 1, 160)
		}
		bye1 := d.bye("caller")
		t.sip(base+ms(100), d.callerUA, d.calleeUA, bye1)
		// Timer T fires at +350 ms: the started machine reaches
		// RTP_CLOSE; the silent one went there straight from RTP_OPEN.
		t.sip(base+ms(450), gapProxyB, gapProxyA, sipmsg.NewResponse(bye1, sipmsg.StatusUnauthorized))
		bye2 := d.bye("caller")
		t.sip(base+ms(500), d.callerUA, d.calleeUA, bye2)
		t.sip(base+ms(550), gapProxyB, gapProxyA, sipmsg.NewResponse(bye2, sipmsg.StatusOK))
	}
	return t.entries
}

// buildCodec: wrong-codec media in every machine state. First dialog:
// violations before any valid packet (RTP_OPEN -rtp-> ATTACK_CODEC_
// VIOLATION both directions) with ATTACK_CODEC rtp/delta.bye/
// delta.reopen absorbers. Second dialog: violations from RTP_RCVD
// while timer T is pending (rtp-callee RTP_RCVD codec entry and the
// ATTACK_CODEC timer.T absorbers).
func buildCodec() []trace.Entry {
	t := &tracer{}
	d1 := newDialog(12)
	d1.establish(t, ms(10), true, true)
	d1.callerRTP(t, ms(40), sdp.PayloadPCMU, gapSSRCCaller, 1, 160)
	d1.calleeRTP(t, ms(45), sdp.PayloadPCMU, gapSSRCCallee, 1, 160)
	d1.calleeRTP(t, ms(50), sdp.PayloadPCMU, gapSSRCCallee, 2, 320)
	bye1 := d1.bye("caller")
	t.sip(ms(100), d1.callerUA, d1.calleeUA, bye1)
	t.sip(ms(150), gapProxyB, gapProxyA, sipmsg.NewResponse(bye1, sipmsg.StatusUnauthorized))
	bye2 := d1.bye("caller")
	t.sip(ms(200), d1.callerUA, d1.calleeUA, bye2)
	t.sip(ms(250), gapProxyB, gapProxyA, sipmsg.NewResponse(bye2, sipmsg.StatusOK))

	d2 := newDialog(13)
	d2.establish(t, ms(310), true, true)
	d2.callerRTP(t, ms(340), sdp.PayloadG729, gapSSRCCaller, 1, 160)
	d2.calleeRTP(t, ms(345), sdp.PayloadG729, gapSSRCCallee, 1, 160)
	bye3 := d2.bye("caller")
	t.sip(ms(350), d2.callerUA, d2.calleeUA, bye3)
	t.sip(ms(360), gapProxyB, gapProxyA, sipmsg.NewResponse(bye3, sipmsg.StatusUnauthorized))
	d2.callerRTP(t, ms(400), sdp.PayloadPCMU, gapSSRCCaller, 2, 320)
	d2.calleeRTP(t, ms(405), sdp.PayloadPCMU, gapSSRCCallee, 2, 320)
	// Timer T from bye3 fires at 600 ms inside ATTACK_CODEC_VIOLATION.
	bye4 := d2.bye("caller")
	t.sip(ms(650), d2.callerUA, d2.calleeUA, bye4)
	t.sip(ms(700), gapProxyB, gapProxyA, sipmsg.NewResponse(bye4, sipmsg.StatusOK))
	return t.entries
}

// buildSpamAbsorb: an SSRC change while timer T is pending, then the
// dialog keeps churning. rtp-caller/rtp-callee ATTACK_MEDIA_SPAM
// timer.T, delta.bye and delta.reopen absorbers.
func buildSpamAbsorb() []trace.Entry {
	t := &tracer{}
	d := newDialog(14)
	d.establish(t, ms(10), true, true)
	d.callerRTP(t, ms(40), sdp.PayloadG729, gapSSRCCaller, 1, 160)
	d.calleeRTP(t, ms(45), sdp.PayloadG729, gapSSRCCallee, 1, 160)
	bye1 := d.bye("caller")
	t.sip(ms(50), d.callerUA, d.calleeUA, bye1)
	t.sip(ms(60), gapProxyB, gapProxyA, sipmsg.NewResponse(bye1, sipmsg.StatusUnauthorized))
	d.callerRTP(t, ms(100), sdp.PayloadG729, 0x99, 2, 320)
	d.calleeRTP(t, ms(105), sdp.PayloadG729, 0x99, 2, 320)
	// Timer T from bye1 fires at 300 ms inside ATTACK_MEDIA_SPAM.
	bye2 := d.bye("caller")
	t.sip(ms(350), d.callerUA, d.calleeUA, bye2)
	t.sip(ms(400), gapProxyB, gapProxyA, sipmsg.NewResponse(bye2, sipmsg.StatusUnauthorized))
	bye3 := d.bye("caller")
	t.sip(ms(450), d.callerUA, d.calleeUA, bye3)
	t.sip(ms(500), gapProxyB, gapProxyA, sipmsg.NewResponse(bye3, sipmsg.StatusOK))
	return t.entries
}

// buildFlood: both streams exceed the rate window while timer T is
// pending. rtp-caller/rtp-callee RTP_RCVD -rtp-> ATTACK_RTP_FLOOD and
// all four ATTACK_RTP_FLOOD absorbers.
func buildFlood() []trace.Entry {
	t := &tracer{}
	d := newDialog(15)
	d.establish(t, ms(10), true, true)
	d.callerRTP(t, ms(40), sdp.PayloadG729, gapSSRCCaller, 1, 160)
	d.calleeRTP(t, ms(41), sdp.PayloadG729, gapSSRCCallee, 1, 160)
	bye1 := d.bye("caller")
	t.sip(ms(50), d.callerUA, d.calleeUA, bye1)
	t.sip(ms(60), gapProxyB, gapProxyA, sipmsg.NewResponse(bye1, sipmsg.StatusUnauthorized))
	// DefaultConfig allows 100 packets per second-long window; the
	// 100th packet after the opener trips the flood guard at ~268 ms,
	// before timer T (from bye1) fires at 300 ms.
	for k := 0; k < 100; k++ {
		at := ms(70 + 2*k)
		seq := uint16(2 + k)
		ts := uint32(320 + 160*k)
		d.callerRTP(t, at, sdp.PayloadG729, gapSSRCCaller, seq, ts)
		d.calleeRTP(t, at+time.Millisecond, sdp.PayloadG729, gapSSRCCallee, seq, ts)
	}
	d.callerRTP(t, ms(310), sdp.PayloadG729, gapSSRCCaller, 102, 16320)
	d.calleeRTP(t, ms(312), sdp.PayloadG729, gapSSRCCallee, 102, 16320)
	bye2 := d.bye("caller")
	t.sip(ms(350), d.callerUA, d.calleeUA, bye2)
	t.sip(ms(400), gapProxyB, gapProxyA, sipmsg.NewResponse(bye2, sipmsg.StatusUnauthorized))
	bye3 := d.bye("caller")
	t.sip(ms(450), d.callerUA, d.calleeUA, bye3)
	t.sip(ms(500), gapProxyB, gapProxyA, sipmsg.NewResponse(bye3, sipmsg.StatusOK))
	return t.entries
}

// buildSpoofedBye: a fully off-path BYE tears the dialog down.
// sip: CALL_ESTABLISHED -bye-> ATTACK_SPOOFED_BYE and all five
// ATTACK_SPOOFED_BYE absorbers.
func buildSpoofedBye() []trace.Entry {
	t := &tracer{}
	d := newDialog(16)
	d.establish(t, ms(10), true, true)
	evil := sipmsg.NameAddr{URI: sipmsg.URI{User: "mallory", Host: gapAttacker.Host}}.WithTag("evil")
	bye := sipmsg.NewRequest(sipmsg.BYE, d.calleeAOR())
	bye.Via = []sipmsg.Via{{Transport: "UDP", Host: gapAttacker.Host, Port: 5060,
		Params: map[string]string{"branch": "z9hG4bKevil" + d.id}}}
	bye.From = evil
	bye.To = d.ok.To
	bye.CallID = d.id
	bye.CSeq = sipmsg.CSeq{Seq: 9, Method: sipmsg.BYE}
	t.sip(ms(40), gapAttacker, d.calleeUA, bye)
	t.sip(ms(50), d.callerUA, d.calleeUA, d.ack())
	t.sip(ms(60), d.callerUA, d.calleeUA, d.bye("caller"))
	t.sip(ms(70), gapAttacker, d.calleeUA, d.cancel(evil))
	t.sip(ms(80), d.callerUA, d.calleeUA, d.reInvite(d.inv.From))
	t.sip(ms(90), gapProxyB, gapProxyA, sipmsg.NewResponse(bye, sipmsg.StatusOK))
	return t.entries
}

// buildHijackAbsorb: a hijacking re-INVITE, then more traffic.
// sip: the ATTACK_CALL_HIJACK ack/bye/cancel/invite absorbers.
func buildHijackAbsorb() []trace.Entry {
	t := &tracer{}
	d := newDialog(17)
	d.establish(t, ms(10), true, true)
	evil := sipmsg.NameAddr{URI: sipmsg.URI{User: "mallory", Host: gapAttacker.Host}}.WithTag("evil")
	t.sip(ms(40), gapAttacker, d.calleeUA, d.reInvite(evil))
	t.sip(ms(50), d.callerUA, d.calleeUA, d.ack())
	t.sip(ms(60), d.callerUA, d.calleeUA, d.bye("caller"))
	t.sip(ms(70), gapAttacker, d.calleeUA, d.cancel(evil))
	t.sip(ms(80), gapAttacker, d.calleeUA, d.reInvite(evil))
	return t.entries
}

// buildRTPSpam: a spamming stream no SDP ever negotiated.
// rtp-spam: RTP_RCVD -rtp-> ATTACK_MEDIA_SPAM (sequence jump past the
// threshold) and the attack state's rtp absorber.
func buildRTPSpam() []trace.Entry {
	t := &tracer{}
	from := sim.Addr{Host: gapAttacker.Host, Port: 40000}
	to := sim.Addr{Host: "media-sink.example.com", Port: 40000}
	p := func(seq uint16, ts uint32) *rtp.Packet {
		return &rtp.Packet{PayloadType: sdp.PayloadG729, SSRC: 7, Sequence: seq,
			Timestamp: ts, Payload: []byte{0}}
	}
	t.rtp(ms(10), from, to, p(100, 1000))
	t.rtp(ms(20), from, to, p(300, 40000)) // jump beyond SeqGap/TSGap
	t.rtp(ms(30), from, to, p(301, 40160))
	return t.entries
}

// buildStrayResponse: one reflected response, then silence.
// response-flood: PACKET_RCVD -timer.T1-> INIT (the window expires
// under the DRDoS threshold).
func buildStrayResponse() []trace.Entry {
	t := &tracer{}
	fake := sipmsg.NewRequest(sipmsg.INVITE, sipmsg.URI{User: "victim", Host: "a.example.com"})
	fake.Via = []sipmsg.Via{{Transport: "UDP", Host: gapProxyA.Host, Port: 5060,
		Params: map[string]string{"branch": "z9hG4bKstray"}}}
	fake.From = sipmsg.NameAddr{URI: sipmsg.URI{User: "victim", Host: "a.example.com"}}.WithTag("t9")
	fake.To = sipmsg.NameAddr{URI: sipmsg.URI{User: "reflector", Host: "b.example.com"}}
	fake.CallID = "stray-1@nowhere.example.net"
	fake.CSeq = sipmsg.CSeq{Seq: 1, Method: sipmsg.INVITE}
	t.sip(ms(10), gapProxyB, gapProxyA, sipmsg.NewResponse(fake, sipmsg.StatusRinging))
	return t.entries
}
