package engine_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vids/internal/engine"
	"vids/internal/ids"
	"vids/internal/ingress"
	"vids/internal/rtp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
	"vids/internal/trace"
)

// The shard pool has no ingestion path of its own: every test here
// drives it through the front door, ingress.New, the way production
// traffic reaches it.

// replaySequential runs a trace through the plain single-threaded IDS
// — the ground truth the pipeline must reproduce.
func replaySequential(t *testing.T, entries []trace.Entry, cfg ids.Config) []ids.Alert {
	t.Helper()
	s := sim.New(0)
	d := ids.New(s, cfg)
	if err := trace.Replay(s, entries, d); err != nil {
		t.Fatal(err)
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	alerts := d.Alerts()
	engine.SortAlerts(alerts)
	return alerts
}

// replayEngine feeds a trace through a fresh tier (one lane per shard)
// one packet at a time and returns the drained alert stream and stats.
func replayEngine(t *testing.T, entries []trace.Entry, cfg engine.Config) ([]ids.Alert, engine.Stats) {
	t.Helper()
	ing := ingress.New(ingress.Config{Engine: cfg})
	for i, en := range entries {
		if err := ing.Ingest(en.Packet(), en.At()); err != nil {
			t.Fatalf("ingest entry %d: %v", i, err)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	st := ing.Stats()
	assertAccounting(t, st)
	return ing.Alerts(), st
}

// assertAccounting checks the pipeline's accounting identity on a
// drained snapshot: every ingested packet was processed, dropped,
// absorbed, ignored or counted as a parse error, and the fast-path
// hits are a subset of the processed packets.
func assertAccounting(t *testing.T, st engine.Stats) {
	t.Helper()
	if sum := st.Processed + st.Dropped + st.Absorbed + st.Ignored + st.ParseErrors; sum != st.Ingested {
		t.Errorf("accounting identity broken: ingested %d != processed %d + dropped %d + absorbed %d + ignored %d + parse errors %d",
			st.Ingested, st.Processed, st.Dropped, st.Absorbed, st.Ignored, st.ParseErrors)
	}
	if st.FastpathHits > st.Processed {
		t.Errorf("fast-path hits %d exceed processed %d", st.FastpathHits, st.Processed)
	}
}

// TestEngineParityWithSequential is the core acceptance check: a trace
// replayed through four shards yields the exact alert multiset of the
// sequential ids path — same types, same virtual timestamps, same
// details.
func TestEngineParityWithSequential(t *testing.T) {
	entries := engine.Synthesize(engine.SynthConfig{Calls: 40, RTPPerCall: 10, Attacks: true})
	if len(entries) < 1000 {
		t.Fatalf("suspiciously small trace: %d entries", len(entries))
	}
	want := replaySequential(t, entries, ids.DefaultConfig())
	if len(want) == 0 {
		t.Fatal("sequential replay raised no alerts; trace is not exercising the detectors")
	}

	got, st := replayEngine(t, entries, engine.Config{Shards: 4})
	if !reflect.DeepEqual(want, got) {
		t.Errorf("alert streams diverge: sequential %d alerts, engine %d", len(want), len(got))
		max := len(want)
		if len(got) > max {
			max = len(got)
		}
		for i := 0; i < max && i < 40; i++ {
			var w, g ids.Alert
			if i < len(want) {
				w = want[i]
			}
			if i < len(got) {
				g = got[i]
			}
			if !reflect.DeepEqual(w, g) {
				t.Errorf("  [%d]\n    seq: %+v\n    eng: %+v", i, w, g)
			}
		}
	}
	if st.Dropped != 0 {
		t.Errorf("Block policy dropped %d packets", st.Dropped)
	}
	if st.Ingested != uint64(len(entries)) {
		t.Errorf("ingested %d of %d entries", st.Ingested, len(entries))
	}

	// The trace must exercise every detector family for parity to mean
	// anything.
	byType := make(map[ids.AlertType]int)
	for _, a := range got {
		byType[a.Type]++
	}
	for _, typ := range []ids.AlertType{
		ids.AlertInviteFlood, ids.AlertDRDoS, ids.AlertByeDoS, ids.AlertTollFraud,
		ids.AlertRTCPBye, ids.AlertUnsolicitedRTP, ids.AlertMediaSpam,
		ids.AlertRogueRegister, ids.AlertDeviation,
	} {
		if byType[typ] == 0 {
			t.Errorf("trace raised no %s alert", typ)
		}
	}
}

// TestEngineParityAcrossShardCounts: the alert stream must not depend
// on the shard count at all.
func TestEngineParityAcrossShardCounts(t *testing.T) {
	entries := engine.Synthesize(engine.SynthConfig{Calls: 25, RTPPerCall: 6, Attacks: true})
	base, _ := replayEngine(t, entries, engine.Config{Shards: 1})
	for _, shards := range []int{2, 3, 8} {
		got, _ := replayEngine(t, entries, engine.Config{Shards: shards})
		if !reflect.DeepEqual(base, got) {
			t.Errorf("shards=%d: %d alerts vs %d at shards=1", shards, len(got), len(base))
		}
	}
}

// TestShardRoutingInvariant is the routing property test: every
// packet of one call — SIP, RTP in both directions, RTCP, and media
// moved by a mid-call re-INVITE — lands on the same shard. Observed
// black-box: ingest one call into an 8-shard pipeline and require that
// exactly one shard processed anything.
func TestShardRoutingInvariant(t *testing.T) {
	for i := 0; i < 20; i++ {
		i := i
		t.Run(fmt.Sprintf("call-%d", i), func(t *testing.T) {
			g := &engine.SynthGen{}
			d := g.BenignCall(i*31, 0, 5, false)
			callerMed, calleeMed := d.CallerMedia(), d.CalleeMedia()

			// Mid-call re-INVITE moves the caller's media port.
			reinv := d.Invite().Clone()
			reinv.To = d.OK().To // in-dialog: To carries the callee's tag
			reinv.CSeq = sipmsg.CSeq{Seq: 3, Method: sipmsg.INVITE}
			newMed := sim.Addr{Host: callerMed.Host, Port: callerMed.Port + 1000}
			reinv.Body = replacePort(t, d.Invite().Body, callerMed.Port, newMed.Port)
			g.Add(300*time.Millisecond, sim.ProtoSIP, d.CallerAddr(), d.CalleeAddr(), reinv.Bytes())
			rok := sipmsg.NewResponse(reinv, sipmsg.StatusOK)
			rok.Body = d.OK().Body
			rok.ContentType = "application/sdp"
			g.Add(320*time.Millisecond, sim.ProtoSIP, d.CalleeAddr(), d.CallerAddr(), rok.Bytes())

			// Media to the re-negotiated port, plus RTCP beside it.
			g.Add(340*time.Millisecond, sim.ProtoRTP, calleeMed,
				newMed, engine.RTPBytes(0xD0000000+uint32(i*31), 6, 6*160))
			g.Add(341*time.Millisecond, sim.ProtoRTCP,
				sim.Addr{Host: calleeMed.Host, Port: calleeMed.Port + 1},
				sim.Addr{Host: newMed.Host, Port: newMed.Port + 1},
				engine.RTCPBytes(rtp.RTCPSenderReport, 0xD0000000+uint32(i*31)))

			entries := g.Entries()
			_, st := replayEngine(t, entries, engine.Config{Shards: 8})
			busy := 0
			for _, sh := range st.Shards {
				if sh.Processed > 0 {
					busy++
				}
			}
			if busy != 1 {
				t.Fatalf("call scattered over %d shards: %+v", busy, st.Shards)
			}
			if st.Processed != uint64(len(entries)) {
				t.Fatalf("processed %d of %d packets", st.Processed, len(entries))
			}
		})
	}
}

// replacePort rewrites the SDP media port in a body.
func replacePort(t *testing.T, body []byte, oldPort, newPort int) []byte {
	t.Helper()
	oldStr := []byte(fmt.Sprintf("m=audio %d", oldPort))
	if !bytes.Contains(body, oldStr) {
		t.Fatalf("SDP body does not contain %q", oldStr)
	}
	return bytes.Replace(body, oldStr, []byte(fmt.Sprintf("m=audio %d", newPort)), 1)
}

// TestConcurrentIngestionStress hammers the pipeline from many
// goroutines while a reader polls Stats — the -race exercise for the
// whole hot path — then checks that a closed pipeline refuses input
// and closes idempotently.
func TestConcurrentIngestionStress(t *testing.T) {
	const producers = 8
	perProducer := engine.Synthesize(engine.SynthConfig{Calls: 12, RTPPerCall: 8})
	ing := ingress.New(ingress.Config{Engine: engine.Config{
		Shards: 4, QueueDepth: 64, OnAlert: func(ids.Alert) {},
	}})

	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = ing.Stats()
			}
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, en := range perProducer {
				if err := ing.Ingest(en.Packet(), en.At()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	pollWG.Wait()
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	st := ing.Stats()
	assertAccounting(t, st)
	want := uint64(producers * len(perProducer))
	if st.Ingested != want {
		t.Errorf("ingested %d, want %d", st.Ingested, want)
	}
	if st.Dropped != 0 {
		t.Errorf("Block policy dropped %d", st.Dropped)
	}

	if err := ing.Ingest(perProducer[0].Packet(), 0); err != engine.ErrClosed {
		t.Errorf("Ingest after Close: got %v, want ErrClosed", err)
	}
	if err := ing.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// parkOnFirstAlert returns an OnAlert hook that parks the calling shard
// worker inside its first alert until release is closed, and a channel
// closed once the worker is parked.
func parkOnFirstAlert(release <-chan struct{}) (onAlert func(ids.Alert), blocked <-chan struct{}) {
	parked := make(chan struct{})
	var once sync.Once
	return func(ids.Alert) {
		once.Do(func() {
			close(parked)
			<-release
		})
	}, parked
}

// registerPacket builds a REGISTER crossing the edge. It always raises
// the rogue-register alert, which the tests use to park the worker.
func registerPacket(callID string) *sim.Packet {
	reg := sipmsg.NewRequest(sipmsg.REGISTER, sipmsg.URI{Host: "a.example.com"})
	reg.Via = []sipmsg.Via{{Transport: "UDP", Host: "x.example.net", Port: 5060,
		Params: map[string]string{"branch": "z9hG4bK" + callID}}}
	reg.From = sipmsg.NameAddr{URI: sipmsg.URI{User: "a", Host: "a.example.com"}}.WithTag("r1")
	reg.To = sipmsg.NameAddr{URI: sipmsg.URI{User: "a", Host: "a.example.com"}}
	reg.CallID = callID + "@example.net"
	reg.CSeq = sipmsg.CSeq{Seq: 1, Method: sipmsg.REGISTER}
	return &sim.Packet{
		From:  sim.Addr{Host: "x.example.net", Port: 5060},
		To:    sim.Addr{Host: "reg.a.example.com", Port: 5060},
		Proto: sim.ProtoSIP, Payload: reg.Bytes(),
	}
}

// rtcpReport is an RTCP sender report toward an unadvertised
// destination; it raises no alert.
func rtcpReport(ssrc uint32) *sim.Packet {
	return &sim.Packet{
		From:    sim.Addr{Host: "m.example.net", Port: 40001},
		To:      sim.Addr{Host: "n.example.net", Port: 40001},
		Proto:   sim.ProtoRTCP,
		Payload: engine.RTCPBytes(rtp.RTCPSenderReport, ssrc),
	}
}

// TestDropOldestPolicy blocks the single shard worker on its first
// alert, floods the depth-2 queue, and checks the eviction accounting.
func TestDropOldestPolicy(t *testing.T) {
	release := make(chan struct{})
	onAlert, blocked := parkOnFirstAlert(release)
	ing := ingress.New(ingress.Config{Engine: engine.Config{
		Shards:     1,
		QueueDepth: 2,
		Policy:     engine.DropOldest,
		OnAlert:    onAlert,
	}})
	if err := ing.Ingest(registerPacket("drop"), 0); err != nil {
		t.Fatal(err)
	}
	<-blocked

	// 10 sender reports against a depth-2 queue must evict 8.
	for i := 0; i < 10; i++ {
		if err := ing.Ingest(rtcpReport(7), time.Duration(i+1)*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	st := ing.Stats()
	assertAccounting(t, st)
	if st.Dropped != 8 {
		t.Errorf("dropped %d, want 8", st.Dropped)
	}
	if st.Processed != 3 { // the REGISTER + the 2 surviving reports
		t.Errorf("processed %d, want 3", st.Processed)
	}
}

// TestStatsThroughput sanity-checks the derived rate.
func TestStatsThroughput(t *testing.T) {
	entries := engine.Synthesize(engine.SynthConfig{Calls: 2, RTPPerCall: 2})
	_, st := replayEngine(t, entries, engine.Config{Shards: 1})
	if st.Processed == 0 || st.PacketsPerSec <= 0 {
		t.Errorf("throughput not derived: %+v", st)
	}
	if st.Elapsed <= 0 {
		t.Errorf("elapsed %v", st.Elapsed)
	}
}

// TestLateHangupParity regresses a divergence found on a real testbed
// capture: a dialog that goes idle past the eviction horizon and only
// then hangs up. Both the shard and the sequential IDS have already
// evicted the monitor (leaving tombstones that swallow the BYE and its
// 200). A routing index that simply forgot the Call-ID would feed the
// straggler 200 to the shared reflection detector — raising a
// deviation the sequential path never raises — so swept calls leave
// tombstones on the ingress lanes too.
func TestLateHangupParity(t *testing.T) {
	d := engine.NewDialog(0, "late")
	g := &engine.SynthGen{}
	g.Add(0, sim.ProtoSIP, d.CallerAddr(), d.CalleeAddr(), d.Invite().Bytes())
	g.Add(20*time.Millisecond, sim.ProtoSIP, d.CalleeAddr(), d.CallerAddr(), d.OK().Bytes())
	g.Add(40*time.Millisecond, sim.ProtoSIP, d.CallerAddr(), d.CalleeAddr(), d.Ack().Bytes())
	// Silence until the sweeps (which run every half retention period)
	// have provably fired on both the shards and the lanes, then the
	// caller hangs up and the callee answers.
	cfg := ids.DefaultConfig()
	late := 2*(cfg.IdleEviction+cfg.CloseLinger) + time.Minute
	g.Add(late, sim.ProtoSIP, d.CallerAddr(), d.CalleeAddr(), d.Bye().Bytes())
	okBye := sipmsg.NewResponse(d.Bye(), sipmsg.StatusOK)
	g.Add(late+20*time.Millisecond, sim.ProtoSIP, d.CalleeAddr(), d.CallerAddr(), okBye.Bytes())

	want := replaySequential(t, g.Entries(), ids.DefaultConfig())
	got, st := replayEngine(t, g.Entries(), engine.Config{Shards: 4})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("alerts diverge:\nengine:     %v\nsequential: %v", got, want)
	}
	if st.Absorbed != 1 {
		t.Errorf("absorbed = %d, want 1 (the straggler 200-for-BYE)", st.Absorbed)
	}
}

// TestShedPolicyMediaFirst blocks the single shard worker, fills the
// depth-4 queue with media, and verifies the shedding tiers with exact
// counters: arriving media is dropped on the floor once the ring is
// full, arriving signaling evicts the oldest queued media, and only a
// ring full of signaling sacrifices its own oldest entry. The retire
// hook must see every ingested packet exactly once, evicted or not.
func TestShedPolicyMediaFirst(t *testing.T) {
	release := make(chan struct{})
	onAlert, blocked := parkOnFirstAlert(release)
	var retired atomic.Uint64
	ing := ingress.New(ingress.Config{Engine: engine.Config{
		Shards:     1,
		QueueDepth: 4,
		Policy:     engine.Shed,
		OnAlert:    onAlert,
		OnRetire:   func(*sim.Packet) { retired.Add(1) },
	}})
	if err := ing.Ingest(registerPacket("shed"), 0); err != nil {
		t.Fatal(err)
	}
	<-blocked

	// Fill the ring with 4 media packets, then 2 more: the ring is full
	// and the arrivals are media, so tier 1 drops them on the floor.
	for i := 0; i < 6; i++ {
		if err := ing.Ingest(rtcpReport(uint32(i)), time.Duration(i+1)*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	// 5 INVITEs against the full ring: the first 4 evict the 4 queued
	// media packets (tier 1), the 5th finds all-signaling and evicts
	// the oldest INVITE (tier 2).
	for i := 0; i < 5; i++ {
		d := engine.NewDialog(i, "shedsip")
		pkt := &sim.Packet{
			From: d.CallerAddr(), To: d.CalleeAddr(),
			Proto: sim.ProtoSIP, Payload: d.Invite().Bytes(),
		}
		if err := ing.Ingest(pkt, time.Duration(10+i)*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	st := ing.Stats()
	assertAccounting(t, st)
	if st.DroppedMedia != 6 {
		t.Errorf("DroppedMedia = %d, want 6 (2 floor drops + 4 evictions)", st.DroppedMedia)
	}
	if st.DroppedSignaling != 1 {
		t.Errorf("DroppedSignaling = %d, want 1 (all-signaling fallback)", st.DroppedSignaling)
	}
	if st.Dropped != 7 {
		t.Errorf("Dropped = %d, want 7", st.Dropped)
	}
	if st.Processed != 5 { // the REGISTER + the 4 surviving INVITEs
		t.Errorf("processed %d, want 5", st.Processed)
	}
	if got := retired.Load(); got != st.Ingested {
		t.Errorf("retired %d of %d ingested packets", got, st.Ingested)
	}
}
