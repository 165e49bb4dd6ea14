package ingress

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"vids/internal/engine"
	"vids/internal/ids"
	"vids/internal/scenario"
	"vids/internal/sim"
	"vids/internal/trace"
	"vids/internal/witness"
	"vids/internal/workload"
)

// captureScenario runs a named attack scenario with a network tap and
// returns the delivered wire-level packet trace — the same packet
// stream the testbed's inline IDS observed, replayable against any
// backend.
func captureScenario(t *testing.T, name string) []trace.Entry {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	_, err := scenario.Run(name, scenario.Options{
		Seed: 1, Out: io.Discard,
		Prepare: func(tb *workload.Testbed) { tb.Net.Tap(w.Tap) },
	})
	if err != nil {
		t.Fatalf("scenario %s: %v", name, err)
	}
	entries, err := trace.Read(&buf)
	if err != nil {
		t.Fatalf("scenario %s: read capture: %v", name, err)
	}
	if len(entries) == 0 {
		t.Fatalf("scenario %s: empty capture", name)
	}
	return entries
}

// assertFastpathParity replays entries three ways — sequential IDS,
// lane tier with the validation cache, lane tier without — and
// requires the exact alert multiset from all three. This is the
// tentpole's correctness contract: absorption may change *work*, never
// *alerts*.
func assertFastpathParity(t *testing.T, name string, entries []trace.Entry) {
	t.Helper()
	want := replaySequential(t, entries, ids.DefaultConfig())
	for _, disable := range []bool{false, true} {
		got, st := replayIngress(t, entries, Config{
			Lanes:  2,
			Engine: engine.Config{Shards: 4, DisableFastpath: disable},
		})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: fastpath=%v: alert multiset diverges from sequential: %d vs %d alerts",
				name, !disable, len(got), len(want))
			for i := 0; i < len(want) || i < len(got); i++ {
				var w, g ids.Alert
				if i < len(want) {
					w = want[i]
				}
				if i < len(got) {
					g = got[i]
				}
				if !reflect.DeepEqual(w, g) {
					t.Errorf("  [%d]\n    seq: %+v\n    ing: %+v", i, w, g)
				}
			}
		}
		if disable && st.FastpathHits+st.FastpathMisses+st.FastpathEscalations != 0 {
			t.Errorf("%s: disabled cache was consulted: %+v", name, st)
		}
		if sum := st.Processed + st.Absorbed + st.Ignored + st.ParseErrors; sum != uint64(len(entries)) {
			t.Errorf("%s: fastpath=%v: accounting mismatch: %d accounted of %d entries",
				name, !disable, sum, len(entries))
		}
	}
}

// TestFastpathScenarioParity pins alert parity across every attack
// scenario in the suite: -fastpath on and off must both reproduce the
// sequential ground truth exactly.
func TestFastpathScenarioParity(t *testing.T) {
	for _, name := range scenario.Names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			assertFastpathParity(t, name, captureScenario(t, name))
		})
	}
}

// TestFastpathWitnessTraceParity pins alert parity across the
// hand-authored speccover witness traces — the packet sequences built
// to reach transitions the scenarios do not, including the reorder,
// absorb and post-close corners most likely to disagree with a cache.
// The traces are synthesized in-process, the same sequences
// `make speccover` writes to coverage-traces/.
func TestFastpathWitnessTraceParity(t *testing.T) {
	traces := witness.Traces()
	if len(traces) < 14 {
		t.Fatalf("found %d witness traces, want at least 14", len(traces))
	}
	for _, wt := range traces {
		wt := wt
		t.Run(wt.Name+".jsonl", func(t *testing.T) {
			t.Parallel()
			assertFastpathParity(t, wt.Name+".jsonl", wt.Entries)
		})
	}
}

// TestFastpathRTPRacingBYEAcrossLanes is the adversarial interleaving:
// a call's media is being absorbed by the cache when its BYE arrives
// on a *different lane*, racing hundreds of in-flight RTP packets. The
// ingress-time DisarmCall must linearize the BYE against absorption —
// whatever the arrival interleaving, RTP the cache absorbs is
// "before the BYE" and RTP after the disarm takes the slow path, where
// the machine (in RTP_AFTER_BYE) raises exactly one toll-fraud alert.
// No interleaving may yield zero alerts (absorption swallowing the
// attack) or extra ones.
func TestFastpathRTPRacingBYEAcrossLanes(t *testing.T) {
	entries := captureScenario(t, "toll-fraud")
	want := replaySequential(t, entries, ids.DefaultConfig())
	wantTypes := alertTypeCounts(want)
	if wantTypes[ids.AlertTollFraud] != 1 {
		t.Fatalf("toll-fraud scenario ground truth has %d toll-fraud alerts, want 1: %+v",
			wantTypes[ids.AlertTollFraud], want)
	}

	// Split at the BYE: everything before it is establishment and
	// in-call media, fed packet-by-packet with the pipeline drained
	// between packets so flows deterministically reach the armed,
	// absorbing state. Everything from the BYE on is split into a
	// signaling stream and a media stream fed by two goroutines — the
	// BYE races the fraudster's RTP into different lanes.
	byeIdx := -1
	for i, en := range entries {
		pkt := en.Packet()
		if pkt.Proto == sim.ProtoSIP && bytes.HasPrefix(payloadBytes(pkt), []byte("BYE ")) {
			byeIdx = i
			break
		}
	}
	if byeIdx <= 0 {
		t.Fatal("no BYE in toll-fraud capture")
	}

	ing := New(Config{Lanes: 4, Engine: engine.Config{Shards: 4}})
	drained := func(n uint64) bool {
		st := ing.Stats()
		return st.Processed+st.Absorbed+st.Ignored+st.ParseErrors >= n
	}
	for i, en := range entries[:byeIdx] {
		if err := ing.Ingest(en.Packet(), en.At()); err != nil {
			t.Fatalf("establishment entry %d: %v", i, err)
		}
		for !drained(uint64(i + 1)) {
			runtime.Gosched()
		}
	}
	if st := ing.Stats(); st.FastpathHits == 0 {
		t.Fatalf("in-call media never armed the cache before the race: %+v", st)
	}

	var sip, media []trace.Entry
	for _, en := range entries[byeIdx:] {
		if en.Packet().Proto == sim.ProtoSIP {
			sip = append(sip, en)
		} else {
			media = append(media, en)
		}
	}
	if len(media) < 50 {
		t.Fatalf("only %d post-BYE media packets to race", len(media))
	}
	// Race the signaling stream (BYE first) against the first half of
	// the fraudster's media. Packets racing the BYE may land on either
	// side of the disarm — both sides are legal serializations. The
	// second half is fed after the join barrier, so it is ingested
	// provably after DisarmCall returned: absorption for this flow is
	// over, and the slow path must see the attack.
	racing, after := media[:len(media)/2], media[len(media)/2:]
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, stream := range [][]trace.Entry{sip, racing} {
		wg.Add(1)
		go func(stream []trace.Entry) {
			defer wg.Done()
			for _, en := range stream {
				if err := ing.Ingest(en.Packet(), en.At()); err != nil {
					errs <- err
					return
				}
			}
		}(stream)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, en := range after {
		if err := ing.Ingest(en.Packet(), en.At()); err != nil {
			t.Fatalf("post-race entry %d: %v", i, err)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	// The racing interleaving may shift *when* the toll-fraud fires
	// (the first slow-path packet after the BYE is processed), but
	// never whether or how often: the alert type multiset must match
	// the sequential ground truth under every interleaving.
	got := ing.Alerts()
	if !reflect.DeepEqual(alertTypeCounts(got), wantTypes) {
		t.Errorf("racing BYE changed the alert multiset:\n  want %v\n  got  %v (alerts: %+v)",
			wantTypes, alertTypeCounts(got), got)
	}
	st := ing.Stats()
	if st.FastpathInvalidations == 0 {
		t.Errorf("BYE never invalidated the absorbing flows: %+v", st)
	}
	if sum := st.Processed + st.Absorbed + st.Ignored + st.ParseErrors; sum != uint64(len(entries)) {
		t.Errorf("accounting mismatch: %d accounted of %d entries", sum, len(entries))
	}
}

func alertTypeCounts(alerts []ids.Alert) map[ids.AlertType]int {
	m := map[ids.AlertType]int{}
	for _, a := range alerts {
		m[a.Type]++
	}
	return m
}

// payloadBytes exposes a packet's wire bytes when it carries raw
// bytes; structured payloads render through their Bytes method.
func payloadBytes(pkt *sim.Packet) []byte {
	switch p := pkt.Payload.(type) {
	case []byte:
		return p
	case interface{ Bytes() []byte }:
		return p.Bytes()
	}
	return nil
}
