package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"reflect"
	"sort"
	"testing"
	"time"

	"vids/internal/ids"
	"vids/internal/sdp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
)

const testDur = 4 * time.Second

func digest(t *Trace) [32]byte {
	h := sha256.New()
	var b [8]byte
	for i := range t.Packets {
		p := &t.Packets[i]
		binary.LittleEndian.PutUint64(b[:], uint64(t.At[i]))
		h.Write(b[:])
		h.Write([]byte(p.From.Host + "|" + p.To.Host + "|" + p.Proto.String()))
		binary.LittleEndian.PutUint64(b[:], uint64(p.From.Port)<<32|uint64(p.To.Port))
		h.Write(b[:])
		h.Write(p.Payload.([]byte))
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func mustGenerate(t *testing.T, name string, seed uint64) *Trace {
	t.Helper()
	tr, err := Generate(name, seed, testDur)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, name := range Names() {
		a, b := mustGenerate(t, name, 7), mustGenerate(t, name, 7)
		if digest(a) != digest(b) {
			t.Errorf("%s: seed 7 produced two different traces", name)
		}
		if !reflect.DeepEqual(a.Expected, b.Expected) || a.Resident != b.Resident {
			t.Errorf("%s: seed 7 produced two different expectations", name)
		}
		if c := mustGenerate(t, name, 8); digest(a) == digest(c) {
			t.Errorf("%s: seeds 7 and 8 produced the same trace", name)
		}
	}
}

func TestTimeOrdered(t *testing.T) {
	for _, name := range Names() {
		tr := mustGenerate(t, name, 1)
		if !sort.SliceIsSorted(tr.At, func(i, j int) bool { return tr.At[i] < tr.At[j] }) {
			t.Errorf("%s: packets are not in time order", name)
		}
		if last := tr.At[len(tr.At)-1]; last > tr.Duration {
			t.Errorf("%s: last packet at %v, past the %v trace", name, last, tr.Duration)
		}
	}
}

// TestDisjointCallsAndMedia checks that every dialog has its own
// Call-ID and its own media destinations, and that unsolicited streams
// aim at destinations no SDP advertised.
func TestDisjointCallsAndMedia(t *testing.T) {
	for _, name := range Names() {
		tr := mustGenerate(t, name, 3)
		invites := map[string]bool{}
		owner := map[string]string{} // media key -> Call-ID
		for i := range tr.Packets {
			p := &tr.Packets[i]
			if p.Proto != sim.ProtoSIP {
				continue
			}
			m, err := sipmsg.Parse(p.Payload.([]byte))
			if err != nil {
				t.Fatalf("%s: packet %d does not parse: %v", name, i, err)
			}
			if m.IsRequest() && m.Method == sipmsg.INVITE {
				if invites[m.CallID] {
					t.Errorf("%s: Call-ID %s starts two dialogs", name, m.CallID)
				}
				invites[m.CallID] = true
			}
			if addr, port, _, ok := sdp.MediaDest(m.Body); ok {
				key := string(ids.AppendMediaKey(nil, string(addr), port))
				if o, seen := owner[key]; seen && o != m.CallID {
					t.Errorf("%s: media %s advertised by %s and %s", name, key, o, m.CallID)
				}
				owner[key] = m.CallID
			}
		}
		if len(invites) != tr.Calls {
			t.Errorf("%s: %d distinct INVITE Call-IDs, generator counted %d calls", name, len(invites), tr.Calls)
		}
		for _, e := range tr.Expected {
			if e.Key.Type == ids.AlertUnsolicitedRTP {
				if _, advertised := owner[e.Key.ID]; advertised {
					t.Errorf("%s: unsolicited stream aims at advertised %s", name, e.Key.ID)
				}
			}
		}
	}
}

// TestExpectedAlertsMatchSequentialIDS replays each workload through
// one sequential detector and requires exactly the generator's alert
// multiset, each alert raised at the virtual time of the packet the
// generator says completes it.
func TestExpectedAlertsMatchSequentialIDS(t *testing.T) {
	for _, name := range Names() {
		for _, seed := range []uint64{1, 2} {
			tr := mustGenerate(t, name, seed)
			if len(tr.Expected) == 0 {
				t.Fatalf("%s seed %d: no expected alerts", name, seed)
			}
			s := sim.New(1)
			d := ids.New(s, ids.DefaultConfig())
			for i := range tr.Packets {
				if err := s.RunUntil(tr.At[i]); err != nil {
					t.Fatal(err)
				}
				d.Process(&tr.Packets[i])
			}
			if err := s.RunAll(); err != nil {
				t.Fatal(err)
			}
			got := map[Key][]time.Duration{}
			for _, a := range d.Alerts() {
				got[KeyOf(a)] = append(got[KeyOf(a)], a.At)
			}
			want := map[Key][]time.Duration{}
			for _, e := range tr.Expected {
				want[e.Key] = append(want[e.Key], tr.At[e.Done])
			}
			for k, ts := range got {
				sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
				if !reflect.DeepEqual(ts, want[k]) {
					t.Errorf("%s seed %d: %v raised at %v, expected at %v", name, seed, k, ts, want[k])
				}
			}
			for k, ts := range want {
				if _, ok := got[k]; !ok {
					t.Errorf("%s seed %d: %v expected at %v, never raised", name, seed, k, ts)
				}
			}
		}
	}
}

func TestResidentCounts(t *testing.T) {
	tr := mustGenerate(t, MediaSteady, 1)
	if tr.Resident != steadyCalls {
		t.Errorf("media_steady: %d resident calls, want %d", tr.Resident, steadyCalls)
	}
	tr = mustGenerate(t, CallChurn, 1)
	// Short calls linger 10 s after closing, so a 4 s trace holds all.
	if tr.Resident != tr.Calls {
		t.Errorf("call_churn: %d resident of %d calls", tr.Resident, tr.Calls)
	}
}
