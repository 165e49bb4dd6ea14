package main

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"vids/internal/engine"
	"vids/internal/ids"
	"vids/internal/ingress"
	"vids/internal/sim"
	"vids/vbench/workload"
)

// pipe drives one trace through the production front door,
// ingress.New → Ingest → Close, observing completions only through
// the public hooks: OnRetire, OnAlert and Stats.
type pipe struct {
	tr    *workload.Trace
	procs int // shards = lanes

	base uintptr // address of tr.Packets[0]

	// Per-packet records, indexed like tr.Packets. ret is written by
	// the retire hook (on any goroutine, each element exactly once per
	// run); in/out bracket the Ingest call and are written only by the
	// generator goroutine.
	ret, in, out []int64
	retired      atomic.Int64

	alerts []seenAlert // OnAlert calls, serialized by the engine
}

type seenAlert struct {
	key workload.Key
	at  int64
}

func newPipe(tr *workload.Trace, procs int) *pipe {
	n := len(tr.Packets)
	return &pipe{
		tr:    tr,
		procs: procs,
		base:  uintptr(unsafe.Pointer(&tr.Packets[0])),
		ret:   make([]int64, n),
		in:    make([]int64, n),
		out:   make([]int64, n),
	}
}

const pktSize = unsafe.Sizeof(sim.Packet{})

// index maps a retired packet back to its trace position: every packet
// the pipe ingests is an element of tr.Packets.
func (p *pipe) index(pkt *sim.Packet) int {
	return int((uintptr(unsafe.Pointer(pkt)) - p.base) / pktSize)
}

// config builds the ingress configuration under test: one shard and one
// lane per CPU, the default detector, and the observation hooks.
func (p *pipe) config(policy engine.Policy) ingress.Config {
	return ingress.Config{
		Lanes: p.procs,
		Engine: engine.Config{
			Shards: p.procs,
			Policy: policy,
			OnRetire: func(pkt *sim.Packet) {
				p.ret[p.index(pkt)] = now()
				p.retired.Add(1)
			},
			OnAlert: func(a ids.Alert) {
				p.alerts = append(p.alerts, seenAlert{key: workload.KeyOf(a), at: now()})
			},
		},
	}
}

func (p *pipe) reset() {
	clear(p.ret)
	clear(p.in)
	clear(p.out)
	p.retired.Store(0)
	p.alerts = p.alerts[:0]
}

// setupTime builds and closes an idle tier reps times and returns the
// median time from ingress.New to a tier ready to Ingest.
func setupTime(procs, reps int) float64 {
	cfg := ingress.Config{Lanes: procs, Engine: engine.Config{Shards: procs}}
	xs := make([]float64, reps)
	for i := range xs {
		runtime.GC()
		t0 := now()
		ing := ingress.New(cfg)
		xs[i] = float64(now()-t0) / 1e9
		_ = ing.Close()
	}
	return median(xs)
}

// replayResult is one closed-loop replay: Block policy, every packet
// sent as soon as Ingest accepts the previous one.
type replayResult struct {
	wallNs  int64 // first Ingest to drained Close
	cpuNs   int64 // process CPU over the same interval
	refused int   // Ingest errors
	stats   engine.Stats
	keys    map[workload.Key]int
	retired int64
}

// replay pushes the whole trace through a fresh tier as fast as it
// accepts packets; each packet's virtual time is its trace time.
// With traced set, every Ingest call is bracketed in p.in/p.out.
func (p *pipe) replay(traced bool) replayResult {
	p.reset()
	ing := ingress.New(p.config(engine.Block))
	pkts, at := p.tr.Packets, p.tr.At
	var r replayResult
	runtime.GC()

	cpu0, t0 := cpuTime(rusageSelf), now()
	for i := range pkts {
		if traced {
			p.in[i] = now()
		}
		if err := ing.Ingest(&pkts[i], at[i]); err != nil {
			r.refused++
		}
		if traced {
			p.out[i] = now()
		}
	}
	_ = ing.Close()
	r.wallNs, r.cpuNs = now()-t0, cpuTime(rusageSelf)-cpu0
	r.stats = ing.Stats()
	r.keys = p.keys()
	r.retired = p.retired.Load()
	return r
}

func (p *pipe) keys() map[workload.Key]int {
	m := make(map[workload.Key]int, len(p.alerts))
	for _, a := range p.alerts {
		m[a.key]++
	}
	return m
}

// liveResult is one open-loop run: Shed policy, each packet sent when
// its trace time comes due on the wall clock.
type liveResult struct {
	start   int64     // wall time of trace time zero
	wallNs  int64     // first due time to the last retire
	cpuNs   int64     // process CPU over the same interval
	genCPU  int64     // the generator thread's CPU over the same interval
	late    []float64 // per packet: ns from due to the Ingest call
	refused int
	stats   engine.Stats
	keys    map[workload.Key]int
	alerts  []seenAlert
	retired int64

	stateBytes float64 // heap growth per resident call at the end of the trace
	depthMax   int     // deepest shard queue seen (traced runs)
	allocBytes uint64  // heap bytes allocated over the timed interval
	gcCycles   uint32  // GC cycles completed over the timed interval
}

// liveLead is the gap between arming the generator and the first due
// time, so the first packets are not late by construction.
const liveLead = 50 * time.Millisecond

// live paces the trace on the wall clock through a fresh tier. The
// generator runs on a locked OS thread so its own CPU can be read
// apart from the pipeline's. Packets are never sent early: when the
// next packet is not yet due the generator sleeps on a runtime timer,
// which wakes it with about a millisecond of granularity, so packets
// due within one wake-up go out back to back, as a capture path hands
// them over in batches. Lateness is recorded per packet. After
// the last retire the tier is left idle, a forced GC runs, and the
// heap growth since the tier was built is divided by the trace's
// resident calls — all outside the timed interval.
func (p *pipe) live(traced bool) liveResult {
	p.reset()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	ing := ingress.New(p.config(engine.Shed))
	pkts, at := p.tr.Packets, p.tr.At
	r := liveResult{late: make([]float64, len(pkts))}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)

	r.start = now() + int64(liveLead)
	cpu0, gcpu0 := cpuTime(rusageSelf), cpuTime(rusageThread)
	for i := range pkts {
		due := r.start + int64(at[i])
		if wait := due - now(); wait > 0 {
			time.Sleep(time.Duration(wait))
			if traced {
				r.depthMax = max(r.depthMax, maxDepth(ing.Stats()))
			}
		}
		sent := now()
		r.late[i] = float64(sent - due)
		if traced {
			p.in[i] = sent
		}
		if err := ing.Ingest(&pkts[i], at[i]); err != nil {
			r.refused++
		}
		if traced {
			p.out[i] = now()
		}
	}
	want := int64(len(pkts) - r.refused)
	for p.retired.Load() < want {
		time.Sleep(100 * time.Microsecond)
	}
	r.cpuNs, r.genCPU = cpuTime(rusageSelf)-cpu0, cpuTime(rusageThread)-gcpu0
	end := r.start
	for _, t := range p.ret {
		end = max(end, t)
	}
	r.wallNs = end - r.start

	runtime.ReadMemStats(&ms1)
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.gcCycles = ms1.NumGC - ms0.NumGC
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	if p.tr.Resident > 0 {
		r.stateBytes = (float64(ms1.HeapAlloc) - float64(ms0.HeapAlloc)) / float64(p.tr.Resident)
	}

	_ = ing.Close()
	r.stats = ing.Stats()
	r.keys = p.keys()
	r.alerts = append([]seenAlert(nil), p.alerts...)
	r.retired = p.retired.Load()
	return r
}

func maxDepth(st engine.Stats) int {
	d := 0
	for _, s := range st.Shards {
		d = max(d, s.Depth)
	}
	return d
}

// latencies returns each live packet's due→retire time in
// microseconds.
func (p *pipe) latencies(r liveResult) []float64 {
	out := make([]float64, len(p.ret))
	for i, t := range p.ret {
		out[i] = float64(t-(r.start+int64(p.tr.At[i]))) / 1e3
	}
	return out
}

// detectLatencies matches each expected alert, in completion order,
// with the live alerts of its key, in arrival order, and returns the
// due→OnAlert times in milliseconds of the matched pairs.
func detectLatencies(tr *workload.Trace, r liveResult) []float64 {
	seen := map[workload.Key][]int64{}
	for _, a := range r.alerts {
		seen[a.key] = append(seen[a.key], a.at)
	}
	var out []float64
	for _, e := range tr.Expected {
		ts := seen[e.Key]
		if len(ts) == 0 {
			continue
		}
		seen[e.Key] = ts[1:]
		out = append(out, float64(ts[0]-(r.start+int64(tr.At[e.Done])))/1e6)
	}
	return out
}
