// Command vbench is the vids benchmark. It generates a seeded traffic
// mix, drives it through the production front door (ingress.New →
// Ingest → Close, one shard and one lane per CPU, in process), and
// prints every metric by name with its unit, ending with one JSON
// result line.
//
// Each run has two phases over the same trace. replay is a closed
// loop under the Block policy: packets are sent as fast as Ingest
// accepts them, each carrying its trace time (the vidsd -pace 0
// shape); it measures capacity. live is an open loop under the Shed
// policy: each packet is sent when its trace time comes due on the
// wall clock, and latency is timed from that due time; it measures
// latency, CPU per packet, drops, detection delay and resident state.
//
// With -trace 1 the run instead records spans around every layer call
// (Ingest, OnRetire, OnAlert), adds a sequential decomposition pass
// that times sipmsg.Parse, ids.ProcessSIP and ids.Process apart, and
// prints the per-layer metrics and the cost ledger.
//
// Usage:
//
//	vbench -workload call_churn -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"vids/internal/engine"
	"vids/internal/sim"
	"vids/vbench/workload"
)

// Live-run validity: a generator that falls this far behind its
// schedule did not offer the workload's load, so the run is invalid.
const maxLatenessP99 = 25 * time.Millisecond

// Each batch of closed-loop replays runs at least minReplays times and
// until replayBudget of replay time is spent (at most maxReplays).
const (
	minReplays   = 2
	maxReplays   = 16
	replayBudget = 3 * time.Second
)

// setupReps is how many idle tiers the set-up measurement builds.
const setupReps = 15

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in print order and the correctness gate.
type report struct {
	names   []string
	metrics map[string]metric
	fails   []string
}

// add records a metric. A value that is not finite (a statistic over
// no samples) fails the gate and is recorded as 0, so the result line
// stays valid JSON.
func (r *report) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s has no finite value", name)
		v = 0
	}
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) fail(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

// only returns the subset of metrics the result line carries.
func (r *report) only(names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		if m, ok := r.metrics[n]; ok {
			out[n] = m
		}
	}
	return out
}

// endToEnd and perLayer name the metrics of the result line for
// -trace 0 and -trace 1; BENCHMARK.json lists the same names.
var endToEnd = []string{
	"setup_s", "capacity_pps", "cpu_ns_per_pkt", "state_bytes_per_call",
}

var perLayer = []string{
	"ingress.sip_ingest_ns_p50", "ingress.rtp_ingest_ns_p50",
	"ingress.absorbed", "ingress.parse_errors",
	"fastpath.hit_ratio", "fastpath.escalations", "fastpath.invalidations",
	"engine.sojourn_us_p50", "engine.sojourn_us_p99", "engine.queue_depth_max",
	"engine.dropped_media", "engine.dropped_signaling", "engine.shard_skew",
	"sipmsg.parse_ns", "sipmsg.parse_allocs", "rtp.parse_ns",
	"ids.sip_ns", "ids.media_ns", "ids.allocs_per_pkt", "ids.active_calls_peak",
	"go.alloc_bytes_per_pkt", "go.gc_cycles",
	"ledger.layer_sum_ns_per_pkt", "ledger.residual_ns_per_pkt",
	"ledger.base_cpu_ns_per_pkt", "ledger.sequential_ns_per_pkt",
	"latency_p50_us", "latency_p99_us", "detect_latency_p50_ms",
	"gen.lateness_us_p50", "gen.lateness_us_p99", "gen.cpu_ns_per_pkt",
	"trace.capacity_overhead",
	"drop_ratio", "alerts_missed", "alerts_false",
}

func main() {
	name := flag.String("workload", "", "workload: "+fmt.Sprint(workload.Names()))
	seed := flag.Uint64("seed", 1, "generator seed")
	seconds := flag.Int("seconds", 10, "trace duration, and so the live phase's length, in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	if flag.NArg() != 0 || *name == "" || *seconds < 2 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}

	tg := now()
	tr, err := workload.Generate(*name, *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbench:", err)
		os.Exit(2)
	}
	procs := runtime.NumCPU()
	fmt.Printf("env nproc=%d gomaxprocs=%d shards=%d lanes=%d go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), procs, procs, runtime.Version())
	fmt.Printf("trace workload=%s seed=%d seconds=%d packets=%d sip=%d rtp=%d rtcp=%d calls=%d resident=%d expected_alerts=%d generated_in=%.2fs\n",
		tr.Name, tr.Seed, *seconds, len(tr.Packets), tr.Count(sim.ProtoSIP), tr.Count(sim.ProtoRTP),
		tr.Count(sim.ProtoRTCP), tr.Calls, tr.Resident, len(tr.Expected), float64(now()-tg)/1e9)

	rep := &report{metrics: map[string]metric{}}
	p := newPipe(tr, procs)
	var lv liveResult
	if *traced == 1 {
		lv = tracedRun(p, rep)
	} else {
		lv = untracedRun(p, rep)
	}

	attempted := len(tr.Packets)
	failed := int(lv.stats.Dropped) + lv.refused
	for _, n := range rep.names {
		m := rep.metrics[n]
		fmt.Printf("metric %-30s %.6g %s\n", n, m.Value, m.Unit)
	}
	for _, f := range rep.fails {
		fmt.Fprintln(os.Stderr, "vbench: gate:", f)
	}
	want := endToEnd
	if *traced == 1 {
		want = perLayer
	}
	out, err := json.Marshal(result{
		Correct:   len(rep.fails) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   rep.only(want),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// untracedRun measures the end-to-end metrics.
func untracedRun(p *pipe, rep *report) liveResult {
	tr := p.tr
	n := float64(len(tr.Packets))
	rep.add("setup_s", "s", setupTime(p.procs, setupReps))

	// Replays run before and after the live phase, so the capacity
	// median samples two moments of the run rather than one. The live
	// phase's per-packet records are read before the late replays
	// reuse them.
	caps, first := replays(rep, p, "replay")
	lv := p.live(false)
	checkLive(rep, tr, lv, first)
	rep.add("cpu_ns_per_pkt", "ns", float64(lv.cpuNs)/n)
	rep.add("state_bytes_per_call", "B", lv.stateBytes)
	liveCommon(rep, p, lv)
	more, _ := replays(rep, p, "late replay")
	caps = append(caps, more...)
	fmt.Printf("replay runs=%d capacity_pps=%.0f\n", len(caps), caps)
	rep.add("capacity_pps", "1/s", median(caps))
	return lv
}

// replays runs one batch of closed-loop replays, gating each, and
// returns their capacities and the first replay.
func replays(rep *report, p *pipe, phase string) ([]float64, replayResult) {
	n := float64(len(p.tr.Packets))
	var caps []float64
	var first replayResult
	for spent := int64(0); len(caps) < minReplays || (spent < int64(replayBudget) && len(caps) < maxReplays); {
		r := p.replay(false)
		spent += r.wallNs
		caps = append(caps, n/(float64(r.wallNs)/1e9))
		checkReplay(rep, p.tr, r, fmt.Sprintf("%s %d", phase, len(caps)))
		if len(caps) == 1 {
			first = r
		}
	}
	return caps, first
}

// liveCommon reports the live-run latencies, validity and gate counts
// every run prints.
func liveCommon(rep *report, p *pipe, lv liveResult) {
	tr := p.tr
	n := float64(len(tr.Packets))
	lat := withDrops(p.latencies(lv), lv)
	rep.add("latency_p50_us", "us", quantile(lat, 0.50))
	rep.add("latency_p99_us", "us", quantile(lat, 0.99))
	rep.add("detect_latency_p50_ms", "ms", median(detectLatencies(tr, lv)))
	rep.add("drop_ratio", "ratio", float64(lv.stats.Dropped)/float64(max(lv.stats.Ingested, 1)))
	missed, false_ := diff(tr.ExpectedKeys(), lv.keys)
	rep.add("alerts_missed", "count", float64(missed))
	rep.add("alerts_false", "count", float64(false_))
	late50, late99 := quantile(lv.late, 0.50), quantile(lv.late, 0.99)
	rep.add("gen.lateness_us_p50", "us", late50/1e3)
	rep.add("gen.lateness_us_p99", "us", late99/1e3)
	rep.add("gen.cpu_ns_per_pkt", "ns", float64(lv.genCPU)/n)
	valid := time.Duration(late99) <= maxLatenessP99
	fmt.Printf("live valid=%t lateness_p50=%.1fus lateness_p99=%.1fus gen_cpu=%.3fs process_cpu=%.3fs wall=%.3fs samples=%d\n",
		valid, late50/1e3, late99/1e3, float64(lv.genCPU)/1e9, float64(lv.cpuNs)/1e9, float64(lv.wallNs)/1e9, len(lv.late))
	if !valid {
		rep.fail("live generator missed its schedule: lateness p99 %.1fms > %v", late99/1e6, maxLatenessP99)
	}
}

// withDrops appends one sample per dropped packet as late as the whole
// live phase: a shed packet counts as missing every latency limit.
func withDrops(lat []float64, lv liveResult) []float64 {
	for i := uint64(0); i < lv.stats.Dropped; i++ {
		lat = append(lat, float64(lv.wallNs)/1e3)
	}
	return lat
}

// diff compares alert multisets: alerts expected but not seen, and
// seen but not expected.
func diff(want, got map[workload.Key]int) (missed, false_ int) {
	for k, w := range want {
		if g := got[k]; g < w {
			missed += w - g
		}
	}
	for k, g := range got {
		if w := want[k]; g > w {
			false_ += g - w
		}
	}
	return missed, false_
}

func describe(want, got map[workload.Key]int) string {
	var out []string
	for k, w := range want {
		if g := got[k]; g != w {
			out = append(out, fmt.Sprintf("%v want %d got %d", k, w, g))
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			out = append(out, fmt.Sprintf("%v want 0 got %d", k, g))
		}
	}
	sort.Strings(out)
	if len(out) > 8 {
		out = append(out[:8], fmt.Sprintf("... %d more", len(out)-8))
	}
	return fmt.Sprint(out)
}

// accounting checks that every accepted packet was retired exactly
// once and that the pipeline's census balances.
func accounting(rep *report, phase string, n int, refused int, retired int64, st engine.Stats) {
	if int64(n-refused) != retired {
		rep.fail("%s: %d packets accepted, %d retired", phase, n-refused, retired)
	}
	if st.Ingested != uint64(n-refused) {
		rep.fail("%s: engine counted %d ingested, %d were accepted", phase, st.Ingested, n-refused)
	}
	if got := st.Processed + st.Absorbed + st.Ignored + st.ParseErrors + st.Dropped; got != st.Ingested {
		rep.fail("%s: census %d processed+absorbed+ignored+parse-errors+dropped != %d ingested", phase, got, st.Ingested)
	}
}

func checkReplay(rep *report, tr *workload.Trace, r replayResult, phase string) {
	if r.refused > 0 {
		rep.fail("%s: %d packets refused", phase, r.refused)
	}
	accounting(rep, phase, len(tr.Packets), r.refused, r.retired, r.stats)
	if m, f := diff(tr.ExpectedKeys(), r.keys); m+f > 0 {
		rep.fail("%s: alerts differ from the generator's: %s", phase, describe(tr.ExpectedKeys(), r.keys))
	}
}

// checkLive gates the live phase against the generator and against the
// replay phase of the same run.
func checkLive(rep *report, tr *workload.Trace, lv liveResult, r replayResult) {
	accounting(rep, "live", len(tr.Packets), lv.refused, lv.retired, lv.stats)
	if m, f := diff(tr.ExpectedKeys(), lv.keys); m+f > 0 {
		rep.fail("live: alerts differ from the generator's: %s", describe(tr.ExpectedKeys(), lv.keys))
	}
	if m, f := diff(r.keys, lv.keys); m+f > 0 {
		rep.fail("live and replay alerts disagree: %s", describe(r.keys, lv.keys))
	}
}
