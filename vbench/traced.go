package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"vids/internal/sim"
	"vids/vbench/workload"
)

// spanDir is where a traced run writes its spans, relative to the
// directory the benchmark runs in.
const spanDir = ".bench_build/spans"

// tracedReplays is how many untraced/traced replay pairs a traced run
// alternates. The tracing overhead compares the two kinds' median
// capacities; the ledger base is the traced replays' median CPU, so the
// layer times and the CPU they are set against both carry the tracing
// cost; the last traced replay supplies the per-packet spans.
const tracedReplays = 2

// tracedRun measures the per-layer metrics. It alternates untraced
// replays (the tracing-overhead reference) with replays whose every
// Ingest call is bracketed (the ledger's source and base), runs the live
// phase traced, and finishes with the sequential decomposition pass,
// which also cross-checks the pipeline's alerts against one sequential
// detector.
func tracedRun(p *pipe, rep *report) liveResult {
	tr := p.tr
	n := float64(len(tr.Packets))

	var baseCPU, capBase, capTraced []float64
	var traced replayResult
	for i := 1; i <= tracedReplays; i++ {
		base := p.replay(false)
		checkReplay(rep, tr, base, fmt.Sprintf("untraced replay %d", i))
		traced = p.replay(true)
		checkReplay(rep, tr, traced, fmt.Sprintf("traced replay %d", i))
		baseCPU = append(baseCPU, float64(traced.cpuNs)/n)
		capBase = append(capBase, n/(float64(base.wallNs)/1e9))
		capTraced = append(capTraced, n/(float64(traced.wallNs)/1e9))
	}
	cls := classify(p)
	replaySpans := p.snapshot()

	lv := p.live(true)
	checkLive(rep, tr, lv, traced)
	seq := sequential(tr)
	if m, f := diff(tr.ExpectedKeys(), seq.keys); m+f > 0 {
		rep.fail("sequential detector disagrees with the generator: %s", describe(tr.ExpectedKeys(), seq.keys))
	}
	if m, f := diff(seq.keys, lv.keys); m+f > 0 {
		rep.fail("pipeline and sequential detector disagree: %s", describe(seq.keys, lv.keys))
	}

	// Ingress: Ingest call durations of the traced replay.
	rep.add("ingress.sip_ingest_ns_p50", "ns", median(cls.ingest[clsSIP]))
	rep.add("ingress.rtp_ingest_ns_p50", "ns", median(cls.rtp))
	rep.add("ingress.absorbed", "count", float64(traced.stats.Absorbed))
	rep.add("ingress.parse_errors", "count", float64(traced.stats.ParseErrors))

	// Fast path, as operated live.
	media := float64(tr.Count(sim.ProtoRTP) + tr.Count(sim.ProtoRTCP))
	rep.add("fastpath.hit_ratio", "ratio", float64(lv.stats.FastpathHits)/max(media, 1))
	rep.add("fastpath.escalations", "count", float64(lv.stats.FastpathEscalations))
	rep.add("fastpath.invalidations", "count", float64(lv.stats.FastpathInvalidations))

	// Engine: Ingest return → OnRetire for packets that reached a shard.
	var soj []float64
	for i := range p.ret {
		if p.ret[i] > p.out[i] {
			soj = append(soj, float64(p.ret[i]-p.out[i])/1e3)
		}
	}
	rep.add("engine.sojourn_us_p50", "us", quantile(soj, 0.50))
	rep.add("engine.sojourn_us_p99", "us", quantile(soj, 0.99))
	rep.add("engine.queue_depth_max", "count", float64(lv.depthMax))
	rep.add("engine.dropped_media", "count", float64(lv.stats.DroppedMedia))
	rep.add("engine.dropped_signaling", "count", float64(lv.stats.DroppedSignaling))
	var hi, sum float64
	for _, s := range traced.stats.Shards {
		hi = max(hi, float64(s.Processed))
		sum += float64(s.Processed)
	}
	rep.add("engine.shard_skew", "ratio", hi/(sum/float64(len(traced.stats.Shards))))

	// Parser and detector layers, from the sequential decomposition.
	rep.add("sipmsg.parse_ns", "ns", seq.parseNs)
	rep.add("sipmsg.parse_allocs", "allocs", seq.parseAllocs)
	rep.add("rtp.parse_ns", "ns", seq.rtpParseNs)
	rep.add("ids.sip_ns", "ns", seq.sipNs)
	rep.add("ids.media_ns", "ns", seq.mediaNs)
	rep.add("ids.allocs_per_pkt", "allocs", seq.allocsPer)
	rep.add("ids.active_calls_peak", "count", float64(seq.activePeak))

	// Runtime, over the live phase.
	rep.add("go.alloc_bytes_per_pkt", "B", float64(lv.allocBytes)/n)
	rep.add("go.gc_cycles", "count", float64(lv.gcCycles))

	// Ledger: each layer's self time per packet, weighted by how many
	// packets reached that layer in the traced replay, against that
	// replay's CPU per packet. What the layers do not explain is
	// handoff, wake-ups, GC and the generator loop.
	sipShard := float64(len(cls.ingest[clsSIP]) - cls.sipAbsorbed)
	mediaShard := float64(len(cls.ingest[clsMediaEscalated]))
	parts := []struct {
		name string
		ns   float64
	}{
		{"ingress.sip", float64(len(cls.ingest[clsSIP])) * median(cls.ingest[clsSIP])},
		{"ingress.media_absorbed", float64(len(cls.ingest[clsMediaAbsorbed])) * medianOr0(cls.ingest[clsMediaAbsorbed])},
		{"ingress.media_escalated", mediaShard * medianOr0(cls.ingest[clsMediaEscalated])},
		{"sipmsg.parse", sipShard * seq.parseNs},
		{"ids.sip", sipShard * seq.sipNs},
		{"ids.media", mediaShard * seq.mediaNs},
	}
	layerSum := 0.0
	for _, pt := range parts {
		layerSum += pt.ns
	}
	cpu := median(baseCPU)
	fmt.Printf("ledger base=traced replay process CPU %.1f ns/pkt over %d packets\n", cpu, len(tr.Packets))
	for _, pt := range parts {
		fmt.Printf("ledger %-24s %9.1f ns/pkt %5.1f%% of base\n", pt.name, pt.ns/n, 100*pt.ns/n/cpu)
	}
	rep.add("ledger.layer_sum_ns_per_pkt", "ns", layerSum/n)
	rep.add("ledger.residual_ns_per_pkt", "ns", cpu-layerSum/n)
	rep.add("ledger.base_cpu_ns_per_pkt", "ns", cpu)
	rep.add("ledger.sequential_ns_per_pkt", "ns", seq.wallNsPer)
	fmt.Printf("ledger %-24s %9.1f ns/pkt %5.1f%% of base\n", "residual", cpu-layerSum/n, 100*(cpu-layerSum/n)/cpu)

	cb, ct := median(capBase), median(capTraced)
	fmt.Printf("tracing capacity untraced=%.0f/s traced=%.0f/s\n", cb, ct)
	rep.add("trace.capacity_overhead", "ratio", (cb-ct)/cb)

	liveCommon(rep, p, lv)

	if err := writeSpans(spanDir, tr, replaySpans, p, lv); err != nil {
		fmt.Fprintln(os.Stderr, "vbench: spans:", err)
	}
	return lv
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// Ledger classes of the traced replay. A packet retired before its
// Ingest call returned was disposed of inside the ingress tier.
const (
	clsSIP = iota
	clsMediaAbsorbed
	clsMediaEscalated
	numClasses
)

type classes struct {
	ingest      [numClasses][]float64 // Ingest durations, ns
	rtp         []float64             // Ingest durations of RTP packets, ns
	sipAbsorbed int                   // SIP packets disposed of at ingress
}

func classify(p *pipe) classes {
	var c classes
	for i := range p.tr.Packets {
		d := float64(p.out[i] - p.in[i])
		absorbed := p.ret[i] <= p.out[i]
		switch {
		case p.tr.Packets[i].Proto == sim.ProtoSIP:
			c.ingest[clsSIP] = append(c.ingest[clsSIP], d)
			if absorbed {
				c.sipAbsorbed++
			}
		case absorbed:
			c.ingest[clsMediaAbsorbed] = append(c.ingest[clsMediaAbsorbed], d)
		default:
			c.ingest[clsMediaEscalated] = append(c.ingest[clsMediaEscalated], d)
		}
		if p.tr.Packets[i].Proto == sim.ProtoRTP {
			c.rtp = append(c.rtp, d)
		}
	}
	return c
}

// spanSet is one phase's per-packet span times.
type spanSet struct{ in, out, ret []int64 }

func (p *pipe) snapshot() spanSet {
	return spanSet{in: append([]int64(nil), p.in...), out: append([]int64(nil), p.out...), ret: append([]int64(nil), p.ret...)}
}

// writeSpans writes the traced run's spans as CSV: per packet an
// ingest span and its retire child, per alert an alert span whose
// parent is the ingest span of the packet that completed its evidence.
// Every SIP packet is written; media packets are sampled one in 16 to
// bound the file.
func writeSpans(dir string, tr *workload.Trace, replay spanSet, p *pipe, lv liveResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, tr.Name+".csv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "phase,span,id,parent,start_ns,end_ns,detail")
	live := spanSet{in: p.in, out: p.out, ret: p.ret}
	for _, ph := range []struct {
		name string
		s    spanSet
	}{{"replay", replay}, {"live", live}} {
		for i := range tr.Packets {
			pkt := &tr.Packets[i]
			if pkt.Proto != sim.ProtoSIP && i%16 != 0 {
				continue
			}
			fmt.Fprintf(w, "%s,ingest,%d,,%d,%d,%s\n", ph.name, i, ph.s.in[i], ph.s.out[i], pkt.Proto)
			fmt.Fprintf(w, "%s,retire,%d,%d,%d,%d,\n", ph.name, i, i, ph.s.ret[i], ph.s.ret[i])
		}
	}
	seen := map[workload.Key][]int64{}
	for _, a := range lv.alerts {
		seen[a.key] = append(seen[a.key], a.at)
	}
	for _, e := range tr.Expected {
		if ts := seen[e.Key]; len(ts) > 0 {
			seen[e.Key] = ts[1:]
			due := lv.start + int64(tr.At[e.Done])
			fmt.Fprintf(w, "live,alert,,%d,%d,%d,%s\n", e.Done, due, ts[0], e.Key)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
