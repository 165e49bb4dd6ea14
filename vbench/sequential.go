package main

import (
	"runtime"

	"vids/internal/ids"
	"vids/internal/rtp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
	"vids/vbench/workload"
)

// seqResult is the single-threaded decomposition of one trace: the
// same packets through one ids.IDS, with the parse, the SIP detection
// step and the media detection step timed apart.
type seqResult struct {
	parseNs     float64 // sipmsg.Parse per SIP packet (parse-only pass)
	parseAllocs float64 // heap allocations per sipmsg.Parse
	rtpParseNs  float64 // rtp.ParseInto per RTP packet
	sipNs       float64 // ids.ProcessSIP per SIP packet
	mediaNs     float64 // ids.Process per RTP/RTCP packet
	allocsPer   float64 // detector allocations per packet, parse excluded
	activePeak  int     // most monitors resident at once
	wallNsPer   float64 // the whole sequential replay per packet
	keys        map[workload.Key]int
}

var parseSink *sipmsg.Message

// sequential runs the decomposition passes. The detector uses the
// engine's IDS configuration except that it runs its own flood windows
// (ExternalFloods off), the work the ingress lanes do in the pipeline,
// so its alerts are the full set and cross-check the pipeline's.
func sequential(tr *workload.Trace) seqResult {
	var r seqResult
	var ms0, ms1 runtime.MemStats

	// Parse-only pass: time and allocations of sipmsg.Parse alone.
	nSIP, nMedia := 0, 0
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	t0 := now()
	for i := range tr.Packets {
		pkt := &tr.Packets[i]
		if pkt.Proto == sim.ProtoSIP {
			parseSink, _ = sipmsg.Parse(pkt.Payload.([]byte))
			nSIP++
		}
	}
	parseWall := now() - t0
	runtime.ReadMemStats(&ms1)
	parseMallocs := ms1.Mallocs - ms0.Mallocs
	if nSIP > 0 {
		r.parseNs = float64(parseWall) / float64(nSIP)
		r.parseAllocs = float64(parseMallocs) / float64(nSIP)
	}

	// RTP header decode alone.
	var scratch rtp.Packet
	nRTP := 0
	t0 = now()
	for i := range tr.Packets {
		if pkt := &tr.Packets[i]; pkt.Proto == sim.ProtoRTP {
			_ = rtp.ParseInto(&scratch, pkt.Payload.([]byte))
			nRTP++
		}
	}
	if nRTP > 0 {
		r.rtpParseNs = float64(now()-t0) / float64(nRTP)
	}

	// Full sequential replay with per-step timing.
	cfg := ids.DefaultConfig()
	s := sim.New(1)
	d := ids.New(s, cfg)
	var sipSum, mediaSum int64
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	w0 := now()
	for i := range tr.Packets {
		pkt := &tr.Packets[i]
		_ = s.RunUntil(tr.At[i])
		if pkt.Proto == sim.ProtoSIP {
			m, err := sipmsg.Parse(pkt.Payload.([]byte))
			a := now()
			if err == nil {
				d.ProcessSIP(m, pkt)
			}
			sipSum += now() - a
		} else {
			a := now()
			d.Process(pkt)
			mediaSum += now() - a
			nMedia++
		}
		if i&1023 == 0 {
			r.activePeak = max(r.activePeak, d.ActiveCalls())
		}
	}
	r.activePeak = max(r.activePeak, d.ActiveCalls())
	_ = s.RunAll()
	wall := now() - w0
	runtime.ReadMemStats(&ms1)

	n := len(tr.Packets)
	if nSIP > 0 {
		r.sipNs = float64(sipSum) / float64(nSIP)
	}
	if nMedia > 0 {
		r.mediaNs = float64(mediaSum) / float64(nMedia)
	}
	r.allocsPer = float64(int64(ms1.Mallocs-ms0.Mallocs)-int64(parseMallocs)) / float64(n)
	r.wallNsPer = float64(wall) / float64(n)
	r.keys = map[workload.Key]int{}
	for _, a := range d.Alerts() {
		r.keys[workload.KeyOf(a)]++
	}
	return r
}
